//! Seeded input generators: synthetic graphs and key distributions.
//!
//! The paper evaluates on a 4M-vertex/40M-edge synthetic graph (PHI) and
//! the uk-2002 web crawl (HATS). We generate scaled stand-ins: uniform
//! random graphs for PHI, and *community-structured* graphs (planted
//! partition) for HATS, whose locality is exactly what bounded-DFS
//! traversal exploits. Key distributions (uniform and Zipfian) drive the
//! hash-table and decompression studies.
//!
//! Every input is a pure function of its seed, and the two kernels that
//! dominate set-up are written so they reproduce the plain algorithms'
//! output bit for bit:
//!
//! * [`Zipf`] keeps a guide table next to its CDF. With `n` indices and
//!   `bucket(x) = min(⌊x·n⌋, n)`, `guide[b]` is the first index `i` with
//!   `bucket(cdf[i]) ≥ b`. A draw `u` starts at `guide[bucket(u)]` and
//!   scans forward to the first `cdf[i] ≥ u`. `bucket` is monotone, so
//!   every index before the guide entry has `bucket(cdf[i]) < bucket(u)`
//!   and hence `cdf[i] < u`: the scan stops at the first index whose CDF
//!   value reaches `u`, which is where a binary search over the sorted
//!   CDF inserts `u`. Only an exact `cdf[i] == u` can tell the two apart
//!   (a binary search may return any of several equal values), and that
//!   case asks the binary search. There are as many buckets as indices,
//!   so the scans are short on average.
//! * [`Graph::from_edges`] counts each source's edges, places every edge
//!   into its row from the row's end (the row's offset is its cursor),
//!   then sorts and deduplicates each short row: the same rows a global
//!   sort and dedup of the `(source, destination)` pairs gives.

use crate::rng::SmallRng;

/// A directed graph in CSR (compressed sparse row) form: for each vertex,
/// the list of its out-neighbors.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Number of vertices.
    pub num_vertices: u32,
    /// CSR row offsets (`num_vertices + 1` entries).
    pub offsets: Vec<u32>,
    /// Flattened out-neighbor lists (`num_edges` entries).
    pub neighbors: Vec<u32>,
}

impl Graph {
    /// Number of edges.
    pub fn num_edges(&self) -> u32 {
        self.neighbors.len() as u32
    }

    /// Out-degree of vertex `v`.
    pub fn out_degree(&self, v: u32) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbors of vertex `v`.
    pub fn neighbors_of(&self, v: u32) -> &[u32] {
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        &self.neighbors[a..b]
    }

    /// Builds a CSR graph from an edge list: each row holds its
    /// source's distinct destinations in ascending order, exactly what
    /// sorting and deduplicating the `(source, destination)` pairs gives.
    ///
    /// # Panics
    /// Panics if an edge's source is not below `num_vertices`.
    pub fn from_edges(num_vertices: u32, edges: Vec<(u32, u32)>) -> Self {
        let nv = num_vertices as usize;
        // `offsets[s]` counts row `s`, then (prefix sums) marks its end, and
        // is the row's fill cursor: filling moves it down to the row start.
        let mut offsets = vec![0u32; nv + 1];
        let ends = &mut offsets[..nv];
        for &(s, _) in &edges {
            ends[s as usize] += 1;
        }
        let mut end = 0;
        for o in ends.iter_mut() {
            end += *o;
            *o = end;
        }
        offsets[nv] = end;
        let mut neighbors = vec![0u32; edges.len()];
        for &(s, d) in &edges {
            let cursor = &mut offsets[s as usize];
            *cursor -= 1;
            neighbors[*cursor as usize] = d;
        }
        drop(edges);
        // Sort each row and compact it down over the duplicates dropped
        // so far; `offsets[s]` becomes the compacted row start.
        let mut kept = 0;
        for s in 0..nv {
            let row = offsets[s] as usize..offsets[s + 1] as usize;
            neighbors[row.clone()].sort_unstable();
            offsets[s] = kept as u32;
            let row_start = kept;
            for i in row {
                let d = neighbors[i];
                if kept == row_start || neighbors[kept - 1] != d {
                    neighbors[kept] = d;
                    kept += 1;
                }
            }
        }
        offsets[nv] = kept as u32;
        neighbors.truncate(kept);
        neighbors.shrink_to_fit();
        Graph {
            num_vertices,
            offsets,
            neighbors,
        }
    }

    /// Uniform random directed graph with `num_vertices * avg_degree`
    /// edges (the PHI study's synthetic input).
    pub fn uniform(num_vertices: u32, avg_degree: u32, seed: u64) -> Self {
        assert!(num_vertices >= 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_edges = num_vertices as u64 * avg_degree as u64;
        let mut edges = Vec::with_capacity(n_edges as usize);
        for _ in 0..n_edges {
            let s = rng.gen_range(0..num_vertices);
            let mut d = rng.gen_range(0..num_vertices);
            if d == s {
                d = (d + 1) % num_vertices;
            }
            edges.push((s, d));
        }
        Self::from_edges(num_vertices, edges)
    }

    /// Uniform sources with Zipf-skewed destinations: the in-degree
    /// distribution is power-law, like real scatter-update workloads
    /// (PageRank on web/social graphs). Hot destinations are what gives
    /// PHI's write-combining cache its reuse.
    pub fn skewed(num_vertices: u32, avg_degree: u32, theta: f64, seed: u64) -> Self {
        assert!(num_vertices >= 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut zipf = Zipf::new(num_vertices as u64, theta, seed ^ 0x5eed);
        let n_edges = num_vertices as u64 * avg_degree as u64;
        let mut edges = Vec::with_capacity(n_edges as usize);
        // Random permutation so hot vertices are scattered in the id space
        // (no accidental spatial clustering of hot lines).
        let mut perm: Vec<u32> = (0..num_vertices).collect();
        rng.shuffle(&mut perm);
        for _ in 0..n_edges {
            let s = rng.gen_range(0..num_vertices);
            let mut d = perm[zipf.sample() as usize];
            if d == s {
                d = (d + 1) % num_vertices;
            }
            edges.push((s, d));
        }
        // The sampler and permutation are not needed for the CSR build.
        drop((zipf, perm));
        Self::from_edges(num_vertices, edges)
    }

    /// Community-structured graph (planted partition): vertices are split
    /// into communities of `community_size`; each edge stays inside its
    /// source's community with probability `intra_pct`/100. The HATS
    /// study's stand-in for uk-2002's strong community structure.
    pub fn community(
        num_vertices: u32,
        avg_degree: u32,
        community_size: u32,
        intra_pct: u32,
        seed: u64,
    ) -> Self {
        assert!(community_size >= 2 && num_vertices >= community_size);
        assert!(intra_pct <= 100);
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_edges = num_vertices as u64 * avg_degree as u64;
        let mut edges = Vec::with_capacity(n_edges as usize);
        for _ in 0..n_edges {
            let s = rng.gen_range(0..num_vertices);
            let comm = s / community_size * community_size;
            let comm_end = (comm + community_size).min(num_vertices);
            let d = if rng.gen_range(0..100) < intra_pct {
                let mut d = rng.gen_range(comm..comm_end);
                if d == s {
                    d = comm + (d - comm + 1) % (comm_end - comm);
                }
                d
            } else {
                let mut d = rng.gen_range(0..num_vertices);
                if d == s {
                    d = (d + 1) % num_vertices;
                }
                d
            };
            edges.push((s, d));
        }
        Self::from_edges(num_vertices, edges)
    }

    /// Fraction of edges whose endpoints share a community (diagnostics).
    pub fn intra_community_fraction(&self, community_size: u32) -> f64 {
        let mut intra = 0u64;
        let mut total = 0u64;
        for s in 0..self.num_vertices {
            for &d in self.neighbors_of(s) {
                total += 1;
                if s / community_size == d / community_size {
                    intra += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            intra as f64 / total as f64
        }
    }
}

/// A Zipfian sampler over `0..n` with parameter `theta` (θ→0 is uniform,
/// θ≈0.99 matches the paper's web-caching-style skew \[17\]).
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative probabilities; the last is exactly 1.0.
    cdf: Vec<f64>,
    /// `guide[b]` is the first index whose CDF value lies in bucket `b`
    /// or a later one (see the module doc).
    guide: Vec<u32>,
    rng: SmallRng,
}

impl Zipf {
    /// Builds a sampler for `0..n`.
    ///
    /// # Panics
    /// Panics if `n` is 0 or above `u32::MAX`, or if `theta` is negative
    /// or not finite.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(
            n > 0 && n <= u32::MAX as u64,
            "Zipf: n = {n} must be in 1..={}",
            u32::MAX
        );
        assert!(
            theta.is_finite() && theta >= 0.0,
            "Zipf: theta = {theta} must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for i in 1..=n {
            total += 1.0 / (i as f64).powf(theta);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        let buckets = cdf.len();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut i = 0;
        for b in 0..=buckets {
            while i < cdf.len() && bucket(cdf[i], buckets) < b {
                i += 1;
            }
            guide.push(i as u32);
        }
        Zipf {
            cdf,
            guide,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws the next sample.
    pub fn sample(&mut self) -> u64 {
        let u = self.rng.gen_f64();
        self.index(u)
    }

    /// The sample a uniform draw `u` maps to: the first index whose CDF
    /// value reaches `u` (the last index if none does), found by a forward
    /// scan from `u`'s guide entry.
    fn index(&self, u: f64) -> u64 {
        let n = self.cdf.len();
        let mut i = self.guide[bucket(u, n)] as usize;
        while i < n && self.cdf[i] < u {
            i += 1;
        }
        if i < n && self.cdf[i] == u {
            // A tie: several equal CDF values may match, so answer as the
            // binary search always has.
            return self
                .cdf
                .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN"))
                .expect("u is in the CDF") as u64;
        }
        i.min(n - 1) as u64
    }
}

/// The guide bucket of `x ∈ [0, 1]` among `n`: `min(⌊x·n⌋, n)`, monotone
/// in `x`.
#[inline]
fn bucket(x: f64, n: usize) -> usize {
    ((x * n as f64) as usize).min(n)
}

/// Host-side golden model of one push-PageRank iteration over `graph`:
/// every vertex scatters `INIT_RANK / deg` to its out-neighbors, then
/// each accumulated mass folds as `((mass * 217) >> 8) + (1 << 12)` in
/// fixed point. Returns the wrapping sum of the final rank vector.
///
/// Both graph workloads (PHI's push scatter and HATS's pull traversal)
/// compute this same iteration, so both validate against this one model
/// (re-exported as `phi::golden_checksum` / `hats::golden_checksum`).
pub fn pagerank_checksum(graph: &Graph) -> u64 {
    let nv = graph.num_vertices as usize;
    let mut rnext = vec![0u64; nv];
    for u in 0..graph.num_vertices {
        let deg = graph.out_degree(u) as u64;
        if deg == 0 {
            continue;
        }
        let contrib = crate::phi::INIT_RANK / deg;
        for &v in graph.neighbors_of(u) {
            rnext[v as usize] = rnext[v as usize].wrapping_add(contrib);
        }
    }
    let mut checksum = 0u64;
    for &nx in &rnext {
        let r = ((nx.wrapping_mul(217)) >> 8).wrapping_add(1 << 12);
        checksum = checksum.wrapping_add(r);
    }
    checksum
}

/// A uniform sampler over `0..n`.
#[derive(Clone, Debug)]
pub struct Uniform {
    n: u64,
    rng: SmallRng,
}

impl Uniform {
    /// Builds a sampler for `0..n`.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0);
        Uniform {
            n,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws the next sample.
    pub fn sample(&mut self) -> u64 {
        self.rng.gen_range(0..self.n)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::Hasher;

    use levi_isa::fx::FxHasher;

    use super::*;
    use crate::decompress::{DecompressInput, DecompressScale};

    #[test]
    fn uniform_graph_shape() {
        let g = Graph::uniform(100, 8, 1);
        assert_eq!(g.num_vertices, 100);
        // Dedup may drop a few; expect close to 800.
        assert!(g.num_edges() > 700, "{} edges", g.num_edges());
        assert_eq!(g.offsets.len(), 101);
        assert_eq!(*g.offsets.last().unwrap(), g.num_edges());
        for v in 0..100 {
            for &d in g.neighbors_of(v) {
                assert!(d < 100);
                assert_ne!(d, v, "no self loops");
            }
        }
    }

    #[test]
    fn community_graph_is_clustered() {
        let g = Graph::community(1000, 8, 50, 90, 7);
        let frac = g.intra_community_fraction(50);
        assert!(frac > 0.8, "intra-community fraction {frac}");
        let g_uni = Graph::uniform(1000, 8, 7);
        let frac_uni = g_uni.intra_community_fraction(50);
        assert!(frac_uni < 0.2, "uniform graph is unclustered: {frac_uni}");
    }

    #[test]
    fn graphs_are_deterministic() {
        let a = Graph::uniform(500, 4, 42);
        let b = Graph::uniform(500, 4, 42);
        assert_eq!(a.neighbors, b.neighbors);
        let c = Graph::uniform(500, 4, 43);
        assert_ne!(a.neighbors, c.neighbors);
    }

    #[test]
    fn zipf_skews_toward_low_indices() {
        let mut z = Zipf::new(1000, 0.99, 3);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.sample() as usize] += 1;
        }
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[990..].iter().sum();
        assert!(
            head > 20 * tail.max(1),
            "head {head} should dominate tail {tail}"
        );
    }

    #[test]
    fn uniform_sampler_covers_range() {
        let mut u = Uniform::new(16, 5);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            seen[u.sample() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The lookup `Zipf::index` replaced: a binary search over the CDF.
    fn binary_search_index(cdf: &[f64], u: f64) -> u64 {
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("no NaN")) {
            Ok(i) => i as u64,
            Err(i) => (i as u64).min(cdf.len() as u64 - 1),
        }
    }

    #[test]
    fn zipf_index_matches_binary_search() {
        // (n, θ): PHI paper and test scale, decompress paper and test
        // scale, θ = 0, and a steep θ whose CDF has runs of equal values.
        let shapes = [
            (64 * 1024, 0.75),
            (4096, 0.75),
            (16 * 1024, 0.99),
            (2048, 0.99),
            (100, 0.0),
            (4096, 0.0),
            (1000, 8.0),
        ];
        for (n, theta) in shapes {
            let z = Zipf::new(n, theta, 1);
            let check = |u: f64| {
                assert_eq!(
                    z.index(u),
                    binary_search_index(&z.cdf, u),
                    "n {n}, theta {theta}, u {u:e}"
                );
            };
            check(0.0);
            for &c in &z.cdf {
                check(c);
                check(c.next_up());
                check(c.next_down());
            }
            let mut rng = SmallRng::seed_from_u64(n ^ theta.to_bits());
            for _ in 0..20_000 {
                check(rng.gen_f64());
            }
        }
    }

    /// The build `Graph::from_edges` replaced: sort and dedup the pairs.
    fn sorted_csr(num_vertices: u32, mut edges: Vec<(u32, u32)>) -> (Vec<u32>, Vec<u32>) {
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0u32; num_vertices as usize + 1];
        for &(s, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..num_vertices as usize {
            offsets[i + 1] += offsets[i];
        }
        (offsets, edges.iter().map(|&(_, d)| d).collect())
    }

    #[test]
    fn from_edges_matches_sort_and_dedup() {
        let mut rng = SmallRng::seed_from_u64(0xC5);
        // (vertices, edges, distinct destinations)
        let shapes = [
            (1u32, 3, 1),
            (2, 0, 2),
            (2, 9, 2),
            (7, 40, 1),
            (64, 500, 5),
            (1000, 6000, 1000),
        ];
        for (n, m, dests) in shapes {
            // Sources from the lower half only (the upper half stays
            // isolated) and few distinct destinations (duplicates within
            // rows, equal values across rows), plus edges at both ends of
            // the id range.
            let mut edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n.div_ceil(2)), rng.gen_range(0..dests)))
                .collect();
            edges.extend([(0, n - 1), (n - 1, 0), (n - 1, n - 1), (0, n - 1), (0, 0)]);
            let (offsets, neighbors) = sorted_csr(n, edges.clone());
            let g = Graph::from_edges(n, edges);
            assert_eq!(g.offsets, offsets, "offsets, n {n}, m {m}");
            assert_eq!(g.neighbors, neighbors, "neighbors, n {n}, m {m}");
        }
    }

    #[test]
    #[should_panic(expected = "theta = NaN")]
    fn zipf_rejects_nan_theta() {
        Zipf::new(10, f64::NAN, 1);
    }

    #[test]
    #[should_panic(expected = "theta = -0.5")]
    fn zipf_rejects_negative_theta() {
        Zipf::new(10, -0.5, 1);
    }

    #[test]
    #[should_panic(expected = "n = 4294967296")]
    fn zipf_rejects_n_beyond_u32() {
        Zipf::new(u32::MAX as u64 + 1, 0.5, 1);
    }

    fn graph_digest(g: &Graph) -> u64 {
        let mut h = FxHasher::default();
        h.write_u32(g.num_vertices);
        h.write_usize(g.offsets.len());
        g.offsets.iter().for_each(|&o| h.write_u32(o));
        h.write_usize(g.neighbors.len());
        g.neighbors.iter().for_each(|&d| h.write_u32(d));
        h.finish()
    }

    // The three pins below hold the paper-scale inputs, whose generator
    // parameters (vertex counts, degrees, Zipf n and θ) no test-scale
    // golden exercises. They were recorded with the binary-search Zipf
    // lookup and the sort-and-dedup CSR build.

    #[test]
    fn phi_paper_graph_is_pinned() {
        let g = crate::phi::phi_graph(&crate::phi::PhiScale::paper());
        assert_eq!(g.num_edges(), 653_084);
        assert_eq!(graph_digest(&g), 0x33a3_2282_260d_5db4);
    }

    #[test]
    fn hats_paper_graph_is_pinned() {
        let s = crate::hats::HatsScale::paper();
        let g = Graph::community(s.vertices, s.avg_degree, s.community, s.intra_pct, s.seed);
        assert_eq!(g.num_edges(), 255_539);
        assert_eq!(graph_digest(&g), 0xaae3_423c_c8fc_6712);
    }

    #[test]
    fn decompress_paper_input_is_pinned() {
        let input = DecompressInput::new(&DecompressScale::paper());
        let mut h = FxHasher::default();
        for c in 0..3 {
            h.write_usize(input.bases[c].len());
            input.bases[c].iter().for_each(|&b| h.write_u16(b));
            h.write_usize(input.deltas[c].len());
            input.deltas[c].iter().for_each(|&d| h.write_u8(d));
        }
        assert_eq!(h.finish(), 0x28e1_64b7_5c26_496e, "compressed data");
        let mut h = FxHasher::default();
        h.write_usize(input.indices.len());
        input.indices.iter().for_each(|&i| h.write_u32(i));
        assert_eq!(h.finish(), 0x2e03_0f15_3214_fd97, "access stream");
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut z = Zipf::new(100, 0.0, 9);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample() as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max < min * 2, "θ=0 should be near-uniform ({min}..{max})");
    }
}
