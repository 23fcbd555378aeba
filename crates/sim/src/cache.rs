//! Set-associative cache banks.
//!
//! One [`CacheBank`] models one cache: a private L1 or L2, one shared LLC
//! bank, or an engine L1d. Banks are *tag-only* — functional data lives in
//! the flat [`levi_isa::PagedMem`] — so a bank tracks presence, dirtiness,
//! replacement state, coherence metadata (for the LLC's in-tag directory),
//! and Leviathan's per-line destructor-trigger bit (paper Sec. VI-B2).
//!
//! # Data layout
//!
//! Storage is a single flat slab indexed by `set * ways + way`, split into
//! parallel arrays: `tags` (the probe loop's scan target), `rrip`/`lru`
//! (the victim scan's targets), and `lines` (the coherence payload). A
//! per-set occupancy count emulates the previous `Vec<Vec<Line>>` design's
//! push/`swap_remove` discipline exactly, so way ordering — which SRRIP's
//! first-match victim scan observes — is bit-for-bit identical to the
//! nested-Vec implementation, and snapshots stay byte-identical.

use levi_isa::codec::{Codec, CodecError, Reader, Writer};

use crate::config::{CacheConfig, Replacement, LINE_SHIFT};

/// Coherence state of a line in a *private* cache (MESI reduced to the two
/// states that matter for our timing: exclusive-ownership vs shared).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrivState {
    /// Shared, read-only.
    Shared,
    /// Modified/exclusive: this tile owns the line.
    Owned,
}

/// Metadata for one resident cache line.
///
/// Replacement state (SRRIP counter, LRU timestamp) lives in the bank's
/// parallel metadata arrays, not here, so victim scans touch contiguous
/// memory.
#[derive(Clone, Copy, Debug)]
pub struct Line {
    /// Line address (byte address >> 6).
    pub line: u64,
    /// Dirty (must be written back on eviction).
    pub dirty: bool,
    /// Leviathan tag bit: run the Morph destructor when this line is
    /// evicted.
    pub dtor: bool,
    /// Coherence state (meaningful in private caches).
    pub state: PrivState,
    /// Directory: bitmask of tiles with a private copy (LLC banks only).
    pub sharers: u64,
    /// Directory: tile that owns the line exclusively (LLC banks only).
    pub owner: Option<u8>,
    /// Tenant that demand-filled the line ([`crate::xlat`]; LLC banks
    /// under way-partitioning only — 0 everywhere else).
    pub tenant: u8,
}

impl Line {
    fn new(line: u64) -> Self {
        Line {
            line,
            dirty: false,
            dtor: false,
            state: PrivState::Shared,
            sharers: 0,
            owner: None,
            tenant: 0,
        }
    }
}

/// One set-associative, tag-only cache bank (flat slab storage; see the
/// module docs for the layout).
///
/// Per-set occupancy (`len`) is the *only* liveness source: every scan is
/// bounded by it, so dead slots hold stale values and are never read.
/// That keeps construction cheap — `tags` starts as an all-zero
/// allocation (fresh zero pages, no sentinel memset) and eviction never
/// writes a tombstone.
#[derive(Clone, Debug)]
pub struct CacheBank {
    /// Line address per slot (`set * ways + way`); stale when dead.
    tags: Vec<u64>,
    /// SRRIP re-reference counter per slot (0 = near, 3 = distant).
    rrip: Vec<u8>,
    /// LRU timestamp per slot.
    lru: Vec<u64>,
    /// Coherence payload per slot.
    lines: Vec<Line>,
    /// Occupied ways per set (slots `[set*ways, set*ways+len)` are live).
    len: Vec<u16>,
    ways: usize,
    set_mask: u64,
    replacement: Replacement,
    tick: u64,
}

impl CacheBank {
    /// Builds a bank from a [`CacheConfig`].
    ///
    /// # Panics
    /// Panics if the implied set count is not a power of two.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let slots = sets as usize * cfg.ways as usize;
        CacheBank {
            tags: vec![0; slots],
            rrip: vec![0; slots],
            lru: vec![0; slots],
            lines: vec![Line::new(0); slots],
            len: vec![0; sets as usize],
            ways: cfg.ways as usize,
            set_mask: sets - 1,
            replacement: cfg.replacement,
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Converts a byte address to its line address.
    #[inline]
    pub fn line_of(addr: u64) -> u64 {
        addr >> LINE_SHIFT
    }

    /// Slot index of `line` if resident (scans the set's live tags).
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.ways;
        let n = self.len[set] as usize;
        self.tags[base..base + n]
            .iter()
            .position(|&t| t == line)
            .map(|w| base + w)
    }

    /// Looks up `line`; on a hit, updates replacement state and returns the
    /// line's metadata.
    pub fn probe(&mut self, line: u64) -> Option<&mut Line> {
        self.tick += 1;
        let slot = self.find(line)?;
        self.lru[slot] = self.tick;
        self.rrip[slot] = 0;
        Some(&mut self.lines[slot])
    }

    /// Looks up `line` without touching replacement state.
    pub fn peek(&self, line: u64) -> Option<&Line> {
        self.find(line).map(|slot| &self.lines[slot])
    }

    /// Mutable peek without touching replacement state.
    pub fn peek_mut(&mut self, line: u64) -> Option<&mut Line> {
        self.find(line).map(|slot| &mut self.lines[slot])
    }

    /// True if `line` is resident.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Removes the line at `slot`, moving the set's last live slot into its
    /// place (the flat equivalent of `Vec::swap_remove`, preserving the
    /// way-order the old nested-Vec layout produced).
    fn swap_remove(&mut self, set: usize, slot: usize) -> Line {
        let last = set * self.ways + self.len[set] as usize - 1;
        let victim = self.lines[slot];
        if slot != last {
            self.tags[slot] = self.tags[last];
            self.rrip[slot] = self.rrip[last];
            self.lru[slot] = self.lru[last];
            self.lines[slot] = self.lines[last];
        }
        self.len[set] -= 1;
        victim
    }

    /// Inserts `line`, evicting a victim if the set is full. Returns the
    /// victim's metadata, if any. The caller configures the inserted line
    /// through the returned reference.
    ///
    /// `pinned` lists lines that must not be chosen as victims — the
    /// in-flight fills of the surrounding walk (the MSHR/line-buffer
    /// protection real hardware provides).
    ///
    /// # Panics
    /// Panics if the line is already resident (callers must probe first),
    /// or if every way of the set is pinned.
    pub fn insert(&mut self, line: u64, pinned: &[u64]) -> (&mut Line, Option<Line>) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let base = set * self.ways;
        debug_assert!(
            self.find(line).is_none(),
            "inserting already-resident line {line:#x}"
        );
        let victim = if self.len[set] as usize >= self.ways {
            let vi = self.pick_victim(set, pinned);
            Some(self.swap_remove(set, base + vi))
        } else {
            None
        };
        let slot = base + self.len[set] as usize;
        self.tags[slot] = line;
        self.rrip[slot] = 2;
        self.lru[slot] = tick;
        self.lines[slot] = Line::new(line);
        self.len[set] += 1;
        (&mut self.lines[slot], victim)
    }

    /// Way-partitioned insert ([`crate::xlat::TenantPolicy::LlcWayPartition`]):
    /// like [`CacheBank::insert`], but when the set is full the victim is
    /// drawn from the inserting tenant's own lines once it holds `quota`
    /// ways, and from over-quota tenants' lines otherwise — so a tenant's
    /// demand fills can never squeeze a co-runner below its share. Falls
    /// back to the unpartitioned scan only when pinning leaves no eligible
    /// candidate.
    pub fn insert_for_tenant(
        &mut self,
        line: u64,
        pinned: &[u64],
        tenant: u8,
        quota: u32,
    ) -> (&mut Line, Option<Line>) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let base = set * self.ways;
        debug_assert!(
            self.find(line).is_none(),
            "inserting already-resident line {line:#x}"
        );
        let victim = if self.len[set] as usize >= self.ways {
            let vi = self.pick_victim_for_tenant(set, pinned, tenant, quota);
            Some(self.swap_remove(set, base + vi))
        } else {
            None
        };
        let slot = base + self.len[set] as usize;
        self.tags[slot] = line;
        self.rrip[slot] = 2;
        self.lru[slot] = tick;
        let mut l = Line::new(line);
        l.tenant = tenant;
        self.lines[slot] = l;
        self.len[set] += 1;
        (&mut self.lines[slot], victim)
    }

    /// Victim way for a way-partitioned fill (see
    /// [`CacheBank::insert_for_tenant`]).
    fn pick_victim_for_tenant(
        &mut self,
        set: usize,
        pinned: &[u64],
        tenant: u8,
        quota: u32,
    ) -> usize {
        let base = set * self.ways;
        let n = self.len[set] as usize;
        let mut occ = [0u32; 8];
        for w in 0..n {
            occ[(self.lines[base + w].tenant & 7) as usize] += 1;
        }
        let vi = if occ[(tenant & 7) as usize] >= quota {
            // At (or over) quota: recycle our own ways.
            self.pick_victim_where(set, pinned, |l| l.tenant == tenant)
        } else {
            // Under quota in a full set: someone else is over theirs.
            self.pick_victim_where(set, pinned, |l| occ[(l.tenant & 7) as usize] > quota)
        };
        vi.unwrap_or_else(|| self.pick_victim(set, pinned))
    }

    /// Replacement-policy victim scan restricted to candidate lines;
    /// `None` when pinning (or the filter) leaves no eligible way.
    fn pick_victim_where(
        &mut self,
        set: usize,
        pinned: &[u64],
        cand: impl Fn(&Line) -> bool,
    ) -> Option<usize> {
        let base = set * self.ways;
        let n = self.len[set] as usize;
        let eligible =
            |w: usize, b: &Self| cand(&b.lines[base + w]) && !pinned.contains(&b.tags[base + w]);
        if !(0..n).any(|w| eligible(w, self)) {
            return None;
        }
        match self.replacement {
            Replacement::Lru => {
                let mut vi = None;
                for w in 0..n {
                    if !eligible(w, self) {
                        continue;
                    }
                    match vi {
                        None => vi = Some(w),
                        Some(j) if self.lru[base + w] < self.lru[base + j] => vi = Some(w),
                        _ => {}
                    }
                }
                vi
            }
            Replacement::Srrip => loop {
                if let Some(w) = (0..n).find(|&w| self.rrip[base + w] >= 3 && eligible(w, self)) {
                    return Some(w);
                }
                for r in &mut self.rrip[base..base + n] {
                    *r += 1;
                }
            },
        }
    }

    /// Picks a victim *way* in `set` (the caller removes it).
    fn pick_victim(&mut self, set: usize, pinned: &[u64]) -> usize {
        let base = set * self.ways;
        let n = self.len[set] as usize;
        match self.replacement {
            Replacement::Lru => {
                let mut vi = None;
                for w in 0..n {
                    if pinned.contains(&self.tags[base + w]) {
                        continue;
                    }
                    match vi {
                        None => vi = Some(w),
                        Some(j) if self.lru[base + w] < self.lru[base + j] => vi = Some(w),
                        _ => {}
                    }
                }
                vi.expect("every way of the set is pinned")
            }
            Replacement::Srrip => {
                // Find a distant (rrip==3) unpinned line, aging the set
                // until one exists. Bounded: each pass increments every
                // counter; pinned lines must not fill the whole set.
                assert!(
                    self.tags[base..base + n]
                        .iter()
                        .any(|t| !pinned.contains(t)),
                    "every way of the set is pinned"
                );
                loop {
                    if let Some(w) = (0..n).find(|&w| {
                        self.rrip[base + w] >= 3 && !pinned.contains(&self.tags[base + w])
                    }) {
                        return w;
                    }
                    for r in &mut self.rrip[base..base + n] {
                        *r += 1;
                    }
                }
            }
        }
    }

    /// Removes `line` if resident, returning its metadata.
    pub fn invalidate(&mut self, line: u64) -> Option<Line> {
        let slot = self.find(line)?;
        Some(self.swap_remove(self.set_of(line), slot))
    }

    /// Removes and returns every resident line whose *byte* range overlaps
    /// `[base, bound)`. Used by `flush`.
    pub fn drain_range(&mut self, base: u64, bound: u64) -> Vec<Line> {
        let mut out = Vec::new();
        self.drain_range_into(base, bound, &mut out);
        out
    }

    /// Arena-reuse variant of [`CacheBank::drain_range`]: clears `out` and
    /// fills it with the drained lines, sorted by line address. Hot flush
    /// paths pass a scratch buffer owned by `Hw` to avoid a fresh
    /// allocation per call.
    pub fn drain_range_into(&mut self, base: u64, bound: u64, out: &mut Vec<Line>) {
        crate::perf::prof_scope!(crate::perf::Phase::Flush);
        let first = base >> LINE_SHIFT;
        let last = (bound + (1 << LINE_SHIFT) - 1) >> LINE_SHIFT;
        out.clear();
        for set in 0..self.len.len() {
            let slab = set * self.ways;
            let mut i = 0;
            while i < self.len[set] as usize {
                let t = self.tags[slab + i];
                if t >= first && t < last {
                    out.push(self.swap_remove(set, slab + i));
                } else {
                    i += 1;
                }
            }
        }
        out.sort_by_key(|l| l.line);
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }

    /// Iterates over all resident lines (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Line> {
        let ways = self.ways;
        self.len.iter().enumerate().flat_map(move |(set, &n)| {
            let base = set * ways;
            self.lines[base..base + n as usize].iter()
        })
    }
}

levi_isa::codec_enum!(PrivState "coherence state" { 0 => Shared, 1 => Owned });
levi_isa::codec_struct!(Line {
    line,
    dirty,
    dtor,
    state,
    sharers,
    owner,
    tenant,
});
// Geometry (set count, ways, replacement policy) comes from the config at
// restore time and is validated, not serialized.
levi_isa::codec_struct! {
    in_place CacheBank { tick, lines(len, rrip, lru, tags): Sets(*ways) }
    kept { ways, set_mask, replacement }
}

/// The bank's slab as its sets: a `u32` set count, then per set its
/// occupancy and its live lines in way order, each followed by its SRRIP
/// counter and LRU stamp. This is the byte format of the pre-flat
/// nested-`Vec` layout. The field is the bank's way count.
struct Sets(usize);

/// The slab arrays [`Sets`] walks: lines, per-set occupancy, SRRIP
/// counters, LRU stamps and tags.
type Slab<'a> = (&'a [Line], &'a [u16], &'a [u8], &'a [u64], &'a [u64]);
type SlabMut<'a> = (
    &'a mut [Line],
    &'a mut [u16],
    &'a mut [u8],
    &'a mut [u64],
    &'a mut [u64],
);

impl Sets {
    fn save(&self, (lines, len, rrip, lru, _): Slab, w: &mut Writer) {
        w.u32(len.len() as u32);
        for (set, &n) in len.iter().enumerate() {
            w.u32(n as u32);
            for slot in set * self.0..set * self.0 + n as usize {
                lines[slot].put(w);
                rrip[slot].put(w);
                lru[slot].put(w);
            }
        }
    }

    fn restore(
        &self,
        (lines, len, rrip, lru, tags): SlabMut,
        r: &mut Reader,
    ) -> Result<(), CodecError> {
        if r.u32()? as usize != len.len() {
            return Err(CodecError::Invalid("cache set count"));
        }
        for (set, len) in len.iter_mut().enumerate() {
            let n = r.count(12)?;
            if n > self.0 {
                return Err(CodecError::Invalid("cache set occupancy"));
            }
            *len = n as u16;
            for slot in set * self.0..set * self.0 + n {
                lines[slot] = Line::get(r)?;
                rrip[slot] = u8::get(r)?;
                lru[slot] = u64::get(r)?;
                tags[slot] = lines[slot].line;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: u32, repl: Replacement) -> CacheBank {
        // 4 sets x `ways` ways of 64B lines.
        CacheBank::new(&CacheConfig {
            size_bytes: 4 * ways as u64 * 64,
            ways,
            latency: 1,
            replacement: repl,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny(2, Replacement::Lru);
        let (l, v) = c.insert(0x40, &[]);
        assert!(v.is_none());
        l.dirty = true;
        assert!(c.contains(0x40));
        assert!(c.probe(0x40).unwrap().dirty);
        assert!(!c.contains(0x41));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, Replacement::Lru);
        // Lines 0x0, 0x4, 0x8 all map to set 0 (4 sets).
        c.insert(0x0, &[]);
        c.insert(0x4, &[]);
        c.probe(0x0); // refresh 0x0 so 0x4 is LRU
        let (_, victim) = c.insert(0x8, &[]);
        assert_eq!(victim.unwrap().line, 0x4);
        assert!(c.contains(0x0));
        assert!(c.contains(0x8));
    }

    #[test]
    fn srrip_prefers_unreused_lines() {
        let mut c = tiny(2, Replacement::Srrip);
        c.insert(0x0, &[]);
        c.insert(0x4, &[]);
        c.probe(0x0); // promote to near
        let (_, victim) = c.insert(0x8, &[]);
        assert_eq!(victim.unwrap().line, 0x4, "unreused line evicted first");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(0x40, &[]);
        let gone = c.invalidate(0x40);
        assert_eq!(gone.unwrap().line, 0x40);
        assert!(!c.contains(0x40));
        assert!(c.invalidate(0x40).is_none());
    }

    #[test]
    fn drain_range_collects_overlapping_lines() {
        let mut c = tiny(4, Replacement::Lru);
        // Byte addresses: lines 1,2,3 cover [0x40, 0x100).
        c.insert(1, &[]);
        c.insert(2, &[]);
        c.insert(3, &[]);
        c.insert(9, &[]);
        let drained = c.drain_range(0x40, 0xC1); // bytes 0x40..0xC1 -> lines 1..=3
        let lines: Vec<u64> = drained.iter().map(|l| l.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
        assert!(c.contains(9));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn sets_are_isolated() {
        let mut c = tiny(1, Replacement::Lru);
        // 4 sets, 1 way: lines 0..4 each land in their own set.
        for line in 0..4 {
            let (_, v) = c.insert(line, &[]);
            assert!(v.is_none(), "no conflict across sets");
        }
        assert_eq!(c.resident(), 4);
        // A fifth line aliasing set 0 evicts line 0.
        let (_, v) = c.insert(4, &[]);
        assert_eq!(v.unwrap().line, 0);
    }

    #[test]
    fn directory_fields_default_empty() {
        let mut c = tiny(1, Replacement::Lru);
        let (l, _) = c.insert(7, &[]);
        assert_eq!(l.sharers, 0);
        assert_eq!(l.owner, None);
        assert!(!l.dtor);
        l.sharers |= 1 << 3;
        l.owner = Some(3);
        assert_eq!(c.peek(7).unwrap().owner, Some(3));
    }

    #[test]
    fn way_partitioned_insert_respects_quota() {
        let mut c = tiny(4, Replacement::Lru);
        // 4 sets x 4 ways: lines 0,4,8,12,16,... all map to set 0.
        // Tenant 0 fills the whole set; its quota is 2.
        for l in [0u64, 4, 8, 12] {
            let (_, v) = c.insert_for_tenant(l, &[], 0, 2);
            assert!(v.is_none());
        }
        // Tenant 1, under its quota, evicts from the over-quota tenant.
        let (_, v) = c.insert_for_tenant(16, &[], 1, 2);
        assert_eq!(v.unwrap().tenant, 0);
        let (_, v) = c.insert_for_tenant(20, &[], 1, 2);
        assert_eq!(v.unwrap().tenant, 0);
        // Both tenants now hold exactly 2 ways: a tenant at quota
        // recycles its own lines, never the co-runner's.
        let (_, v) = c.insert_for_tenant(24, &[], 1, 2);
        assert_eq!(v.unwrap().tenant, 1);
        let (_, v) = c.insert_for_tenant(28, &[], 0, 2);
        assert_eq!(v.unwrap().tenant, 0);
    }

    #[test]
    fn drain_range_into_reuses_buffer() {
        let mut c = tiny(4, Replacement::Lru);
        c.insert(1, &[]);
        c.insert(2, &[]);
        let mut buf = vec![Line::new(99)]; // stale content must be cleared
        c.drain_range_into(0x40, 0xC0, &mut buf);
        let lines: Vec<u64> = buf.iter().map(|l| l.line).collect();
        assert_eq!(lines, vec![1, 2]);
        assert_eq!(c.resident(), 0);
    }
}
