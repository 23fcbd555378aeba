//! DRAM controllers, the per-controller FIFO line cache, and Leviathan's
//! cache↔DRAM address translation (object compaction, paper Sec. VI-A3).
//!
//! DRAM is modeled as fixed access latency plus a per-controller bandwidth
//! (service-rate) limit. Leviathan stores objects *padded* in the cache but
//! *compacted* in DRAM; the [`Translator`] implements the address
//! computation of Fig. 14, and the FIFO cache absorbs the extra accesses
//! when consecutive cache lines map into one DRAM line.

use levi_isa::codec::{put_seq, Codec, CodecError, Fixed, Reader, Writer};

use crate::config::{MemConfig, LINE_SHIFT, LINE_SIZE};
use crate::fault::DramFault;
use crate::stats::Stats;
use crate::trace::{TraceEvent, TraceKind, Track};

/// One entry of the LLC translation buffer (25 B each in Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationEntry {
    /// First cache (padded) address of the region.
    pub cache_base: u64,
    /// One past the last cache address of the region.
    pub cache_bound: u64,
    /// First DRAM (compacted) address of the region.
    pub dram_base: u64,
    /// Padded object size as seen by the cache.
    pub padded_size: u64,
    /// Compacted object size as stored in DRAM.
    pub packed_size: u64,
}

impl TranslationEntry {
    /// Translates a single byte address from cache space to DRAM space.
    /// Padding bytes (beyond `packed_size` within an object) have no DRAM
    /// backing and return `None`.
    pub fn translate(&self, addr: u64) -> Option<u64> {
        debug_assert!(addr >= self.cache_base && addr < self.cache_bound);
        let rel = addr - self.cache_base;
        let idx = rel / self.padded_size;
        let off = rel % self.padded_size;
        if off < self.packed_size {
            Some(self.dram_base + idx * self.packed_size + off)
        } else {
            None
        }
    }
}

/// The translation table consulted on LLC misses and writebacks.
///
/// Addresses outside every registered region are identity-mapped (ordinary
/// data is stored uncompacted).
#[derive(Clone, Debug, Default)]
pub struct Translator {
    entries: Vec<TranslationEntry>,
}

impl Translator {
    /// Creates an empty (identity) translator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a compacted region.
    ///
    /// # Panics
    /// Panics if the region overlaps an existing one or has
    /// `packed_size > padded_size` or zero sizes.
    pub fn register(&mut self, entry: TranslationEntry) {
        assert!(entry.packed_size > 0 && entry.padded_size >= entry.packed_size);
        for e in &self.entries {
            assert!(
                entry.cache_bound <= e.cache_base || entry.cache_base >= e.cache_bound,
                "overlapping translation regions"
            );
        }
        self.entries.push(entry);
    }

    /// Removes the region starting at `cache_base`, if present.
    pub fn unregister(&mut self, cache_base: u64) {
        self.entries.retain(|e| e.cache_base != cache_base);
    }

    /// Number of registered regions (the hardware provisions 8; we allow
    /// more and report occupancy via this method).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn entry_for(&self, addr: u64) -> Option<&TranslationEntry> {
        self.entries
            .iter()
            .find(|e| addr >= e.cache_base && addr < e.cache_bound)
    }

    /// Returns the distinct DRAM *lines* that back the cache line
    /// containing `addr` — usually one; two when a compacted object range
    /// straddles a DRAM line boundary. Padding-only spans contribute
    /// nothing.
    pub fn dram_lines_for(&self, cache_line: u64) -> DramLines {
        let base = cache_line << LINE_SHIFT;
        match self.entry_for(base) {
            None => DramLines::one(cache_line),
            Some(e) => {
                let mut out = DramLines::empty();
                // Translate the first and last backed byte of each object
                // slice within the line (clamped to the region's bound —
                // the tail line may extend past it).
                let mut a = base;
                let end = (base + LINE_SIZE).min(e.cache_bound);
                while a < end {
                    let rel = a - e.cache_base;
                    let off = rel % e.padded_size;
                    let obj_left = e.padded_size - off;
                    let span = obj_left.min(end - a);
                    if off < e.packed_size {
                        let first = e.translate(a).expect("backed byte");
                        let last_backed = a + span.min(e.packed_size - off) - 1;
                        let last = e.translate(last_backed).expect("backed byte");
                        out.add(first >> LINE_SHIFT);
                        out.add(last >> LINE_SHIFT);
                    }
                    a += span;
                }
                if out.len == 0 {
                    // Entire line is padding; it still round-trips through
                    // the controller as a zero-fill, modeled as one line.
                    out.add(base >> LINE_SHIFT);
                }
                out
            }
        }
    }
}

/// Up to four distinct DRAM lines backing one cache line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramLines {
    lines: [u64; 4],
    len: usize,
}

impl DramLines {
    fn empty() -> Self {
        DramLines {
            lines: [0; 4],
            len: 0,
        }
    }

    fn one(line: u64) -> Self {
        DramLines {
            lines: [line, 0, 0, 0],
            len: 1,
        }
    }

    fn add(&mut self, line: u64) {
        if !self.as_slice().contains(&line) {
            assert!(self.len < 4, "cache line maps to >4 DRAM lines");
            self.lines[self.len] = line;
            self.len += 1;
        }
    }

    /// The DRAM lines as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.lines[..self.len]
    }
}

/// The DRAM subsystem: N controllers, each with fixed latency, a service
/// rate, and a small FIFO line cache.
///
/// Per-controller state is struct-of-arrays: `busy_until` is one flat
/// array, and the FIFO line caches live in a single flat slab
/// (`fifo_buf`) with per-controller occupancy counts, oldest entry first —
/// the hit check is a contiguous scan of at most `fifo_cache_lines`
/// words.
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: MemConfig,
    busy_until: Vec<u64>,
    /// FIFO line caches: controller `mc` owns
    /// `fifo_buf[mc*cap .. mc*cap + fifo_len[mc]]` (`cap` =
    /// `fifo_cache_lines`), oldest first.
    fifo_buf: Vec<u64>,
    fifo_len: Vec<u32>,
    /// Injected controller throttles, bucketed per controller in CSR form:
    /// controller `mc`'s faults are
    /// `fault_entries[fault_start[mc]..fault_start[mc+1]]` (empty unless a
    /// fault plan installed some).
    fault_start: Vec<u32>,
    fault_entries: Vec<DramFault>,
}

impl Dram {
    /// Creates the DRAM subsystem.
    pub fn new(cfg: MemConfig) -> Self {
        let mcs = cfg.controllers as usize;
        let cap = cfg.fifo_cache_lines as usize;
        Dram {
            busy_until: vec![0; mcs],
            fifo_buf: vec![0; mcs * cap],
            fifo_len: vec![0; mcs],
            fault_start: vec![0; mcs + 1],
            fault_entries: Vec::new(),
            cfg,
        }
    }

    /// Installs controller throttles from a fault plan, bucketed per
    /// controller. Faults naming controllers that don't exist are dropped
    /// (they could never fire).
    pub fn install_faults(&mut self, faults: Vec<DramFault>) {
        let mcs = self.busy_until.len();
        let mut entries = faults;
        entries.retain(|df| (df.controller as usize) < mcs);
        entries.sort_by_key(|df| df.controller);
        self.fault_start = vec![0; mcs + 1];
        for df in &entries {
            self.fault_start[df.controller as usize + 1] += 1;
        }
        for mc in 0..mcs {
            self.fault_start[mc + 1] += self.fault_start[mc];
        }
        self.fault_entries = entries;
    }

    #[inline]
    fn controller_of(&self, dram_line: u64) -> usize {
        (dram_line % self.cfg.controllers as u64) as usize
    }

    /// Accesses one DRAM line (read or writeback) at `now`; returns the
    /// completion time. FIFO-cache hits skip the DRAM access entirely.
    pub fn access_line(&mut self, dram_line: u64, now: u64, stats: &mut Stats) -> u64 {
        let mc = self.controller_of(dram_line);
        let cap = self.cfg.fifo_cache_lines as usize;
        let base = mc * cap;
        let n = self.fifo_len[mc] as usize;
        if self.fifo_buf[base..base + n].contains(&dram_line) {
            // FIFO-cache hit: resolved without entering the profiling
            // scope — burst-friendly workloads hit here far more often
            // than they queue, and the scan is a handful of compares.
            stats.mc_cache_hits += 1;
            stats.trace.record(|| {
                TraceEvent::instant(
                    now,
                    TraceKind::DramFifoHit,
                    Track::Dram(mc as u32),
                    &[dram_line],
                )
            });
            return now + self.cfg.fifo_hit_latency;
        }
        crate::perf::prof_scope!(crate::perf::Phase::Dram);
        stats.count_dram();
        // Queue: the request waits from `now` until the controller's
        // service slot frees up at `start`.
        let start = now.max(self.busy_until[mc]);
        stats.dram_queue.record(start - now);
        let mut service = self.cfg.cycles_per_line;
        if !self.fault_entries.is_empty() {
            let lo = self.fault_start[mc] as usize;
            let hi = self.fault_start[mc + 1] as usize;
            for df in &self.fault_entries[lo..hi] {
                if df.factor > 1 && df.window.contains(start) {
                    service = service.saturating_mul(df.factor);
                }
            }
            if service > self.cfg.cycles_per_line {
                let extra = service - self.cfg.cycles_per_line;
                stats.fault_degraded_cycles += extra;
                stats.trace.record(|| {
                    TraceEvent::instant(
                        start,
                        TraceKind::FaultDramThrottled,
                        Track::Dram(mc as u32),
                        &[dram_line, extra],
                    )
                });
            }
        }
        self.busy_until[mc] = start + service;
        if cap > 0 {
            if n >= cap {
                // Full: drop the oldest (shift left; `cap` is small).
                self.fifo_buf.copy_within(base + 1..base + n, base);
                self.fifo_buf[base + n - 1] = dram_line;
            } else {
                self.fifo_buf[base + n] = dram_line;
                self.fifo_len[mc] = n as u32 + 1;
            }
        }
        let done = start + self.cfg.latency;
        stats.trace.record(|| {
            TraceEvent::lasting(
                now,
                done - now,
                TraceKind::DramAccess,
                Track::Dram(mc as u32),
                &[dram_line, start - now],
            )
        });
        done
    }

    /// Accesses every DRAM line backing a cache line (per the translator);
    /// returns the time the last access completes.
    pub fn access_cache_line(
        &mut self,
        translator: &Translator,
        cache_line: u64,
        now: u64,
        stats: &mut Stats,
    ) -> u64 {
        let lines = translator.dram_lines_for(cache_line);
        let mut done = now;
        for &dl in lines.as_slice() {
            done = done.max(self.access_line(dl, now, stats));
        }
        done
    }
}

levi_isa::codec_struct!(TranslationEntry {
    cache_base,
    cache_bound,
    dram_base,
    padded_size,
    packed_size,
});
levi_isa::codec_struct!(Translator { entries });
// Geometry and installed throttle faults are config-derived and not
// serialized.
levi_isa::codec_struct! {
    in_place Dram {
        busy_until: Fixed("dram controller count"),
        fifo_buf(fifo_len): Fifos(cfg.fifo_cache_lines as usize),
    }
    kept { cfg, fault_start, fault_entries }
}

/// The FIFO line caches: per controller, its occupancy and then its lines,
/// oldest first (no controller count: `busy_until` carries it). The field
/// is the per-controller capacity.
struct Fifos(usize);

impl Fifos {
    fn save(&self, (buf, len): (&[u64], &[u32]), w: &mut Writer) {
        for (mc, &n) in len.iter().enumerate() {
            put_seq(w, buf[mc * self.0..][..n as usize].iter(), u64::put);
        }
    }

    fn restore(
        &self,
        (buf, len): (&mut [u64], &mut [u32]),
        r: &mut Reader,
    ) -> Result<(), CodecError> {
        for (mc, len) in len.iter_mut().enumerate() {
            let n = r.count(8)?;
            if n > self.0 {
                return Err(CodecError::Invalid("dram fifo length"));
            }
            *len = n as u32;
            for line in &mut buf[mc * self.0..][..n] {
                *line = u64::get(r)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn mem_cfg() -> MemConfig {
        MachineConfig::paper_default().mem
    }

    #[test]
    fn translation_packs_objects() {
        // 24B objects padded to 32B in cache, packed to 24B in DRAM.
        let e = TranslationEntry {
            cache_base: 0x1000,
            cache_bound: 0x1000 + 32 * 100,
            dram_base: 0x8000,
            padded_size: 32,
            packed_size: 24,
        };
        assert_eq!(e.translate(0x1000), Some(0x8000));
        assert_eq!(e.translate(0x1017), Some(0x8017)); // last byte of obj 0
        assert_eq!(e.translate(0x1018), None, "padding has no backing");
        assert_eq!(
            e.translate(0x1020),
            Some(0x8018),
            "obj 1 starts right after obj 0"
        );
        assert_eq!(e.translate(0x1040), Some(0x8030), "obj 2");
    }

    #[test]
    fn overlapping_regions_rejected() {
        let mut t = Translator::new();
        t.register(TranslationEntry {
            cache_base: 0,
            cache_bound: 0x100,
            dram_base: 0x1000,
            padded_size: 32,
            packed_size: 24,
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t2 = t.clone();
            t2.register(TranslationEntry {
                cache_base: 0x80,
                cache_bound: 0x180,
                dram_base: 0x2000,
                padded_size: 32,
                packed_size: 24,
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn identity_outside_regions() {
        let t = Translator::new();
        let lines = t.dram_lines_for(0x40);
        assert_eq!(lines.as_slice(), &[0x40]);
    }

    #[test]
    fn consecutive_cache_lines_share_dram_lines() {
        // The paper's Fig. 14 scenario: padded 32B objects (2 per cache
        // line), packed 24B in DRAM. Cache line k holds objects 2k, 2k+1
        // = DRAM bytes [48k, 48k+48) — so cache lines 1 and 2 both touch
        // DRAM line 1.
        let mut t = Translator::new();
        t.register(TranslationEntry {
            cache_base: 0,
            cache_bound: 32 * 1024,
            dram_base: 0,
            padded_size: 32,
            packed_size: 24,
        });
        let l0: Vec<u64> = t.dram_lines_for(0).as_slice().to_vec();
        let l1: Vec<u64> = t.dram_lines_for(1).as_slice().to_vec();
        let l2: Vec<u64> = t.dram_lines_for(2).as_slice().to_vec();
        assert_eq!(l0, vec![0]);
        assert_eq!(l1, vec![0, 1], "cache line 1 straddles DRAM lines 0 and 1");
        assert!(l2.contains(&1));
    }

    #[test]
    fn fifo_cache_absorbs_repeats() {
        let mut d = Dram::new(mem_cfg());
        let mut s = Stats::new();
        let t1 = d.access_line(5, 0, &mut s);
        assert_eq!(s.dram_accesses, 1);
        let t2 = d.access_line(5, t1, &mut s);
        assert_eq!(s.dram_accesses, 1, "second access hits the FIFO cache");
        assert_eq!(s.mc_cache_hits, 1);
        assert_eq!(t2, t1 + mem_cfg().fifo_hit_latency);
    }

    #[test]
    fn fifo_cache_evicts_in_order() {
        let cfg = MemConfig {
            fifo_cache_lines: 2,
            ..mem_cfg()
        };
        let mut d = Dram::new(cfg);
        let mut s = Stats::new();
        // All on controller 0: lines 0, 4, 8 (4 controllers).
        d.access_line(0, 0, &mut s);
        d.access_line(4, 0, &mut s);
        d.access_line(8, 0, &mut s); // evicts line 0
        d.access_line(0, 0, &mut s); // miss again
        assert_eq!(s.dram_accesses, 4);
        assert_eq!(s.mc_cache_hits, 0);
    }

    #[test]
    fn bandwidth_serializes_same_controller() {
        let mut d = Dram::new(mem_cfg());
        let mut s = Stats::new();
        let a = d.access_line(0, 0, &mut s);
        let b = d.access_line(4, 0, &mut s); // same controller (0), different line
        assert_eq!(a, 100);
        assert_eq!(b, 113, "second access waits for the service slot");
        let c = d.access_line(1, 0, &mut s); // controller 1: parallel
        assert_eq!(c, 100);
    }

    #[test]
    fn throttle_multiplies_service_time_in_window() {
        use crate::fault::{CycleWindow, DramFault};
        let mut d = Dram::new(mem_cfg());
        d.install_faults(vec![DramFault {
            controller: 0,
            window: CycleWindow::new(0, 1000),
            factor: 4,
        }]);
        let mut s = Stats::new();
        let a = d.access_line(0, 0, &mut s);
        let b = d.access_line(4, 0, &mut s); // same controller, queued
        assert_eq!(a, 100, "access latency itself is unchanged");
        assert_eq!(b, 152, "service slot now 4 x 13 = 52 cycles");
        assert_eq!(s.fault_degraded_cycles, 2 * 39);
        // Other controllers are unaffected.
        let c = d.access_line(1, 0, &mut s);
        assert_eq!(c, 100);
        // After the window the controller recovers full bandwidth.
        let mut d2 = Dram::new(mem_cfg());
        d2.install_faults(vec![DramFault {
            controller: 0,
            window: CycleWindow::new(0, 10),
            factor: 4,
        }]);
        let mut s2 = Stats::new();
        let x = d2.access_line(0, 500, &mut s2);
        let y = d2.access_line(4, 500, &mut s2);
        assert_eq!(x, 600);
        assert_eq!(y, 613);
        assert_eq!(s2.fault_degraded_cycles, 0);
    }

    #[test]
    fn access_cache_line_counts_all_backing_lines() {
        let mut t = Translator::new();
        t.register(TranslationEntry {
            cache_base: 0,
            cache_bound: 32 * 1024,
            dram_base: 0,
            padded_size: 32,
            packed_size: 24,
        });
        let mut d = Dram::new(mem_cfg());
        let mut s = Stats::new();
        d.access_cache_line(&t, 1, 0, &mut s); // straddles 2 DRAM lines
        assert_eq!(s.dram_accesses, 2);
    }
}
