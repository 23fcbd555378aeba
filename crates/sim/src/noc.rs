//! Mesh network-on-chip with XY routing and per-link contention.
//!
//! Messages are broken into flits; each hop reserves serialization time on
//! the traversed link (a simple FIFO occupancy model) and pays router +
//! link latency. Flit-hops are counted for the traffic and energy metrics
//! (Fig. 5's NoC-traffic reduction and all energy results).

use crate::config::NocConfig;
use crate::fault::{LinkFault, LinkFaultKind};
use crate::stats::Stats;
use crate::trace::{TraceEvent, TraceKind, Track};

/// Directions out of a router.
const DIRS: usize = 4; // east, west, north, south

/// A 2-D mesh NoC.
#[derive(Clone, Debug)]
pub struct Noc {
    cols: u32,
    cfg: NocConfig,
    /// `link_free[node * DIRS + dir]`: cycle at which that output link is
    /// next available.
    link_free: Vec<u64>,
    /// Injected link faults, bucketed per link in CSR form: link `k`'s
    /// faults are `fault_entries[fault_start[k]..fault_start[k+1]]`. A hop
    /// checks exactly its own link's bucket instead of scanning the whole
    /// plan (empty unless a fault plan installed some).
    fault_start: Vec<u32>,
    fault_entries: Vec<LinkFault>,
}

impl Noc {
    /// Creates a mesh of `cols × rows` routers.
    pub fn new(cols: u32, rows: u32, cfg: NocConfig) -> Self {
        let links = (cols * rows) as usize * DIRS;
        Noc {
            cols,
            cfg,
            link_free: vec![0; links],
            fault_start: vec![0; links + 1],
            fault_entries: Vec::new(),
        }
    }

    /// Installs link faults from a fault plan, bucketing them per link.
    /// Faults addressing links outside the mesh are ignored (they could
    /// never fire).
    pub fn install_faults(&mut self, faults: Vec<LinkFault>) {
        let links = self.link_free.len();
        let mut entries = faults;
        entries.retain(|lf| (lf.dir as usize) < DIRS && lf.node as usize * DIRS + DIRS <= links);
        // Stable sort: plan order is preserved within a link (the delay
        // computation is order-independent, but determinism is easier to
        // audit this way).
        entries.sort_by_key(|lf| lf.node as usize * DIRS + lf.dir as usize);
        self.fault_start = vec![0; links + 1];
        for lf in &entries {
            self.fault_start[lf.node as usize * DIRS + lf.dir as usize + 1] += 1;
        }
        for k in 0..links {
            self.fault_start[k + 1] += self.fault_start[k];
        }
        self.fault_entries = entries;
    }

    /// The faults installed on one link.
    #[inline]
    fn link_faults(&self, node: usize, dir: usize) -> &[LinkFault] {
        let k = node * DIRS + dir;
        let lo = self.fault_start[k] as usize;
        let hi = self.fault_start[k + 1] as usize;
        &self.fault_entries[lo..hi]
    }

    /// Outage wait + slowdown penalty for a head flit reaching
    /// `node`/`dir` at `start`: returns the (possibly deferred) link entry
    /// time and the extra per-hop latency.
    fn link_fault_delay(&self, node: usize, dir: usize, mut start: u64) -> (u64, u64) {
        let faults = self.link_faults(node, dir);
        // An outage defers the head flit to the end of the window; chained
        // outages are rare but handled by re-checking from the new time.
        while let Some(w) = faults
            .iter()
            .find(|lf| matches!(lf.kind, LinkFaultKind::Outage) && lf.window.contains(start))
        {
            start = w.window.end;
        }
        let mut extra = 0u64;
        for lf in faults {
            if lf.window.contains(start) {
                if let LinkFaultKind::Slowdown { extra: e } = lf.kind {
                    extra += e;
                }
            }
        }
        (start, extra)
    }

    #[inline]
    fn coords(&self, tile: u32) -> (u32, u32) {
        (tile % self.cols, tile / self.cols)
    }

    /// Number of mesh hops between two tiles (XY routing).
    pub fn hops(&self, from: u32, to: u32) -> u32 {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        fx.abs_diff(tx) + fy.abs_diff(ty)
    }

    /// Number of flits for a payload of `bytes`.
    pub fn flits(&self, bytes: u32) -> u32 {
        let flit_bytes = self.cfg.flit_bits / 8;
        bytes.div_ceil(flit_bytes).max(1)
    }

    /// Sends a `bytes`-byte message from `from` to `to` starting at `now`;
    /// returns the arrival time. Reserves serialization time on every
    /// traversed link and counts flit-hops into `stats`.
    pub fn send(&mut self, from: u32, to: u32, bytes: u32, now: u64, stats: &mut Stats) -> u64 {
        self.send_tagged(from, to, bytes, now, stats, None)
    }

    /// Like [`Noc::send`], but tags the recorded NoC-message trace event
    /// with the invoke-lifecycle span the message belongs to, so the
    /// Perfetto export links the packet's transit into the span's flow.
    /// Timing is identical to `send`; `span` only affects trace output.
    pub fn send_tagged(
        &mut self,
        from: u32,
        to: u32,
        bytes: u32,
        now: u64,
        stats: &mut Stats,
        span: Option<crate::span::SpanId>,
    ) -> u64 {
        stats.noc_messages += 1;
        if from == to {
            // Same tile: no network traversal — and no profiling scope,
            // so the (very common) local send costs two branches, not two
            // clock reads. Phase::Noc self-time covers real traversals.
            return now;
        }
        crate::perf::prof_scope!(crate::perf::Phase::Noc);
        let flits = self.flits(bytes) as u64;
        let (mut x, mut y) = self.coords(from);
        let (tx, ty) = self.coords(to);
        let mut t = now;
        let mut degraded = 0u64;
        while (x, y) != (tx, ty) {
            let (dir, nx, ny) = if x < tx {
                (0, x + 1, y)
            } else if x > tx {
                (1, x - 1, y)
            } else if y < ty {
                (2, x, y + 1)
            } else {
                (3, x, y - 1)
            };
            let node = (y * self.cols + x) as usize;
            // Head flit waits for the link, then the message occupies it
            // for `flits` cycles (serialization).
            let mut start = t.max(self.link_free[node * DIRS + dir]);
            let mut extra = 0;
            if !self.fault_entries.is_empty() {
                let (deferred, slow) = self.link_fault_delay(node, dir, start);
                degraded += (deferred - start) + slow;
                start = deferred;
                extra = slow;
            }
            self.link_free[node * DIRS + dir] = start + flits;
            t = start + self.cfg.router_delay + self.cfg.link_delay + extra;
            stats.noc_flit_hops += flits;
            x = nx;
            y = ny;
        }
        // Tail flits arrive `flits-1` cycles after the head.
        let arrive = t + flits.saturating_sub(1);
        if degraded > 0 {
            stats.fault_degraded_cycles += degraded;
            stats.trace.record(|| {
                TraceEvent::instant(
                    now,
                    TraceKind::FaultNocDegraded,
                    Track::Noc(from),
                    &[to as u64, degraded],
                )
            });
        }
        stats.trace.record(|| {
            TraceEvent::lasting(
                now,
                arrive - now,
                TraceKind::NocMsg,
                Track::Noc(from),
                &[to as u64, flits],
            )
            .with_span(span)
        });
        arrive
    }

    /// Latency of an uncontended message (no reservation; for estimates).
    pub fn uncontended_latency(&self, from: u32, to: u32, bytes: u32) -> u64 {
        let hops = self.hops(from, to) as u64;
        let flits = self.flits(bytes) as u64;
        hops * (self.cfg.router_delay + self.cfg.link_delay) + flits.saturating_sub(1)
    }
}

// Geometry and installed faults are config-derived and not serialized.
levi_isa::codec_struct! {
    in_place Noc { link_free: levi_isa::codec::Fixed("noc link count") }
    kept { cols, cfg, fault_start, fault_entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn noc4x4() -> Noc {
        let cfg = MachineConfig::paper_default();
        let (c, r) = cfg.mesh_dims();
        Noc::new(c, r, cfg.noc)
    }

    #[test]
    fn hops_xy() {
        let n = noc4x4();
        assert_eq!(n.hops(0, 0), 0);
        assert_eq!(n.hops(0, 3), 3);
        assert_eq!(n.hops(0, 15), 6, "corner to corner of a 4x4 mesh");
        assert_eq!(n.hops(5, 6), 1);
        assert_eq!(n.hops(5, 9), 1);
    }

    #[test]
    fn flit_count() {
        let n = noc4x4();
        assert_eq!(n.flits(8), 1, "control message fits one 16B flit");
        assert_eq!(n.flits(16), 1);
        assert_eq!(n.flits(17), 2);
        assert_eq!(n.flits(72), 5, "64B data + 8B header");
    }

    #[test]
    fn same_tile_is_free() {
        let mut n = noc4x4();
        let mut s = Stats::new();
        assert_eq!(n.send(3, 3, 64, 100, &mut s), 100);
        assert_eq!(s.noc_flit_hops, 0);
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut s = Stats::new();
        let t1 = noc4x4().send(0, 1, 8, 0, &mut s);
        let t2 = noc4x4().send(0, 3, 8, 0, &mut s);
        assert_eq!(t1, 3, "1 hop = router 2 + link 1");
        assert_eq!(t2, 9, "3 hops");
    }

    #[test]
    fn flit_hops_counted() {
        let mut n = noc4x4();
        let mut s = Stats::new();
        n.send(0, 15, 72, 0, &mut s); // 5 flits x 6 hops
        assert_eq!(s.noc_flit_hops, 30);
        assert_eq!(s.noc_messages, 1);
    }

    #[test]
    fn contention_delays_second_message() {
        let mut n = noc4x4();
        let mut s = Stats::new();
        // Two large messages over the same first link at the same time.
        let a = n.send(0, 3, 64, 0, &mut s);
        let b = n.send(0, 3, 64, 0, &mut s);
        assert!(
            b > a,
            "second message serializes behind the first: {a} vs {b}"
        );
    }

    #[test]
    fn link_slowdown_adds_latency_and_counts_degradation() {
        use crate::fault::{CycleWindow, LinkFault, LinkFaultKind};
        let mut clean = noc4x4();
        let mut faulty = noc4x4();
        // Slow the eastbound link out of node 0 during the send.
        faulty.install_faults(vec![LinkFault {
            node: 0,
            dir: 0,
            window: CycleWindow::new(0, 1000),
            kind: LinkFaultKind::Slowdown { extra: 10 },
        }]);
        let mut s0 = Stats::new();
        let mut s1 = Stats::new();
        let base = clean.send(0, 1, 8, 0, &mut s0);
        let slow = faulty.send(0, 1, 8, 0, &mut s1);
        assert_eq!(slow, base + 10);
        assert_eq!(s1.fault_degraded_cycles, 10);
        assert_eq!(s0.fault_degraded_cycles, 0);
    }

    #[test]
    fn link_outage_defers_to_window_end() {
        use crate::fault::{CycleWindow, LinkFault, LinkFaultKind};
        let mut n = noc4x4();
        n.install_faults(vec![LinkFault {
            node: 0,
            dir: 0,
            window: CycleWindow::new(0, 500),
            kind: LinkFaultKind::Outage,
        }]);
        let mut s = Stats::new();
        let t = n.send(0, 1, 8, 100, &mut s);
        assert_eq!(t, 500 + 3, "waits out the outage, then 1 hop");
        assert_eq!(s.fault_degraded_cycles, 400);
        // Outside the window the link behaves normally.
        let mut s2 = Stats::new();
        let t2 = n.send(0, 1, 8, 1000, &mut s2);
        assert_eq!(t2, 1003);
        assert_eq!(s2.fault_degraded_cycles, 0);
    }

    #[test]
    fn faults_on_other_links_do_not_perturb() {
        use crate::fault::{CycleWindow, LinkFault, LinkFaultKind};
        let mut clean = noc4x4();
        let mut faulty = noc4x4();
        // Fault a link the 0 -> 1 message never crosses.
        faulty.install_faults(vec![LinkFault {
            node: 5,
            dir: 2,
            window: CycleWindow::new(0, u64::MAX),
            kind: LinkFaultKind::Outage,
        }]);
        let mut s0 = Stats::new();
        let mut s1 = Stats::new();
        assert_eq!(
            clean.send(0, 1, 64, 0, &mut s0),
            faulty.send(0, 1, 64, 0, &mut s1)
        );
        assert_eq!(s1.fault_degraded_cycles, 0);
    }

    #[test]
    fn uncontended_estimate_matches_first_send() {
        let mut n = noc4x4();
        let mut s = Stats::new();
        let est = n.uncontended_latency(2, 14, 72);
        let real = n.send(2, 14, 72, 1000, &mut s) - 1000;
        assert_eq!(est, real);
    }
}
