//! Near-cache data transformation: decompression (paper Sec. VIII-A,
//! Figs. 15 and 16).
//!
//! Pixels are stored lossily compressed as a per-8-pixel base plus a
//! per-pixel (mantissa, exponent) delta for each of three channels
//! (base-delta-immediate style \[57\]). The application computes an average
//! over 16 K pixels under a Zipfian access pattern. A decompressed `Pixel`
//! is 6 B (3 × u16) — it does **not** divide a 64 B line, which is exactly
//! the case prior NDCs cannot handle without manual padding.
//!
//! Variants:
//! * **Baseline** — the core decompresses on every access (~20 extra
//!   instructions per access), with no reuse of decompressed data.
//! * **Offload (OL)** — every access `invoke`s a decompression task on the
//!   local engine and waits on a future. The paper shows this is *worse*
//!   than baseline (2.8×): decompressing at the engine forfeits L1
//!   locality without reducing work.
//! * **Leviathan** — a data-triggered Morph at the L2: the `Pixel`
//!   constructor (Fig. 15) decompresses objects as their lines are
//!   inserted, so the core reuses decompressed pixels from L1/L2.
//! * **No padding** — prior work (tākō) without layout support:
//!   constructors cannot initialize partial objects, so the configuration
//!   is *unsupported*; [`run_decompress`] returns `None` for it.
//! * **Ideal** — Leviathan with idealized engines.

use std::sync::Arc;

use levi_isa::{ActionId, Location, MemWidth, Program, ProgramBuilder, Reg};
use levi_sim::MorphLevel;
use leviathan::{MorphSpec, System, SystemConfig};

use crate::gen::Zipf;
use crate::harness::{RunEnv, RunOutcome, RunStatus, ScaleKind, Workload};
use crate::metrics::RunMetrics;

/// Decompression variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompressVariant {
    /// Software decompression on the core per access.
    Baseline,
    /// Offload each access to the local engine (the paper's "OL").
    Offload,
    /// Data-triggered decompression through a Morph (Leviathan).
    Leviathan,
    /// Prior work without padding support — unsupported (6 B ∤ 64 B).
    NoPadding,
    /// Leviathan with idealized engines.
    Ideal,
}

impl DecompressVariant {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DecompressVariant::Baseline => "Baseline",
            DecompressVariant::Offload => "Offload (OL)",
            DecompressVariant::Leviathan => "Leviathan",
            DecompressVariant::NoPadding => "No padding (tako)",
            DecompressVariant::Ideal => "Ideal",
        }
    }

    /// All variants in presentation order.
    pub fn all() -> [DecompressVariant; 5] {
        [
            DecompressVariant::Baseline,
            DecompressVariant::Offload,
            DecompressVariant::NoPadding,
            DecompressVariant::Leviathan,
            DecompressVariant::Ideal,
        ]
    }
}

/// Scale knobs.
#[derive(Clone, Debug)]
pub struct DecompressScale {
    /// Number of pixels.
    pub pixels: u64,
    /// Total accesses across all threads.
    pub accesses: u64,
    /// Tiles (= threads).
    pub tiles: u32,
    /// Zipf parameter.
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DecompressScale {
    /// The paper's scale: 16 K pixels, 32 K Zipf accesses.
    pub fn paper() -> Self {
        DecompressScale {
            pixels: 16 * 1024,
            accesses: 32 * 1024,
            tiles: 16,
            theta: 0.99,
            seed: 0xDC,
        }
    }

    /// Tiny scale for unit tests.
    pub fn test() -> Self {
        DecompressScale {
            pixels: 2048,
            accesses: 4096,
            tiles: 4,
            theta: 0.99,
            seed: 0xDC,
        }
    }
}

/// Result of a decompression run.
#[derive(Clone, Debug)]
pub struct DecompressResult {
    /// Measured metrics.
    pub metrics: RunMetrics,
    /// Sum over all accessed (decompressed) channel values, for
    /// validation.
    pub access_sum: u64,
}

/// The compressed representation of one channel value.
#[inline]
fn decompress_value(base: u16, delta: u8) -> u16 {
    let mantissa = (delta & 0x0F) as u16;
    let exponent = (delta >> 4) as u16;
    base.wrapping_add(mantissa.wrapping_shl(exponent as u32))
}

/// View layout offsets (bases\[3\], deltas\[3\], phantom base).
const VIEW_BASES: [i32; 3] = [0, 8, 16];
const VIEW_DELTAS: [i32; 3] = [24, 32, 40];
const VIEW_PHANTOM: i32 = 48;

pub(crate) struct Programs {
    pub(crate) prog: Arc<Program>,
    baseline: levi_isa::FuncId,
    consumer: levi_isa::FuncId,
    ctor: levi_isa::FuncId,
    ol_task: levi_isa::FuncId,
    ol_driver: levi_isa::FuncId,
}

/// Emits the three-channel decompression of pixel `idx` with results
/// written via `sink(f, channel, value_reg)`.
fn emit_decompress(
    f: &mut levi_isa::FunctionBuilder<'_>,
    view: Reg,
    idx: Reg,
    scratch: [Reg; 6],
    mut sink: impl FnMut(&mut levi_isa::FunctionBuilder<'_>, usize, Reg),
) {
    let [ptr, base, delta, m, e, val] = scratch;
    for c in 0..3 {
        // base = bases[c][idx >> 3]
        f.ld8(ptr, view, VIEW_BASES[c]);
        f.shri(base, idx, 3);
        f.muli(base, base, 2);
        f.add(ptr, ptr, base);
        f.ld2(base, ptr, 0);
        // delta = deltas[c][idx]
        f.ld8(ptr, view, VIEW_DELTAS[c]);
        f.add(ptr, ptr, idx);
        f.ld1(delta, ptr, 0);
        // val = base + ((delta & 15) << (delta >> 4))
        f.andi(m, delta, 15);
        f.shri(e, delta, 4);
        f.shl(m, m, e);
        f.add(val, base, m);
        f.alui(levi_isa::AluOp::And, val, val, 0xFFFF);
        sink(f, c, val);
    }
}

pub(crate) fn build_programs() -> Programs {
    let mut pb = ProgramBuilder::new();

    // Pixel constructor (Fig. 15): r0 = pixel object, r1 = view.
    let ctor = {
        let mut f = pb.function("pixel_ctor");
        let (obj, view) = (Reg(0), Reg(1));
        let (pbase, idx) = (Reg(2), Reg(3));
        let scratch = [Reg(4), Reg(5), Reg(6), Reg(7), Reg(8), Reg(9)];
        f.ld8(pbase, view, VIEW_PHANTOM);
        f.sub(idx, obj, pbase);
        f.shri(idx, idx, 3); // 8B padded pixels
        emit_decompress(&mut f, view, idx, scratch, |f, c, val| {
            f.st2(Reg(0), (c * 2) as i32, val);
        });
        f.halt();
        f.finish()
    };

    // Offloaded decompression task: r0 = actor (view), r1 = idx, r2 = fut.
    let ol_task = {
        let mut f = pb.function("ol_decompress");
        let (view, idx, fut) = (Reg(0), Reg(1), Reg(2));
        let acc = Reg(10);
        let scratch = [Reg(4), Reg(5), Reg(6), Reg(7), Reg(8), Reg(9)];
        f.imm(acc, 0);
        emit_decompress(&mut f, view, idx, scratch, |f, _c, val| {
            f.add(acc, acc, val);
        });
        f.future_send(fut, acc);
        f.halt();
        f.finish()
    };

    // Baseline: r0 = idx array ptr, r1 = count, r2 = view, r3 = result.
    let baseline = {
        let mut f = pb.function("baseline_avg");
        let (ip, n, view, result) = (Reg(0), Reg(1), Reg(2), Reg(3));
        let (i, idx, acc) = (Reg(11), Reg(12), Reg(13));
        let scratch = [Reg(4), Reg(5), Reg(6), Reg(7), Reg(8), Reg(9)];
        f.imm(i, 0).imm(acc, 0);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.ld4(idx, ip, 0);
        f.addi(ip, ip, 4);
        emit_decompress(&mut f, view, idx, scratch, |f, _c, val| {
            f.add(acc, acc, val);
        });
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.st8(result, 0, acc);
        f.halt();
        f.finish()
    };

    // Leviathan consumer: reads decompressed pixels from the phantom range.
    // r0 = idx array ptr, r1 = count, r2 = view, r3 = result.
    let consumer = {
        let mut f = pb.function("morph_avg");
        let (ip, n, view, result) = (Reg(0), Reg(1), Reg(2), Reg(3));
        let (i, idx, acc, pbase, paddr, c0, c1, c2) = (
            Reg(11),
            Reg(12),
            Reg(13),
            Reg(14),
            Reg(15),
            Reg(16),
            Reg(17),
            Reg(18),
        );
        f.imm(i, 0).imm(acc, 0);
        f.ld8(pbase, view, VIEW_PHANTOM);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.ld4(idx, ip, 0);
        f.addi(ip, ip, 4);
        f.muli(paddr, idx, 8);
        f.add(paddr, paddr, pbase);
        f.ld2(c0, paddr, 0);
        f.ld2(c1, paddr, 2);
        f.ld2(c2, paddr, 4);
        f.add(acc, acc, c0);
        f.add(acc, acc, c1);
        f.add(acc, acc, c2);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.st8(result, 0, acc);
        f.halt();
        f.finish()
    };

    // OL driver: invokes the decompression task per access and waits.
    // r0 = idx array ptr, r1 = count, r2 = view, r3 = result, r4 = fut.
    let ol_driver = {
        let mut f = pb.function("ol_avg");
        let (ip, n, view, result, fut) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
        let (i, idx, acc, v, zero) = (Reg(11), Reg(12), Reg(13), Reg(14), Reg(15));
        f.imm(i, 0).imm(acc, 0).imm(zero, 0);
        let top = f.label();
        let out = f.label();
        f.bind(top);
        f.bge_u(i, n, out);
        f.ld4(idx, ip, 0);
        f.addi(ip, ip, 4);
        // Reset the future, then offload to the local engine.
        f.st8(fut, 0, zero);
        f.st8(fut, 8, zero);
        f.invoke_future(view, ActionId(1), &[idx, fut], fut, Location::Local);
        f.future_wait(v, fut);
        f.add(acc, acc, v);
        f.addi(i, i, 1);
        f.jmp(top);
        f.bind(out);
        f.st8(result, 0, acc);
        f.halt();
        f.finish()
    };

    Programs {
        prog: Arc::new(pb.finish().expect("decompress programs validate")),
        baseline,
        consumer,
        ctor,
        ol_task,
        ol_driver,
    }
}

/// The deterministic input for one scale: the compressed pixels and the
/// Zipfian access stream. [`DecompressWorkload`] builds it once per scale,
/// and every run and golden check reads it.
#[derive(Clone, Debug)]
pub struct DecompressInput {
    /// Per-channel group bases (one per 8 pixels).
    pub(crate) bases: [Vec<u16>; 3],
    /// Per-channel per-pixel deltas.
    pub(crate) deltas: [Vec<u8>; 3],
    /// The decompressed pixels (the golden reference).
    pub(crate) pixels: Vec<[u16; 3]>,
    /// The seeded Zipfian access stream: one pixel index per access.
    pub(crate) indices: Vec<u32>,
}

impl DecompressInput {
    /// Generates the input for `scale` from its seed.
    pub fn new(scale: &DecompressScale) -> Self {
        let n = scale.pixels;
        let mut x = scale.seed | 1;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        let mut bases: [Vec<u16>; 3] = Default::default();
        let mut deltas: [Vec<u8>; 3] = Default::default();
        let mut pixels = vec![[0u16; 3]; n as usize];
        for c in 0..3 {
            for _ in 0..n.div_ceil(8) {
                bases[c].push((step() >> 40) as u16 & 0x3FFF);
            }
            for i in 0..n {
                let d = (step() >> 33) as u8;
                deltas[c].push(d);
                pixels[i as usize][c] = decompress_value(bases[c][(i / 8) as usize], d);
            }
        }
        let mut zipf = Zipf::new(scale.pixels, scale.theta, scale.seed);
        let indices = (0..scale.accesses).map(|_| zipf.sample() as u32).collect();
        DecompressInput {
            bases,
            deltas,
            pixels,
            indices,
        }
    }

    /// The sum of decompressed channel values over the first `covered`
    /// accesses.
    fn covered_sum(&self, covered: u64) -> u64 {
        self.indices[..covered as usize]
            .iter()
            .map(|&idx| {
                let p = self.pixels[idx as usize];
                p[0] as u64 + p[1] as u64 + p[2] as u64
            })
            .sum()
    }
}

/// Host-side golden model: the sum of decompressed channel values over
/// the covered prefix of the access stream (threads cover
/// `accesses / tiles * tiles` accesses).
pub fn golden_access_sum(scale: &DecompressScale, input: &DecompressInput) -> u64 {
    input.covered_sum((scale.accesses / scale.tiles as u64) * scale.tiles as u64)
}

/// Runs one variant. Returns `None` for unsupported configurations
/// (no-padding prior work cannot construct 6 B objects).
pub fn run_decompress(
    variant: DecompressVariant,
    scale: &DecompressScale,
) -> Option<DecompressResult> {
    run_decompress_with(variant, scale, &DecompressInput::new(scale), |_| {})
}

/// Runs one variant on a pre-built input with arbitrary configuration
/// customization (the unified harness injects fault plans and watchdogs
/// through this hook).
///
/// # Panics
/// Panics if `input` does not have `scale`'s pixel and access counts.
pub fn run_decompress_with(
    variant: DecompressVariant,
    scale: &DecompressScale,
    input: &DecompressInput,
    customize: impl FnOnce(&mut SystemConfig),
) -> Option<DecompressResult> {
    assert_eq!(input.pixels.len() as u64, scale.pixels, "input pixel count");
    assert_eq!(
        input.indices.len() as u64,
        scale.accesses,
        "input access count"
    );
    if variant == DecompressVariant::NoPadding {
        // 6 B does not divide 64 B: lines would hold partial objects and
        // constructors cannot run (paper: "data-triggered actions do not
        // work without padding").
        return None;
    }
    let mut cfg = SystemConfig::with_tiles(scale.tiles);
    customize(&mut cfg);
    if variant == DecompressVariant::Ideal {
        cfg = cfg.idealized();
    }
    let mut sys = System::try_new(cfg).expect("decompress system config is valid");
    let n = scale.pixels;

    // ---- compressed data ----
    let mut bases = [0u64; 3];
    let mut deltas = [0u64; 3];
    for c in 0..3 {
        bases[c] = sys.alloc_raw(2 * n.div_ceil(8), 64);
        deltas[c] = sys.alloc_raw(n, 64);
        for (g, &b) in input.bases[c].iter().enumerate() {
            sys.write(bases[c] + 2 * g as u64, b as u64, MemWidth::B2);
        }
        for (i, &d) in input.deltas[c].iter().enumerate() {
            sys.write(deltas[c] + i as u64, d as u64, MemWidth::B1);
        }
    }

    // ---- access pattern (shared index array) ----
    let idx_arr = sys.alloc_raw(4 * scale.accesses, 64);
    for (i, &idx) in input.indices.iter().enumerate() {
        sys.write(idx_arr + 4 * i as u64, idx as u64, MemWidth::B4);
    }

    let progs = build_programs();
    let ctor_action = sys.register_action(&progs.prog, progs.ctor);
    let ol_action = sys.register_action(&progs.prog, progs.ol_task);
    assert_eq!(ctor_action, ActionId(0));
    assert_eq!(ol_action, ActionId(1));

    // ---- view & phantom range ----
    let use_morph = matches!(
        variant,
        DecompressVariant::Leviathan | DecompressVariant::Ideal
    );
    // For morph variants the view must be the Morph's own view object —
    // that is the address the engine passes to constructors in r1.
    let view = if use_morph {
        let morph = sys.register_morph(
            &MorphSpec::new("pixels", 6, n, MorphLevel::L2)
                .with_ctor(ctor_action)
                .with_view_bytes(64),
        );
        assert_eq!(morph.actors.stride, 8, "6 B pixels pad to 8 B");
        sys.write_u64(morph.view + VIEW_PHANTOM as u64, morph.actors.base);
        morph.view
    } else {
        sys.alloc_raw(64, 64)
    };
    for c in 0..3 {
        sys.write_u64(view + VIEW_BASES[c] as u64, bases[c]);
        sys.write_u64(view + VIEW_DELTAS[c] as u64, deltas[c]);
    }

    // ---- run ----
    let results = sys.alloc_raw(8 * scale.tiles as u64, 64);
    let per = scale.accesses / scale.tiles as u64;
    for t in 0..scale.tiles {
        let ip = idx_arr + 4 * per * t as u64;
        let res = results + 8 * t as u64;
        match variant {
            DecompressVariant::Baseline => {
                sys.spawn_thread(t, &progs.prog, progs.baseline, &[ip, per, view, res])
                    .unwrap();
            }
            DecompressVariant::Offload => {
                let fut = sys.alloc_future();
                sys.spawn_thread(
                    t,
                    &progs.prog,
                    progs.ol_driver,
                    &[ip, per, view, res, fut.addr],
                )
                .unwrap();
            }
            DecompressVariant::Leviathan | DecompressVariant::Ideal => {
                sys.spawn_thread(t, &progs.prog, progs.consumer, &[ip, per, view, res])
                    .unwrap();
            }
            DecompressVariant::NoPadding => unreachable!(),
        }
    }
    sys.run().expect("decompress run deadlocked");

    let mut access_sum = 0u64;
    for t in 0..scale.tiles {
        access_sum += sys.read_u64(results + 8 * t as u64);
    }
    // Threads cover per*tiles accesses; recompute golden over that prefix.
    let covered = per * scale.tiles as u64;
    let golden_covered = input.covered_sum(covered);
    assert_eq!(
        access_sum,
        golden_covered,
        "{} produced wrong pixel sums",
        variant.label()
    );

    Some(DecompressResult {
        metrics: RunMetrics::capture(variant.label(), &sys),
        access_sum,
    })
}

/// Registry entry for the decompression study (see [`crate::harness`]).
pub struct DecompressWorkload;

impl Workload for DecompressWorkload {
    type Variant = DecompressVariant;
    type Scale = DecompressScale;
    type Input = DecompressInput;

    fn name(&self) -> &'static str {
        "decompress"
    }

    fn variants(&self) -> Vec<(&'static str, DecompressVariant)> {
        DecompressVariant::all()
            .iter()
            .map(|&v| (v.label(), v))
            .collect()
    }

    fn scale(&self, kind: ScaleKind) -> DecompressScale {
        match kind {
            ScaleKind::Paper => DecompressScale::paper(),
            ScaleKind::Test | ScaleKind::Quick => DecompressScale::test(),
        }
    }

    fn build_input(&self, scale: &DecompressScale) -> DecompressInput {
        DecompressInput::new(scale)
    }

    fn describe(&self, scale: &DecompressScale) -> String {
        format!(
            "{} pixels (6 B), {} Zipf({}) accesses, {} tiles",
            scale.pixels, scale.accesses, scale.theta, scale.tiles
        )
    }

    fn run(
        &self,
        variant: DecompressVariant,
        scale: &DecompressScale,
        input: &DecompressInput,
        env: &RunEnv,
    ) -> RunStatus {
        match run_decompress_with(variant, scale, input, |cfg| env.customize(cfg)) {
            Some(r) => RunStatus::Done(Box::new(RunOutcome::new(r.metrics, r.access_sum))),
            None => RunStatus::Unsupported(
                "6 B objects straddle cache lines without padding (as in the paper)",
            ),
        }
    }

    fn golden(
        &self,
        _variant: DecompressVariant,
        scale: &DecompressScale,
        input: &DecompressInput,
    ) -> u64 {
        golden_access_sum(scale, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompress_value_formula() {
        assert_eq!(decompress_value(100, 0x00), 100);
        assert_eq!(decompress_value(100, 0x05), 105);
        assert_eq!(decompress_value(100, 0x15), 110, "mantissa 5 << exp 1");
        assert_eq!(decompress_value(0xFFFF, 0x01), 0, "wraps at 16 bits");
    }

    #[test]
    fn no_padding_is_unsupported() {
        assert!(run_decompress(DecompressVariant::NoPadding, &DecompressScale::test()).is_none());
    }

    #[test]
    fn variants_agree_and_leviathan_wins() {
        let scale = DecompressScale::test();
        let base = run_decompress(DecompressVariant::Baseline, &scale).unwrap();
        let lev = run_decompress(DecompressVariant::Leviathan, &scale).unwrap();
        assert_eq!(base.access_sum, lev.access_sum);
        let speedup = lev.metrics.speedup_vs(&base.metrics);
        assert!(
            speedup > 1.3,
            "Leviathan should clearly beat software decompression: {speedup:.2}x"
        );
        assert!(lev.metrics.stats.ctor_actions > 0);
        // Reuse: far fewer line constructions than accesses (Zipf
        // locality). Constructors are counted per object, 8 per line.
        let line_fills = lev.metrics.stats.ctor_actions / 8;
        assert!(
            line_fills < scale.accesses / 2,
            "decompressed pixels must be reused from cache: {line_fills} line fills"
        );
    }

    #[test]
    fn offload_is_worse_than_baseline() {
        let scale = DecompressScale::test();
        let base = run_decompress(DecompressVariant::Baseline, &scale).unwrap();
        let ol = run_decompress(DecompressVariant::Offload, &scale).unwrap();
        assert_eq!(base.access_sum, ol.access_sum);
        let speedup = ol.metrics.speedup_vs(&base.metrics);
        assert!(
            speedup < 1.0,
            "offloading per-access decompression must lose (paper: 2.8x worse): {speedup:.2}x"
        );
    }

    #[test]
    fn ideal_at_least_as_fast_as_real() {
        let scale = DecompressScale::test();
        let lev = run_decompress(DecompressVariant::Leviathan, &scale).unwrap();
        let ideal = run_decompress(DecompressVariant::Ideal, &scale).unwrap();
        let ratio = lev.metrics.cycles as f64 / ideal.metrics.cycles as f64;
        assert!(
            ratio >= 0.95,
            "ideal engines cannot be slower: ratio {ratio:.2}"
        );
    }
}
