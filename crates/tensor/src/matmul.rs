//! Packed, cache-tiled, thread-parallel single-precision matrix
//! multiplication.
//!
//! Every convolution in the workspace lowers to GEMM via im2col, so this
//! is the hot kernel of the entire reproduction. The implementation packs
//! the operands into cache-sized panels and multiplies them in a
//! register-blocked [`pack::MR`](crate::pack::MR)×[`pack::NR`](crate::pack::NR) micro-kernel (see
//! [`crate::pack`] for the tiling scheme); packing also absorbs the three
//! operand layouts (`A·B`, `Aᵀ·B`, `A·Bᵀ`) so one kernel serves the
//! forward, backward-weights and backward-data shapes without
//! materialising transposes. Parallelism splits the rows of `C` into
//! contiguous slabs via [`crate::parallel`]; the per-element summation
//! order (ascending `k`, in [`pack::KC`](crate::pack::KC) blocks) is independent of the
//! slab partition, so results are bit-identical for any worker count.
//! That is not MKL-grade, but it is within a small factor of peak for the
//! matrix shapes conv layers produce and it contains no unsafe code.
//!
//! Tiny products (where packing costs more than it saves) take a
//! branch-free scalar path chosen *by shape only*, never by worker count.

use crate::error::{Result, TensorError};
use crate::isa::{active_isa, Isa};
use crate::pack::{microkernel, microkernel_direct_b, pack_a, pack_b, KC, MC, MR, NC, NR};
use crate::parallel::{num_threads, par_chunks_mut};
use crate::scratch::with_scratch;
use crate::tensor::Tensor;

/// Products with fewer multiply-adds than this use the scalar fallback:
/// below it, panel packing costs more than the multiply itself.
const SMALL_GEMM_ELEMS: usize = 4096;

pub(crate) fn is_small(m: usize, k: usize, n: usize) -> bool {
    m * k * n <= SMALL_GEMM_ELEMS
}

// ---------------------------------------------------------------------------
// Fused store-phase epilogue
// ---------------------------------------------------------------------------

/// Per-row BatchNorm statistics for the fused epilogue, kept as the four
/// *separate* arrays the eval-mode layer path uses so the fused result is
/// bit-identical to running the layer sweeps one by one: the epilogue
/// performs `(((v - mean) * inv_std) * gamma) + beta` as four distinct
/// f32 operations in that order.
#[derive(Clone, Copy)]
pub struct BnEpilogue<'a> {
    /// Running mean per output row (channel).
    pub mean: &'a [f32],
    /// Precomputed `1 / sqrt(var + eps)` per row.
    pub inv_std: &'a [f32],
    /// Scale per row.
    pub gamma: &'a [f32],
    /// Shift per row.
    pub beta: &'a [f32],
}

/// Optional per-element epilogue applied while the micro-kernel's register
/// tile is being written back to `C` on the **final k-block**, replacing
/// the separate full-tensor bias / BatchNorm / LeakyReLU sweeps the layer
/// path would otherwise perform.
///
/// Contract (per element of row `r`): `t = v + bias[r]`; then, if `bn` is
/// set, the four BatchNorm ops in layer order (see [`BnEpilogue`]); then,
/// if `leaky_alpha` is set, `if t > 0.0 { t } else { alpha * t }`. Each
/// step is a single f32 operation matching the corresponding elementwise
/// layer sweep, so fused and layer-by-layer paths round identically.
///
/// Only valid with `accumulate = false` (the epilogue is a post-GEMM
/// transform, not a linear term, so it cannot distribute over `C += ...`).
#[derive(Clone, Copy)]
pub struct Epilogue<'a> {
    /// Bias per output row; `bias.len()` must cover every logical row.
    pub bias: &'a [f32],
    /// Optional eval-mode BatchNorm folded into the store phase.
    pub bn: Option<BnEpilogue<'a>>,
    /// Optional LeakyReLU negative slope.
    pub leaky_alpha: Option<f32>,
}

impl<'a> Epilogue<'a> {
    /// Bias-only epilogue (bit-identical to a separate `+ bias[c]` sweep).
    pub fn new(bias: &'a [f32]) -> Self {
        Self {
            bias,
            bn: None,
            leaky_alpha: None,
        }
    }

    /// Adds a LeakyReLU activation after bias (and BN, if any).
    pub fn leaky(mut self, alpha: f32) -> Self {
        self.leaky_alpha = Some(alpha);
        self
    }

    /// Adds an eval-mode BatchNorm between bias and activation.
    pub fn bn(mut self, bn: BnEpilogue<'a>) -> Self {
        self.bn = Some(bn);
        self
    }

    /// Applies the epilogue to one value belonging to logical row `row`.
    #[inline(always)]
    pub fn apply(&self, row: usize, v: f32) -> f32 {
        let mut t = v + self.bias[row];
        if let Some(bn) = &self.bn {
            t -= bn.mean[row];
            t *= bn.inv_std[row];
            t *= bn.gamma[row];
            t += bn.beta[row];
        }
        match self.leaky_alpha {
            Some(a) if t <= 0.0 => a * t,
            _ => t,
        }
    }

    /// Sweeps an already-computed row-major `rows × n` buffer, applying the
    /// epilogue in place. Used by the tiny-shape scalar GEMM path and by
    /// transposed convolutions, whose col2im scatter-add prevents fusing
    /// into the GEMM store itself.
    pub fn apply_rows(&self, c: &mut [f32], n: usize) {
        if n == 0 {
            return;
        }
        for (i, row) in c.chunks_mut(n).enumerate() {
            for v in row {
                *v = self.apply(i, *v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-ISA register tiles
// ---------------------------------------------------------------------------

/// The register-tile pair one monomorphization of the blocked driver is
/// built around. Implementations are zero-sized tier tokens; the driver
/// is generic over this trait so each ISA gets a fully monomorphized copy
/// — kernel *and* writeback/epilogue loops — compiled under a consistent
/// feature assumption.
trait TileKernel {
    /// `acc += panel(A) · panel(B)`; see [`microkernel`].
    fn tile(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]);
    /// `acc += panel(A) · B[·, tile]` read in place; see
    /// [`microkernel_direct_b`].
    fn tile_direct_b(kc: usize, ap: &[f32], b: &[f32], bstride: usize, acc: &mut [[f32; NR]; MR]);
}

/// Portable fallback tier: baseline target features, runs anywhere.
struct ScalarTile;

impl TileKernel for ScalarTile {
    #[inline(always)]
    fn tile(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        microkernel(kc, ap, bp, acc);
    }
    #[inline(always)]
    fn tile_direct_b(kc: usize, ap: &[f32], b: &[f32], bstride: usize, acc: &mut [[f32; NR]; MR]) {
        microkernel_direct_b(kc, ap, b, bstride, acc);
    }
}

/// AVX2+FMA tier. Only ever selected after CPUID confirms support.
#[cfg(target_arch = "x86_64")]
struct Avx2Tile;

#[cfg(target_arch = "x86_64")]
impl TileKernel for Avx2Tile {
    #[inline(always)]
    fn tile(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        // SAFETY: dispatch reaches this tier only when `active_isa()`
        // returned `Isa::Avx2`, which requires CPUID-verified AVX2+FMA.
        unsafe { crate::pack::tiers::microkernel_avx2(kc, ap, bp, acc) }
    }
    #[inline(always)]
    fn tile_direct_b(kc: usize, ap: &[f32], b: &[f32], bstride: usize, acc: &mut [[f32; NR]; MR]) {
        // SAFETY: as above.
        unsafe { crate::pack::tiers::microkernel_direct_b_avx2(kc, ap, b, bstride, acc) }
    }
}

/// AVX-512 tier. Only ever selected after CPUID confirms support.
#[cfg(target_arch = "x86_64")]
struct Avx512Tile;

#[cfg(target_arch = "x86_64")]
impl TileKernel for Avx512Tile {
    #[inline(always)]
    fn tile(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        // SAFETY: dispatch reaches this tier only when `active_isa()`
        // returned `Isa::Avx512` (CPUID-verified AVX-512 F/VL/DQ/BW).
        unsafe { crate::pack::tiers::microkernel_avx512(kc, ap, bp, acc) }
    }
    #[inline(always)]
    fn tile_direct_b(kc: usize, ap: &[f32], b: &[f32], bstride: usize, acc: &mut [[f32; NR]; MR]) {
        // SAFETY: as above.
        unsafe { crate::pack::tiers::microkernel_direct_b_avx512(kc, ap, b, bstride, acc) }
    }
}

// ---------------------------------------------------------------------------
// Packed blocked driver
// ---------------------------------------------------------------------------

/// Computes `C (+)= op(A) · op(B)` over an `m`-row slab of `C` using the
/// packed micro-kernel. Exposed for the oracle property tests; use the
/// `sgemm*` wrappers instead.
///
/// * `ta`/`tb` select the transposed layouts: with `ta`, `a` is stored
///   `k × m_total` and `a_rstride = m_total`; otherwise `a` is row-major
///   and `a_rstride = k`. With `tb`, `b` is stored `n × k` and
///   `b_cstride = k`; otherwise `b_cstride = n`.
/// * `row0` is the slab's first row in the *logical* `A`, so parallel
///   callers can hand each worker a disjoint `&mut` slab of `C` while
///   sharing the full `a`/`b` slices.
/// * with `accumulate` false, the first k-block *stores* its register
///   tile (no pre-zeroing pass over `C`, no read-modify-write); later
///   k-blocks and the `accumulate = true` mode add.
///
/// `B` is only packed for the transposed layout; row-major `B` is read in
/// place by [`microkernel_direct_b`] (full tiles) with a small stack
/// panel for the `n % NR` column remainder.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn sgemm_block(
    a: &[f32],
    ta: bool,
    a_rstride: usize,
    row0: usize,
    b: &[f32],
    tb: bool,
    b_cstride: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    sgemm_block_ep(
        a, ta, a_rstride, row0, b, tb, b_cstride, c, m, k, n, accumulate, None,
    );
}

/// [`sgemm_block`] with an optional fused [`Epilogue`] applied during the
/// final k-block's writeback, while each register tile is still hot. The
/// epilogue's row index is the *logical* row (`row0 + ` slab-local row),
/// so per-row arrays index correctly from parallel slabs too. Requires
/// `accumulate = false` when an epilogue is supplied.
///
/// This is the single choke point where runtime ISA dispatch happens:
/// every packed path funnels through here, and the tier is resolved once
/// per block call (amortized over the `O(mkn)` multiply). Selection
/// depends only on CPU capability and the `MTSR_FORCE_ISA`/test
/// overrides — never on shape, slab or worker count — so parallel slabs
/// of one product always run the same kernel and the bit-identity
/// contract holds per detected ISA.
#[allow(clippy::too_many_arguments)]
fn sgemm_block_ep(
    a: &[f32],
    ta: bool,
    a_rstride: usize,
    row0: usize,
    b: &[f32],
    tb: bool,
    b_cstride: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    ep: Option<&Epilogue<'_>>,
) {
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => sgemm_block_tiled::<Avx2Tile>(
            a, ta, a_rstride, row0, b, tb, b_cstride, c, m, k, n, accumulate, ep,
        ),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => sgemm_block_tiled::<Avx512Tile>(
            a, ta, a_rstride, row0, b, tb, b_cstride, c, m, k, n, accumulate, ep,
        ),
        // `active_isa` never yields a wide tier off x86-64.
        _ => sgemm_block_tiled::<ScalarTile>(
            a, ta, a_rstride, row0, b, tb, b_cstride, c, m, k, n, accumulate, ep,
        ),
    }
}

/// One per-ISA monomorphization of the blocked driver; see
/// [`sgemm_block_ep`] for the dispatch story and [`sgemm_block`] for the
/// blocking scheme.
#[allow(clippy::too_many_arguments)]
fn sgemm_block_tiled<Tile: TileKernel>(
    a: &[f32],
    ta: bool,
    a_rstride: usize,
    row0: usize,
    b: &[f32],
    tb: bool,
    b_cstride: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    ep: Option<&Epilogue<'_>>,
) {
    debug_assert_eq!(c.len(), m * n, "sgemm_block: bad C length");
    debug_assert!(
        ep.is_none() || !accumulate,
        "sgemm_block_ep: epilogue cannot combine with accumulate"
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
            if let Some(e) = ep {
                // Degenerate product: the epilogue still transforms the
                // zero matrix (bias/BN/activation of 0).
                for (r, row) in c.chunks_mut(n).enumerate() {
                    for v in row {
                        *v = e.apply(row0 + r, *v);
                    }
                }
            }
        }
        return;
    }
    let kc_max = KC.min(k);
    let a_panels = MC.min(m).div_ceil(MR);
    // Remainder panel for the last n % NR columns of row-major B
    // (transposed B packs everything into `bbuf` instead).
    let mut edge = [0.0f32; NR * KC];
    let b_panels = if tb { NC.min(n).div_ceil(NR) } else { 0 };
    with_scratch(b_panels * NR * kc_max, |bbuf| {
        with_scratch(a_panels * MR * kc_max, |abuf| {
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let store = !accumulate && pc == 0;
                    // The epilogue fires only once per element, when the
                    // last k-block finishes that element's accumulation.
                    let ep_now = if pc + kc == k { ep } else { None };
                    if tb {
                        pack_b(b, tb, b_cstride, pc, jc, kc, nc, bbuf);
                    } else if !nc.is_multiple_of(NR) {
                        let jr_last = (nc / NR) * NR;
                        pack_b(
                            b,
                            false,
                            b_cstride,
                            pc,
                            jc + jr_last,
                            kc,
                            nc - jr_last,
                            &mut edge,
                        );
                    }
                    for ic in (0..m).step_by(MC) {
                        let mc = MC.min(m - ic);
                        pack_a(a, ta, a_rstride, row0 + ic, pc, mc, kc, abuf);
                        for jr in (0..nc).step_by(NR) {
                            let nr_eff = NR.min(nc - jr);
                            for ir in (0..mc).step_by(MR) {
                                let mr_eff = MR.min(mc - ir);
                                let ap = &abuf[(ir / MR) * MR * kc..][..MR * kc];
                                let mut acc = [[0.0f32; NR]; MR];
                                if tb {
                                    let bp = &bbuf[(jr / NR) * NR * kc..][..NR * kc];
                                    Tile::tile(kc, ap, bp, &mut acc);
                                } else if nr_eff == NR {
                                    let b_tile = &b[pc * b_cstride + jc + jr..];
                                    Tile::tile_direct_b(kc, ap, b_tile, b_cstride, &mut acc);
                                } else {
                                    Tile::tile(kc, ap, &edge[..NR * kc], &mut acc);
                                }
                                for (r, acc_r) in acc.iter().take(mr_eff).enumerate() {
                                    let crow = &mut c[(ic + ir + r) * n + jc + jr..][..nr_eff];
                                    if let Some(e) = ep_now {
                                        let row = row0 + ic + ir + r;
                                        if store {
                                            for (cv, &av) in crow.iter_mut().zip(&acc_r[..nr_eff]) {
                                                *cv = e.apply(row, av);
                                            }
                                        } else {
                                            for (cv, &av) in crow.iter_mut().zip(&acc_r[..nr_eff]) {
                                                *cv = e.apply(row, *cv + av);
                                            }
                                        }
                                    } else if store {
                                        crow.copy_from_slice(&acc_r[..nr_eff]);
                                    } else {
                                        for (cv, &av) in crow.iter_mut().zip(&acc_r[..nr_eff]) {
                                            *cv += av;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        });
    });
}

// ---------------------------------------------------------------------------
// Branch-free scalar fallbacks for tiny shapes
// ---------------------------------------------------------------------------

fn small_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (l, &a_il) in a_row.iter().enumerate() {
            let b_row = &b[l * n..(l + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += a_il * bv;
            }
        }
    }
}

fn small_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    // l-i-j order: per k-row, a rank-1 update with contiguous B/C rows.
    for l in 0..k {
        let a_row = &a[l * m..(l + 1) * m];
        let b_row = &b[l * n..(l + 1) * n];
        for (i, &a_li) in a_row.iter().enumerate() {
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += a_li * bv;
            }
        }
    }
}

fn small_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut s = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                s += av * bv;
            }
            *cv += s;
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel entry points
// ---------------------------------------------------------------------------

/// Shared parallel driver: zero/keep `C`, then split its rows into
/// contiguous worker slabs. Layout selection (`ta`/`tb`) and the
/// small-shape fallback are decided by the *full* problem shape before
/// the split, so the arithmetic is identical for every worker count.
#[allow(clippy::too_many_arguments)]
fn sgemm_parallel(
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    let a_rstride = if ta { m } else { k };
    let b_cstride = if tb { k } else { n };
    if is_small(m, k, n) {
        if !accumulate {
            c.fill(0.0);
        }
        match (ta, tb) {
            (false, false) => small_nn(a, b, c, m, k, n),
            (true, false) => small_tn(a, b, c, m, k, n),
            (false, true) => small_nt(a, b, c, m, k, n),
            (true, true) => unreachable!("no TT shape in this workspace"),
        }
        return;
    }
    let workers = num_threads().min(m.div_ceil(MR)).max(1);
    if workers <= 1 {
        sgemm_block(
            a, ta, a_rstride, 0, b, tb, b_cstride, c, m, k, n, accumulate,
        );
        return;
    }
    let rows_per = m.div_ceil(workers);
    par_chunks_mut(c, rows_per * n, |blk, c_blk| {
        let row0 = blk * rows_per;
        let rows = c_blk.len() / n;
        sgemm_block(
            a, ta, a_rstride, row0, b, tb, b_cstride, c_blk, rows, k, n, accumulate,
        );
    });
}

/// `C = A · B` for row-major slices, `A: m×k`, `B: k×n`, `C: m×n`.
///
/// `c` is overwritten. Panics on slice-length mismatch (callers go through
/// the shape-checked [`matmul`] wrapper).
pub fn sgemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "sgemm: bad A length");
    assert_eq!(b.len(), k * n, "sgemm: bad B length");
    assert_eq!(c.len(), m * n, "sgemm: bad C length");
    let _span = mtsr_telemetry::span("tensor.sgemm");
    sgemm_parallel(a, false, b, false, c, m, k, n, false);
}

/// `C += A · B` — accumulating variant used for gradient accumulation
/// across a batch.
pub fn sgemm_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "sgemm_acc: bad A length");
    assert_eq!(b.len(), k * n, "sgemm_acc: bad B length");
    assert_eq!(c.len(), m * n, "sgemm_acc: bad C length");
    let _span = mtsr_telemetry::span("tensor.sgemm_acc");
    sgemm_parallel(a, false, b, false, c, m, k, n, true);
}

/// `C = Aᵀ · B` without materialising the transpose
/// (`A` stored `k×m`, `B: k×n`, `C: m×n`), thread-parallel.
pub fn sgemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "sgemm_tn: bad A length");
    assert_eq!(b.len(), k * n, "sgemm_tn: bad B length");
    assert_eq!(c.len(), m * n, "sgemm_tn: bad C length");
    let _span = mtsr_telemetry::span("tensor.sgemm_tn");
    sgemm_parallel(a, true, b, false, c, m, k, n, false);
}

/// `C = A · Bᵀ` without materialising the transpose
/// (`A: m×k`, `B` stored `n×k`, `C: m×n`), thread-parallel.
pub fn sgemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "sgemm_nt: bad A length");
    assert_eq!(b.len(), n * k, "sgemm_nt: bad B length");
    assert_eq!(c.len(), m * n, "sgemm_nt: bad C length");
    let _span = mtsr_telemetry::span("tensor.sgemm_nt");
    sgemm_parallel(a, false, b, true, c, m, k, n, false);
}

// ---------------------------------------------------------------------------
// Serial entry points (called per-sample inside batch-parallel conv loops)
// ---------------------------------------------------------------------------

/// Serial `C = A · B` (optionally accumulating).
///
/// Convolution kernels parallelise across the batch and call this serial
/// kernel per sample; using the parallel [`sgemm`] there would nest
/// parallel regions for no benefit on the small per-sample matrices.
pub fn sgemm_serial(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "sgemm_serial: bad A length");
    assert_eq!(b.len(), k * n, "sgemm_serial: bad B length");
    assert_eq!(c.len(), m * n, "sgemm_serial: bad C length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || is_small(m, k, n) {
        if !accumulate {
            c.fill(0.0);
        }
        small_nn(a, b, c, m, k, n);
    } else {
        sgemm_block(a, false, k, 0, b, false, n, c, m, k, n, accumulate);
    }
}

/// Serial `C = epilogue(A · B)`: [`sgemm_serial`] with the bias/BN/LReLU
/// [`Epilogue`] fused into the packed kernel's store phase. The product
/// accumulation order is exactly [`sgemm_serial`]'s, and the epilogue ops
/// round exactly like the separate layer sweeps, so the result is
/// bit-identical to `sgemm_serial` + per-row sweeps — just without the
/// extra passes over `C`. Tiny shapes compute the scalar product first
/// and sweep afterwards (same arithmetic, shape-selected like the
/// fallback itself).
pub fn sgemm_serial_fused(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: &Epilogue<'_>,
) {
    assert_eq!(a.len(), m * k, "sgemm_serial_fused: bad A length");
    assert_eq!(b.len(), k * n, "sgemm_serial_fused: bad B length");
    assert_eq!(c.len(), m * n, "sgemm_serial_fused: bad C length");
    assert!(
        ep.bias.len() >= m,
        "sgemm_serial_fused: bias shorter than m"
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || is_small(m, k, n) {
        c.fill(0.0);
        small_nn(a, b, c, m, k, n);
        ep.apply_rows(c, n);
    } else {
        sgemm_block_ep(a, false, k, 0, b, false, n, c, m, k, n, false, Some(ep));
    }
}

/// Serial `C = Aᵀ · B` without materialising the transpose
/// (`A: k×m`, `B: k×n`, `C: m×n`).
pub fn sgemm_tn_serial(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(a.len(), k * m, "sgemm_tn_serial: bad A length");
    assert_eq!(b.len(), k * n, "sgemm_tn_serial: bad B length");
    assert_eq!(c.len(), m * n, "sgemm_tn_serial: bad C length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || is_small(m, k, n) {
        if !accumulate {
            c.fill(0.0);
        }
        small_tn(a, b, c, m, k, n);
    } else {
        sgemm_block(a, true, m, 0, b, false, n, c, m, k, n, accumulate);
    }
}

/// Serial `C = A · Bᵀ` (`A: m×k`, `B: n×k`, `C: m×n`).
pub fn sgemm_nt_serial(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "sgemm_nt_serial: bad A length");
    assert_eq!(b.len(), n * k, "sgemm_nt_serial: bad B length");
    assert_eq!(c.len(), m * n, "sgemm_nt_serial: bad C length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || is_small(m, k, n) {
        if !accumulate {
            c.fill(0.0);
        }
        small_nt(a, b, c, m, k, n);
    } else {
        sgemm_block(a, false, k, 0, b, true, k, c, m, k, n, accumulate);
    }
}

// ---------------------------------------------------------------------------
// Shape-checked tensor wrappers
// ---------------------------------------------------------------------------

fn rank2_dims(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    let d = t.dims();
    if d.len() != 2 {
        return Err(TensorError::InvalidShape {
            op,
            reason: format!("expected rank-2 operand, got {}", t.shape()),
        });
    }
    Ok((d[0], d[1]))
}

/// Shape-checked matrix product of two rank-2 tensors.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = rank2_dims(a, "matmul")?;
    let (k2, n) = rank2_dims(b, "matmul")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros([m, n]);
    sgemm(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    Ok(c)
}

/// `Aᵀ · B` (A is `k×m`): the shape that appears in backward-weights.
///
/// The packed kernel absorbs the transpose at pack time, so no transposed
/// copy of `A` is ever materialised.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = rank2_dims(a, "matmul_tn")?;
    let (k2, n) = rank2_dims(b, "matmul_tn")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_tn",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros([m, n]);
    sgemm_tn(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    Ok(c)
}

/// `A · Bᵀ` (B is `n×k`): the shape that appears in backward-data.
///
/// Like [`matmul_tn`], the transpose is absorbed by the packing stage.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = rank2_dims(a, "matmul_nt")?;
    let (n, k2) = rank2_dims(b, "matmul_nt")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros([m, n]);
    sgemm_nt(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    Ok(c)
}

/// Naive triple-loop reference used by tests and property checks.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = rank2_dims(a, "matmul_naive")?;
    let (k2, n) = rank2_dims(b, "matmul_naive")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_naive",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros([m, n]);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f64;
            for l in 0..k {
                s += av[i * k + l] as f64 * bv[l * n + j] as f64;
            }
            cv[i * n + j] = s as f32;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::rand_normal([7, 7], 0.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros([7, 7]);
        for i in 0..7 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        let c = matmul(&a, &eye).unwrap();
        for (x, y) in c.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matches_naive_on_random_shapes() {
        let mut rng = Rng::seed_from(2);
        // Shapes straddling the small-gemm threshold and the tile sizes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 3, 4),
            (33, 17, 29),
            (64, 10, 2),
            (48, 48, 48),
        ] {
            let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_naive(&a, &b).unwrap();
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-3, "m={m} k={k} n={n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn transposed_variants() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::rand_normal([6, 4], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([6, 5], 0.0, 1.0, &mut rng);
        // matmul_tn(a, b) == aᵀ b
        let tn = matmul_tn(&a, &b).unwrap();
        let refr = matmul_naive(&a.transpose2d().unwrap(), &b).unwrap();
        assert_eq!(tn.dims(), &[4, 5]);
        for (x, y) in tn.as_slice().iter().zip(refr.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
        // matmul_nt(aᵀ·shape, ...)
        let c = Tensor::rand_normal([5, 4], 0.0, 1.0, &mut rng);
        let nt = matmul_nt(&a, &c).unwrap(); // [6,4]x[5,4]ᵀ -> [6,5]
        let refr = matmul_naive(&a, &c.transpose2d().unwrap()).unwrap();
        for (x, y) in nt.as_slice().iter().zip(refr.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_tn(&a, &b).is_err());
        assert!(matmul_nt(&a, &Tensor::zeros([4, 4])).is_err());
        let v = Tensor::zeros([3]);
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn accumulating_gemm_adds() {
        let a = Tensor::ones([2, 2]);
        let b = Tensor::ones([2, 2]);
        let mut c = Tensor::ones([2, 2]);
        sgemm_acc(a.as_slice(), b.as_slice(), c.as_mut_slice(), 2, 2, 2);
        assert_eq!(c.as_slice(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn serial_variants_match_parallel() {
        let mut rng = Rng::seed_from(4);
        let (m, k, n) = (9, 11, 7);
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        let refr = matmul_naive(&a, &b).unwrap();

        let mut c = vec![0.0; m * n];
        sgemm_serial(a.as_slice(), b.as_slice(), &mut c, m, k, n, false);
        for (x, y) in c.iter().zip(refr.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }

        // tn: pass aᵀ
        let at = a.transpose2d().unwrap();
        let mut c2 = vec![0.0; m * n];
        sgemm_tn_serial(at.as_slice(), b.as_slice(), &mut c2, m, k, n, false);
        for (x, y) in c2.iter().zip(refr.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }

        // nt: pass bᵀ
        let bt = b.transpose2d().unwrap();
        let mut c3 = vec![0.0; m * n];
        sgemm_nt_serial(a.as_slice(), bt.as_slice(), &mut c3, m, k, n, false);
        for (x, y) in c3.iter().zip(refr.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn serial_accumulate_flag() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 0.0, 0.0, 2.0];
        let mut c = vec![1.0; 4];
        sgemm_serial(&a, &b, &mut c, 2, 2, 2, true);
        assert_eq!(c, vec![3.0, 1.0, 1.0, 3.0]);
        sgemm_serial(&a, &b, &mut c, 2, 2, 2, false);
        assert_eq!(c, vec![2.0, 0.0, 0.0, 2.0]);
    }

    /// `(mean, inv_std, gamma, beta)` per-row BN arrays for the reference.
    type BnArrays<'a> = (&'a [f32], &'a [f32], &'a [f32], &'a [f32]);

    /// Unfused reference for the epilogue contract: plain GEMM followed by
    /// the separate per-row sweeps in layer order, each a single f32 op.
    #[allow(clippy::too_many_arguments)]
    fn fused_reference(
        a: &Tensor,
        b: &Tensor,
        m: usize,
        k: usize,
        n: usize,
        bias: &[f32],
        bn: Option<BnArrays<'_>>,
        alpha: Option<f32>,
    ) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        sgemm_serial(a.as_slice(), b.as_slice(), &mut c, m, k, n, false);
        for i in 0..m {
            for v in &mut c[i * n..(i + 1) * n] {
                *v += bias[i];
            }
        }
        if let Some((mean, inv_std, gamma, beta)) = bn {
            for i in 0..m {
                for v in &mut c[i * n..(i + 1) * n] {
                    *v -= mean[i];
                }
            }
            for i in 0..m {
                for v in &mut c[i * n..(i + 1) * n] {
                    *v *= inv_std[i];
                }
            }
            for i in 0..m {
                for v in &mut c[i * n..(i + 1) * n] {
                    *v *= gamma[i];
                }
            }
            for i in 0..m {
                for v in &mut c[i * n..(i + 1) * n] {
                    *v += beta[i];
                }
            }
        }
        if let Some(a) = alpha {
            for v in &mut c {
                *v = if *v > 0.0 { *v } else { a * *v };
            }
        }
        c
    }

    #[test]
    fn fused_epilogue_bitexact_vs_sweeps() {
        let mut rng = Rng::seed_from(21);
        // Shapes covering: scalar fallback, single k-block, multi k-block
        // (k > KC = 256), row remainder (m % MR != 0), column remainder
        // (n % NR != 0), and multiple MC row blocks (m > 128).
        for &(m, k, n) in &[(3, 2, 5), (16, 144, 100), (20, 300, 41), (133, 260, 23)] {
            let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
            let bias: Vec<f32> = (0..m).map(|_| rng.normal(0.0, 1.0)).collect();
            let mean: Vec<f32> = (0..m).map(|_| rng.normal(0.0, 0.5)).collect();
            let inv_std: Vec<f32> = (0..m).map(|_| 1.0 + rng.normal(0.0, 0.1).abs()).collect();
            let gamma: Vec<f32> = (0..m).map(|_| rng.normal(1.0, 0.2)).collect();
            let beta: Vec<f32> = (0..m).map(|_| rng.normal(0.0, 0.3)).collect();

            // Bias only.
            let mut c = vec![0.0; m * n];
            sgemm_serial_fused(
                a.as_slice(),
                b.as_slice(),
                &mut c,
                m,
                k,
                n,
                &Epilogue::new(&bias),
            );
            let r = fused_reference(&a, &b, m, k, n, &bias, None, None);
            assert_eq!(c, r, "bias-only m={m} k={k} n={n}");

            // Bias + LeakyReLU.
            let ep = Epilogue::new(&bias).leaky(0.1);
            let mut c = vec![0.0; m * n];
            sgemm_serial_fused(a.as_slice(), b.as_slice(), &mut c, m, k, n, &ep);
            let r = fused_reference(&a, &b, m, k, n, &bias, None, Some(0.1));
            assert_eq!(c, r, "bias+lrelu m={m} k={k} n={n}");

            // Bias + BN + LeakyReLU (the full eval-mode block epilogue).
            let ep = Epilogue::new(&bias)
                .bn(BnEpilogue {
                    mean: &mean,
                    inv_std: &inv_std,
                    gamma: &gamma,
                    beta: &beta,
                })
                .leaky(0.1);
            let mut c = vec![0.0; m * n];
            sgemm_serial_fused(a.as_slice(), b.as_slice(), &mut c, m, k, n, &ep);
            let r = fused_reference(
                &a,
                &b,
                m,
                k,
                n,
                &bias,
                Some((&mean, &inv_std, &gamma, &beta)),
                Some(0.1),
            );
            assert_eq!(c, r, "bias+bn+lrelu m={m} k={k} n={n}");
        }
    }

    #[test]
    fn degenerate_dims() {
        // k == 0: product of [2,0]x[0,3] is a zero matrix.
        let a = Tensor::zeros([2, 0]);
        let b = Tensor::zeros([0, 3]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }
}
