//! Patch gather/scatter (im2col / col2im) for 2D and 3D convolutions.
//!
//! `im2col` unrolls every receptive field of a `[C, H, W]` (or
//! `[C, D, H, W]`) sample into one column of a matrix, so that a
//! convolution becomes a single GEMM with the kernel matrix. `col2im` is
//! its exact adjoint (a scatter-*add*), which is what backward-data and
//! transposed convolutions need.
//!
//! The 3D variants carry the temporal axis `D` that ZipNet's 3D upscaling
//! blocks use to mix the `S` historical traffic frames (§3.2).

use crate::error::{Result, TensorError};

/// Geometry of a 2D convolution over one `[C, H, W]` sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geom2d {
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Vertical zero-padding (symmetric).
    pub ph: usize,
    /// Horizontal zero-padding (symmetric).
    pub pw: usize,
}

impl Geom2d {
    /// Output height `⌊(H + 2·ph − kh)/sh⌋ + 1`.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.ph - self.kh) / self.sh + 1
    }

    /// Output width `⌊(W + 2·pw − kw)/sw⌋ + 1`.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pw - self.kw) / self.sw + 1
    }

    /// Rows of the im2col matrix: `C·kh·kw`.
    pub fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the im2col matrix: `out_h·out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Total element count of the im2col matrix — the scratch size a
    /// caller must check out for [`with_im2col2d`].
    pub fn col_len(&self) -> usize {
        self.col_rows() * self.col_cols()
    }

    /// Validates that the geometry is realisable.
    pub fn validate(&self) -> Result<()> {
        if self.sh == 0 || self.sw == 0 {
            return Err(TensorError::InvalidConv {
                reason: "stride must be positive".into(),
            });
        }
        if self.kh == 0 || self.kw == 0 || self.c == 0 {
            return Err(TensorError::InvalidConv {
                reason: "kernel dims and channels must be positive".into(),
            });
        }
        if self.h + 2 * self.ph < self.kh || self.w + 2 * self.pw < self.kw {
            return Err(TensorError::InvalidConv {
                reason: format!(
                    "kernel {}x{} larger than padded input {}x{}",
                    self.kh,
                    self.kw,
                    self.h + 2 * self.ph,
                    self.w + 2 * self.pw
                ),
            });
        }
        Ok(())
    }
}

/// Fills one `ow`-wide im2col output row from input row `x_row` for
/// kernel column `kw`: the unit-stride copy when `sw == 1`, else the
/// per-element gather.
#[inline]
fn gather_row(x_row: &[f32], dst: &mut [f32], kw: usize, sw: usize, pw: usize) {
    if sw == 1 {
        gather_row_unit_stride(x_row, dst, kw, pw);
    } else {
        gather_row_strided(x_row, dst, kw, sw, pw);
    }
}

/// Adjoint of [`gather_row`]: accumulates `src` into `x_row`.
#[inline]
fn scatter_row(src: &[f32], x_row: &mut [f32], kw: usize, sw: usize, pw: usize) {
    if sw == 1 {
        scatter_row_unit_stride(src, x_row, kw, pw);
    } else {
        scatter_row_strided(src, x_row, kw, sw, pw);
    }
}

/// Per-element gather of one im2col row for any horizontal stride; taps
/// in the padding read zero. The fast paths below must reproduce it bit
/// for bit.
fn gather_row_strided(x_row: &[f32], dst: &mut [f32], kw: usize, sw: usize, pw: usize) {
    let w = x_row.len() as isize;
    for (ox, d) in dst.iter_mut().enumerate() {
        let ix = (ox * sw + kw) as isize - pw as isize;
        *d = if ix < 0 || ix >= w {
            0.0
        } else {
            x_row[ix as usize]
        };
    }
}

/// Adjoint of [`gather_row_strided`]: scatter-adds `src` into `x_row`,
/// dropping padding taps.
fn scatter_row_strided(src: &[f32], x_row: &mut [f32], kw: usize, sw: usize, pw: usize) {
    let w = x_row.len() as isize;
    for (ox, &s) in src.iter().enumerate() {
        let ix = (ox * sw + kw) as isize - pw as isize;
        if ix >= 0 && ix < w {
            x_row[ix as usize] += s;
        }
    }
}

/// Fills one `ow`-wide im2col output row for unit horizontal stride: the
/// taps that fall into the padding are zeroed, the in-bounds span is one
/// contiguous copy. Produces exactly the values of the per-element
/// gather — this is purely a memory-access optimisation, and it is the
/// hot loop of every 3×3 "same" convolution in the model.
#[inline]
fn gather_row_unit_stride(x_row: &[f32], dst: &mut [f32], kw: usize, pw: usize) {
    let w = x_row.len() as isize;
    let ow = dst.len() as isize;
    let start = kw as isize - pw as isize; // input column at output column 0
    let lo = (-start).clamp(0, ow) as usize;
    let hi = (w - start).clamp(lo as isize, ow) as usize;
    dst[..lo].fill(0.0);
    if hi > lo {
        let s0 = (start + lo as isize) as usize;
        dst[lo..hi].copy_from_slice(&x_row[s0..s0 + (hi - lo)]);
    }
    dst[hi..].fill(0.0);
}

/// Fills one `h·w` im2col output plane in one pass for the
/// unit-stride, same-size case (`sh == sw == 1`, `oh == h`, `ow == w`):
/// the whole plane is a single constant-offset copy of the source plane,
/// followed by zeroing the rows and columns whose tap falls into the
/// padding. Produces exactly the bytes of `oh` calls of
/// [`gather_row_unit_stride`] while replacing `oh` short row copies
/// (24–192 bytes each here) with one bulk copy — per-row call overhead
/// is the dominant cost of im2col on the 12×12 conv3d planes.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gather_plane_shift(
    x_plane: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
) {
    debug_assert_eq!(x_plane.len(), h * w);
    debug_assert_eq!(dst.len(), h * w);
    let sr = kh as isize - ph as isize; // source row offset at output row 0
    let sc = kw as isize - pw as isize; // source column offset at output column 0
    if sc.unsigned_abs() >= w {
        dst.fill(0.0);
        return;
    }
    let lo_y = (-sr).clamp(0, h as isize) as usize;
    let hi_y = (h as isize - sr).clamp(lo_y as isize, h as isize) as usize;
    dst[..lo_y * w].fill(0.0);
    dst[hi_y * w..].fill(0.0);
    if hi_y > lo_y {
        let total = (hi_y - lo_y) * w;
        let dst_off = lo_y * w;
        let src_off = (lo_y as isize + sr) * w as isize + sc;
        // The copy's first/last element can sit one padding column
        // outside the source plane; clip it — every clipped element
        // belongs to a zeroed column below.
        let lead = (-src_off).clamp(0, total as isize) as usize;
        let trail = (src_off + total as isize - x_plane.len() as isize)
            .clamp(0, (total - lead) as isize) as usize;
        dst[dst_off + lead..dst_off + total - trail].copy_from_slice(
            &x_plane
                [(src_off + lead as isize) as usize..(src_off + (total - trail) as isize) as usize],
        );
        // Columns whose tap is in the horizontal padding read zero. This
        // also (re)writes any elements the clip above skipped.
        if sc > 0 {
            for oy in lo_y..hi_y {
                dst[oy * w + (w - sc as usize)..(oy + 1) * w].fill(0.0);
            }
        } else if sc < 0 {
            for oy in lo_y..hi_y {
                dst[oy * w..oy * w + sc.unsigned_abs()].fill(0.0);
            }
        }
    }
}

/// Whether [`gather_plane_shift`] applies: unit strides and same-size
/// output planes.
#[inline]
fn plane_fast_path(sh: usize, sw: usize, oh: usize, ow: usize, h: usize, w: usize) -> bool {
    sh == 1 && sw == 1 && oh == h && ow == w
}

/// Adjoint of [`gather_row_unit_stride`]: accumulates the in-bounds span
/// of `src` into `x_row` (padding taps are dropped).
#[inline]
fn scatter_row_unit_stride(src: &[f32], x_row: &mut [f32], kw: usize, pw: usize) {
    let w = x_row.len() as isize;
    let ow = src.len() as isize;
    let start = kw as isize - pw as isize;
    let lo = (-start).clamp(0, ow) as usize;
    let hi = (w - start).clamp(lo as isize, ow) as usize;
    if hi > lo {
        let s0 = (start + lo as isize) as usize;
        for (d, s) in x_row[s0..s0 + (hi - lo)].iter_mut().zip(&src[lo..hi]) {
            *d += *s;
        }
    }
}

/// Gathers input patches into `cols` (`[C·kh·kw, OH·OW]`, row-major).
///
/// `x` is one `[C, H, W]` sample; out-of-bounds (padding) taps read zero.
pub fn im2col2d(x: &[f32], g: &Geom2d, cols: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    debug_assert_eq!(x.len(), g.c * g.h * g.w);
    debug_assert_eq!(cols.len(), g.col_rows() * g.col_cols());
    let plane_fast = plane_fast_path(g.sh, g.sw, oh, ow, g.h, g.w);
    let ncols = oh * ow;
    for c in 0..g.c {
        let x_c = &x[c * g.h * g.w..(c + 1) * g.h * g.w];
        for kh in 0..g.kh {
            for kw in 0..g.kw {
                let row = (c * g.kh + kh) * g.kw + kw;
                let out_row = &mut cols[row * ncols..(row + 1) * ncols];
                if plane_fast {
                    gather_plane_shift(x_c, out_row, g.h, g.w, kh, kw, g.ph, g.pw);
                    continue;
                }
                for oy in 0..oh {
                    let iy = (oy * g.sh + kh) as isize - g.ph as isize;
                    let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= g.h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let x_row = &x_c[iy as usize * g.w..(iy as usize + 1) * g.w];
                    gather_row(x_row, dst, kw, g.sw, g.pw);
                }
            }
        }
    }
}

/// Scatter-adds `cols` back into `x` — the exact adjoint of [`im2col2d`].
///
/// `x` is *accumulated into*, not overwritten; zero it first when computing
/// a fresh gradient.
pub fn col2im2d(cols: &[f32], g: &Geom2d, x: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    debug_assert_eq!(x.len(), g.c * g.h * g.w);
    debug_assert_eq!(cols.len(), g.col_rows() * g.col_cols());
    let ncols = oh * ow;
    for c in 0..g.c {
        let x_c = &mut x[c * g.h * g.w..(c + 1) * g.h * g.w];
        for kh in 0..g.kh {
            for kw in 0..g.kw {
                let row = (c * g.kh + kh) * g.kw + kw;
                let src_row = &cols[row * ncols..(row + 1) * ncols];
                for oy in 0..oh {
                    let iy = (oy * g.sh + kh) as isize - g.ph as isize;
                    if iy < 0 || iy >= g.h as isize {
                        continue;
                    }
                    let x_row = &mut x_c[iy as usize * g.w..(iy as usize + 1) * g.w];
                    let src = &src_row[oy * ow..(oy + 1) * ow];
                    scatter_row(src, x_row, kw, g.sw, g.pw);
                }
            }
        }
    }
}

/// Runs `f` with the im2col matrix of `x` materialised in a pooled
/// scratch buffer ([`crate::scratch`]), avoiding a fresh `[C·kh·kw,
/// OH·OW]` allocation per call. This is the allocation-free path the
/// conv kernels use once per batch element.
pub fn with_im2col2d<R>(x: &[f32], g: &Geom2d, f: impl FnOnce(&mut [f32]) -> R) -> R {
    crate::scratch::with_scratch(g.col_len(), |cols| {
        im2col2d(x, g, cols);
        f(cols)
    })
}

/// Geometry of a 3D convolution over one `[C, D, H, W]` sample (`D` is the
/// temporal axis holding the `S` historical frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geom3d {
    /// Input channels.
    pub c: usize,
    /// Temporal depth.
    pub d: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel depth (temporal extent).
    pub kd: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Temporal stride.
    pub sd: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Temporal padding.
    pub pd: usize,
    /// Vertical padding.
    pub ph: usize,
    /// Horizontal padding.
    pub pw: usize,
}

impl Geom3d {
    /// Output temporal depth.
    pub fn out_d(&self) -> usize {
        (self.d + 2 * self.pd - self.kd) / self.sd + 1
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.ph - self.kh) / self.sh + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pw - self.kw) / self.sw + 1
    }

    /// Rows of the im2col matrix: `C·kd·kh·kw`.
    pub fn col_rows(&self) -> usize {
        self.c * self.kd * self.kh * self.kw
    }

    /// Columns of the im2col matrix: `OD·OH·OW`.
    pub fn col_cols(&self) -> usize {
        self.out_d() * self.out_h() * self.out_w()
    }

    /// Total element count of the im2col matrix — the scratch size a
    /// caller must check out for [`with_im2col3d`].
    pub fn col_len(&self) -> usize {
        self.col_rows() * self.col_cols()
    }

    /// Validates that the geometry is realisable.
    pub fn validate(&self) -> Result<()> {
        if self.sd == 0 || self.sh == 0 || self.sw == 0 {
            return Err(TensorError::InvalidConv {
                reason: "stride must be positive".into(),
            });
        }
        if self.kd == 0 || self.kh == 0 || self.kw == 0 || self.c == 0 {
            return Err(TensorError::InvalidConv {
                reason: "kernel dims and channels must be positive".into(),
            });
        }
        if self.d + 2 * self.pd < self.kd
            || self.h + 2 * self.ph < self.kh
            || self.w + 2 * self.pw < self.kw
        {
            return Err(TensorError::InvalidConv {
                reason: format!(
                    "kernel {}x{}x{} larger than padded input {}x{}x{}",
                    self.kd,
                    self.kh,
                    self.kw,
                    self.d + 2 * self.pd,
                    self.h + 2 * self.ph,
                    self.w + 2 * self.pw
                ),
            });
        }
        Ok(())
    }
}

/// 3D analogue of [`im2col2d`]: gathers `[C, D, H, W]` patches into
/// `[C·kd·kh·kw, OD·OH·OW]`.
pub fn im2col3d(x: &[f32], g: &Geom3d, cols: &mut [f32]) {
    let (od, oh, ow) = (g.out_d(), g.out_h(), g.out_w());
    debug_assert_eq!(x.len(), g.c * g.d * g.h * g.w);
    debug_assert_eq!(cols.len(), g.col_rows() * g.col_cols());
    let plane_fast = plane_fast_path(g.sh, g.sw, oh, ow, g.h, g.w);
    let ncols = od * oh * ow;
    let plane = g.h * g.w;
    for c in 0..g.c {
        let x_c = &x[c * g.d * plane..(c + 1) * g.d * plane];
        for kd in 0..g.kd {
            for kh in 0..g.kh {
                for kw in 0..g.kw {
                    let row = ((c * g.kd + kd) * g.kh + kh) * g.kw + kw;
                    let out_row = &mut cols[row * ncols..(row + 1) * ncols];
                    for oz in 0..od {
                        let iz = (oz * g.sd + kd) as isize - g.pd as isize;
                        if plane_fast {
                            let seg = &mut out_row[oz * plane..(oz + 1) * plane];
                            if iz < 0 || iz >= g.d as isize {
                                seg.fill(0.0);
                            } else {
                                let src = &x_c[iz as usize * plane..(iz as usize + 1) * plane];
                                gather_plane_shift(src, seg, g.h, g.w, kh, kw, g.ph, g.pw);
                            }
                            continue;
                        }
                        for oy in 0..oh {
                            let iy = (oy * g.sh + kh) as isize - g.ph as isize;
                            let base = (oz * oh + oy) * ow;
                            let dst = &mut out_row[base..base + ow];
                            if iz < 0 || iz >= g.d as isize || iy < 0 || iy >= g.h as isize {
                                dst.fill(0.0);
                                continue;
                            }
                            let x_row = &x_c[(iz as usize * g.h + iy as usize) * g.w
                                ..(iz as usize * g.h + iy as usize) * g.w + g.w];
                            gather_row(x_row, dst, kw, g.sw, g.pw);
                        }
                    }
                }
            }
        }
    }
}

/// 3D analogue of [`col2im2d`] (scatter-add adjoint of [`im2col3d`]).
pub fn col2im3d(cols: &[f32], g: &Geom3d, x: &mut [f32]) {
    let (od, oh, ow) = (g.out_d(), g.out_h(), g.out_w());
    debug_assert_eq!(x.len(), g.c * g.d * g.h * g.w);
    debug_assert_eq!(cols.len(), g.col_rows() * g.col_cols());
    let ncols = od * oh * ow;
    let plane = g.h * g.w;
    for c in 0..g.c {
        let x_c = &mut x[c * g.d * plane..(c + 1) * g.d * plane];
        for kd in 0..g.kd {
            for kh in 0..g.kh {
                for kw in 0..g.kw {
                    let row = ((c * g.kd + kd) * g.kh + kh) * g.kw + kw;
                    let src_row = &cols[row * ncols..(row + 1) * ncols];
                    for oz in 0..od {
                        let iz = (oz * g.sd + kd) as isize - g.pd as isize;
                        if iz < 0 || iz >= g.d as isize {
                            continue;
                        }
                        for oy in 0..oh {
                            let iy = (oy * g.sh + kh) as isize - g.ph as isize;
                            if iy < 0 || iy >= g.h as isize {
                                continue;
                            }
                            let base = (oz * oh + oy) * ow;
                            let src = &src_row[base..base + ow];
                            let x_row = &mut x_c[(iz as usize * g.h + iy as usize) * g.w
                                ..(iz as usize * g.h + iy as usize) * g.w + g.w];
                            scatter_row(src, x_row, kw, g.sw, g.pw);
                        }
                    }
                }
            }
        }
    }
}

/// Gathers the im2col rows of a **single output depth** `oz`, restricted
/// to the valid temporal taps `kd ∈ [kd_lo, kd_hi)` (callers pass the
/// range whose input planes `iz = oz·sd + kd − pd` are in bounds).
///
/// `cols` is `[C·(kd_hi−kd_lo)·KH·KW, OH·OW]` with rows in the same
/// `(c, kd, kh, kw)` order as [`im2col3d`] — i.e. exactly the full
/// matrix's column block for `oz` with its all-zero depth-tap rows
/// removed. Dropping rows that are identically zero removes their
/// `w·0` terms from the GEMM's ascending-`k` accumulation, which leaves
/// every partial sum bit-identical; this is what lets the conv3d forward
/// skip the structurally-zero work same-padding creates at the temporal
/// edges without changing results.
pub fn im2col3d_oz(x: &[f32], g: &Geom3d, oz: usize, kd_lo: usize, kd_hi: usize, cols: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    debug_assert!(kd_lo < kd_hi && kd_hi <= g.kd);
    debug_assert_eq!(cols.len(), g.c * (kd_hi - kd_lo) * g.kh * g.kw * oh * ow);
    let plane_fast = plane_fast_path(g.sh, g.sw, oh, ow, g.h, g.w);
    let ncols = oh * ow;
    let plane = g.h * g.w;
    let mut row = 0usize;
    for c in 0..g.c {
        let x_c = &x[c * g.d * plane..(c + 1) * g.d * plane];
        for kd in kd_lo..kd_hi {
            let iz = oz * g.sd + kd - g.pd; // in bounds by caller contract
            debug_assert!(iz < g.d);
            for kh in 0..g.kh {
                for kw in 0..g.kw {
                    let out_row = &mut cols[row * ncols..(row + 1) * ncols];
                    row += 1;
                    if plane_fast {
                        let src = &x_c[iz * plane..(iz + 1) * plane];
                        gather_plane_shift(src, out_row, g.h, g.w, kh, kw, g.ph, g.pw);
                        continue;
                    }
                    for oy in 0..oh {
                        let iy = (oy * g.sh + kh) as isize - g.ph as isize;
                        let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                        if iy < 0 || iy >= g.h as isize {
                            dst.fill(0.0);
                            continue;
                        }
                        let base = (iz * g.h + iy as usize) * g.w;
                        let x_row = &x_c[base..base + g.w];
                        gather_row(x_row, dst, kw, g.sw, g.pw);
                    }
                }
            }
        }
    }
}

/// 3D analogue of [`with_im2col2d`]: materialises the im2col matrix in a
/// pooled scratch buffer and hands it to `f`.
pub fn with_im2col3d<R>(x: &[f32], g: &Geom3d, f: impl FnOnce(&mut [f32]) -> R) -> R {
    crate::scratch::with_scratch(g.col_len(), |cols| {
        im2col3d(x, g, cols);
        f(cols)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::tensor::Tensor;

    #[test]
    fn geom2d_output_sizes() {
        // "same" conv: 3x3 kernel, stride 1, pad 1.
        let g = Geom2d {
            c: 1,
            h: 8,
            w: 8,
            kh: 3,
            kw: 3,
            sh: 1,
            sw: 1,
            ph: 1,
            pw: 1,
        };
        assert_eq!((g.out_h(), g.out_w()), (8, 8));
        // stride-2 downsample
        let g2 = Geom2d { sh: 2, sw: 2, ..g };
        assert_eq!((g2.out_h(), g2.out_w()), (4, 4));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn geom_validation_rejects_bad() {
        let g = Geom2d {
            c: 1,
            h: 2,
            w: 2,
            kh: 5,
            kw: 5,
            sh: 1,
            sw: 1,
            ph: 0,
            pw: 0,
        };
        assert!(g.validate().is_err());
        let g0 = Geom2d {
            sh: 0,
            kh: 1,
            kw: 1,
            ..g
        };
        assert!(g0.validate().is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: cols equal the input verbatim.
        let g = Geom2d {
            c: 2,
            h: 3,
            w: 3,
            kh: 1,
            kw: 1,
            sh: 1,
            sw: 1,
            ph: 0,
            pw: 0,
        };
        let x: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col2d(&x, &g, &mut cols);
        assert_eq!(cols, x);
    }

    #[test]
    fn im2col_known_patch() {
        // 2x2 input, 2x2 kernel, no pad: single column = the whole input.
        let g = Geom2d {
            c: 1,
            h: 2,
            w: 2,
            kh: 2,
            kw: 2,
            sh: 1,
            sw: 1,
            ph: 0,
            pw: 0,
        };
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut cols = vec![0.0; 4];
        im2col2d(&x, &g, &mut cols);
        assert_eq!(cols, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let g = Geom2d {
            c: 1,
            h: 1,
            w: 1,
            kh: 3,
            kw: 3,
            sh: 1,
            sw: 1,
            ph: 1,
            pw: 1,
        };
        let x = vec![5.0];
        let mut cols = vec![-1.0; 9];
        im2col2d(&x, &g, &mut cols);
        // centre tap sees the value, all others see padding zeros
        let expect = vec![0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(cols, expect);
    }

    /// The defining property of the adjoint pair: for all x, y
    /// `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩`.
    #[test]
    fn col2im_is_adjoint_of_im2col_2d() {
        let mut rng = Rng::seed_from(17);
        for &(h, w, k, s, p) in &[(5, 7, 3, 1, 1), (8, 8, 3, 2, 1), (6, 6, 2, 2, 0)] {
            let g = Geom2d {
                c: 3,
                h,
                w,
                kh: k,
                kw: k,
                sh: s,
                sw: s,
                ph: p,
                pw: p,
            };
            let x = Tensor::rand_normal([g.c * h * w], 0.0, 1.0, &mut rng);
            let y = Tensor::rand_normal([g.col_rows() * g.col_cols()], 0.0, 1.0, &mut rng);
            let mut ix = vec![0.0; y.numel()];
            im2col2d(x.as_slice(), &g, &mut ix);
            let lhs: f64 = ix
                .iter()
                .zip(y.as_slice())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            let mut cy = vec![0.0; x.numel()];
            col2im2d(y.as_slice(), &g, &mut cy);
            let rhs: f64 = cy
                .iter()
                .zip(x.as_slice())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            assert!((lhs - rhs).abs() < 1e-3, "h={h} w={w} k={k} s={s} p={p}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_3d() {
        let mut rng = Rng::seed_from(23);
        let g = Geom3d {
            c: 2,
            d: 4,
            h: 5,
            w: 5,
            kd: 3,
            kh: 3,
            kw: 3,
            sd: 1,
            sh: 2,
            sw: 2,
            pd: 1,
            ph: 1,
            pw: 1,
        };
        g.validate().unwrap();
        let x = Tensor::rand_normal([g.c * g.d * g.h * g.w], 0.0, 1.0, &mut rng);
        let y = Tensor::rand_normal([g.col_rows() * g.col_cols()], 0.0, 1.0, &mut rng);
        let mut ix = vec![0.0; y.numel()];
        im2col3d(x.as_slice(), &g, &mut ix);
        let lhs: f64 = ix
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let mut cy = vec![0.0; x.numel()];
        col2im3d(y.as_slice(), &g, &mut cy);
        let rhs: f64 = cy
            .iter()
            .zip(x.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn im2col3d_temporal_axis() {
        // depth-only kernel: 1 channel, D=3, H=W=1, kernel (2,1,1).
        let g = Geom3d {
            c: 1,
            d: 3,
            h: 1,
            w: 1,
            kd: 2,
            kh: 1,
            kw: 1,
            sd: 1,
            sh: 1,
            sw: 1,
            pd: 0,
            ph: 0,
            pw: 0,
        };
        let x = vec![10.0, 20.0, 30.0];
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col3d(&x, &g, &mut cols);
        // rows = 2 (kd), cols = 2 (od): row0 = frames [10,20], row1 = [20,30]
        assert_eq!(cols, vec![10.0, 20.0, 20.0, 30.0]);
    }

    /// A 2D geometry as the equivalent depth-1 3D one (same row order).
    fn as_3d(g: &Geom2d) -> Geom3d {
        Geom3d {
            c: g.c,
            d: 1,
            h: g.h,
            w: g.w,
            kd: 1,
            kh: g.kh,
            kw: g.kw,
            sd: 1,
            sh: g.sh,
            sw: g.sw,
            pd: 0,
            ph: g.ph,
            pw: g.pw,
        }
    }

    /// Input row `(iz, iy)` feeding output row `(oz, oy)` for taps
    /// `(kd, kh)`, or `None` when it lies in the padding.
    fn src_row(g: &Geom3d, oz: usize, oy: usize, kd: usize, kh: usize) -> Option<usize> {
        let iz = (oz * g.sd + kd) as isize - g.pd as isize;
        let iy = (oy * g.sh + kh) as isize - g.ph as isize;
        if iz < 0 || iz >= g.d as isize || iy < 0 || iy >= g.h as isize {
            return None;
        }
        Some(iz as usize * g.h + iy as usize)
    }

    /// Per-element im2col: every row through [`gather_row_strided`].
    fn im2col_reference(x: &[f32], g: &Geom3d) -> Vec<f32> {
        let (od, oh, ow) = (g.out_d(), g.out_h(), g.out_w());
        let per_c = g.d * g.h * g.w;
        let mut cols = vec![0.0; g.col_len()];
        for (row, out_row) in cols.chunks_exact_mut(od * oh * ow).enumerate() {
            let (c, kd, kh, kw) = (
                row / (g.kd * g.kh * g.kw),
                row / (g.kh * g.kw) % g.kd,
                row / g.kw % g.kh,
                row % g.kw,
            );
            for (r, dst) in out_row.chunks_exact_mut(ow).enumerate() {
                if let Some(i) = src_row(g, r / oh, r % oh, kd, kh) {
                    let x_row = &x[c * per_c + i * g.w..][..g.w];
                    gather_row_strided(x_row, dst, kw, g.sw, g.pw);
                }
            }
        }
        cols
    }

    /// Per-element col2im: every row through [`scatter_row_strided`].
    fn col2im_reference(cols: &[f32], g: &Geom3d) -> Vec<f32> {
        let (od, oh, ow) = (g.out_d(), g.out_h(), g.out_w());
        let per_c = g.d * g.h * g.w;
        let mut x = vec![0.0; g.c * per_c];
        for (row, src) in cols.chunks_exact(od * oh * ow).enumerate() {
            let (c, kd, kh, kw) = (
                row / (g.kd * g.kh * g.kw),
                row / (g.kh * g.kw) % g.kd,
                row / g.kw % g.kh,
                row % g.kw,
            );
            for (r, s) in src.chunks_exact(ow).enumerate() {
                if let Some(i) = src_row(g, r / oh, r % oh, kd, kh) {
                    let x_row = &mut x[c * per_c + i * g.w..][..g.w];
                    scatter_row_strided(s, x_row, kw, g.sw, g.pw);
                }
            }
        }
        x
    }

    /// The unit-stride row copy and the whole-plane shift must be
    /// bit-identical to the per-element gather/scatter, 2D and 3D. The
    /// geometries cover the plane path (same-size output), the row path
    /// (vertical stride 2) and a kernel wider than the input.
    #[test]
    fn unit_stride_fast_path_matches_reference() {
        let mut rng = Rng::seed_from(7);
        let base = Geom2d {
            c: 2,
            h: 5,
            w: 7,
            kh: 3,
            kw: 3,
            sh: 1,
            sw: 1,
            ph: 1,
            pw: 1,
        };
        let wide = Geom2d {
            h: 3,
            w: 2,
            kh: 5,
            kw: 5,
            ph: 2,
            pw: 2,
            ..base
        };
        for g2 in [base, Geom2d { sh: 2, ..base }, wide] {
            let g3 = as_3d(&g2);
            let x = Tensor::rand_normal([g2.c * g2.h * g2.w], 0.0, 1.0, &mut rng);
            let mut cols = vec![0.0; g2.col_len()];
            im2col2d(x.as_slice(), &g2, &mut cols);
            assert_eq!(cols, im2col_reference(x.as_slice(), &g3), "{g2:?}");
            let mut back = vec![0.0; x.numel()];
            col2im2d(&cols, &g2, &mut back);
            assert_eq!(back, col2im_reference(&cols, &g3), "{g2:?}");
        }
        let base3 = Geom3d {
            c: 2,
            d: 3,
            h: 4,
            w: 6,
            kd: 3,
            kh: 3,
            kw: 3,
            sd: 1,
            sh: 1,
            sw: 1,
            pd: 1,
            ph: 1,
            pw: 1,
        };
        for g3 in [base3, Geom3d { sh: 2, ..base3 }] {
            let x = Tensor::rand_normal([g3.c * g3.d * g3.h * g3.w], 0.0, 1.0, &mut rng);
            let mut cols = vec![0.0; g3.col_len()];
            im2col3d(x.as_slice(), &g3, &mut cols);
            assert_eq!(cols, im2col_reference(x.as_slice(), &g3), "{g3:?}");
            let mut back = vec![0.0; x.numel()];
            col2im3d(&cols, &g3, &mut back);
            assert_eq!(back, col2im_reference(&cols, &g3), "{g3:?}");
        }
    }

    #[test]
    fn pooled_wrapper_matches_direct_call() {
        let g = Geom2d {
            c: 2,
            h: 4,
            w: 4,
            kh: 3,
            kw: 3,
            sh: 1,
            sw: 1,
            ph: 1,
            pw: 1,
        };
        let x: Vec<f32> = (0..32).map(|i| i as f32 * 0.25).collect();
        let mut direct = vec![0.0; g.col_len()];
        im2col2d(&x, &g, &mut direct);
        // The pooled buffer is stale-initialised; im2col must overwrite
        // every element, so a second pass sees identical contents.
        for _ in 0..2 {
            let pooled = with_im2col2d(&x, &g, |cols| cols.to_vec());
            assert_eq!(pooled, direct);
        }
    }

    #[test]
    fn geom3d_sizes() {
        let g = Geom3d {
            c: 1,
            d: 6,
            h: 10,
            w: 10,
            kd: 3,
            kh: 3,
            kw: 3,
            sd: 1,
            sh: 1,
            sw: 1,
            pd: 1,
            ph: 1,
            pw: 1,
        };
        assert_eq!((g.out_d(), g.out_h(), g.out_w()), (6, 10, 10));
        assert!(g.validate().is_ok());
    }
}
