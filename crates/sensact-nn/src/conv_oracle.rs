//! The materialised dense lowering of the conv layers: every site of every
//! window, per-element bounds tests, the whole column matrix in memory, one
//! unblocked `k`-outer transposed product. The production lowerings (site
//! sparse, fused into the panel packer, blocked) must match it bit for bit.
//!
//! Test-only and self-contained (plain geometry, weights as slices), so the
//! `sensact-nn` conv tests and the `sensact-rmae` model tests include this
//! one file: it is the only dense copy of the lowering.

use sensact_math::kernels;

/// Sliding-window geometry: one `kernel³` window per site, sliding with
/// `stride` over a `grid` zero-padded by `pad`; extents are `[d, h, w]`.
/// A conv's sites are its output voxels and its grid the input; a deconv is
/// the mirror image. Columns are laid out `[channel, kd, kh, kw]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Win {
    pub channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
    pub grid: [usize; 3],
    pub sites: [usize; 3],
}

fn volume(e: [usize; 3]) -> usize {
    e[0] * e[1] * e[2]
}

impl Win {
    /// A conv with `cin` input channels over `input`.
    pub(crate) fn conv(
        cin: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        input: [usize; 3],
    ) -> Win {
        let out = input.map(|e| (e + 2 * pad - kernel) / stride + 1);
        Win {
            channels: cin,
            kernel,
            stride,
            pad,
            grid: input,
            sites: out,
        }
    }

    /// A deconv with `cout` output channels over `input`.
    pub(crate) fn deconv(
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        input: [usize; 3],
    ) -> Win {
        let out = input.map(|e| (e - 1) * stride + kernel - 2 * pad);
        Win {
            channels: cout,
            kernel,
            stride,
            pad,
            grid: out,
            sites: input,
        }
    }

    fn patch_len(&self) -> usize {
        self.channels * self.kernel.pow(3)
    }

    /// Every tap of site `p` in column order with the grid index it lands
    /// on (`None` in the padding margin).
    fn visit_site(&self, p: usize, mut f: impl FnMut(usize, Option<usize>)) {
        let (k, s, pad, [gd, gh, gw]) = (self.kernel, self.stride, self.pad, self.grid);
        let [_, sh, sw] = self.sites;
        let (sz, sy, sx) = (p / (sh * sw), p / sw % sh, p % sw);
        let mut q = 0;
        for c in 0..self.channels {
            for kd in 0..k {
                for kh in 0..k {
                    for kw in 0..k {
                        let (z, y, x) = (sz * s + kd, sy * s + kh, sx * s + kw);
                        let inside = z >= pad
                            && y >= pad
                            && x >= pad
                            && z - pad < gd
                            && y - pad < gh
                            && x - pad < gw;
                        let at = inside.then(|| ((c * gd + z - pad) * gh + y - pad) * gw + x - pad);
                        f(q, at);
                        q += 1;
                    }
                }
            }
        }
    }

    /// The `[sites × channels·k³]` column matrix of `src`, a row per site.
    pub(crate) fn unfold(&self, src: &[f64], col: &mut [f64]) {
        let len = self.patch_len();
        for p in 0..volume(self.sites) {
            self.visit_site(p, |q, at| col[p * len + q] = at.map_or(0.0, |i| src[i]));
        }
    }

    /// The site-major fold: rows of `col` (one `channels·k³` row each) back
    /// onto `dst`, site `p` taking row `row` for each `(row, p)` of `sites`,
    /// one site after another, its taps in column order.
    pub(crate) fn fold_add(
        &self,
        sites: impl IntoIterator<Item = (usize, usize)>,
        col: &[f64],
        dst: &mut [f64],
    ) {
        let len = self.patch_len();
        for (row, p) in sites {
            self.visit_site(p, |q, at| {
                if let Some(i) = at {
                    dst[i] += col[row * len + q];
                }
            });
        }
    }
}

/// `C = Aᵀ·B` with `a` `[k × m]`: the `k`-outer loop `gemm_transa` was
/// before it was register-tiled.
fn transa(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    for kk in 0..k {
        for i in 0..m {
            let scaled = 1.0 * a[kk * m + i];
            for j in 0..n {
                c[i * n + j] += scaled * b[kk * n + j];
            }
        }
    }
}

/// One conv row: `out` (`[cout, sites]`, fully overwritten) from `x`
/// (`[cin, grid]`); `cout = bias.len()`.
pub(crate) fn conv_forward(win: &Win, weights: &[f64], bias: &[f64], x: &[f64], out: &mut [f64]) {
    let (vol, ckk) = (volume(win.sites), win.patch_len());
    let mut col = vec![f64::NAN; vol * ckk];
    win.unfold(x, &mut col);
    for (o, &b) in out.chunks_exact_mut(vol).zip(bias) {
        o.fill(b);
    }
    kernels::gemm_transb(bias.len(), vol, ckk, 1.0, weights, &col, 1.0, out);
}

/// `(grad_in, grad_w, grad_b)` of `x.len() / (cin·grid)` conv rows, each
/// row's gradients accumulated onto the last's from zero, as one backward
/// over a batch adds them: the materialised unfold and `gemm` weight
/// gradient, the site-major fold of `gᵀ·W`.
pub(crate) fn conv_backward(win: &Win, weights: &[f64], x: &[f64], g: &[f64]) -> [Vec<f64>; 3] {
    let (vol, ckk) = (volume(win.sites), win.patch_len());
    let in_feat = win.channels * volume(win.grid);
    let batch = x.len() / in_feat;
    let cout = g.len() / batch / vol;
    let mut grad_b = vec![0.0; cout];
    let mut grad_w = vec![0.0; weights.len()];
    let mut grad_in = vec![0.0; x.len()];
    for (b, (xrow, grow)) in x
        .chunks_exact(in_feat)
        .zip(g.chunks_exact(cout * vol))
        .enumerate()
    {
        for (gb, r) in grad_b.iter_mut().zip(grow.chunks_exact(vol)) {
            *gb += r.iter().sum::<f64>();
        }
        let mut col = vec![f64::NAN; vol * ckk];
        win.unfold(xrow, &mut col);
        kernels::gemm(cout, ckk, vol, 1.0, grow, &col, 1.0, &mut grad_w);
        let mut gcol = vec![f64::NAN; vol * ckk];
        transa(vol, ckk, cout, grow, weights, &mut gcol);
        let dst = &mut grad_in[b * in_feat..(b + 1) * in_feat];
        win.fold_add((0..vol).map(|p| (p, p)), &gcol, dst);
    }
    [grad_in, grad_w, grad_b]
}

/// One deconv row: `out` (`[cout, grid]`, fully overwritten) from `x`
/// (`[cin, sites]`).
pub(crate) fn deconv_forward(win: &Win, weights: &[f64], bias: &[f64], x: &[f64], out: &mut [f64]) {
    let (pin, cokk) = (volume(win.sites), win.patch_len());
    let mut col = vec![f64::NAN; pin * cokk];
    transa(pin, cokk, x.len() / pin, x, weights, &mut col);
    for (o, &b) in out.chunks_exact_mut(volume(win.grid)).zip(bias) {
        o.fill(b);
    }
    win.fold_add((0..pin).map(|p| (p, p)), &col, out);
}

/// `(grad_in, grad_w, grad_b)` of `g.len() / (cout·grid)` deconv rows,
/// accumulated as [`conv_backward`]'s: the materialised unfold of `g`, its
/// `gemm` weight gradient and its `gemm_transb` input gradient.
pub(crate) fn deconv_backward(win: &Win, weights: &[f64], x: &[f64], g: &[f64]) -> [Vec<f64>; 3] {
    let (pin, cokk) = (volume(win.sites), win.patch_len());
    let (vol, out_feat) = (volume(win.grid), win.channels * volume(win.grid));
    let batch = g.len() / out_feat;
    let cin = x.len() / batch / pin;
    let mut grad_b = vec![0.0; win.channels];
    let mut grad_w = vec![0.0; weights.len()];
    let mut grad_in = vec![f64::NAN; x.len()];
    let rows = x.chunks_exact(cin * pin).zip(g.chunks_exact(out_feat));
    for ((xrow, grow), gi) in rows.zip(grad_in.chunks_exact_mut(cin * pin)) {
        for (gb, r) in grad_b.iter_mut().zip(grow.chunks_exact(vol)) {
            *gb += r.iter().sum::<f64>();
        }
        let mut gcol = vec![f64::NAN; pin * cokk];
        win.unfold(grow, &mut gcol);
        kernels::gemm(cin, cokk, pin, 1.0, xrow, &gcol, 1.0, &mut grad_w);
        kernels::gemm_transb(cin, pin, cokk, 1.0, weights, &gcol, 0.0, gi);
    }
    [grad_in, grad_w, grad_b]
}

/// The input-side formulation of one row, shared by conv and deconv: each
/// input voxel holding a nonzero value adds `value · weight(ci, co, tap)`
/// into every output its taps `reach`. It shares no geometry with the
/// lowering and adds in another order, so the two agree to rounding, not bit
/// for bit.
fn scatter(
    k: usize,
    [[id, ih, iw], [od, oh, ow]]: [[usize; 3]; 2],
    reach: impl Fn(usize, usize, usize) -> Option<usize>,
    weight: impl Fn(usize, usize, usize) -> f64,
    bias: &[f64],
    x: &[f64],
    out: &mut [f64],
) {
    let vol = od * oh * ow;
    for (o, &b) in out.chunks_exact_mut(vol).zip(bias) {
        o.fill(b);
    }
    for (ci, row) in x.chunks_exact(id * ih * iw).enumerate() {
        for (at, &xv) in row.iter().enumerate().filter(|(_, &v)| v != 0.0) {
            let (z, y, xx) = (at / (ih * iw), at / iw % ih, at % iw);
            for kd in 0..k {
                let Some(oz) = reach(z, kd, od) else { continue };
                for kh in 0..k {
                    let Some(oy) = reach(y, kh, oh) else { continue };
                    for kw in 0..k {
                        let Some(ox) = reach(xx, kw, ow) else {
                            continue;
                        };
                        let tap = (kd * k + kh) * k + kw;
                        for (co, o) in out.chunks_exact_mut(vol).enumerate() {
                            o[(oz * oh + oy) * ow + ox] += xv * weight(ci, co, tap);
                        }
                    }
                }
            }
        }
    }
}

/// [`scatter`] for a conv row: tap `t` of output `o` reads input
/// `o·stride + t − pad`, so input `g` reaches `o = (g + pad − t) / stride`.
pub(crate) fn conv_gather(win: &Win, weights: &[f64], bias: &[f64], x: &[f64], out: &mut [f64]) {
    let (k3, s, pad, cin) = (win.kernel.pow(3), win.stride, win.pad, win.channels);
    let reach = |g: usize, t: usize, n: usize| {
        let gp = (g + pad).checked_sub(t)?;
        gp.is_multiple_of(s).then_some(gp / s).filter(|&o| o < n)
    };
    let weight = |ci, co, tap| weights[(co * cin + ci) * k3 + tap];
    scatter(
        win.kernel,
        [win.grid, win.sites],
        reach,
        weight,
        bias,
        x,
        out,
    );
}

/// [`scatter`] for a deconv row: tap `t` of input `i` lands on output
/// `i·stride + t − pad`.
pub(crate) fn deconv_gather(win: &Win, weights: &[f64], bias: &[f64], x: &[f64], out: &mut [f64]) {
    let (k3, s, pad, cout) = (win.kernel.pow(3), win.stride, win.pad, win.channels);
    let lands = |i: usize, t: usize, n: usize| (i * s + t).checked_sub(pad).filter(|&o| o < n);
    let weight = |ci, co, tap| weights[(ci * cout + co) * k3 + tap];
    scatter(
        win.kernel,
        [win.sites, win.grid],
        lands,
        weight,
        bias,
        x,
        out,
    );
}
