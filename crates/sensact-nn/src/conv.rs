//! 3-D convolution and transposed convolution over voxel grids.
//!
//! These are the workhorses of the R-MAE occupancy autoencoder (paper §III):
//! a strided [`Conv3d`] encoder over the (sparse) voxelized point cloud and a
//! [`Deconv3d`] decoder that upsamples back to full resolution for occupancy
//! prediction.
//!
//! Tensors are laid out `[batch, channels * depth * height * width]` with the
//! spatial dimensions carried by the layer configuration. Forward and backward
//! are lowered onto the GEMM kernels in `sensact_math::kernels`.
//!
//! **The forward is spatially sparse, and exact.** An output element's bits
//! depend only on its patch, the weights and the GEMM's rounding tier, never
//! on which column of the product it sits in. A *value* below is any element
//! whose bits are not `+0.0` (`-0.0`, NaN and `±inf` are values).
//! - [`Conv3d`] computes only the sites whose window reaches a value on some
//!   channel, plus the first site no value reaches. Every unreached site has
//!   the same all-`+0.0` patch, padding included, so that one column is
//!   copied to all of them. The tier stays pinned on the dense
//!   `(cout, out_volume, cin·k³)`, never on the listed width.
//! - [`Deconv3d`] folds only the input sites holding a value, in ascending
//!   site order. Every other site's column is all `+0.0`, so its dots are
//!   `+0.0` unless a weight is not finite; they are skipped when every
//!   weight is finite and no output seed is `-0.0`: `x + (+0.0)` is `x` for
//!   every `x` but `-0.0`, and a sum that does not start at `-0.0` never
//!   reaches it. Otherwise every site is folded.
//!
//! Both are `to_bits`-identical to the dense lowering, in training and
//! inference alike: each layer has one row-level forward,
//! [`Conv3d::forward_into`] / [`Deconv3d::forward_into`], which fully
//! overwrites a caller's output row and caches nothing. [`Layer::forward`]
//! runs it per row of a tensor it allocates, and an inference that owns its
//! buffers (the R-MAE reconstruct) calls it directly. The backward
//! passes stay dense, and [`Layer::macs`] stays the dense count.
//!
//! **No pass writes a `[sites × c·k³]` column matrix**, on any ISA: a
//! [`PanelSource`] packs taps into the B panel from the *halo*, the source
//! grid copied inside a `+0.0` border as wide as the windows reach, so a
//! padding tap is a read like any other: one walker over two offset tables,
//! no bounds test per tap. The halo is a per-thread buffer, zeroed where it
//! grows; where another window takes it over, only that window's border is
//! zeroed. A call copies just the interior.
//! `Patches` (a site per lane) feeds the conv forward and the deconv input
//! gradient, a conv forward of `grad_out`; `SiteRows` (a tap per lane)
//! feeds both weight gradients. The tier is pinned on the dense shape: FMA
//! from `2¹⁴` multiply-adds per row up; below, the multiply-then-add tile
//! in dot mode (the scalar row-dot's bits) or chain mode (`gemm`'s).
//!
//! **The fold writes no column.** The transposed products (deconv forward,
//! conv input gradient) go in runs of listed sites consecutive along an x
//! row, runs ascending; within a run, one [`kernels::fold_dots`] per `kw`,
//! descending, over every in-grid `(c, kd, kh)` tap and the run's sites
//! that tap lands inside the grid: each dot (`+0.0` plus the ascending-`k`
//! products, multiply then add — an element of `gemm_transa`'s product) is
//! added straight into the output, at stride `stride`. Every grid element still takes its
//! sites in ascending order, as the oracle's site-major fold does, so the
//! sums are bit-identical: the sites of one run reaching one element share
//! its `c`, `kd` and `kh`, so a larger `kw` is an earlier site; within one
//! `kw` every `(tap, site)` pair lands on its own element; runs go in
//! ascending order.
//!
//! The bit oracle (the materialised lowering and backward, the site-major
//! fold) and an input-side gather formulation that agrees to rounding live
//! in the test-only `conv_oracle.rs`.

use crate::init::Initializer;
use crate::layers::Layer;
use crate::tensor::Tensor;
use sensact_core::checkpoint::{Checkpoint, CheckpointError, Section, StageState};
use sensact_math::kernels;
use sensact_math::simd::PanelSource;
use std::cell::RefCell;

#[cfg(test)]
#[path = "conv_oracle.rs"]
mod oracle;

/// Spatial extents of a 3-D feature volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims3 {
    /// Depth (z).
    pub d: usize,
    /// Height (y).
    pub h: usize,
    /// Width (x).
    pub w: usize,
}

impl Dims3 {
    /// Construct from depth/height/width.
    pub fn new(d: usize, h: usize, w: usize) -> Self {
        Dims3 { d, h, w }
    }

    /// Number of voxels.
    pub fn volume(&self) -> usize {
        self.d * self.h * self.w
    }
}

fn conv_out(extent: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (extent + 2 * pad - kernel) / stride + 1
}

/// `(extent - 1) * stride + kernel - 2 * pad`, or `None` where that is not
/// a representable extent (empty input, padding wider than the rest).
fn deconv_out(extent: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    extent
        .checked_sub(1)?
        .checked_mul(stride)?
        .checked_add(kernel)?
        .checked_sub(pad.checked_mul(2)?)
}

/// The first `len` elements of a scratch buffer, grown on demand with
/// `+0.0` (the rest is whatever the last call left: callers overwrite).
fn grown(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Spread the rows of `sites.len()` columns packed at the front of `out`
/// onto rows of `vol` sites: column `j` lands on site `sites[j]` (ascending),
/// and every site not listed takes column `stand_in`'s value. In place, back
/// to front: no write lands on a packed element before it is read.
fn spread(out: &mut [f64], vol: usize, sites: &[usize], stand_in: usize) {
    let n = sites.len();
    for co in (0..out.len() / vol).rev() {
        let (packed, row) = (co * n, co * vol);
        let fill = out[packed + stand_in];
        let mut end = vol;
        for (j, &p) in sites.iter().enumerate().rev() {
            let v = out[packed + j];
            out[row + p + 1..row + end].fill(fill);
            out[row + p] = v;
            end = p;
        }
        out[row..row + end].fill(fill);
    }
}

/// `len` flags in `buf`, raised at `i` where some `len`-long row of `src`
/// holds a value at `i` — bits other than `+0.0`, so `-0.0`, NaN and `±inf`
/// count.
fn held<'a>(src: &[f64], len: usize, buf: &'a mut Vec<bool>) -> &'a [bool] {
    buf.clear();
    buf.resize(len, false);
    for row in src.chunks_exact(len) {
        for (f, v) in buf.iter_mut().zip(row) {
            *f |= v.to_bits() != 0;
        }
    }
    buf
}

/// Sliding-window geometry both layers lower through: one `kernel³` window
/// per *site*, sliding with `stride` over a `grid` zero-padded by `pad`.
/// A conv's sites are its output voxels and its grid the input; a deconv is
/// the mirror image (sites = input voxels, grid = output), so unfolding and
/// folding are written once. Columns are laid out `[channel, kd, kh, kw]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    grid: Dims3,
    sites: Dims3,
}

impl Window {
    /// Column length: `channels * kernel³`.
    #[inline]
    fn patch_len(&self) -> usize {
        self.channels * self.kernel * self.kernel * self.kernel
    }

    /// Half-open range of the taps of the window at site coordinate `site`
    /// that land inside a grid axis of `extent` (the rest are padding).
    /// Tap `t` of the range sits at grid coordinate
    /// `site * stride + t - pad`.
    #[inline]
    fn taps(&self, site: usize, extent: usize) -> (usize, usize) {
        let first = site * self.stride;
        let hi = self.kernel.min((extent + self.pad).saturating_sub(first));
        (self.pad.saturating_sub(first).min(hi), hi)
    }

    /// `dst += fold(aᵀ · w)` over the `n` sites from `p0` along one x row:
    /// per `kw`, descending, one [`kernels::fold_dots`] of every in-grid
    /// `(c, kd, kh)` tap against the run's sites whose tap `kw` lands inside
    /// the grid row. `a` is `[k × sites]`, `w` is `[k × channels·k³]`; `taps`
    /// is scratch.
    #[allow(clippy::too_many_arguments)]
    fn fold_run(
        &self,
        p0: usize,
        n: usize,
        k: usize,
        a: &[f64],
        w: &[f64],
        taps: &mut Vec<[usize; 2]>,
        dst: &mut [f64],
    ) {
        let (kern, s, pad, g) = (self.kernel, self.stride, self.pad, self.grid);
        let (h, sw) = (self.sites.h, self.sites.w);
        let (sz, sy, sx) = (p0 / (h * sw), p0 / sw % h, p0 % sw);
        let (d0, d1) = self.taps(sz, g.d);
        let (h0, h1) = self.taps(sy, g.h);
        let (len, vol) = (self.patch_len(), self.sites.volume());
        for kw in (0..kern).rev() {
            // The run's sites whose tap `kw` lands inside the grid row: site
            // `sx + i` sits at padded column `(sx + i)·s + kw`.
            let first = sx * s + kw;
            let la = pad.saturating_sub(first).div_ceil(s).min(n);
            let lb = (g.w + pad).saturating_sub(first).div_ceil(s).min(n);
            if la >= lb {
                continue;
            }
            let x = first + la * s - pad;
            taps.clear();
            for c in 0..self.channels {
                for kd in d0..d1 {
                    let z = sz * s + kd - pad;
                    for kh in h0..h1 {
                        let y = sy * s + kh - pad;
                        let q = ((c * kern + kd) * kern + kh) * kern + kw;
                        taps.push([q, ((c * g.d + z) * g.h + y) * g.w + x]);
                    }
                }
            }
            let a = &a[p0 + la..];
            kernels::fold_dots(k, w, len, a, vol, lb - la, taps, s, dst);
        }
    }

    /// `grad_w += a · unfold(src)`, `a` `[m × sites]`: both layers' weight
    /// gradient (beta = 1 accumulates), the patches packed straight from
    /// the halo of `src` ([`SiteRows`]).
    fn weight_grad(&self, m: usize, a: &[f64], src: Halo, grad_w: &mut [f64]) {
        let (n, len) = (self.sites.volume(), self.patch_len());
        let rows = SiteRows(src);
        kernels::gemm_panel_source(m, len, n, len, false, 1.0, a, &rows, 1.0, grad_w);
    }

    /// `hit`, one flag per site, raised for every site whose window reaches
    /// a grid voxel flagged in `occupied` (one flag per voxel).
    fn mark_reached<'a>(&self, occupied: &[bool], hit: &'a mut Vec<bool>) -> &'a [bool] {
        hit.clear();
        hit.resize(self.sites.volume(), false);
        let (g, out) = (self.grid, self.sites);
        // The sites of one axis whose windows cover grid coordinate `x`:
        // those with `x + pad - kernel < site·stride <= x + pad`.
        let reach = |x: usize, extent: usize| {
            let lo = (x + self.pad + 1)
                .saturating_sub(self.kernel)
                .div_ceil(self.stride);
            let hi = ((x + self.pad) / self.stride + 1).min(extent);
            lo.min(hi)..hi
        };
        for v in (0..occupied.len()).filter(|&v| occupied[v]) {
            let cols = reach(v % g.w, out.w);
            for sz in reach(v / (g.h * g.w), out.d) {
                for sy in reach(v / g.w % g.h, out.h) {
                    hit[(sz * out.h + sy) * out.w..][cols.clone()].fill(true);
                }
            }
        }
        hit
    }

    /// `dst += fold(aᵀ · w)`: the product both transposed lowerings share
    /// (deconv forward: `a` = input row, `dst` = bias-filled output; conv
    /// backward: `a` = output gradient, `dst` = input gradient). `a` is
    /// `[k × sites]`, `w` is `[k × channels·k³]`. Each run of listed sites
    /// along an x row folds through [`Window::fold_run`], runs ascending:
    /// every product goes straight into `dst`, no column is written.
    ///
    /// With `sparse`, only the sites whose column of `a` holds a value are
    /// listed, unless the all-`+0.0` column every other site has would fold
    /// (module docs): its dots are `+0.0` unless a weight is not finite, and
    /// adding `+0.0` moves only a `-0.0`. Then every site is listed, and an
    /// unlisted site's dots are exactly that column's.
    fn fold_product(
        &self,
        k: usize,
        a: &[f64],
        w: &[f64],
        sparse: bool,
        scratch: &mut Scratch,
        dst: &mut [f64],
    ) {
        let n = self.sites.volume();
        let Scratch {
            sites, flags, taps, ..
        } = scratch;
        sites.clear();
        if sparse {
            let active = held(a, n, flags);
            sites.extend((0..n).filter(|&p| active[p]));
        }
        if sites.len() < n
            && (!sparse
                || w.iter().any(|v| !v.is_finite())
                || dst.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()))
        {
            sites.clear();
            sites.extend(0..n);
        }
        let sw = self.sites.w;
        let mut rest = &sites[..];
        while let [p0, ..] = *rest {
            // The run: consecutive listed sites, cut at the end of the x row.
            let row_end = (p0 / sw + 1) * sw;
            let len = rest
                .iter()
                .zip(p0..row_end)
                .take_while(|&(&p, want)| p == want)
                .count();
            self.fold_run(p0, len, k, a, w, taps, dst);
            rest = &rest[len..];
        }
    }
}

/// Lowering scratch a layer owns: grown on demand, reused across calls,
/// never checkpointed.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The sites a lowering lists, ascending.
    sites: Vec<usize>,
    /// The grid voxels holding a value on some channel (conv forward), or
    /// the sites holding one (deconv forward).
    flags: Vec<bool>,
    /// The sites a value reaches (conv forward).
    reached: Vec<bool>,
    /// The `[weight column, dst offset]` taps of one fold (transposed
    /// lowerings).
    taps: Vec<[usize; 2]>,
}

thread_local! {
    /// The halo every conv lowering on this thread packs from: one buffer
    /// per thread, as the GEMM's packed panels are, so a model's layers do
    /// not each keep a copy of their source grid.
    static HALO: RefCell<HaloBuf> = RefCell::default();
}

/// `f` over the halos of `rows` under `win`, in this thread's buffer.
fn with_halo<R>(win: &Window, rows: &[&[f64]], f: impl FnOnce(Halo) -> R) -> R {
    HALO.with_borrow_mut(|buf| f(buf.fill(win, rows)))
}

/// Storage behind [`Halo`]: per source row, the grid at offset `pad` in a
/// `+0.0` border `(sites − 1)·stride + kernel` wide per axis, and the two
/// offset tables. Zeroed where it grows; when another window fills it, the
/// slots that call fills keep only their border zeroed, and the rest is cut.
/// So only the window it holds has written it since, always the same
/// interior: the border stays `+0.0`.
#[derive(Default)]
struct HaloBuf {
    grid: Vec<f64>,
    tap_offset: Vec<usize>,
    site_base: Vec<usize>,
    /// The window filled last.
    held: Option<Window>,
}

impl HaloBuf {
    /// The halos of `rows` (`[channels, grid]` each): the grid copied one x
    /// row at a time, clipped where padding or short windows cut it off.
    fn fill(&mut self, win: &Window, rows: &[&[f64]]) -> Halo<'_> {
        let (k, s, pad, g, n) = (win.kernel, win.stride, win.pad, win.grid, win.sites);
        let [ed, eh, ew] = [n.d, n.h, n.w].map(|sites| (sites - 1) * s + k);
        let clip = |extent: usize, halo: usize| extent.min(halo.saturating_sub(pad));
        let (nz, ny, nx) = (clip(g.d, ed), clip(g.h, eh), clip(g.w, ew));
        let xrows = if nx == 0 { 0 } else { win.channels * nz * ny };
        let len = win.channels * ed * eh * ew;
        if self.held.replace(*win) != Some(*win) {
            // Keep the whole slots this call fills, their border zeroed (the
            // copy below overwrites the interior); what is cut grows back
            // as `+0.0`.
            let keep = (self.grid.len() / len).min(rows.len()) * len;
            self.grid.truncate(keep);
            let inside = |v: usize, extent: usize| v >= pad && v - pad < extent;
            for (i, x_row) in self.grid.chunks_exact_mut(ew).enumerate() {
                if xrows > 0 && inside(i / eh % ed, nz) && inside(i % eh, ny) {
                    x_row[..pad].fill(0.0);
                    x_row[pad + nx..].fill(0.0);
                } else {
                    x_row.fill(0.0);
                }
            }
            let x_row = |ckh: usize| ((ckh / (k * k) * ed + ckh / k % k) * eh + ckh % k) * ew;
            let taps = (0..win.channels * k * k).flat_map(|i| x_row(i)..x_row(i) + k);
            let at = |zy: usize| (zy / n.h * eh + zy % n.h) * s * ew;
            let bases = (0..n.d * n.h).flat_map(|zy| (0..n.w).map(move |x| at(zy) + x * s));
            self.tap_offset.clear();
            self.tap_offset.extend(taps);
            self.site_base.clear();
            self.site_base.extend(bases);
        }
        let grid = grown(&mut self.grid, rows.len() * len);
        for (row, dst) in rows.iter().zip(grid.chunks_exact_mut(len)) {
            for i in 0..xrows {
                let (c, z, y) = (i / (nz * ny), i / ny % nz, i % ny);
                let at = ((c * g.d + z) * g.h + y) * g.w;
                let to = ((c * ed + z + pad) * eh + y + pad) * ew + pad;
                dst[to..to + nx].copy_from_slice(&row[at..at + nx]);
            }
        }
        Halo { buf: self, len }
    }
}

/// The one window walker both packers read through: tap `q` of the window
/// at site `p` over source row `r` is `grid[r·len + site_base[p] +
/// tap_offset[q]]`, padding taps included (they land on the `+0.0` border),
/// so no tap is tested against the grid's bounds.
#[derive(Clone, Copy)]
struct Halo<'a> {
    buf: &'a HaloBuf,
    len: usize,
}

impl Halo<'_> {
    /// A `rows.len() × ld` panel: row `i`, lane `l` is `grid[rows[i] +
    /// lane(l)]` (`lane` called once per lane, in order), lanes `nr..ld`
    /// `+0.0`. Fixed-width lanes on a full panel, else lane by lane.
    fn walk(
        &self,
        rows: &[usize],
        nr: usize,
        ld: usize,
        lane: impl FnMut(usize) -> usize,
        dst: &mut [f64],
    ) {
        let dst = &mut dst[..rows.len() * ld];
        match (ld, nr) {
            (8, 8) => self.lanes::<8>(rows, std::array::from_fn(lane), dst),
            (4, 4) => self.lanes::<4>(rows, std::array::from_fn(lane), dst),
            _ => {
                dst.fill(0.0);
                for (l, b) in (0..nr).map(lane).enumerate() {
                    for (row, r) in dst.chunks_exact_mut(ld).zip(rows) {
                        row[l] = self.buf.grid[r + b];
                    }
                }
            }
        }
    }

    /// `W` lanes at `lanes` per row: one `[f64; W]` copy where they are
    /// consecutive, else a gather through `lanes`, held in registers — which
    /// for evenly spaced lanes (a strided run) are the stride's offsets.
    fn lanes<const W: usize>(&self, rows: &[usize], lanes: [usize; W], dst: &mut [f64]) {
        #[cfg(test)]
        tests::LANE_WIDTHS.with(|w| w.set(w.get() | 1 << W));
        let l0 = lanes[0];
        let rows = dst.chunks_exact_mut(W).zip(rows);
        if (0..W).all(|l| lanes[l] == l0 + l) {
            for (row, r) in rows {
                row.copy_from_slice(&self.buf.grid[r + l0..][..W]);
            }
        } else {
            for (row, r) in rows {
                for (d, l) in row.iter_mut().zip(lanes) {
                    *d = self.buf.grid[r + l];
                }
            }
        }
    }
}

/// The conv forward's B operand, never materialised: with `ns =
/// sites.len()`, column `j` of the `[c·k³ × rows·ns]` patch matrix is the
/// window at site `sites[j % ns]` of halo row `j / ns` — a tap per panel
/// row, a site per lane.
struct Patches<'a> {
    halo: Halo<'a>,
    /// The sites each row supplies, ascending.
    sites: &'a [usize],
}

impl PanelSource for Patches<'_> {
    fn pack(&self, k0: usize, kc: usize, j0: usize, nr: usize, ld: usize, dst: &mut [f64]) {
        let (h, ns) = (&self.halo, self.sites.len());
        // Column `j` is site `sites[i]` of source row `r`, walked from `j0`.
        let (mut r, mut i) = (j0 / ns, j0 % ns);
        let lane = |_| {
            let at = r * h.len + h.buf.site_base[self.sites[i]];
            (r, i) = if i + 1 == ns { (r + 1, 0) } else { (r, i + 1) };
            at
        };
        h.walk(&h.buf.tap_offset[k0..k0 + kc], nr, ld, lane, dst);
    }
}

/// The weight gradients' B operand, never materialised: row `p` of the
/// `[sites × c·k³]` matrix is the window at site `p` (the oracle's im2col
/// row) — a site per panel row, a tap per lane.
struct SiteRows<'a>(Halo<'a>);

impl PanelSource for SiteRows<'_> {
    fn pack(&self, k0: usize, kc: usize, j0: usize, nr: usize, ld: usize, dst: &mut [f64]) {
        let h = &self.0;
        let (sites, taps) = (&h.buf.site_base, &h.buf.tap_offset);
        h.walk(&sites[k0..k0 + kc], nr, ld, |l| taps[j0 + l], dst);
    }
}

/// Strided 3-D convolution.
#[derive(Debug, Clone)]
pub struct Conv3d {
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    in_dims: Dims3,
    out_dims: Dims3,
    /// Weights `[cout, cin, k, k, k]` flattened.
    weights: Vec<f64>,
    bias: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    cached_input: Option<Tensor>,
    scratch: Scratch,
    /// Gathered `[cout × batch·vol]` output panel of the batched path.
    batch_panel: Vec<f64>,
}

impl Conv3d {
    /// Convolution with cubic kernel `kernel`, stride and zero padding.
    ///
    /// # Panics
    ///
    /// Panics if the input volume is empty or the kernel is larger than
    /// the padded input.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_dims: Dims3,
        init: &mut Initializer,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(in_dims.volume() > 0, "conv input is empty");
        assert!(
            in_dims.d + 2 * pad >= kernel
                && in_dims.h + 2 * pad >= kernel
                && in_dims.w + 2 * pad >= kernel,
            "kernel larger than padded input"
        );
        let out_dims = Dims3::new(
            conv_out(in_dims.d, kernel, stride, pad),
            conv_out(in_dims.h, kernel, stride, pad),
            conv_out(in_dims.w, kernel, stride, pad),
        );
        let fan_in = cin * kernel * kernel * kernel;
        let wcount = cout * fan_in;
        Conv3d {
            cin,
            cout,
            kernel,
            stride,
            pad,
            in_dims,
            out_dims,
            weights: init.he(fan_in, wcount),
            bias: vec![0.0; cout],
            grad_w: vec![0.0; wcount],
            grad_b: vec![0.0; cout],
            cached_input: None,
            scratch: Scratch::default(),
            batch_panel: Vec::new(),
        }
    }

    /// Output spatial dimensions.
    pub fn out_dims(&self) -> Dims3 {
        self.out_dims
    }

    /// The layer's window geometry: one site per output voxel, sliding
    /// over the input.
    #[inline]
    fn window(&self) -> Window {
        Window {
            channels: self.cin,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
            grid: self.in_dims,
            sites: self.out_dims,
        }
    }

    /// Patch length of the im2col matrix: `cin * kernel³`.
    #[inline]
    fn patch_len(&self) -> usize {
        self.window().patch_len()
    }

    /// Forward of one input row `xrow` (`cin · in_volume`) into `orow`
    /// (`cout · out_volume`, fully overwritten, so its old contents never
    /// matter): `out[co, p] = bias[co] + Σ_q W[co, q] · patch[p, q]`,
    /// the transposed-B GEMM with the bias as accumulator seed (beta = 1),
    /// over the sites a value reaches plus the first one none reaches, whose
    /// column every unreached site then copies (module docs). The patches
    /// are unfolded inside the panel packer. The row-level entry every
    /// forward runs ([`Layer::forward`] per row, [`forward_batch_into`]
    /// for a batch of one); it caches nothing.
    ///
    /// [`forward_batch_into`]: Conv3d::forward_batch_into
    ///
    /// # Panics
    ///
    /// Panics if either row has the wrong length.
    pub fn forward_into(&mut self, xrow: &[f64], orow: &mut [f64]) {
        assert_eq!(
            xrow.len(),
            self.in_features(),
            "Conv3d: input feature mismatch"
        );
        assert_eq!(
            orow.len(),
            self.out_features(),
            "Conv3d: output row must be cout * out_volume"
        );
        let win = self.window();
        let (vol, ckk, cout) = (win.sites.volume(), win.patch_len(), self.cout);
        let Scratch {
            sites,
            flags,
            reached,
            ..
        } = &mut self.scratch;
        let hit = win.mark_reached(held(xrow, win.grid.volume(), flags), reached);
        let stand_in = hit.iter().position(|&h| !h);
        sites.clear();
        sites.extend((0..vol).filter(|&p| hit[p] || Some(p) == stand_in));
        let n = sites.len();
        // The listed sites' product, packed `[cout × n]` at the front of `orow`.
        let c = &mut orow[..cout * n];
        for (o, &b) in c.chunks_exact_mut(n).zip(&self.bias) {
            o.fill(b);
        }
        let (w, sites) = (&self.weights, &sites[..]);
        with_halo(&win, &[xrow], |halo| {
            let patches = Patches { halo, sites };
            kernels::gemm_panel_source(cout, n, ckk, vol, true, 1.0, w, &patches, 1.0, c);
        });
        if let Some(stand_in) = stand_in.filter(|_| n < vol) {
            spread(orow, vol, sites, sites.partition_point(|&p| p < stand_in));
        }
    }

    /// Feature count of one input row (`cin · in_volume`).
    pub fn in_features(&self) -> usize {
        self.cin * self.in_dims.volume()
    }

    /// Feature count of one output row (`cout · out_volume`).
    pub fn out_features(&self) -> usize {
        self.cout * self.out_dims.volume()
    }

    /// Cross-loop batched inference: `rows` are independent input rows (one
    /// per leased loop), and each item's output row is an independent
    /// caller-owned buffer (`outs[t]`, `cout·out_volume` long, fully
    /// overwritten). All members run through **one** wide GEMM, so kernel
    /// dispatch, weight-panel packing and cache warm-up are paid once per
    /// fleet tick instead of once per loop.
    ///
    /// This is the serving fast path: the batch planner hands the leases'
    /// own feature buffers directly. The wide GEMM reads every item's
    /// patches through the panel packer (no stacked im2col) into a gathered
    /// `[cout × batch·vol]` panel seeded with the bias, which is scattered
    /// **once** — straight into the per-lease buffers. Bitwise identical to
    /// the per-row forward for every batch size: the rounding tier is
    /// pinned on the per-item shape
    /// ([`gemm_panel_source`](sensact_math::kernels::gemm_panel_source)) —
    /// small layers such as the served `4 × 64 × 27` lidar conv go wide on
    /// the bitwise dot tile. A batch of one runs the per-row forward.
    pub fn forward_batch_into(&mut self, rows: &[&[f64]], outs: &mut [&mut [f64]]) {
        assert_eq!(
            rows.len(),
            outs.len(),
            "Conv3d::forward_batch_into: one output row per input row"
        );
        let batch = rows.len();
        let vol = self.out_dims.volume();
        for (row, orow) in rows.iter().zip(outs.iter()) {
            assert_eq!(
                row.len(),
                self.in_features(),
                "Conv3d::forward_batch_into: input row feature mismatch"
            );
            assert_eq!(
                orow.len(),
                self.cout * vol,
                "Conv3d::forward_batch_into: output row must be cout * out_volume"
            );
        }
        if batch < 2 {
            for (row, orow) in rows.iter().zip(outs.iter_mut()) {
                self.forward_into(row, orow);
            }
            return;
        }
        let nn = batch * vol;
        let (win, ckk) = (self.window(), self.patch_len());
        let sites = &mut self.scratch.sites;
        sites.clear();
        sites.extend(0..vol);
        let (w, cout) = (&self.weights, self.cout);
        // The gathered panel starts as the bias, replicated along the
        // stacked column axis — the same accumulator seed the per-row path
        // loads, laid down as cout contiguous fills.
        let big = grown(&mut self.batch_panel, self.cout * nn);
        for (o, &b) in big.chunks_exact_mut(nn).zip(&self.bias) {
            o.fill(b);
        }
        with_halo(&win, rows, |halo| {
            let patches = Patches { halo, sites };
            kernels::gemm_panel_source(cout, nn, ckk, vol, true, 1.0, w, &patches, 1.0, big);
        });
        for (t, orow) in outs.iter_mut().enumerate() {
            for (o, src) in orow.chunks_exact_mut(vol).zip(big.chunks_exact(nn)) {
                o.copy_from_slice(&src[t * vol..(t + 1) * vol]);
            }
        }
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let batch = input.shape()[0];
        assert_eq!(
            input.shape()[1],
            self.in_features(),
            "Conv3d: input feature mismatch"
        );
        let mut out = Tensor::zeros(vec![batch, self.out_features()]);
        for b in 0..batch {
            self.forward_into(input.row(b), out.row_mut(b));
        }
        if train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Conv3d::backward before forward");
        let batch = input.shape()[0];
        assert_eq!(
            grad_out.shape(),
            &[batch, self.out_features()],
            "Conv3d::backward: grad_out shape mismatch"
        );
        let win = self.window();
        let (vol, cout) = (win.sites.volume(), self.cout);
        let mut grad_in = Tensor::zeros(vec![batch, self.cin * self.in_dims.volume()]);
        for b in 0..batch {
            let (xrow, grow) = (input.row(b), grad_out.row(b));
            for (gb, g) in self.grad_b.iter_mut().zip(grow.chunks_exact(vol)) {
                *gb += g.iter().sum::<f64>();
            }
            // grad_w += g [cout, P] · unfold(x) [P, cin*k³]
            let grad_w = &mut self.grad_w;
            with_halo(&win, &[xrow], |x| win.weight_grad(cout, grow, x, grad_w));
            // grad_in += fold(gᵀ W), W as [cout, cin*k³]
            let (w, scratch) = (&self.weights, &mut self.scratch);
            win.fold_product(cout, grow, w, false, scratch, grad_in.row_mut(b));
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn macs(&self, batch: usize) -> u64 {
        // Dense upper bound: every output voxel visits the full kernel.
        (batch
            * self.cout
            * self.out_dims.volume()
            * self.cin
            * self.kernel
            * self.kernel
            * self.kernel) as u64
    }

    fn name(&self) -> &'static str {
        "Conv3d"
    }
}

impl StageState for Conv3d {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        s.put_f64s("weights", &self.weights);
        s.put_f64s("bias", &self.bias);
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        let weights = s.get_f64s_len("weights", self.weights.len())?;
        let bias = s.get_f64s_len("bias", self.bias.len())?;
        self.weights = weights;
        self.bias = bias;
        // Per-step transients (gradients, cached activations) do not travel;
        // a checkpoint always lands between forward/backward pairs.
        self.cached_input = None;
        Ok(())
    }
}

/// Transposed 3-D convolution (deconvolution) for decoder upsampling.
#[derive(Debug, Clone)]
pub struct Deconv3d {
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    in_dims: Dims3,
    out_dims: Dims3,
    /// Weights `[cin, cout, k, k, k]` flattened.
    weights: Vec<f64>,
    bias: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    cached_input: Option<Tensor>,
    scratch: Scratch,
}

impl Deconv3d {
    /// Transposed convolution with cubic kernel, stride and padding.
    ///
    /// # Panics
    ///
    /// Panics if the configuration produces an empty output volume.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_dims: Dims3,
        init: &mut Initializer,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        let extent = |e| deconv_out(e, kernel, stride, pad).filter(|&o| o > 0);
        let out_dims = match (extent(in_dims.d), extent(in_dims.h), extent(in_dims.w)) {
            (Some(d), Some(h), Some(w)) => Dims3::new(d, h, w),
            _ => panic!("deconv output is empty"),
        };
        let fan_in = cin * kernel * kernel * kernel;
        let wcount = cin * cout * kernel * kernel * kernel;
        Deconv3d {
            cin,
            cout,
            kernel,
            stride,
            pad,
            in_dims,
            out_dims,
            weights: init.he(fan_in, wcount),
            bias: vec![0.0; cout],
            grad_w: vec![0.0; wcount],
            grad_b: vec![0.0; cout],
            cached_input: None,
            scratch: Scratch::default(),
        }
    }

    /// Output spatial dimensions.
    pub fn out_dims(&self) -> Dims3 {
        self.out_dims
    }

    /// The layer's window geometry: one site per input voxel, scattering
    /// onto the output.
    #[inline]
    fn window(&self) -> Window {
        Window {
            channels: self.cout,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
            grid: self.out_dims,
            sites: self.in_dims,
        }
    }

    /// Feature count of one input row (`cin · in_volume`).
    pub(crate) fn in_features(&self) -> usize {
        self.cin * self.in_dims.volume()
    }

    /// Feature count of one output row (`cout · out_volume`).
    pub fn out_features(&self) -> usize {
        self.cout * self.out_dims.volume()
    }

    /// Forward of one input row `xrow` (`cin · in_volume`) into `orow`
    /// (`cout · out_volume`, fully overwritten): the bias, then `fold(col)`
    /// with `col[p, j] = Σ_ci x[ci, p] · W[ci, j]` — the input row is
    /// `[cin, Pin]` row-major and the weights `[cin, cout·k³]`, so this is
    /// the transposed-A GEMM, over the input sites holding a value (module
    /// docs). The row-level entry [`Layer::forward`] runs per row; it caches
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if either row has the wrong length.
    pub fn forward_into(&mut self, xrow: &[f64], orow: &mut [f64]) {
        assert_eq!(
            xrow.len(),
            self.in_features(),
            "Deconv3d: input feature mismatch"
        );
        assert_eq!(
            orow.len(),
            self.out_features(),
            "Deconv3d: output row must be cout * out_volume"
        );
        let (win, vol) = (self.window(), self.out_dims.volume());
        for (o, &bias) in orow.chunks_exact_mut(vol).zip(&self.bias) {
            o.fill(bias);
        }
        win.fold_product(self.cin, xrow, &self.weights, true, &mut self.scratch, orow);
    }
}

impl StageState for Deconv3d {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        let mut s = Section::new(ns);
        s.put_f64s("weights", &self.weights);
        s.put_f64s("bias", &self.bias);
        ckpt.push(s);
    }

    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        let s = ckpt.section(ns)?;
        let weights = s.get_f64s_len("weights", self.weights.len())?;
        let bias = s.get_f64s_len("bias", self.bias.len())?;
        self.weights = weights;
        self.bias = bias;
        self.cached_input = None;
        Ok(())
    }
}

impl Layer for Deconv3d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let batch = input.shape()[0];
        assert_eq!(
            input.shape()[1],
            self.in_features(),
            "Deconv3d: input feature mismatch"
        );
        let mut out = Tensor::zeros(vec![batch, self.out_features()]);
        for b in 0..batch {
            self.forward_into(input.row(b), out.row_mut(b));
        }
        if train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Deconv3d::backward before forward");
        let batch = input.shape()[0];
        let win = self.window();
        let (pin, cokk) = (win.sites.volume(), win.patch_len());
        let (cin, vol) = (self.cin, self.out_dims.volume());
        assert_eq!(
            grad_out.shape(),
            &[batch, self.cout * vol],
            "Deconv3d::backward: grad_out shape mismatch"
        );
        let mut grad_in = Tensor::zeros(vec![batch, cin * pin]);
        let sites = &mut self.scratch.sites;
        sites.clear();
        sites.extend(0..pin);
        for b in 0..batch {
            let (xrow, grow) = (input.row(b), grad_out.row(b));
            for (gb, g) in self.grad_b.iter_mut().zip(grow.chunks_exact(vol)) {
                *gb += g.iter().sum::<f64>();
            }
            // One halo of grad_out serves both products.
            with_halo(&win, &[grow], |g| {
                // grad_w += x [cin, Pin] · unfold(g) [Pin, cout*k³]
                win.weight_grad(cin, xrow, g, &mut self.grad_w);
                // grad_in[ci, p] = Σ_j W[ci, j] · unfold(g)[p, j]: a conv
                // forward of grad_out over the deconv's windows, no bias.
                let patches = Patches { halo: g, sites };
                let (w, gi) = (&self.weights, grad_in.row_mut(b));
                kernels::gemm_panel_source(cin, pin, cokk, pin, true, 1.0, w, &patches, 0.0, gi);
            });
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn macs(&self, batch: usize) -> u64 {
        (batch
            * self.cin
            * self.in_dims.volume()
            * self.cout
            * self.kernel
            * self.kernel
            * self.kernel) as u64
    }

    fn name(&self) -> &'static str {
        "Deconv3d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Bit `W` is raised each time [`Halo::lanes`] runs `W`-wide.
        pub(super) static LANE_WIDTHS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn conv_output_dims() {
        let mut init = Initializer::new(0);
        let c = Conv3d::new(1, 4, 3, 2, 1, Dims3::new(8, 8, 8), &mut init);
        assert_eq!(c.out_dims(), Dims3::new(4, 4, 4));
        let c2 = Conv3d::new(1, 2, 3, 1, 1, Dims3::new(5, 5, 5), &mut init);
        assert_eq!(c2.out_dims(), Dims3::new(5, 5, 5));
    }

    #[test]
    fn deconv_inverts_conv_dims() {
        let mut init = Initializer::new(0);
        let c = Conv3d::new(1, 4, 4, 2, 1, Dims3::new(8, 8, 8), &mut init);
        let d = Deconv3d::new(4, 1, 4, 2, 1, c.out_dims(), &mut init);
        assert_eq!(d.out_dims(), Dims3::new(8, 8, 8));
    }

    #[test]
    fn conv_identity_kernel_passthrough() {
        let mut init = Initializer::new(0);
        let mut c = Conv3d::new(1, 1, 1, 1, 0, Dims3::new(3, 3, 3), &mut init);
        // 1x1x1 kernel with weight 1, bias 0 is the identity.
        c.weights = vec![1.0];
        c.bias = vec![0.0];
        let x = Tensor::from_vec(vec![1, 27], (0..27).map(|i| i as f64).collect());
        let y = c.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_counts_kernel_sum() {
        let mut init = Initializer::new(0);
        let mut c = Conv3d::new(1, 1, 3, 1, 0, Dims3::new(3, 3, 3), &mut init);
        c.weights = vec![1.0; 27];
        c.bias = vec![0.0];
        let x = Tensor::full(vec![1, 27], 1.0);
        let y = c.forward(&x, false);
        // Single valid position sums all 27 ones.
        assert_eq!(y.len(), 1);
        assert_eq!(y[0], 27.0);
    }

    #[test]
    fn conv_gradient_check() {
        let mut init = Initializer::new(5);
        let mut c = Conv3d::new(1, 2, 2, 1, 0, Dims3::new(3, 3, 3), &mut init);
        let mut x = Tensor::zeros(vec![1, 27]);
        for i in 0..27 {
            x[i] = (i as f64 * 0.37).sin() * 0.5 + 0.1;
        }
        let out = c.forward(&x, true);
        let grad_in = c.backward(&out);
        let eps = 1e-5;
        for i in (0..27).step_by(5) {
            let mut p = x.clone();
            p[i] += eps;
            let mut m = x.clone();
            m[i] -= eps;
            let lp: f64 = c
                .forward(&p, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let lm: f64 = c
                .forward(&m, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "conv grad {i}: numeric {numeric} vs {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn conv_weight_gradient_check() {
        let mut init = Initializer::new(6);
        let mut c = Conv3d::new(1, 1, 2, 1, 0, Dims3::new(3, 3, 3), &mut init);
        let mut x = Tensor::zeros(vec![1, 27]);
        for i in 0..27 {
            x[i] = ((i * 7 % 13) as f64 - 6.0) / 6.0;
        }
        let out = c.forward(&x, false);
        c.zero_grad();
        let _ = c.forward(&x, true);
        let _ = c.backward(&out);
        let mut grads = vec![];
        c.visit_params(&mut |_, g| grads.push(g.to_vec()));
        let eps = 1e-6;
        let wi = 3;
        c.weights[wi] += eps;
        let lp: f64 = c
            .forward(&x, false)
            .as_slice()
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        c.weights[wi] -= 2.0 * eps;
        let lm: f64 = c
            .forward(&x, false)
            .as_slice()
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        c.weights[wi] += eps;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - grads[0][wi]).abs() < 1e-5,
            "weight grad: numeric {numeric} vs analytic {}",
            grads[0][wi]
        );
    }

    #[test]
    fn deconv_gradient_check() {
        let mut init = Initializer::new(8);
        let mut d = Deconv3d::new(2, 1, 2, 2, 0, Dims3::new(2, 2, 2), &mut init);
        assert_eq!(d.out_dims(), Dims3::new(4, 4, 4));
        let mut x = Tensor::zeros(vec![1, 16]);
        for i in 0..16 {
            x[i] = (i as f64 * 0.7).cos() * 0.4;
        }
        let out = d.forward(&x, true);
        let grad_in = d.backward(&out);
        let eps = 1e-5;
        for i in 0..16 {
            let mut p = x.clone();
            p[i] += eps;
            let mut m = x.clone();
            m[i] -= eps;
            let lp: f64 = d
                .forward(&p, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let lm: f64 = d
                .forward(&m, false)
                .as_slice()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "deconv grad {i}: numeric {numeric} vs {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn sparse_input_skips_work_but_matches_dense_result() {
        // Zeros in the input must not change the linear result (bias-only).
        let mut init = Initializer::new(9);
        let mut c = Conv3d::new(1, 2, 3, 1, 1, Dims3::new(4, 4, 4), &mut init);
        let zero = Tensor::zeros(vec![1, 64]);
        let y = c.forward(&zero, false);
        // Every output equals its channel bias.
        for co in 0..2 {
            for v in &y.as_slice()[co * 64..(co + 1) * 64] {
                assert_eq!(*v, c.bias[co]);
            }
        }
    }

    #[test]
    fn macs_and_params_positive() {
        let mut init = Initializer::new(0);
        let c = Conv3d::new(2, 4, 3, 2, 1, Dims3::new(8, 8, 8), &mut init);
        assert_eq!(c.param_count(), 4 * 2 * 27 + 4);
        assert!(c.macs(1) > 0);
        let d = Deconv3d::new(4, 2, 4, 2, 1, Dims3::new(4, 4, 4), &mut init);
        assert_eq!(d.param_count(), 4 * 2 * 64 + 2);
        assert!(d.macs(1) > 0);
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn conv_rejects_oversized_kernel() {
        let mut init = Initializer::new(0);
        let _ = Conv3d::new(1, 1, 5, 1, 0, Dims3::new(3, 3, 3), &mut init);
    }

    #[test]
    #[should_panic(expected = "conv input is empty")]
    fn conv_rejects_zero_extent_input() {
        // 0 + 2·1 >= 2 passes the kernel check, so the extent needs its own.
        let mut init = Initializer::new(0);
        let _ = Conv3d::new(1, 1, 2, 1, 1, Dims3::new(0, 3, 3), &mut init);
    }

    #[test]
    #[should_panic(expected = "deconv output is empty")]
    fn deconv_rejects_zero_extent_input() {
        // (0 - 1) * stride wrapped to a huge extent in release builds.
        let mut init = Initializer::new(0);
        let _ = Deconv3d::new(1, 1, 3, 2, 0, Dims3::new(2, 0, 2), &mut init);
    }

    #[test]
    #[should_panic(expected = "deconv output is empty")]
    fn deconv_rejects_padding_wider_than_output() {
        // (2 - 1) * 1 + 2 - 2·2 is negative.
        let mut init = Initializer::new(0);
        let _ = Deconv3d::new(1, 1, 2, 1, 2, Dims3::new(2, 2, 2), &mut init);
    }

    use sensact_math::rng::StdRng;
    use sensact_math::simd;

    /// The dense oracle's view of a conv layer.
    fn conv_win(c: &Conv3d) -> oracle::Win {
        let d = c.in_dims;
        oracle::Win::conv(c.cin, c.kernel, c.stride, c.pad, [d.d, d.h, d.w])
    }

    /// The dense oracle's view of a deconv layer.
    fn deconv_win(dc: &Deconv3d) -> oracle::Win {
        let d = dc.in_dims;
        oracle::Win::deconv(dc.cout, dc.kernel, dc.stride, dc.pad, [d.d, d.h, d.w])
    }

    fn oracle_conv(c: &Conv3d, x: &[f64], out: &mut [f64]) {
        oracle::conv_forward(&conv_win(c), &c.weights, &c.bias, x, out);
    }

    fn oracle_deconv(dc: &Deconv3d, x: &[f64], out: &mut [f64]) {
        oracle::deconv_forward(&deconv_win(dc), &dc.weights, &dc.bias, x, out);
    }

    /// Bit equality, with every NaN equal to every other: a NaN must come
    /// out exactly where the oracle has one, but which operand's payload an
    /// add or multiply of two NaNs keeps is the compiler's choice.
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{what}: element {i} is {a:e}, oracle has {b:e}"
            );
        }
    }

    /// Mostly-finite rows with exact zeros (the reference paths skip them)
    /// and a sprinkling of `-0.0`, `NaN` and `±inf`: the lowerings promise
    /// no zero-skipping and full IEEE propagation.
    fn hostile_input(rng: &mut StdRng, batch: usize, feat: usize) -> Tensor {
        let mut x = sparse_input(rng, batch, feat);
        let specials = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for row in 0..batch {
            for &v in &specials {
                let at = rng.random_range(0..feat);
                x.row_mut(row)[at] = v;
            }
        }
        x
    }

    fn grads(layer: &mut dyn Layer) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        layer.visit_params(&mut |_, g| out.push(g.to_vec()));
        out
    }

    /// `[cin, cout, kernel, stride, pad, d, h, w]`: every stride/pad/kernel
    /// the issue names, volumes that are no multiple of a panel width,
    /// `cout` below and above a register-tile height, shapes on both sides
    /// of the FMA/dot tier boundary (the served lidar conv among the small
    /// ones), a reduction (`16·3³ = 432`) deeper than one `KC` block, a conv
    /// with more sites (360) than one `KC` block — the weight gradient's
    /// reduction — and the R-MAE conv1 and deconv2 shapes on a smaller grid.
    const LOWERING_CASES: &[[usize; 8]] = &[
        [1, 1, 1, 1, 0, 2, 3, 3],
        [2, 3, 1, 2, 1, 3, 4, 5],
        [1, 2, 3, 1, 0, 3, 4, 5],
        [2, 3, 3, 1, 1, 3, 5, 7],
        [2, 5, 3, 2, 1, 5, 9, 13],
        [3, 7, 3, 2, 0, 5, 7, 9],
        [2, 3, 4, 1, 1, 4, 5, 6],
        [1, 4, 4, 2, 1, 6, 10, 10],
        [2, 2, 4, 2, 0, 6, 6, 7],
        [16, 5, 3, 1, 1, 2, 5, 7],
        [8, 16, 3, 1, 1, 2, 6, 11],
        [1, 4, 3, 2, 1, 8, 8, 8],
        [2, 4, 3, 1, 1, 3, 10, 12],
        [1, 8, 3, 2, 1, 4, 12, 20],
        [8, 1, 4, 2, 1, 2, 6, 10],
    ];

    /// Every batch entry of the conv forward — the layer's `forward` and
    /// `forward_batch_into` — against the oracle, row by row.
    fn check_conv(c: &mut Conv3d, x: &Tensor, what: &str) {
        let (batch, feat) = (x.shape()[0], c.out_features());
        let mut want = vec![f64::NAN; batch * feat];
        for (row, out) in want.chunks_exact_mut(feat).enumerate() {
            oracle_conv(c, x.row(row), out);
        }
        let got = c.forward(x, true);
        assert_same_bits(got.as_slice(), &want, &format!("{what} forward b{batch}"));

        let rows: Vec<&[f64]> = (0..batch).map(|b| x.row(b)).collect();
        let mut per_item = vec![vec![f64::NAN; feat]; batch];
        let mut views: Vec<&mut [f64]> = per_item.iter_mut().map(Vec::as_mut_slice).collect();
        c.forward_batch_into(&rows, &mut views);
        assert_same_bits(
            &per_item.concat(),
            &want,
            &format!("{what} forward_batch_into b{batch}"),
        );
    }

    fn check_deconv(dc: &mut Deconv3d, x: &Tensor, what: &str) {
        let batch = x.shape()[0];
        let feat = dc.cout * dc.out_dims().volume();
        let mut want = vec![f64::NAN; batch * feat];
        for (row, out) in want.chunks_exact_mut(feat).enumerate() {
            oracle_deconv(dc, x.row(row), out);
        }
        let got = dc.forward(x, true);
        assert_same_bits(got.as_slice(), &want, &format!("{what} forward b{batch}"));
    }

    /// A bias that is `-0.0` or NaN now and then: a `-0.0` seed must keep
    /// the deconv from skipping the all-zero column's row.
    fn hostile_bias(rng: &mut StdRng, bias: &mut [f64]) {
        for b in bias {
            *b = match rng.random_range(0..8) {
                0 | 1 => -0.0,
                2 => f64::NAN,
                3 => 0.0,
                _ => rng.random_range(-0.5..0.5),
            };
        }
    }

    /// A value for one voxel: mostly finite, sometimes `-0.0`, NaN or
    /// `±inf` — each of which a site-sparse lowering must treat as a value.
    fn hostile_value(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..8) {
            0 => -0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            _ => rng.random_range(-1.0..1.0),
        }
    }

    /// `batch` rows of `channels × vol` that are `+0.0` but for one value on
    /// a random channel at `active` random voxels (`vol` of them: every
    /// voxel holds one).
    fn mostly_zero(
        rng: &mut StdRng,
        batch: usize,
        channels: usize,
        vol: usize,
        active: usize,
    ) -> Tensor {
        let mut x = Tensor::zeros(vec![batch, channels * vol]);
        for row in 0..batch {
            for i in 0..active {
                let v = if active == vol {
                    i
                } else {
                    rng.random_range(0..vol)
                };
                x.row_mut(row)[rng.random_range(0..channels) * vol + v] = hostile_value(rng);
            }
        }
        x
    }

    #[test]
    fn prop_conv_lowering_is_bit_identical_to_the_materialised_oracle() {
        let mut rng = StdRng::seed_from_u64(0xF05ED);
        for &[cin, cout, kernel, stride, pad, d, h, w] in LOWERING_CASES {
            let dims = Dims3::new(d, h, w);
            let mut init = Initializer::new(rng.next_u64());
            let mut c = Conv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
            for b in c.bias.iter_mut() {
                *b = rng.random_range(-0.5..0.5);
            }
            let case = format!("conv {cin}->{cout} k{kernel} s{stride} p{pad} {d}x{h}x{w}");
            let feat = c.out_features();
            for &batch in &[1usize, 2, 7, 32, 33] {
                let x = hostile_input(&mut rng, batch, c.in_features());
                check_conv(&mut c, &x, &case);
            }
            // Backward against the oracle's materialised one, gradients from
            // zero; batch 3 chains each row's weight gradient onto the last's
            // non-zero sum, where the FMA, dot and chain tiers would part.
            for batch in [1, 3] {
                let x = hostile_input(&mut rng, batch, c.in_features());
                let g = hostile_input(&mut rng, batch, feat);
                c.zero_grad();
                let _ = c.forward(&x, true);
                let grad_in = c.backward(&g);
                let [want_in, want_w, want_b] =
                    oracle::conv_backward(&conv_win(&c), &c.weights, x.as_slice(), g.as_slice());
                let what = format!("{case} b{batch}");
                assert_same_bits(grad_in.as_slice(), &want_in, &format!("{what} grad_in"));
                let got = grads(&mut c);
                assert_same_bits(&got[0], &want_w, &format!("{what} grad_w"));
                assert_same_bits(&got[1], &want_b, &format!("{what} grad_b"));
            }
            // Mostly-`+0.0` rows: no value, one, a few, and one at every
            // voxel, under biases with `-0.0` and NaN among them.
            let vol = dims.volume();
            for active in [0, 1, 3, vol] {
                hostile_bias(&mut rng, &mut c.bias);
                for &batch in &[1usize, 2] {
                    let x = mostly_zero(&mut rng, batch, cin, vol, active);
                    check_conv(&mut c, &x, &format!("{case} {active} active"));
                }
            }
        }
    }

    #[test]
    fn prop_deconv_lowering_is_bit_identical_to_the_materialised_oracle() {
        let mut rng = StdRng::seed_from_u64(0xDEC0_F05E);
        for &[cin, cout, kernel, stride, pad, d, h, w] in LOWERING_CASES {
            if deconv_out(d, kernel, stride, pad).is_none_or(|o| o == 0) {
                continue; // kernel 1 under padding 1 leaves nothing of a depth-1 axis
            }
            let dims = Dims3::new(d, h, w);
            let mut init = Initializer::new(rng.next_u64());
            let mut dc = Deconv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
            for b in dc.bias.iter_mut() {
                *b = rng.random_range(-0.5..0.5);
            }
            let case = format!("deconv {cin}->{cout} k{kernel} s{stride} p{pad} {d}x{h}x{w}");
            let (in_feat, feat) = (cin * dims.volume(), cout * dc.out_dims().volume());
            for &batch in &[1usize, 2, 33] {
                let x = hostile_input(&mut rng, batch, in_feat);
                check_deconv(&mut dc, &x, &case);
            }
            for batch in [1, 3] {
                let x = hostile_input(&mut rng, batch, in_feat);
                let g = hostile_input(&mut rng, batch, feat);
                dc.zero_grad();
                let _ = dc.forward(&x, true);
                let grad_in = dc.backward(&g);
                let win = deconv_win(&dc);
                let [want_in, want_w, want_b] =
                    oracle::deconv_backward(&win, &dc.weights, x.as_slice(), g.as_slice());
                let what = format!("{case} b{batch}");
                assert_same_bits(grad_in.as_slice(), &want_in, &format!("{what} grad_in"));
                let got = grads(&mut dc);
                assert_same_bits(&got[0], &want_w, &format!("{what} grad_w"));
                assert_same_bits(&got[1], &want_b, &format!("{what} grad_b"));
            }
            // Mostly-`+0.0` rows under hostile biases, then once more with
            // an infinite weight: the all-zero column's row turns NaN
            // (`0 · inf`) and must fold at every site without a value.
            let vol = dims.volume();
            for inf_weight in [false, true] {
                if inf_weight {
                    let at = rng.random_range(0..dc.weights.len());
                    dc.weights[at] = f64::INFINITY;
                }
                for active in [0, 1, 3, vol] {
                    hostile_bias(&mut rng, &mut dc.bias);
                    for &batch in &[1usize, 2] {
                        let x = mostly_zero(&mut rng, batch, cin, vol, active);
                        let what = format!("{case} {active} active inf weight {inf_weight}");
                        check_deconv(&mut dc, &x, &what);
                    }
                }
            }
        }
    }

    /// The oracle's view of a lowering window.
    fn oracle_window(win: &Window) -> oracle::Win {
        let (g, s) = (win.grid, win.sites);
        oracle::Win {
            channels: win.channels,
            kernel: win.kernel,
            stride: win.stride,
            pad: win.pad,
            grid: [g.d, g.h, g.w],
            sites: [s.d, s.h, s.w],
        }
    }

    /// `fold_product` adds in the oracle's site-major order, `to_bits`:
    /// against `fold_add` of the materialised `[sites × len]` product over
    /// every site, on conv and deconv geometries with stride 1 and 2,
    /// `k = 3` and `4`, 1 and more than 8 output channels, inner depths of
    /// 1, 8 and 17. Patterns: dense; sparse with gaps (runs cut by gaps and
    /// by x-row ends), the unlisted sites skipped; the same with a NaN or an
    /// infinite weight, or a `-0.0` in `dst`, where every site folds; and a
    /// sparse row with no value at all. Every `dst` holds NaN among its
    /// values.
    #[test]
    fn the_fold_product_adds_in_the_site_major_order() {
        let mut rng = StdRng::seed_from_u64(0xF01D);
        // [channels, kernel, stride, pad, site d, h, w, conv (1) or deconv (0)]
        let geometries: &[[usize; 8]] = &[
            [2, 3, 1, 1, 2, 5, 7, 1],
            [3, 3, 2, 1, 3, 5, 9, 1],
            [2, 4, 2, 1, 2, 3, 5, 0],
            [1, 4, 2, 0, 2, 4, 6, 0],
            [2, 3, 1, 0, 3, 4, 5, 0],
            [1, 4, 1, 1, 2, 3, 7, 1],
            [9, 3, 1, 1, 2, 4, 11, 0],
            [1, 3, 2, 1, 2, 4, 10, 1],
        ];
        for &[channels, kernel, stride, pad, d, h, w, conv] in geometries {
            let sites = Dims3::new(d, h, w);
            let grid = if conv == 1 {
                // The grid whose conv output is `sites`.
                let e = |o: usize| (o - 1) * stride + kernel - 2 * pad;
                Dims3::new(e(d), e(h), e(w))
            } else {
                let e = |i| deconv_out(i, kernel, stride, pad).unwrap();
                Dims3::new(e(d), e(h), e(w))
            };
            let win = Window {
                channels,
                kernel,
                stride,
                pad,
                grid,
                sites,
            };
            let (len, n) = (win.patch_len(), sites.volume());
            for k in [1, 8, 17] {
                let case = format!(
                    "c{channels} k{kernel} s{stride} p{pad} {d}x{h}x{w} conv {conv} depth {k}"
                );
                // 0 dense; 1 sparse; 2 a NaN weight; 3 an infinite weight;
                // 4 a `-0.0` in `dst`; 5 no value.
                for pattern in 0..6 {
                    let listed: Vec<bool> = (0..n)
                        .map(|_| pattern == 0 || (pattern < 5 && rng.random_range(0..3) == 0))
                        .collect();
                    let a: Vec<f64> = (0..k * n)
                        .map(|i| match (listed[i % n], rng.random_range(0..12)) {
                            (false, _) => 0.0,
                            (true, 0) => -0.0,
                            (true, 1) => 0.0,
                            _ => rng.random_range(-1.0..1.0),
                        })
                        .collect();
                    let mut wts: Vec<f64> = (0..k * len)
                        .map(|_| rng.random_range(-1.0..1.0) * 10f64.powi(rng.random_range(-3..3)))
                        .collect();
                    match pattern {
                        2 => wts[rng.random_range(0..k * len)] = f64::NAN,
                        3 => wts[rng.random_range(0..k * len)] = f64::NEG_INFINITY,
                        _ => {}
                    }
                    let base: Vec<f64> = (0..channels * grid.volume())
                        .map(|i| match i % 7 {
                            3 => f64::NAN,
                            5 if pattern == 4 || pattern == 0 => -0.0,
                            _ => rng.random_range(-1.0..1.0),
                        })
                        .collect();
                    let mut col = vec![0.0; n * len];
                    for (p, row) in col.chunks_exact_mut(len).enumerate() {
                        for (q, v) in row.iter_mut().enumerate() {
                            for c in 0..k {
                                *v += wts[c * len + q] * a[c * n + p];
                            }
                        }
                    }
                    let mut want = base.clone();
                    oracle_window(&win).fold_add((0..n).map(|p| (p, p)), &col, &mut want);
                    let mut got = base.clone();
                    let mut scratch = Scratch::default();
                    win.fold_product(k, &a, &wts, pattern > 0, &mut scratch, &mut got);
                    assert_same_bits(&got, &want, &format!("{case} pattern {pattern}"));
                }
            }
        }
    }

    /// A lone value in each of the 27 boundary classes of the input (first,
    /// inner or last along each axis), through both layers of every
    /// lowering case: the sites it reaches are the only listed ones, and
    /// everything else is the stand-in's copy or the skipped zero row.
    #[test]
    fn a_lone_value_in_every_boundary_class_matches_the_oracle() {
        let mut rng = StdRng::seed_from_u64(0x1_0E5);
        for &[cin, cout, kernel, stride, pad, d, h, w] in LOWERING_CASES {
            let dims = Dims3::new(d, h, w);
            let mut init = Initializer::new(rng.next_u64());
            let mut c = Conv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
            let mut dc = (deconv_out(d, kernel, stride, pad).is_some_and(|o| o > 0))
                .then(|| Deconv3d::new(cin, cout, kernel, stride, pad, dims, &mut init));
            let case = format!("{cin}->{cout} k{kernel} s{stride} p{pad} {d}x{h}x{w}");
            let axis = |e: usize| [0, e / 2, e - 1];
            for z in axis(d) {
                for y in axis(h) {
                    for x in axis(w) {
                        let mut t = Tensor::zeros(vec![1, cin * dims.volume()]);
                        let at = (z * h + y) * w + x;
                        t[rng.random_range(0..cin) * dims.volume() + at] = hostile_value(&mut rng);
                        let what = format!("{case} lone value at ({z}, {y}, {x})");
                        hostile_bias(&mut rng, &mut c.bias);
                        check_conv(&mut c, &t, &format!("conv {what}"));
                        if let Some(dc) = dc.as_mut() {
                            hostile_bias(&mut rng, &mut dc.bias);
                            check_deconv(dc, &t, &format!("deconv {what}"));
                        }
                    }
                }
            }
        }
    }

    /// The rounding tier follows the dense shape, not the listed width: a
    /// conv on the FMA tier (`8 · 192 · 27` multiply-adds) whose one
    /// `2 × 2 × 2` cluster of values lists at most 28 sites (`8 · 28 · 27`,
    /// under `2¹⁴`) must keep the FMA tier's bits.
    #[test]
    fn the_tier_is_pinned_on_the_dense_shape() {
        let mut rng = StdRng::seed_from_u64(0x71E2);
        let dims = Dims3::new(8, 12, 16);
        let mut c = Conv3d::new(1, 8, 3, 2, 1, dims, &mut Initializer::new(3));
        assert!(8 * c.out_dims().volume() * 27 >= 1 << 14);
        for round in 0..8 {
            for b in c.bias.iter_mut() {
                *b = rng.random_range(-0.5..0.5);
            }
            let mut x = Tensor::zeros(vec![1, dims.volume()]);
            let z0 = rng.random_range(0..7usize);
            let (y0, x0) = (rng.random_range(0..11usize), rng.random_range(0..15usize));
            for (dz, dy, dx) in (0..8usize).map(|i| (i / 4, i / 2 % 2, i % 2)) {
                x[((z0 + dz) * 12 + y0 + dy) * 16 + x0 + dx] = rng.random_range(-1.0..1.0);
            }
            check_conv(&mut c, &x, &format!("tier pin round {round}"));
            let listed = c.scratch.sites.len();
            assert!(8 * listed * 27 < 1 << 14, "{listed} sites listed");
        }
    }

    /// A `-0.0` voxel is a value: on the FMA tier (`8 · 2048 · 1`
    /// multiply-adds) a `-0.0` bias plus `w · (-0.0)` with `w > 0` is `-0.0`,
    /// where the all-`+0.0` stand-in gives `+0.0`.
    #[test]
    fn a_negative_zero_voxel_is_a_value() {
        let dims = Dims3::new(4, 16, 32);
        let mut c = Conv3d::new(1, 8, 1, 1, 0, dims, &mut Initializer::new(5));
        c.weights.iter_mut().for_each(|w| *w = w.abs() + 0.125);
        c.bias.fill(-0.0);
        let mut x = Tensor::zeros(vec![1, dims.volume()]);
        x[1234] = -0.0;
        check_conv(&mut c, &x, "a -0.0 voxel under -0.0 biases");
    }

    /// Stale NaNs in the caller's output row and in every scratch buffer
    /// (flags set, garbage site lists) must not reach the result: each
    /// forward fully overwrites what it reads back.
    #[test]
    fn the_sparse_forward_overwrites_stale_output_and_scratch() {
        let mut rng = StdRng::seed_from_u64(0x57A1E);
        let stale = || Scratch {
            sites: vec![usize::MAX / 2; 4096],
            flags: vec![true; 4096],
            reached: vec![true; 4096],
            taps: vec![[usize::MAX / 2; 2]; 256],
        };
        for &[cin, cout, kernel, stride, pad, d, h, w] in LOWERING_CASES {
            let dims = Dims3::new(d, h, w);
            let mut init = Initializer::new(rng.next_u64());
            let mut c = Conv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
            let case = format!("{cin}->{cout} k{kernel} s{stride} p{pad} {d}x{h}x{w}");
            for active in [0, 1, 3] {
                let x = mostly_zero(&mut rng, 1, cin, dims.volume(), active);
                let mut want = vec![f64::NAN; c.out_features()];
                oracle_conv(&c, x.row(0), &mut want);
                c.scratch = stale();
                let mut orow = vec![f64::NAN; c.out_features()];
                c.forward_into(x.row(0), &mut orow);
                assert_same_bits(&orow, &want, &format!("conv {case} {active} active"));
                c.scratch = stale();
                c.batch_panel = vec![f64::NAN; 1 << 14];
                check_conv(
                    &mut c,
                    &Tensor::from_vec(vec![2, x.len()], [x.as_slice(); 2].concat()),
                    &case,
                );
            }
            if deconv_out(d, kernel, stride, pad).is_none_or(|o| o == 0) {
                continue;
            }
            let mut dc = Deconv3d::new(cin, cout, kernel, stride, pad, dims, &mut init);
            for active in [0, 1, 3] {
                let x = mostly_zero(&mut rng, 1, cin, dims.volume(), active);
                let mut want = vec![f64::NAN; dc.out_features()];
                oracle_deconv(&dc, x.row(0), &mut want);
                dc.scratch = stale();
                let mut orow = vec![f64::NAN; dc.out_features()];
                dc.forward_into(x.row(0), &mut orow);
                assert_same_bits(&orow, &want, &format!("deconv {case} {active} active"));
                dc.scratch = stale();
                check_deconv(&mut dc, &x, &format!("deconv {case} {active} active"));
            }
        }
    }

    /// Whether every element of `buf` outside the interior of the window it
    /// holds still holds `+0.0` bits.
    fn halo_border_is_zero(buf: &HaloBuf) -> bool {
        let Some(win) = buf.held else {
            return buf.grid.iter().all(|v| v.to_bits() == 0);
        };
        let (g, n, pad) = (win.grid, win.sites, win.pad);
        let [ed, eh, ew] = [n.d, n.h, n.w].map(|sites| (sites - 1) * win.stride + win.kernel);
        let inside = |v: usize, extent: usize| v >= pad && v - pad < extent;
        buf.grid.iter().enumerate().all(|(i, v)| {
            let (z, y, x) = (i / (eh * ew) % ed, i / ew % eh, i % ew);
            v.to_bits() == 0 || (inside(z, g.d) && inside(y, g.h) && inside(x, g.w))
        })
    }

    /// Both packers against panels cut from the oracle's materialised
    /// unfold, `to_bits`: every `LOWERING_CASES` window as a conv and as a
    /// deconv, a conv whose padding is at least its kernel (an axis with no
    /// interior at all), one whose windows stop short of the far edge; `k`
    /// blocks starting off a `k³` boundary; every panel at both tile widths,
    /// edge panels (`nr < ld`) and unaligned `j0` among them; all sites, and
    /// listed sites with gaps (runs straddling x rows in both); one and
    /// three source rows, filled over a larger stale batch; a NaN-filled
    /// destination. Then a layer's own forward and backward must have run
    /// the fixed lanes at the host tile's width only — 8 on the AVX tiles, 4
    /// on the portable one — so each ISA leg proves its width.
    #[test]
    fn prop_halo_packers_match_the_oracle_unfold() {
        let mut rng = StdRng::seed_from_u64(0x4A10);
        // Padding 3 under a kernel of 2; windows stopping short of the far
        // x edge without padding and with; an axis padding covers whole
        // (`pad ≥ (sites − 1)·stride + kernel`).
        let extra: &[[usize; 8]] = &[
            [2, 3, 2, 1, 3, 2, 3, 4],
            [1, 2, 3, 2, 0, 3, 5, 8],
            [1, 2, 3, 3, 1, 4, 5, 6],
            [1, 2, 1, 3, 1, 1, 2, 4],
        ];
        let mut windows = Vec::new();
        for &[cin, cout, kernel, stride, pad, d, h, w] in LOWERING_CASES.iter().chain(extra) {
            let (dims, mut init) = (Dims3::new(d, h, w), Initializer::new(1));
            windows.push(Conv3d::new(cin, cout, kernel, stride, pad, dims, &mut init).window());
            if deconv_out(d, kernel, stride, pad).is_some_and(|o| o > 0) {
                windows
                    .push(Deconv3d::new(cin, cout, kernel, stride, pad, dims, &mut init).window());
            }
        }
        let short = |w: &&Window| (w.sites.w - 1) * w.stride + w.kernel < w.grid.w + w.pad;
        assert!(windows.iter().any(|w| w.pad > w.kernel));
        assert!(windows.iter().filter(short).any(|w| w.pad == 0));
        assert!(windows.iter().filter(short).any(|w| w.pad > 0));
        assert!(windows
            .iter()
            .any(|w| w.pad >= (w.sites.d - 1) * w.stride + w.kernel));
        // One buffer for every window, as a thread's layers share one.
        let mut buf = HaloBuf::default();
        for win in &windows {
            let (len, vol) = (win.patch_len(), win.sites.volume());
            let feat = win.channels * win.grid.volume();
            let case = format!("{win:?}");
            for batch in [1, 3] {
                let stale = hostile_input(&mut rng, batch + 2, feat);
                let x = hostile_input(&mut rng, batch, feat);
                let rows: Vec<&[f64]> = (0..batch).map(|b| x.row(b)).collect();
                let cols: Vec<Vec<f64>> = rows
                    .iter()
                    .map(|row| {
                        let mut col = vec![f64::NAN; vol * len];
                        oracle_window(win).unfold(row, &mut col);
                        col
                    })
                    .collect();
                let stale_rows: Vec<&[f64]> = (0..batch + 2).map(|b| stale.row(b)).collect();
                let _ = buf.fill(win, &stale_rows);
                assert!(halo_border_is_zero(&buf), "{case} b{batch}: halo border");
                let halo = buf.fill(win, &rows);
                let gappy: Vec<usize> = (0..vol).filter(|_| rng.random_range(0..3) > 0).collect();
                // `k` blocks: the whole reduction, and one cut anywhere.
                let cut = |rng: &mut StdRng, k: usize| {
                    let k0 = rng.random_range(0..k);
                    [(0, k), (k0, rng.random_range(1..=k - k0))]
                };
                for ld in [4, 8] {
                    for sites in [&(0..vol).collect::<Vec<_>>(), &gappy] {
                        let (ns, n) = (sites.len(), batch * sites.len());
                        let patches = Patches { halo, sites };
                        let want = |q: usize, j: usize| cols[j / ns][sites[j % ns] * len + q];
                        for (k0, kc) in cut(&mut rng, len) {
                            let j0s = (0..n).step_by(ld).chain([rng.random_range(0..n.max(1))]);
                            for j0 in j0s.filter(|_| n > 0) {
                                let what = format!(
                                    "Patches {case} b{batch} ns{ns} ld{ld} k{k0}+{kc} j{j0}"
                                );
                                check_panel(
                                    &patches,
                                    [k0, kc, j0, (n - j0).min(ld), ld],
                                    want,
                                    &what,
                                );
                            }
                        }
                    }
                    let rows = SiteRows(halo);
                    let want = |p: usize, q: usize| cols[0][p * len + q];
                    for (k0, kc) in cut(&mut rng, vol) {
                        for j0 in (0..len).step_by(ld).chain([rng.random_range(0..len)]) {
                            let what = format!("SiteRows {case} b{batch} ld{ld} k{k0}+{kc} j{j0}");
                            check_panel(&rows, [k0, kc, j0, (len - j0).min(ld), ld], want, &what);
                        }
                    }
                }
                assert!(halo_border_is_zero(&buf), "{case} b{batch}: halo border");
            }
        }
        let host = simd::cpu_features().simd_f64() && simd::cpu_features().avx2;
        let width = if host { 8 } else { 4 };
        LANE_WIDTHS.with(|w| w.set(0));
        let mut c = Conv3d::new(2, 3, 3, 1, 1, Dims3::new(3, 5, 7), &mut Initializer::new(2));
        let mut d = Deconv3d::new(2, 3, 4, 2, 1, Dims3::new(2, 3, 5), &mut Initializer::new(3));
        let x = hostile_input(&mut rng, 2, c.in_features());
        let _ = c.forward(&x, true);
        let _ = c.backward(&hostile_input(&mut rng, 2, c.out_features()));
        let x = hostile_input(&mut rng, 2, 2 * 30);
        let y = d.forward(&x, true);
        let _ = d.backward(&y);
        assert_eq!(
            LANE_WIDTHS.with(|w| w.get()),
            1 << width,
            "lanes ran at other widths than {width}"
        );
    }

    /// A conv forward, a conv backward and a deconv forward and backward
    /// each run only the widest tiles and fold arm of the host: the 512-bit
    /// ones on an AVX-512 host, the 256-bit ones on an AVX2 host, the
    /// portable tile and the scalar fold without AVX2 or under
    /// `SENSACT_FORCE_SCALAR`. The panel-source products (every product is
    /// at least 8 rows tall) run tiles; the transposed products (the conv
    /// input gradient, the deconv forward) run the fold, and nothing else
    /// does. A dispatch that fell back to a narrower tile or arm would give
    /// the same bits and pass every bit row; this one fails it.
    #[test]
    fn the_layers_run_the_host_s_widest_tiles() {
        use simd::{FoldArm, Tile};
        let f = simd::cpu_features();
        let bit = |t: Tile| 1u32 << t as u32;
        let widest = match (f.simd_f64() && f.avx2, f.avx512f) {
            (false, _) => bit(Tile::Portable),
            (true, false) => bit(Tile::Avx) | bit(Tile::Fma),
            (true, true) => bit(Tile::Zmm) | bit(Tile::ZmmFma),
        };
        let fold = 1u32
            << match (f.forced_scalar || !f.avx2, f.avx512f) {
                (true, _) => FoldArm::Scalar,
                (false, true) => FoldArm::Zmm,
                (false, false) => FoldArm::Avx2,
            } as u32;
        let mut rng = StdRng::seed_from_u64(0x512);
        let mut c = Conv3d::new(2, 8, 3, 1, 1, Dims3::new(3, 5, 7), &mut Initializer::new(2));
        let mut d = Deconv3d::new(8, 2, 3, 1, 1, Dims3::new(3, 5, 7), &mut Initializer::new(3));
        let ran = |what: &str, tiles: bool, folds: bool| {
            let bits = simd::take_tiles_run();
            assert_eq!(bits & !widest, 0, "{what} ran a narrower tile: {bits:#b}");
            assert_eq!(bits != 0, tiles, "{what} ran tiles {bits:#b}");
            let arms = simd::take_fold_arms_run();
            assert_eq!(
                arms,
                if folds { fold } else { 0 },
                "{what} ran fold arms {arms:#b}"
            );
        };
        simd::take_tiles_run();
        simd::take_fold_arms_run();
        let x = hostile_input(&mut rng, 2, c.in_features());
        let y = c.forward(&x, true);
        ran("conv forward", true, false);
        let _ = c.backward(&hostile_input(&mut rng, 2, c.out_features()));
        ran("conv backward", true, true);
        let z = d.forward(&y, true);
        ran("deconv forward", false, true);
        let _ = d.backward(&z);
        ran("deconv backward", true, false);
    }

    /// Pack one `[k0, kc, j0, nr, ld]` panel of `src` over NaN and compare
    /// it `to_bits` with `want(k, j)`, lanes `nr..ld` `+0.0`.
    fn check_panel(
        src: &dyn PanelSource,
        [k0, kc, j0, nr, ld]: [usize; 5],
        want: impl Fn(usize, usize) -> f64,
        what: &str,
    ) {
        let mut dst = vec![f64::NAN; kc * ld];
        src.pack(k0, kc, j0, nr, ld, &mut dst);
        for (i, v) in dst.iter().enumerate() {
            let (kk, l) = (i / ld, i % ld);
            let w = if l < nr { want(k0 + kk, j0 + l) } else { 0.0 };
            assert_eq!(
                v.to_bits(),
                w.to_bits(),
                "{what}: row {kk} lane {l} is {v:e}, the oracle has {w:e}"
            );
        }
    }

    /// The layer protocol holds no halo state across calls: seeded random
    /// interleavings of `forward` (training and inference),
    /// `forward_batch_into` (the batch growing, then shrinking), `backward`
    /// and `zero_grad` over hostile rows (NaN, `±inf`, `-0.0`), each
    /// compared `to_bits` with a freshly built twin making the same call
    /// (after the same training forward, and from the same gradients, where
    /// the call reads them); after every call the halo border is all `+0.0`.
    #[test]
    fn halo_state_does_not_leak_across_calls() {
        let mut rng = StdRng::seed_from_u64(0x4A11);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let batches = [2, 5, 9, 33, 12, 3, 1];
        let cases: &[[usize; 8]] = &[
            [1, 4, 3, 2, 1, 8, 8, 8],
            [2, 3, 4, 1, 1, 4, 5, 6],
            [2, 2, 4, 2, 0, 6, 6, 7],
            [2, 3, 2, 1, 3, 2, 3, 4],
        ];
        for &[cin, cout, kernel, stride, pad, d, h, w] in cases {
            let dims = Dims3::new(d, h, w);
            let seed = rng.next_u64();
            let mut bias = vec![0.0; cout];
            hostile_bias(&mut rng, &mut bias);
            let fresh_conv = || {
                let mut c = Conv3d::new(
                    cin,
                    cout,
                    kernel,
                    stride,
                    pad,
                    dims,
                    &mut Initializer::new(seed),
                );
                c.bias.clone_from(&bias);
                c
            };
            let fresh_deconv = || {
                let mut dc = Deconv3d::new(
                    cin,
                    cout,
                    kernel,
                    stride,
                    pad,
                    dims,
                    &mut Initializer::new(seed),
                );
                dc.bias.clone_from(&bias);
                dc
            };
            let has_deconv = deconv_out(d, kernel, stride, pad).is_some_and(|o| o > 0);
            let (mut c, mut dc) = (fresh_conv(), has_deconv.then(fresh_deconv));
            let (mut pending, mut pending_d, mut wide) = (None, None, 0);
            for step in 0..40 {
                let what =
                    format!("{cin}->{cout} k{kernel} s{stride} p{pad} {d}x{h}x{w} step {step}");
                let batch = rng.random_range(1..4usize);
                match rng.random_range(0..5) {
                    op @ (0 | 1) => {
                        let train = op == 0;
                        let x = hostile_input(&mut rng, batch, c.in_features());
                        let got = c.forward(&x, train);
                        assert_eq!(
                            bits(got.as_slice()),
                            bits(fresh_conv().forward(&x, train).as_slice()),
                            "{what}: conv forward"
                        );
                        if let Some(dc) = dc.as_mut() {
                            let xd = hostile_input(&mut rng, batch, cin * dims.volume());
                            let got = dc.forward(&xd, train);
                            assert_eq!(
                                bits(got.as_slice()),
                                bits(fresh_deconv().forward(&xd, train).as_slice()),
                                "{what}: deconv forward"
                            );
                            if train {
                                pending_d = Some(xd);
                            }
                        }
                        if train {
                            pending = Some(x);
                        }
                    }
                    2 => {
                        let batch = batches[wide % batches.len()];
                        wide += 1;
                        let x = hostile_input(&mut rng, batch, c.in_features());
                        let rows: Vec<&[f64]> = (0..batch).map(|b| x.row(b)).collect();
                        let run = |c: &mut Conv3d| {
                            let mut outs = vec![vec![f64::NAN; c.out_features()]; batch];
                            let mut views: Vec<&mut [f64]> =
                                outs.iter_mut().map(Vec::as_mut_slice).collect();
                            c.forward_batch_into(&rows, &mut views);
                            bits(&outs.concat())
                        };
                        assert_eq!(
                            run(&mut c),
                            run(&mut fresh_conv()),
                            "{what}: forward_batch_into b{batch}"
                        );
                    }
                    3 => {
                        if let Some(x) = &pending {
                            let mut twin = fresh_conv();
                            let _ = twin.forward(x, true);
                            let g = hostile_input(&mut rng, x.shape()[0], c.out_features());
                            backward_like_twin(&mut c, &mut twin, &g, &format!("{what} conv"));
                        }
                        if let (Some(dc), Some(x)) = (dc.as_mut(), &pending_d) {
                            let mut twin = fresh_deconv();
                            let _ = twin.forward(x, true);
                            let feat = cout * dc.out_dims().volume();
                            let g = hostile_input(&mut rng, x.shape()[0], feat);
                            backward_like_twin(dc, &mut twin, &g, &format!("{what} deconv"));
                        }
                    }
                    _ => {
                        c.zero_grad();
                        dc.iter_mut().for_each(|dc| dc.zero_grad());
                    }
                }
                assert!(HALO.with_borrow(halo_border_is_zero), "{what}: halo border");
            }
        }
    }

    /// `layer.backward(g)` against `twin.backward(g)` started from
    /// `layer`'s gradients: input and parameter gradients `to_bits`.
    fn backward_like_twin(layer: &mut dyn Layer, twin: &mut dyn Layer, g: &Tensor, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut held = grads(layer).into_iter();
        twin.visit_params(&mut |_, g| g.copy_from_slice(&held.next().unwrap()));
        let (got, want) = (layer.backward(g), twin.backward(g));
        assert_eq!(
            bits(got.as_slice()),
            bits(want.as_slice()),
            "{what}: grad_in"
        );
        for (got, want) in grads(layer).iter().zip(grads(twin)) {
            assert_eq!(bits(got), bits(&want), "{what}: parameter gradients");
        }
    }

    /// A `grad_out` with a row more than the cached input, or a row too
    /// short, is refused, not silently cut to the input's batch.
    #[test]
    #[should_panic(expected = "grad_out shape mismatch")]
    fn conv_backward_refuses_a_grad_out_of_the_wrong_shape() {
        let mut c = Conv3d::new(1, 2, 2, 1, 0, Dims3::new(3, 3, 3), &mut Initializer::new(1));
        let _ = c.forward(&Tensor::full(vec![1, 27], 0.5), true);
        let _ = c.backward(&Tensor::full(vec![2, c.out_features()], 1.0));
    }

    #[test]
    #[should_panic(expected = "grad_out shape mismatch")]
    fn deconv_backward_refuses_a_grad_out_of_the_wrong_shape() {
        let mut d = Deconv3d::new(2, 1, 2, 2, 0, Dims3::new(2, 2, 2), &mut Initializer::new(1));
        let _ = d.forward(&Tensor::full(vec![2, 16], 0.5), true);
        let _ = d.backward(&Tensor::full(vec![3, 64], 1.0));
    }

    /// Random input with a sparse fraction of exact zeros, so the reference
    /// path's zero-skip branch is exercised too.
    fn sparse_input(rng: &mut StdRng, batch: usize, feat: usize) -> Tensor {
        let data: Vec<f64> = (0..batch * feat)
            .map(|_| {
                if rng.random::<bool>() {
                    0.0
                } else {
                    rng.random_range(-1.0..1.0)
                }
            })
            .collect();
        Tensor::from_vec(vec![batch, feat], data)
    }

    #[test]
    fn prop_im2col_conv_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xC04301);
        // No random draw reaches 2¹⁴ multiply-adds per row, where the forward
        // moves to the FMA tier: `LOWERING_CASES` follow them.
        for round in 0..24 + LOWERING_CASES.len() {
            let [cin, cout, kernel, stride, pad, d, h, w] = if round < 24 {
                let cin = rng.random_range(1..3usize);
                let cout = rng.random_range(1..4usize);
                let kernel = rng.random_range(1..4usize);
                let stride = rng.random_range(1..3usize);
                let pad = rng.random_range(0..2usize);
                let d = rng.random_range(kernel..kernel + 3);
                let h = rng.random_range(kernel..kernel + 3);
                let w = rng.random_range(kernel..kernel + 3);
                [cin, cout, kernel, stride, pad, d, h, w]
            } else {
                LOWERING_CASES[round - 24]
            };
            let mut init = Initializer::new(rng.next_u64());
            let mut c = Conv3d::new(
                cin,
                cout,
                kernel,
                stride,
                pad,
                Dims3::new(d, h, w),
                &mut init,
            );
            for b in c.bias.iter_mut() {
                *b = rng.random_range(-0.5..0.5);
            }
            let batch = rng.random_range(1..3usize);
            let x = sparse_input(&mut rng, batch, cin * d * h * w);
            let fast = c.forward(&x, false);
            let mut reference = Tensor::zeros(fast.shape().to_vec());
            for b in 0..batch {
                let row = reference.row_mut(b);
                oracle::conv_gather(&conv_win(&c), &c.weights, &c.bias, x.row(b), row);
            }
            assert_eq!(fast.shape(), reference.shape());
            for (a, b) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "conv mismatch: {a} vs {b} (k={kernel} s={stride} p={pad})"
                );
            }
        }
    }

    /// The serving plane's conv guarantee: batching N loops' rows through
    /// one stacked GEMM is bitwise identical to running each row alone, for
    /// every batch size including ragged tails.
    #[test]
    fn batched_forward_matches_per_row_forward() {
        let mut rng = StdRng::seed_from_u64(0xBA7C2);
        let dims = Dims3::new(8, 8, 8);
        let mut init = Initializer::new(0x5EED);
        let mut c = Conv3d::new(1, 4, 3, 2, 1, dims, &mut init);
        for b in c.bias.iter_mut() {
            *b = rng.random_range(-0.5..0.5);
        }
        let in_feat = c.in_features();
        let out_feat = c.out_features();
        for &batch in &[1usize, 2, 3, 7, 13] {
            let x = sparse_input(&mut rng, batch, in_feat);
            let reference = c.forward(&x, false);
            let rows: Vec<&[f64]> = (0..batch).map(|b| x.row(b)).collect();

            // Each row lands in its own caller-owned buffer — same bits as
            // the per-row forward.
            let mut per_item: Vec<Vec<f64>> = vec![vec![f64::NAN; out_feat]; batch];
            let mut views: Vec<&mut [f64]> =
                per_item.iter_mut().map(|v| v.as_mut_slice()).collect();
            c.forward_batch_into(&rows, &mut views);
            for (t, row) in per_item.iter().enumerate() {
                let want = &reference.as_slice()[t * out_feat..(t + 1) * out_feat];
                assert!(
                    row.iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "forward_batch_into not bitwise at batch={batch} row {t}"
                );
            }
        }
        // Empty batch is a no-op, not a panic.
        c.forward_batch_into(&[], &mut []);
    }

    /// Conv weights restore bit-exactly, and the section is exactly
    /// `weights` + `bias`.
    #[test]
    fn conv_checkpoint_round_trips_weights() {
        let mut rng = StdRng::seed_from_u64(0xCC01);
        let dims = Dims3::new(4, 4, 4);
        let mut init_a = Initializer::new(7);
        let mut a = Conv3d::new(2, 3, 3, 1, 1, dims, &mut init_a);
        for b in a.bias.iter_mut() {
            *b = rng.random_range(-0.5..0.5);
        }
        let x = sparse_input(&mut rng, 2, 2 * dims.volume());
        let mut ckpt = Checkpoint::new("conv");
        a.save_state(&mut ckpt, "enc");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
        let section = ckpt.section("enc").unwrap();
        assert_eq!(section.len(), 2);
        assert!(!section.has("f32_panel"), "the writer dropped the key");
        // Differently-initialized twin with the same architecture.
        let mut init_b = Initializer::new(991);
        let mut b = Conv3d::new(2, 3, 3, 1, 1, dims, &mut init_b);
        b.restore_state(&ckpt, "enc").unwrap();
        assert_eq!(
            a.forward(&x, false).as_slice(),
            b.forward(&x, false).as_slice()
        );
        // Architecture mismatch is a typed error, not a panic.
        let mut tiny = Conv3d::new(1, 1, 1, 1, 0, dims, &mut init_b);
        assert!(matches!(
            tiny.restore_state(&ckpt, "enc"),
            Err(CheckpointError::BadValue(_))
        ));
    }

    /// Documents written while the layer kept a reduced-precision weight
    /// copy carry an `f32_panel` flag beside the weights; they still restore.
    #[test]
    fn conv_restores_a_section_written_with_the_f32_panel_flag() {
        let dims = Dims3::new(4, 4, 4);
        let mut c = Conv3d::new(1, 2, 3, 1, 1, dims, &mut Initializer::new(3));
        let weights: Vec<f64> = (0..c.weights.len()).map(|i| i as f64 * 0.125).collect();
        let mut s = Section::new("enc");
        s.put_f64s("weights", &weights);
        s.put_f64s("bias", &[0.5, -0.25]);
        s.put_bool("f32_panel", true);
        let mut ckpt = Checkpoint::new("conv");
        ckpt.push(s);
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
        c.restore_state(&ckpt, "enc").unwrap();
        assert_eq!(c.weights, weights);
        assert_eq!(c.bias, [0.5, -0.25]);
    }

    #[test]
    fn deconv_checkpoint_round_trips_weights() {
        let mut rng = StdRng::seed_from_u64(0xDC02);
        let dims = Dims3::new(2, 2, 2);
        let mut init_a = Initializer::new(8);
        let mut a = Deconv3d::new(2, 1, 2, 2, 0, dims, &mut init_a);
        for b in a.bias.iter_mut() {
            *b = rng.random_range(-0.5..0.5);
        }
        let mut ckpt = Checkpoint::new("deconv");
        a.save_state(&mut ckpt, "dec");
        let ckpt = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap();
        let mut init_b = Initializer::new(552);
        let mut b = Deconv3d::new(2, 1, 2, 2, 0, dims, &mut init_b);
        b.restore_state(&ckpt, "dec").unwrap();
        let x = sparse_input(&mut rng, 1, 2 * dims.volume());
        assert_eq!(
            a.forward(&x, false).as_slice(),
            b.forward(&x, false).as_slice()
        );
    }

    #[test]
    fn prop_gemm_deconv_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xDC4301);
        // The random draws keep every fold run inside one vector (at most
        // 4 sites a row): `LOWERING_CASES` follow them with longer runs.
        for round in 0..24 + LOWERING_CASES.len() {
            let [cin, cout, kernel, stride, pad, d, h, w] = if round < 24 {
                let cin = rng.random_range(1..3usize);
                let cout = rng.random_range(1..4usize);
                let kernel = rng.random_range(2..4usize);
                let stride = rng.random_range(1..3usize);
                let pad = rng.random_range(0..2usize);
                let d = rng.random_range(2..5usize);
                let h = rng.random_range(2..5usize);
                let w = rng.random_range(2..5usize);
                [cin, cout, kernel, stride, pad, d, h, w]
            } else {
                LOWERING_CASES[round - 24]
            };
            if deconv_out(d, kernel, stride, pad).is_none_or(|o| o == 0) {
                continue; // kernel 1 under padding 1 leaves nothing of a depth-1 axis
            }
            let mut init = Initializer::new(rng.next_u64());
            let mut dc = Deconv3d::new(
                cin,
                cout,
                kernel,
                stride,
                pad,
                Dims3::new(d, h, w),
                &mut init,
            );
            for b in dc.bias.iter_mut() {
                *b = rng.random_range(-0.5..0.5);
            }
            let batch = rng.random_range(1..3usize);
            let x = sparse_input(&mut rng, batch, cin * d * h * w);
            let fast = dc.forward(&x, false);
            let mut reference = Tensor::zeros(fast.shape().to_vec());
            for b in 0..batch {
                let (win, row) = (deconv_win(&dc), reference.row_mut(b));
                oracle::deconv_gather(&win, &dc.weights, &dc.bias, x.row(b), row);
            }
            assert_eq!(fast.shape(), reference.shape());
            for (a, b) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "deconv mismatch: {a} vs {b} (k={kernel} s={stride} p={pad})"
                );
            }
        }
    }
}
