//! Radix-2 FFT-accelerated circular convolution with precomputed twiddle
//! tables.
//!
//! The reference kernels in [`crate::ops`] are O(d²) — the same arithmetic
//! the AdArray performs — which is what the microsimulator cross-checks.
//! Software consumers (the reasoning pipeline, large-scale experiments)
//! want the O(d·log d) path: convolution via the convolution theorem,
//! `a ⊛ b = IFFT(FFT(a)·FFT(b))`.
//!
//! # Twiddle tables
//!
//! Butterfly twiddles are precomputed per stage into an `FftPlan`
//! (`w_k = exp(−i·2πk/len)` evaluated directly per index) instead of the
//! seed's running product `w ← w·w_len`, which accumulated one rounding
//! error per butterfly and drifted measurably by `d = 4096`. Plans are
//! cached per transform length in a thread-local table, so blockwise
//! binds and resonator sweeps reuse one table per block length.
//!
//! # Split-complex layout
//!
//! A spectrum is two planes of `f64`, the real parts and the imaginary
//! parts, and so are the plan's twiddles, with a second imaginary table,
//! negated, for the inverse transform. Each butterfly stage then streams
//! through whole runs of each plane with no bounds checks, which the
//! compiler vectorizes. Only the layout is split: every output element
//! sees the same floating-point operations on the same operands in the
//! same order as in an interleaved `(re, im)` radix-2 kernel, so the
//! transforms are bit-identical to one (negating a twiddle is exact, so
//! the inverse multiplies by exactly the conjugate). The crate's
//! `kernel_pins` tests pin the outputs bit for bit.
//!
//! A call transforms a whole block code at once, into buffers the caller
//! owns: one plan lookup and one pair of planes per code rather than per
//! block, and one bump of each counter per call. `vsa.fft_forward` and
//! `vsa.fft_inverse` still count one transform per block.
//!
//! # Fallback contract
//!
//! [`bind_fast`] and [`unbind_fast`] are **total over all same-geometry
//! codes**: when the block dimension is not a power of two — the radix-2
//! plan cannot decompose it — or is below 8 — where the butterfly +
//! complex-arithmetic overhead loses to the direct kernel — they fall
//! back to [`ops::bind`] and [`ops::unbind`] and are then
//! **bit-identical** to the reference (same function, not an
//! approximation). On the fast path the result carries f64-FFT rounding
//! instead, within ~1e-3 absolute of the reference for unit-scale
//! operands.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use nsflow_telemetry as telemetry;

use crate::{ops, BlockCode, Result};

/// The blockwise spectrum of a code in split-complex layout: bin `i` of
/// the concatenated block transforms is `re[i] + i·im[i]`.
#[derive(Debug, Clone)]
pub(crate) struct Spectrum {
    pub(crate) re: Vec<f64>,
    pub(crate) im: Vec<f64>,
}

impl Spectrum {
    /// `len` zero bins.
    pub(crate) fn zeros(len: usize) -> Self {
        Spectrum {
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }

    /// Sets every bin to `re + i·im`.
    pub(crate) fn fill(&mut self, re: f64, im: f64) {
        self.re.fill(re);
        self.im.fill(im);
    }

    /// `self ← self · other`, bin by bin.
    pub(crate) fn mul(&mut self, other: &Spectrum) {
        for (((xr, xi), &yr), &yi) in self
            .re
            .iter_mut()
            .zip(&mut self.im)
            .zip(&other.re)
            .zip(&other.im)
        {
            let (ar, ai) = (*xr, *xi);
            *xr = ar * yr - ai * yi;
            *xi = ar * yi + ai * yr;
        }
    }

    /// `self ← self · conj(other)`, bin by bin.
    pub(crate) fn mul_conj(&mut self, other: &Spectrum) {
        for (((xr, xi), &yr), &yi) in self
            .re
            .iter_mut()
            .zip(&mut self.im)
            .zip(&other.re)
            .zip(&other.im)
        {
            let (ar, ai, yi) = (*xr, *xi, -yi);
            *xr = ar * yr - ai * yi;
            *xi = ar * yi + ai * yr;
        }
    }

    /// `self ← self + w · other`, bin by bin.
    pub(crate) fn add_scaled(&mut self, other: &Spectrum, w: f64) {
        for (x, &y) in self.re.iter_mut().zip(&other.re) {
            *x += y * w;
        }
        for (x, &y) in self.im.iter_mut().zip(&other.im) {
            *x += y * w;
        }
    }
}

/// A radix-2 Cooley–Tukey plan for one power-of-two length: the
/// bit-reversal swaps and the per-stage twiddle tables
/// (`w_k = exp(−i·2πk/len)`, each entry computed directly from its angle)
/// in split layout.
#[derive(Debug, Clone)]
pub(crate) struct FftPlan {
    n: usize,
    /// The pairs `(i, j)`, `i < j`, where `j` is `i` bit-reversed: the
    /// swaps that put a block into bit-reversed order.
    swaps: Vec<(usize, usize)>,
    /// Real parts of the twiddles, stages concatenated: the stage with
    /// butterfly span `len` contributes `len/2` entries, starting at
    /// `len/2 − 1`; stages ordered `len = 2, 4, …, n`.
    tw_re: Vec<f64>,
    /// Imaginary parts of the forward twiddles.
    tw_im: Vec<f64>,
    /// `tw_im` negated: the inverse transform's conjugated twiddles.
    tw_im_inv: Vec<f64>,
}

impl FftPlan {
    /// Builds the plan for transform length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "fft length must be a power of two, got {n}"
        );
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i, j));
            }
        }
        // Σ_{len=2,4,…,n} len/2 = n − 1 twiddles.
        let mut tw_re = Vec::with_capacity(n - 1);
        let mut tw_im = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            let step = -std::f64::consts::TAU / len as f64;
            for k in 0..len / 2 {
                let ang = step * k as f64;
                tw_re.push(ang.cos());
                tw_im.push(ang.sin());
            }
            len <<= 1;
        }
        let tw_im_inv = tw_im.iter().map(|w| -w).collect();
        FftPlan {
            n,
            swaps,
            tw_re,
            tw_im,
            tw_im_inv,
        }
    }

    /// The decimation-in-time butterflies over one block already in
    /// bit-reversed order, stage by stage, with `tw_im` the forward or the
    /// conjugated imaginary table.
    fn butterflies(&self, re: &mut [f64], im: &mut [f64], tw_im: &[f64]) {
        let mut half = 1usize;
        while half < self.n {
            let stage = half - 1..2 * half - 1;
            let (wr, wi) = (&self.tw_re[stage.clone()], &tw_im[stage]);
            // Spans known at compile time let the short stages unroll and
            // vectorize across butterfly groups.
            match half {
                1 => stage_butterflies(re, im, &wr[..1], &wi[..1]),
                2 => stage_butterflies(re, im, &wr[..2], &wi[..2]),
                4 => stage_butterflies(re, im, &wr[..4], &wi[..4]),
                _ => stage_butterflies(re, im, wr, wi),
            }
            half <<= 1;
        }
    }

    /// Forward transform of every `n`-point block of the real signal `x`
    /// into `spec`, which holds `x.len()` bins.
    pub(crate) fn forward(&self, x: &[f32], spec: &mut Spectrum) {
        let n = self.n;
        debug_assert_eq!(spec.re.len(), x.len(), "spectrum length must match");
        telemetry::counter!("vsa.fft_forward").add((x.len() / n) as u64);
        for ((x, re), im) in x
            .chunks_exact(n)
            .zip(spec.re.chunks_exact_mut(n))
            .zip(spec.im.chunks_exact_mut(n))
        {
            for (r, &v) in re.iter_mut().zip(x) {
                *r = f64::from(v);
            }
            im.fill(0.0);
            for &(i, j) in &self.swaps {
                re.swap(i, j);
            }
            self.butterflies(re, im, &self.tw_im);
        }
    }

    /// Inverse transform (with the `1/n` scaling) of every block of
    /// `spec`, writing the real parts to `out` (the signals here are real
    /// by construction; imaginary residue is rounding noise). `spec` is
    /// left holding the unscaled transforms.
    pub(crate) fn inverse(&self, spec: &mut Spectrum, out: &mut [f32]) {
        let n = self.n;
        debug_assert_eq!(spec.re.len(), out.len(), "spectrum length must match");
        telemetry::counter!("vsa.fft_inverse").add((out.len() / n) as u64);
        let inv_n = 1.0 / n as f64;
        for ((out, re), im) in out
            .chunks_exact_mut(n)
            .zip(spec.re.chunks_exact_mut(n))
            .zip(spec.im.chunks_exact_mut(n))
        {
            for &(i, j) in &self.swaps {
                re.swap(i, j);
                im.swap(i, j);
            }
            self.butterflies(re, im, &self.tw_im_inv);
            for (o, &r) in out.iter_mut().zip(&*re) {
                *o = (r * inv_n) as f32;
            }
        }
    }
}

/// One radix-2 stage over a block: every group of `2·half` points, `half
/// = wr.len()`, gets the butterflies `u, v ← u + w·v, u − w·v` with
/// `w = wr[k] + i·wi[k]`, `u` at offset `k` and `v` at `k + half`.
#[inline(always)]
fn stage_butterflies(re: &mut [f64], im: &mut [f64], wr: &[f64], wi: &[f64]) {
    let half = wr.len();
    for (re, im) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (ur, vr) = re.split_at_mut(half);
        let (ui, vi) = im.split_at_mut(half);
        for (((((ur, ui), vr), vi), &wr), &wi) in
            ur.iter_mut().zip(ui).zip(vr).zip(vi).zip(wr).zip(wi)
        {
            let (xr, xi) = (*vr, *vi);
            let (tr, ti) = (xr * wr - xi * wi, xr * wi + xi * wr);
            let (ar, ai) = (*ur, *ui);
            *ur = ar + tr;
            *ui = ai + ti;
            *vr = ar - tr;
            *vi = ai - ti;
        }
    }
}

thread_local! {
    /// Per-thread plan cache keyed by transform length. Resonator sweeps
    /// and blockwise binds hit the same couple of lengths thousands of
    /// times; the cache makes plan construction a one-time cost.
    static PLAN_CACHE: RefCell<HashMap<usize, Rc<FftPlan>>> = RefCell::new(HashMap::new());
}

/// The cached plan for length `n` (building and caching it on first use).
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub(crate) fn plan(n: usize) -> Rc<FftPlan> {
    PLAN_CACHE.with(|cache| {
        Rc::clone(
            cache
                .borrow_mut()
                .entry(n)
                .or_insert_with(|| Rc::new(FftPlan::new(n))),
        )
    })
}

/// Whether the O(d·log d) spectral path handles length `n` (power of two
/// and at least 8); otherwise the `*_fast` functions run the direct
/// reference kernel. See the module-level fallback contract.
#[must_use]
pub(crate) fn fast_path_applies(n: usize) -> bool {
    n.is_power_of_two() && n >= 8
}

/// `IFFT(FFT(a) ∘ FFT(b))` blockwise over `n`-point blocks, where `∘` is
/// [`Spectrum::mul`] (convolution) or [`Spectrum::mul_conj`]
/// (correlation). Counts one fast kernel call per block.
fn spectral(a: &[f32], b: &[f32], n: usize, product: fn(&mut Spectrum, &Spectrum)) -> Vec<f32> {
    telemetry::counter!("vsa.kernel_fast").add((a.len() / n) as u64);
    let plan = plan(n);
    let mut fa = Spectrum::zeros(a.len());
    let mut fb = Spectrum::zeros(b.len());
    plan.forward(a, &mut fa);
    plan.forward(b, &mut fb);
    product(&mut fa, &fb);
    let mut out = vec![0.0; a.len()];
    plan.inverse(&mut fa, &mut out);
    out
}

/// Blockwise binding through the fast path — drop-in accelerated
/// equivalent of [`crate::ops::bind`], which it runs when the block
/// dimension is not a power of two or is below 8.
///
/// # Errors
///
/// Returns [`crate::VsaError::GeometryMismatch`] if geometries differ.
pub fn bind_fast(a: &BlockCode, b: &BlockCode) -> Result<BlockCode> {
    a.check_geometry(b)?;
    let (nb, bd) = (a.n_blocks(), a.block_dim());
    if !fast_path_applies(bd) {
        telemetry::counter!("vsa.kernel_fallbacks").add(nb as u64);
        return ops::bind(a, b);
    }
    BlockCode::from_vec(nb, bd, spectral(a.data(), b.data(), bd, Spectrum::mul))
}

/// Blockwise inverse binding through the fast path — drop-in accelerated
/// equivalent of [`crate::ops::unbind`], which it runs when the block
/// dimension is not a power of two or is below 8.
///
/// # Errors
///
/// Returns [`crate::VsaError::GeometryMismatch`] if geometries differ.
pub fn unbind_fast(bound: &BlockCode, b: &BlockCode) -> Result<BlockCode> {
    bound.check_geometry(b)?;
    let (nb, bd) = (bound.n_blocks(), bound.block_dim());
    if !fast_path_applies(bd) {
        telemetry::counter!("vsa.kernel_fallbacks").add(nb as u64);
        return ops::unbind(bound, b);
    }
    BlockCode::from_vec(
        nb,
        bd,
        spectral(bound.data(), b.data(), bd, Spectrum::mul_conj),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::rng::StdRng;

    fn randvec(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// One-block code holding `v`.
    fn code(v: &[f32]) -> BlockCode {
        BlockCode::from_vec(1, v.len(), v.to_vec()).unwrap()
    }

    /// Fast circular convolution of two vectors: a one-block `bind_fast`.
    fn convolve_fast(a: &[f32], b: &[f32]) -> Vec<f32> {
        bind_fast(&code(a), &code(b)).unwrap().data().to_vec()
    }

    #[test]
    fn fast_convolution_matches_direct_power_of_two() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [8usize, 16, 64, 256, 1024] {
            let a = randvec(n, &mut rng);
            let b = randvec(n, &mut rng);
            let fast = convolve_fast(&a, &b);
            let direct = ops::circular_convolve(&a, &b);
            for (f, d) in fast.iter().zip(&direct) {
                assert!((f - d).abs() < 1e-3, "n={n}: {f} vs {d}");
            }
        }
    }

    /// The twiddle-table satellite: at d = 4096 the tabulated FFT stays
    /// tight against the direct O(d²) kernel. The seed's running-product
    /// twiddles drifted roughly an order of magnitude worse here, so the
    /// bound also guards against reintroducing the accumulation.
    #[test]
    fn twiddle_tables_hold_accuracy_at_4096() {
        let mut rng = StdRng::seed_from_u64(40);
        let n = 4096;
        let a = randvec(n, &mut rng);
        let b = randvec(n, &mut rng);
        let fast = convolve_fast(&a, &b);
        let direct = ops::circular_convolve(&a, &b);
        let mut max_err = 0.0f32;
        for (f, d) in fast.iter().zip(&direct) {
            max_err = max_err.max((f - d).abs());
        }
        // The direct f32 kernel itself carries ~1e-3 of summation noise at
        // this length; the f64 tabulated FFT must stay inside that noise.
        assert!(max_err < 5e-3, "max |fast − direct| = {max_err} at d={n}");

        // Round trip through bind/unbind at the same length: unitary
        // codewords make inverse binding exact, so the recovered vector
        // must match the original almost perfectly.
        let book = crate::Codebook::random_unitary(2, 1, n, &mut rng);
        let bound = bind_fast(book.codeword(0), book.codeword(1)).unwrap();
        let recovered = unbind_fast(&bound, book.codeword(1)).unwrap();
        let sim = recovered.similarity(book.codeword(0)).unwrap();
        assert!(sim > 0.9999, "round-trip similarity {sim} at d={n}");
    }

    /// The fallback contract: both fallback branches (non-power-of-two
    /// block dimension, and power-of-two below 8) return the reference
    /// kernels' output bit-for-bit.
    #[test]
    fn fallback_branches_are_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        // Branch 1: non-power-of-two blocks (≥ 8 so only this branch
        // trips); branch 2: power-of-two blocks below the 8 threshold.
        for bd in [12usize, 100, 1, 2, 4] {
            assert!(!fast_path_applies(bd));
            let a = BlockCode::from_vec(2, bd, randvec(2 * bd, &mut rng)).unwrap();
            let b = BlockCode::from_vec(2, bd, randvec(2 * bd, &mut rng)).unwrap();
            assert_eq!(bind_fast(&a, &b).unwrap(), ops::bind(&a, &b).unwrap());
            assert_eq!(unbind_fast(&a, &b).unwrap(), ops::unbind(&a, &b).unwrap());
        }
        // And the boundary itself takes the fast path.
        assert!(fast_path_applies(8));
    }

    #[test]
    fn fast_bind_unbind_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let book = crate::Codebook::random_unitary(3, 4, 128, &mut rng);
        let bound = bind_fast(book.codeword(0), book.codeword(1)).unwrap();
        let recovered = unbind_fast(&bound, book.codeword(1)).unwrap();
        let sim = recovered.similarity(book.codeword(0)).unwrap();
        assert!(sim > 0.999, "fast round trip sim {sim}");
    }

    #[test]
    fn fast_bind_matches_reference_bind() {
        let mut rng = StdRng::seed_from_u64(5);
        let book = crate::Codebook::random_unitary(2, 2, 64, &mut rng);
        let fast = bind_fast(book.codeword(0), book.codeword(1)).unwrap();
        let slow = ops::bind(book.codeword(0), book.codeword(1)).unwrap();
        for (f, s) in fast.data().iter().zip(slow.data()) {
            assert!((f - s).abs() < 1e-4);
        }
    }

    #[test]
    fn fast_bind_rejects_geometry_mismatch() {
        let a = BlockCode::zeros(2, 8);
        let b = BlockCode::zeros(1, 16);
        assert!(bind_fast(&a, &b).is_err());
        assert!(unbind_fast(&a, &b).is_err());
    }

    #[test]
    fn fft_identity_delta() {
        // delta ⊛ x == x through the fast path too.
        let mut delta = vec![0.0f32; 16];
        delta[0] = 1.0;
        let x: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let out = convolve_fast(&x, &delta);
        for (o, v) in out.iter().zip(&x) {
            assert!((o - v).abs() < 1e-4);
        }
    }

    #[test]
    fn plan_cache_returns_shared_plans() {
        let p1 = plan(64);
        let p2 = plan(64);
        assert!(Rc::ptr_eq(&p1, &p2));
        assert_eq!(p1.n, 64);
    }
}
