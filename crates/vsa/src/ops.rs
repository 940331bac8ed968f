//! Core vector-symbolic kernels: circular convolution binding, circular
//! correlation (inverse binding), bundling and similarity batched against
//! a dictionary.
//!
//! The paper defines the key kernel (Sec. II-A):
//!
//! > `C[n] = Σ_{k=0}^{N-1} A[k] · B[(n−k) mod N]`
//!
//! and its inverse (`inv_binding_circular` in the Listing 1 trace) is the
//! circular *correlation* `C[n] = Σ_k A[k] · B[(n+k) mod N]`, which exactly
//! inverts binding for unitary codewords and approximately (up to crosstalk)
//! for random bipolar ones.

use crate::{BlockCode, Result, VsaError};

/// Circular convolution of two equal-length slices into `out`.
///
/// This is the reference O(N²) kernel — also precisely the arithmetic the
/// AdArray column performs while streaming (one stationary operand, one
/// streamed operand, a passing register providing the rotation).
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub(crate) fn circular_convolve_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = a.len();
    assert_eq!(b.len(), n, "operand lengths must match");
    assert_eq!(out.len(), n, "output length must match");
    for (idx, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (k, &ak) in a.iter().enumerate() {
            // (idx - k) mod n without branching on negatives.
            let j = (idx + n - k) % n;
            acc += ak * b[j];
        }
        *slot = acc;
    }
}

/// Circular convolution returning a new vector.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn circular_convolve(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; a.len()];
    circular_convolve_into(a, b, &mut out);
    out
}

/// Circular correlation `out[n] = Σ_k a[k] · b[(k−n) mod N]` — the
/// approximate inverse of [`circular_convolve`] (recovers `x` from
/// `circular_convolve(x, b)` when correlated with `b`; exact for unitary
/// `b`). Identical to convolving `a` with the [`involution`] of `b`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn circular_correlate(a: &[f32], b: &[f32]) -> Vec<f32> {
    let n = a.len();
    assert_eq!(b.len(), n, "operand lengths must match");
    let mut out = vec![0.0; n];
    for (idx, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for k in 0..n {
            acc += a[k] * b[(k + n - idx) % n];
        }
        *slot = acc;
    }
    out
}

/// The *involution* `b~[n] = b[(−n) mod N]`; correlation with `b` equals
/// convolution with `b~`, which is how the AdArray maps inverse binding
/// onto the same streaming datapath as binding.
#[must_use]
pub fn involution(b: &[f32]) -> Vec<f32> {
    let n = b.len();
    (0..n).map(|i| b[(n - i) % n]).collect()
}

/// Blockwise circular-convolution binding of two block codes.
///
/// # Errors
///
/// Returns [`VsaError::GeometryMismatch`] if geometries differ.
pub fn bind(a: &BlockCode, b: &BlockCode) -> Result<BlockCode> {
    a.check_geometry(b)?;
    let (nb, bd) = (a.n_blocks(), a.block_dim());
    let mut out = BlockCode::zeros(nb, bd);
    for blk in 0..nb {
        let start = blk * bd;
        let a_blk = &a.data()[start..start + bd];
        let b_blk = &b.data()[start..start + bd];
        circular_convolve_into(a_blk, b_blk, &mut out.data_mut()[start..start + bd]);
    }
    Ok(out)
}

/// Blockwise circular-correlation inverse binding (`inv_binding_circular`
/// in the paper's trace).
///
/// # Errors
///
/// Returns [`VsaError::GeometryMismatch`] if geometries differ.
pub fn unbind(bound: &BlockCode, b: &BlockCode) -> Result<BlockCode> {
    bound.check_geometry(b)?;
    let (nb, bd) = (bound.n_blocks(), bound.block_dim());
    let mut data = Vec::with_capacity(nb * bd);
    for blk in 0..nb {
        let start = blk * bd;
        let bound_blk = &bound.data()[start..start + bd];
        let b_blk = &b.data()[start..start + bd];
        data.extend(circular_correlate(bound_blk, b_blk));
    }
    BlockCode::from_vec(nb, bd, data)
}

/// Bundles (element-wise sums) any number of block codes; the superposition
/// retains similarity to each constituent.
///
/// # Errors
///
/// Returns [`VsaError::EmptyCodebook`] for an empty input and
/// [`VsaError::GeometryMismatch`] if constituents disagree in geometry.
pub fn bundle<'a, I>(codes: I) -> Result<BlockCode>
where
    I: IntoIterator<Item = &'a BlockCode>,
{
    let mut iter = codes.into_iter();
    let first = iter.next().ok_or(VsaError::EmptyCodebook)?;
    let mut out = first.clone();
    for code in iter {
        out.check_geometry(code)?;
        for (o, x) in out.data_mut().iter_mut().zip(code.data()) {
            *o += x;
        }
    }
    Ok(out)
}

/// Normalized similarities of a query against each entry of a dictionary,
/// passed through a softmax — the `match_prob_multi_batched` kernel from
/// the paper's Listing 1 (query `[1,4,256]` against a `[7,4,256]`
/// dictionary producing 7 probabilities).
///
/// `temperature` scales the logits before the softmax; the NVSA reference
/// uses a sharpening temperature well below 1.
///
/// # Errors
///
/// Returns [`VsaError::EmptyCodebook`] for an empty dictionary and
/// [`VsaError::GeometryMismatch`] on geometry disagreement.
pub fn match_prob(
    query: &BlockCode,
    dictionary: &[BlockCode],
    temperature: f32,
) -> Result<Vec<f32>> {
    if dictionary.is_empty() {
        return Err(VsaError::EmptyCodebook);
    }
    let mut logits = Vec::with_capacity(dictionary.len());
    for entry in dictionary {
        logits.push(query.similarity(entry)? / temperature.max(f32::MIN_POSITIVE));
    }
    Ok(softmax(&logits))
}

/// Numerically-stable softmax.
#[must_use]
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(nb: usize, bd: usize, data: Vec<f32>) -> BlockCode {
        BlockCode::from_vec(nb, bd, data).unwrap()
    }

    #[test]
    fn convolution_matches_paper_definition() {
        // Hand-computed 3-element example: C[n] = Σ A[k]·B[(n−k) mod 3].
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let c = circular_convolve(&a, &b);
        // C[0] = 1·4 + 2·6 + 3·5 = 31
        // C[1] = 1·5 + 2·4 + 3·6 = 31
        // C[2] = 1·6 + 2·5 + 3·4 = 28
        assert_eq!(c, vec![31.0, 31.0, 28.0]);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = [0.3, -0.7, 1.1, 0.2];
        let b = [-0.5, 0.9, 0.4, -1.3];
        let ab = circular_convolve(&a, &b);
        let ba = circular_convolve(&b, &a);
        for (x, y) in ab.iter().zip(&ba) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn convolution_is_associative() {
        let a = [0.3, -0.7, 1.1];
        let b = [-0.5, 0.9, 0.4];
        let c = [0.2, 0.1, -0.6];
        let left = circular_convolve(&circular_convolve(&a, &b), &c);
        let right = circular_convolve(&a, &circular_convolve(&b, &c));
        for (x, y) in left.iter().zip(&right) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn delta_is_identity() {
        let a = [0.3, -0.7, 1.1, 0.2];
        let delta = [1.0, 0.0, 0.0, 0.0];
        assert_eq!(circular_convolve(&a, &delta), a.to_vec());
    }

    #[test]
    fn correlation_equals_convolution_with_involution() {
        let a = [0.3, -0.7, 1.1, 0.2, -0.4];
        let b = [-0.5, 0.9, 0.4, -1.3, 0.8];
        let corr = circular_correlate(&a, &b);
        let conv_inv = circular_convolve(&a, &involution(&b));
        for (x, y) in corr.iter().zip(&conv_inv) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn involution_is_self_inverse() {
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(involution(&involution(&b)), b.to_vec());
    }

    #[test]
    fn bind_requires_matching_geometry() {
        let a = BlockCode::zeros(2, 4);
        let b = BlockCode::zeros(4, 2);
        assert!(matches!(
            bind(&a, &b),
            Err(VsaError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn bind_with_identity_preserves() {
        let a = code(2, 4, vec![0.1, 0.2, 0.3, 0.4, -0.1, -0.2, -0.3, -0.4]);
        let id = code(2, 4, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let bound = bind(&a, &id).unwrap();
        assert!((a.similarity(&bound).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bind_is_blockwise() {
        // Changing block 1 of an operand must not affect block 0 of result.
        let a = code(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b1 = code(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let b2 = code(2, 2, vec![5.0, 6.0, 0.0, 0.0]);
        let r1 = bind(&a, &b1).unwrap();
        let r2 = bind(&a, &b2).unwrap();
        assert_eq!(r1.block(0).unwrap(), r2.block(0).unwrap());
        assert_ne!(r1.block(1).unwrap(), r2.block(1).unwrap());
    }

    #[test]
    fn bundle_retains_similarity_to_constituents() {
        let a = code(1, 8, vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        let b = code(1, 8, vec![1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]);
        let s = bundle([&a, &b]).unwrap();
        assert!(s.similarity(&a).unwrap() > 0.5);
        assert!(s.similarity(&b).unwrap() > 0.5);
    }

    #[test]
    fn bundle_empty_is_error() {
        let empty: [&BlockCode; 0] = [];
        assert_eq!(bundle(empty).unwrap_err(), VsaError::EmptyCodebook);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn match_prob_picks_the_dictionary_entry() {
        let dict = vec![
            code(1, 4, vec![1.0, 0.0, 0.0, 0.0]),
            code(1, 4, vec![0.0, 1.0, 0.0, 0.0]),
            code(1, 4, vec![0.0, 0.0, 1.0, 0.0]),
        ];
        let query = dict[1].clone();
        let probs = match_prob(&query, &dict, 0.1).unwrap();
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 1);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn match_prob_empty_dictionary_is_error() {
        let q = BlockCode::zeros(1, 4);
        assert_eq!(
            match_prob(&q, &[], 1.0).unwrap_err(),
            VsaError::EmptyCodebook
        );
    }
}
