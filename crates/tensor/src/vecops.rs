//! Dense vector kernels: dot products, norms, cosine similarity, softmax.
//!
//! These free functions operate on plain slices so hypervectors, matrix rows
//! and network activations can share the same kernels without conversions.
//!
//! # Panics
//!
//! All binary operations panic when the two slices disagree in length; the
//! callers in this workspace guarantee equal lengths structurally, so a
//! mismatch is a programming error rather than a recoverable condition.

/// Dot product of two equally sized slices.
///
/// Accumulates in `f64` to keep precision over the 8k+ element hypervectors
/// used throughout the workspace.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
///
/// # Example
///
/// ```
/// let d = smore_tensor::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]);
/// assert_eq!(d, 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        acc += (x as f64) * (y as f64);
    }
    acc as f32
}

/// Euclidean (L2) norm.
///
/// # Example
///
/// ```
/// assert_eq!(smore_tensor::vecops::norm(&[3.0, 4.0]), 5.0);
/// ```
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    let mut acc = 0.0f64;
    for &x in a {
        acc += (x as f64) * (x as f64);
    }
    acc.sqrt() as f32
}

/// Cosine similarity between two slices.
///
/// Returns `0.0` when either vector has zero norm, which is the neutral
/// similarity value for the HDC update rules (a zero class hypervector is
/// maximally dissimilar to everything).
///
/// The dot product and both squared norms are each summed in `f64` in
/// index order, and the result is `dot / (√‖a‖² · √‖b‖²)` rounded to
/// `f32`. That arithmetic is a contract: the class-blocked scorer of
/// `smore_hdc`'s classifier caches the squared norms and sweeps several
/// classes at once, but keeps every sum in this order, so its scores equal
/// this function's bit for bit.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
///
/// # Example
///
/// ```
/// let sim = smore_tensor::vecops::cosine(&[1.0, 0.0], &[1.0, 0.0]);
/// assert!((sim - 1.0).abs() < 1e-6);
/// ```
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine: length mismatch {} vs {}", a.len(), b.len());
    let mut dot_acc = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot_acc += (x as f64) * (y as f64);
        na += (x as f64) * (x as f64);
        nb += (y as f64) * (y as f64);
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot_acc / (na.sqrt() * nb.sqrt())) as f32
}

/// In-place scaled accumulation `y += alpha * x`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `y *= alpha`.
#[inline]
pub fn scale(alpha: f32, y: &mut [f32]) {
    for yi in y {
        *yi *= alpha;
    }
}

/// Normalises `y` to unit L2 norm in place; leaves zero vectors untouched.
#[inline]
pub fn normalize(y: &mut [f32]) {
    let n = norm(y);
    if n > 0.0 {
        scale(1.0 / n, y);
    }
}

/// Index of the maximum element; ties resolve to the lowest index.
///
/// Returns `None` for an empty slice. Non-finite values are skipped so a
/// stray NaN cannot poison an argmax-based prediction.
///
/// # Example
///
/// ```
/// assert_eq!(smore_tensor::vecops::argmax(&[0.1, 0.9, 0.4]), Some(1));
/// assert_eq!(smore_tensor::vecops::argmax(&[]), None);
/// ```
#[inline]
pub fn argmax(a: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in a.iter().enumerate() {
        if !x.is_finite() {
            continue;
        }
        match best {
            Some((_, bx)) if bx >= x => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Maximum finite element, or `None` when empty / all non-finite.
#[inline]
pub fn max(a: &[f32]) -> Option<f32> {
    argmax(a).map(|i| a[i])
}

/// Arithmetic mean; `0.0` for an empty slice.
#[inline]
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    (a.iter().map(|&x| x as f64).sum::<f64>() / a.len() as f64) as f32
}

/// Population variance; `0.0` for slices shorter than two elements.
#[inline]
pub fn variance(a: &[f32]) -> f32 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a) as f64;
    (a.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / a.len() as f64) as f32
}

/// Numerically stable in-place softmax.
///
/// Subtracts the max before exponentiation; an empty slice is a no-op.
///
/// # Example
///
/// ```
/// let mut v = [1.0, 2.0, 3.0];
/// smore_tensor::vecops::softmax(&mut v);
/// assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(v[2] > v[1] && v[1] > v[0]);
/// ```
#[inline]
pub fn softmax(a: &mut [f32]) {
    let Some(m) = max(a) else { return };
    let mut sum = 0.0f64;
    for x in a.iter_mut() {
        *x = (*x - m).exp();
        sum += *x as f64;
    }
    if sum > 0.0 {
        let inv = (1.0 / sum) as f32;
        for x in a.iter_mut() {
            *x *= inv;
        }
    }
}

/// Shannon entropy (nats) of a probability vector.
///
/// Assumes the input sums to one (e.g. a softmax output); zero entries are
/// skipped. This is the objective TENT minimises at test time.
///
/// # Example
///
/// ```
/// let uniform = [0.25f32; 4];
/// let peaked = [0.97f32, 0.01, 0.01, 0.01];
/// let h_u = smore_tensor::vecops::entropy(&uniform);
/// let h_p = smore_tensor::vecops::entropy(&peaked);
/// assert!(h_u > h_p);
/// ```
#[inline]
pub fn entropy(p: &[f32]) -> f32 {
    let mut h = 0.0f64;
    for &x in p {
        if x > 0.0 {
            h -= (x as f64) * (x as f64).ln();
        }
    }
    h as f32
}

/// Clamps every element of `y` into `[lo, hi]` in place.
#[inline]
pub fn clamp(y: &mut [f32], lo: f32, hi: f32) {
    for x in y {
        *x = x.clamp(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm_known() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn cosine_bounds_and_cases() {
        assert!((cosine(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        // Zero vector => neutral similarity.
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.5, 3.5]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut y = vec![3.0, 4.0];
        normalize(&mut y);
        assert!((norm(&y) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn argmax_ties_and_nan() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[f32::NAN, 1.0]), Some(1));
        assert_eq!(argmax(&[f32::NAN]), None);
    }

    #[test]
    fn mean_variance_known() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut v = [1000.0f32, 1001.0, 1002.0];
        softmax(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn entropy_uniform_is_max() {
        let uniform = [0.25f32; 4];
        assert!((entropy(&uniform) - (4.0f32).ln()).abs() < 1e-5);
        let onehot = [1.0f32, 0.0, 0.0, 0.0];
        assert_eq!(entropy(&onehot), 0.0);
    }

    #[test]
    fn clamp_in_place() {
        let mut v = [-2.0f32, 0.5, 9.0];
        clamp(&mut v, -1.0, 1.0);
        assert_eq!(v, [-1.0, 0.5, 1.0]);
    }
}
