//! Loss functions. Each returns `(scalar_loss, grad_wrt_prediction)` so the
//! gradient can be fed straight into `Layer::backward`.

use crate::tensor::Tensor;

/// Mean squared error, averaged over all elements.
///
/// # Panics
///
/// Panics on shape mismatch or empty prediction.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f64, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse: shape mismatch");
    assert!(!pred.is_empty(), "mse: empty prediction");
    let n = pred.len() as f64;
    let mut grad = pred.sub(target);
    let loss = grad.as_slice().iter().map(|d| d * d).sum::<f64>() / n;
    for g in grad.as_mut_slice() {
        *g *= 2.0 / n;
    }
    (loss, grad)
}

/// Weighted BCE-with-logits: positives weighted by `pos_weight` (used by the
/// occupancy decoder, where occupied voxels are rare).
///
/// # Panics
///
/// Panics on shape mismatch, empty prediction, or non-positive weight.
pub fn bce_with_logits_weighted(
    logits: &Tensor,
    target: &Tensor,
    pos_weight: f64,
) -> (f64, Tensor) {
    assert_eq!(logits.shape(), target.shape(), "bce: shape mismatch");
    assert!(!logits.is_empty(), "bce: empty prediction");
    assert!(pos_weight > 0.0, "bce: pos_weight must be positive");
    let n = logits.len() as f64;
    let mut loss = 0.0;
    let mut grad = Tensor::zeros(logits.shape().to_vec());
    for i in 0..logits.len() {
        let x = logits[i];
        let t = target[i];
        let w = 1.0 + (pos_weight - 1.0) * t;
        loss += w * (x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln());
        let sigma = 1.0 / (1.0 + (-x).exp());
        // d/dx [w * (softplus-form)] for the weighted-positive convention:
        grad[i] = w * (sigma - t) / n;
    }
    (loss / n, grad)
}

/// Softmax cross-entropy over rows of `[batch, classes]` logits with integer
/// class labels. Returns the average loss and the logit gradient.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f64, Tensor) {
    assert_eq!(logits.ndim(), 2, "cross_entropy: logits must be 2-D");
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), batch, "cross_entropy: label count mismatch");
    let mut loss = 0.0;
    let mut grad = Tensor::zeros(vec![batch, classes]);
    for (r, &label) in labels.iter().enumerate().take(batch) {
        let row = logits.row(r);
        assert!(label < classes, "cross_entropy: label {label} out of range");
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = row.iter().map(|x| (x - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        loss += z.ln() + max - row[label];
        let g = grad.row_mut(r);
        for c in 0..classes {
            g[c] = (exps[c] / z - if c == label { 1.0 } else { 0.0 }) / batch as f64;
        }
    }
    (loss / batch as f64, grad)
}

/// InfoNCE contrastive loss (the CURL/RoboKoop objective).
///
/// `queries` and `keys` are `[batch, dim]`; row `i` of `keys` is the positive
/// for row `i` of `queries`, all other rows are negatives. Similarity is the
/// scaled dot product with `temperature`. Returns the loss and the gradient
/// with respect to the **queries** (keys are treated as stop-gradient targets,
/// matching momentum-encoder practice).
///
/// # Panics
///
/// Panics on shape mismatch, batch < 2, or non-positive temperature.
pub fn info_nce(queries: &Tensor, keys: &Tensor, temperature: f64) -> (f64, Tensor) {
    assert_eq!(queries.shape(), keys.shape(), "info_nce: shape mismatch");
    assert!(queries.shape()[0] >= 2, "info_nce: need at least 2 rows");
    assert!(temperature > 0.0, "info_nce: temperature must be positive");
    let (batch, dim) = (queries.shape()[0], queries.shape()[1]);
    let mut loss = 0.0;
    let mut grad = Tensor::zeros(vec![batch, dim]);
    for i in 0..batch {
        let q = queries.row(i);
        // Logits over all keys.
        let logits: Vec<f64> = (0..batch)
            .map(|j| q.iter().zip(keys.row(j)).map(|(a, b)| a * b).sum::<f64>() / temperature)
            .collect();
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|x| (x - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        loss += z.ln() + max - logits[i];
        // dL/dq = Σ_j (p_j - 1{j==i}) k_j / temperature
        let gq = grad.row_mut(i);
        for (j, &ej) in exps.iter().enumerate().take(batch) {
            let p = ej / z - if j == i { 1.0 } else { 0.0 };
            for (g, &k) in gq.iter_mut().zip(keys.row(j)) {
                *g += p * k / (temperature * batch as f64);
            }
        }
    }
    (loss / batch as f64, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(f: &dyn Fn(&Tensor) -> f64, x: &Tensor, eps: f64) -> Vec<f64> {
        (0..x.len())
            .map(|i| {
                let mut p = x.clone();
                p[i] += eps;
                let mut m = x.clone();
                m[i] -= eps;
                (f(&p) - f(&m)) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn mse_zero_at_target() {
        let t = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        let (l, g) = mse(&t, &t);
        assert_eq!(l, 0.0);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_gradient_matches_numeric() {
        let pred = Tensor::from_vec(vec![2, 2], vec![0.3, -0.5, 1.2, 0.8]);
        let target = Tensor::from_vec(vec![2, 2], vec![0.0, 0.5, 1.0, -1.0]);
        let (_, g) = mse(&pred, &target);
        let num = numeric_grad(&|p| mse(p, &target).0, &pred, 1e-6);
        for (a, n) in g.as_slice().iter().zip(&num) {
            assert!((a - n).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_bce_upweights_positives() {
        let logits = Tensor::from_vec(vec![1], vec![-1.0]);
        let target = Tensor::from_vec(vec![1], vec![1.0]);
        let (l1, _) = bce_with_logits_weighted(&logits, &target, 1.0);
        let (l5, _) = bce_with_logits_weighted(&logits, &target, 5.0);
        assert!((l5 - 5.0 * l1).abs() < 1e-12);
        // Negative example unaffected by pos_weight.
        let t0 = Tensor::from_vec(vec![1], vec![0.0]);
        let (n1, _) = bce_with_logits_weighted(&logits, &t0, 1.0);
        let (n5, _) = bce_with_logits_weighted(&logits, &t0, 5.0);
        assert!((n1 - n5).abs() < 1e-12);
    }

    #[test]
    fn weighted_bce_gradient_matches_numeric() {
        let logits = Tensor::from_vec(vec![2], vec![0.3, -1.2]);
        let target = Tensor::from_vec(vec![2], vec![1.0, 0.0]);
        let (_, g) = bce_with_logits_weighted(&logits, &target, 3.0);
        let num = numeric_grad(
            &|p| bce_with_logits_weighted(p, &target, 3.0).0,
            &logits,
            1e-6,
        );
        for (a, n) in g.as_slice().iter().zip(&num) {
            assert!((a - n).abs() < 1e-6, "{a} vs {n}");
        }
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let good = Tensor::from_vec(vec![1, 3], vec![5.0, 0.0, 0.0]);
        let bad = Tensor::from_vec(vec![1, 3], vec![0.0, 5.0, 0.0]);
        let (lg, _) = cross_entropy(&good, &[0]);
        let (lb, _) = cross_entropy(&bad, &[0]);
        assert!(lg < lb);
    }

    #[test]
    fn cross_entropy_gradient_matches_numeric() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.9, 1.1, 0.0, -0.6]);
        let labels = [2usize, 0usize];
        let (_, g) = cross_entropy(&logits, &labels);
        let num = numeric_grad(&|p| cross_entropy(p, &labels).0, &logits, 1e-6);
        for (a, n) in g.as_slice().iter().zip(&num) {
            assert!((a - n).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1, 4], vec![0.1, 0.2, 0.3, 0.4]);
        let (_, g) = cross_entropy(&logits, &[1]);
        assert!(g.as_slice().iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn info_nce_lower_when_aligned() {
        // Aligned queries/keys (identity pairing) vs shuffled.
        let q = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let aligned = q.clone();
        let swapped = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 1.0, 0.0]);
        let (la, _) = info_nce(&q, &aligned, 0.5);
        let (ls, _) = info_nce(&q, &swapped, 0.5);
        assert!(la < ls, "aligned {la} vs swapped {ls}");
    }

    #[test]
    fn info_nce_gradient_matches_numeric() {
        let q = Tensor::from_vec(vec![3, 2], vec![0.5, 0.1, -0.3, 0.8, 0.2, -0.9]);
        let k = Tensor::from_vec(vec![3, 2], vec![0.4, 0.2, -0.1, 0.7, 0.3, -0.8]);
        let (_, g) = info_nce(&q, &k, 0.7);
        let num = numeric_grad(&|p| info_nce(p, &k, 0.7).0, &q, 1e-6);
        for (a, n) in g.as_slice().iter().zip(&num) {
            assert!((a - n).abs() < 1e-6, "{a} vs {n}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mse_shape_mismatch_panics() {
        let _ = mse(&Tensor::zeros(vec![2]), &Tensor::zeros(vec![3]));
    }
}
