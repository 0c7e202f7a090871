//! Dot-product feature interaction.
//!
//! For every sample, DLRM stacks the bottom-MLP output and the lookup vector
//! of every embedding table into `F = num_tables + 1` vectors of length
//! `dim`, computes all pairwise dot products (`F·(F−1)/2` values, the strict
//! lower triangle), and concatenates them with the bottom-MLP output. The
//! result feeds the top MLP.

use dlrm_tensor::Matrix;

/// Number of pairwise interaction terms for `f` feature vectors.
pub fn num_pairs(f: usize) -> usize {
    f * f.saturating_sub(1) / 2
}

/// Output width of the interaction layer: `dim + pairs(num_tables + 1)`.
pub fn output_dim(dim: usize, num_tables: usize) -> usize {
    dim + num_pairs(num_tables + 1)
}

/// Cache of the stacked feature vectors, needed by [`backward`].
#[derive(Debug, Clone)]
pub struct InteractionCache {
    /// `features[f]` is a `batch x dim` matrix; index 0 is the bottom-MLP
    /// output, index `t + 1` is embedding table `t`.
    features: Vec<Matrix>,
}

/// Forward pass: returns the `batch x output_dim` interaction output and the
/// cache for the backward pass.
///
/// `bottom` is `batch x dim`; each entry of `embeddings` is `batch x dim`.
pub fn forward(bottom: &Matrix, embeddings: &[Matrix]) -> (Matrix, InteractionCache) {
    let batch = bottom.rows();
    let dim = bottom.cols();
    for (t, e) in embeddings.iter().enumerate() {
        assert_eq!(e.rows(), batch, "table {t}: batch size mismatch");
        assert_eq!(e.cols(), dim, "table {t}: embedding dim mismatch");
    }
    let mut features = Vec::with_capacity(embeddings.len() + 1);
    features.push(bottom.clone());
    features.extend(embeddings.iter().cloned());

    let f = features.len();
    let out_dim = output_dim(dim, embeddings.len());
    let mut out = Matrix::zeros(batch, out_dim);
    for i in 0..batch {
        let row = out.row_mut(i);
        row[..dim].copy_from_slice(bottom.row(i));
        let mut k = dim;
        for a in 0..f {
            for b in 0..a {
                row[k] = dlrm_tensor::matrix::dot(features[a].row(i), features[b].row(i));
                k += 1;
            }
        }
    }
    (out, InteractionCache { features })
}

/// Backward pass: given the gradient w.r.t. the interaction output, produce
/// the gradient w.r.t. the bottom-MLP output and w.r.t. each embedding
/// lookup matrix (one per table, in table order).
///
/// Per sample, the `F` feature rows are gathered into one contiguous
/// `F·dim` block and the gradients accumulate in another, so the pair loop
/// runs over contiguous slices the compiler can vectorise. Each gradient
/// element starts at `+0.0` and adds its terms in a fixed order: the
/// pass-through, then pairs `(a, b<a)` in turn, skipping exactly-zero pair
/// gradients.
pub fn backward(cache: &InteractionCache, grad_output: &Matrix) -> (Matrix, Vec<Matrix>) {
    let features = &cache.features;
    let f = features.len();
    let batch = features[0].rows();
    let dim = features[0].cols();
    assert_eq!(grad_output.rows(), batch);
    assert_eq!(grad_output.cols(), output_dim(dim, f - 1));

    let mut grads: Vec<Matrix> = (0..f).map(|_| Matrix::zeros(batch, dim)).collect();
    let mut rows = vec![0.0f32; f * dim];
    let mut acc = vec![0.0f32; f * dim];
    for i in 0..batch {
        for (t, feature) in features.iter().enumerate() {
            rows[t * dim..(t + 1) * dim].copy_from_slice(feature.row(i));
        }
        acc.fill(0.0);
        let grow = grad_output.row(i);
        // Direct pass-through of the concatenated bottom output.
        for (d, g) in acc[..dim].iter_mut().zip(&grow[..dim]) {
            *d += g;
        }
        // Pairwise dot products: d z_ab / d v_a = v_b and vice versa.
        let mut k = dim;
        for a in 0..f {
            let va = &rows[a * dim..(a + 1) * dim];
            let (below, from_a) = acc.split_at_mut(a * dim);
            let ga = &mut from_a[..dim];
            for b in 0..a {
                let g = grow[k];
                k += 1;
                if g == 0.0 {
                    continue;
                }
                let vb = &rows[b * dim..(b + 1) * dim];
                let gb = &mut below[b * dim..(b + 1) * dim];
                // grads[a] += g * features[b]; grads[b] += g * features[a].
                for (((ga, gb), &va), &vb) in ga.iter_mut().zip(gb).zip(va).zip(vb) {
                    *ga += g * vb;
                    *gb += g * va;
                }
            }
        }
        for (t, grad) in grads.iter_mut().enumerate() {
            grad.row_mut(i)
                .copy_from_slice(&acc[t * dim..(t + 1) * dim]);
        }
    }
    let bottom_grad = grads.remove(0);
    (bottom_grad, grads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(batch: usize, dim: usize, tables: usize) -> (Matrix, Vec<Matrix>) {
        let bottom = Matrix::from_fn(batch, dim, |r, c| ((r * dim + c) as f32 * 0.31).sin());
        let embeddings = (0..tables)
            .map(|t| {
                Matrix::from_fn(batch, dim, |r, c| {
                    ((t * 100 + r * dim + c) as f32 * 0.17).cos() * 0.5
                })
            })
            .collect();
        (bottom, embeddings)
    }

    /// Exact-bits reference for [`backward`]: the same additions in the same
    /// order, element by element, straight on the per-feature matrices.
    fn backward_by_element(
        cache: &InteractionCache,
        grad_output: &Matrix,
    ) -> (Matrix, Vec<Matrix>) {
        let features = &cache.features;
        let f = features.len();
        let batch = features[0].rows();
        let dim = features[0].cols();
        let mut grads: Vec<Matrix> = (0..f).map(|_| Matrix::zeros(batch, dim)).collect();
        for i in 0..batch {
            let grow = grad_output.row(i);
            for (d, g) in grads[0].row_mut(i).iter_mut().zip(grow[..dim].iter()) {
                *d += g;
            }
            let mut k = dim;
            for a in 0..f {
                for b in 0..a {
                    let g = grow[k];
                    k += 1;
                    if g == 0.0 {
                        continue;
                    }
                    for d in 0..dim {
                        let va = features[a].row(i)[d];
                        let vb = features[b].row(i)[d];
                        grads[a].row_mut(i)[d] += g * vb;
                        grads[b].row_mut(i)[d] += g * va;
                    }
                }
            }
        }
        let bottom_grad = grads.remove(0);
        (bottom_grad, grads)
    }

    fn assert_backward_matches_reference(cache: &InteractionCache, grad_out: &Matrix) {
        let (bottom, tables) = backward(cache, grad_out);
        let (ref_bottom, ref_tables) = backward_by_element(cache, grad_out);
        assert_eq!(tables.len(), ref_tables.len());
        for (t, (got, want)) in std::iter::once((&bottom, &ref_bottom))
            .chain(tables.iter().zip(&ref_tables))
            .enumerate()
        {
            assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
            for (e, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "feature {t} element {e}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn backward_is_bit_identical_to_element_loop() {
        // Kaggle-like: F = 27 (26 tables + bottom), dim 32, rank batch 128.
        let (bottom, embs) = setup(128, 32, 26);
        let (_, cache) = forward(&bottom, &embs);
        let width = output_dim(32, 26);
        let grad_out = Matrix::from_fn(128, width, |r, c| {
            ((r * width + c) as f32 * 0.011).sin() * 0.01
        });
        assert_backward_matches_reference(&cache, &grad_out);
        // Edge shapes: one sample, one table, dim 1.
        for (batch, dim, tables) in [(1, 32, 26), (5, 1, 3), (4, 6, 1), (1, 1, 1)] {
            let (bottom, embs) = setup(batch, dim, tables);
            let (_, cache) = forward(&bottom, &embs);
            let width = output_dim(dim, tables);
            let grad_out = Matrix::from_fn(batch, width, |r, c| ((r + 3 * c) as f32 * 0.37).cos());
            assert_backward_matches_reference(&cache, &grad_out);
        }
    }

    #[test]
    fn backward_keeps_signed_zeros_and_zero_pair_gradients() {
        // Gradients of +0.0 and -0.0 (pass-through and pairs) and whole
        // samples whose gradients are exactly zero; features with signed
        // zeros, and an infinite feature in an all-zero-gradient sample.
        // Adding -0.0 to a +0.0 start, or not skipping an exactly-zero pair
        // gradient (0 · inf is NaN), would change these bits.
        let (mut bottom, mut embs) = setup(6, 4, 3);
        bottom.set(1, 2, -0.0);
        embs[0].set(2, 0, 0.0);
        embs[2].set(3, 3, -0.0);
        embs[1].set(4, 2, f32::INFINITY);
        let (_, cache) = forward(&bottom, &embs);
        let width = output_dim(4, 3);
        let grad_out = Matrix::from_fn(6, width, |r, c| match (r, (r + c) % 4) {
            (4, _) => 0.0,
            (5, _) => -0.0,
            (_, 0) => 0.0,
            (_, 1) => -0.0,
            _ => ((r * width + c) as f32 * 0.23).sin(),
        });
        assert_backward_matches_reference(&cache, &grad_out);
    }

    #[test]
    fn output_shape_and_passthrough() {
        let (bottom, embs) = setup(3, 4, 2);
        let (out, _) = forward(&bottom, &embs);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.cols(), output_dim(4, 2)); // 4 + C(3,2)=3 -> 7
        for i in 0..3 {
            assert_eq!(&out.row(i)[..4], bottom.row(i));
        }
    }

    #[test]
    fn dot_products_match_manual_computation() {
        let (bottom, embs) = setup(2, 3, 2);
        let (out, _) = forward(&bottom, &embs);
        // Pairs in order (a=1,b=0), (a=2,b=0), (a=2,b=1).
        for i in 0..2 {
            let v0 = bottom.row(i);
            let v1 = embs[0].row(i);
            let v2 = embs[1].row(i);
            let d = 3;
            let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
            assert!((out.row(i)[d] - dot(v1, v0)).abs() < 1e-6);
            assert!((out.row(i)[d + 1] - dot(v2, v0)).abs() < 1e-6);
            assert!((out.row(i)[d + 2] - dot(v2, v1)).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let (bottom, embs) = setup(2, 3, 2);
        let (_, cache) = forward(&bottom, &embs);
        let grad_out = Matrix::from_fn(2, output_dim(3, 2), |r, c| ((r + c) as f32 * 0.4).sin());
        let (bottom_grad, emb_grads) = backward(&cache, &grad_out);

        let loss = |bottom: &Matrix, embs: &[Matrix]| -> f32 {
            let (out, _) = forward(bottom, embs);
            out.as_slice()
                .iter()
                .zip(grad_out.as_slice().iter())
                .map(|(o, g)| o * g)
                .sum()
        };
        let eps = 1e-3f32;
        // Check a few entries of the bottom gradient.
        for &(r, c) in &[(0usize, 0usize), (1, 2)] {
            let mut p = bottom.clone();
            p.set(r, c, bottom.get(r, c) + eps);
            let mut m = bottom.clone();
            m.set(r, c, bottom.get(r, c) - eps);
            let numeric = (loss(&p, &embs) - loss(&m, &embs)) / (2.0 * eps);
            assert!(
                (numeric - bottom_grad.get(r, c)).abs() < 1e-2,
                "bottom ({r},{c}): {numeric} vs {}",
                bottom_grad.get(r, c)
            );
        }
        // Check a few entries of each embedding gradient.
        for t in 0..2 {
            for &(r, c) in &[(0usize, 1usize), (1, 0)] {
                let mut embs_p = embs.clone();
                embs_p[t].set(r, c, embs[t].get(r, c) + eps);
                let mut embs_m = embs.clone();
                embs_m[t].set(r, c, embs[t].get(r, c) - eps);
                let numeric = (loss(&bottom, &embs_p) - loss(&bottom, &embs_m)) / (2.0 * eps);
                assert!(
                    (numeric - emb_grads[t].get(r, c)).abs() < 1e-2,
                    "table {t} ({r},{c}): {numeric} vs {}",
                    emb_grads[t].get(r, c)
                );
            }
        }
    }

    #[test]
    fn zero_tables_degenerates_to_passthrough() {
        let bottom = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        let (out, cache) = forward(&bottom, &[]);
        assert_eq!(out.cols(), 4);
        assert_eq!(out, bottom);
        let grad_out = Matrix::filled(2, 4, 1.0);
        let (bg, eg) = backward(&cache, &grad_out);
        assert_eq!(bg, grad_out);
        assert!(eg.is_empty());
    }

    #[test]
    fn pair_counting() {
        assert_eq!(num_pairs(0), 0);
        assert_eq!(num_pairs(1), 0);
        assert_eq!(num_pairs(2), 1);
        assert_eq!(num_pairs(27), 27 * 26 / 2);
        assert_eq!(output_dim(32, 26), 32 + 27 * 26 / 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_embedding_dim_panics() {
        let bottom = Matrix::zeros(2, 4);
        let bad = vec![Matrix::zeros(2, 5)];
        let _ = forward(&bottom, &bad);
    }
}
