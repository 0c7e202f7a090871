//! Multi-layer perceptron with ReLU hidden layers and a linear output layer,
//! plus the gradient plumbing needed for data-parallel training (flattening
//! gradients into a single vector for the all-reduce and applying the
//! averaged result).

use dlrm_tensor::{init, ops, Initializer, Matrix, SeededRng};
use serde::{Deserialize, Serialize};

/// One fully-connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Linear {
    /// `in x out` weight matrix.
    w: Matrix,
    /// Per-output bias.
    b: Vec<f32>,
}

impl Linear {
    /// SGD step from the layer's gradients: `w += (-lr)·gw`, `b -= lr·gb`.
    fn sgd(&mut self, gw: &[f32], gb: &[f32], lr: f32) {
        assert_eq!(gw.len(), self.w.len(), "weight gradient length mismatch");
        assert_eq!(gb.len(), self.b.len(), "bias gradient length mismatch");
        for (w, g) in self.w.as_mut_slice().iter_mut().zip(gw) {
            *w += -lr * g;
        }
        for (b, g) in self.b.iter_mut().zip(gb) {
            *b -= lr * g;
        }
    }
}

/// An MLP: `dims[0] -> dims[1] -> … -> dims.last()`, ReLU after every layer
/// except the last.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    dims: Vec<usize>,
}

/// Intermediate activations saved by [`Mlp::forward`] for the backward pass.
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// `inputs[l]` is the input to layer `l` (post-activation of layer `l−1`).
    inputs: Vec<Matrix>,
    /// `pre_acts[l]` is the pre-activation output of layer `l`.
    pre_acts: Vec<Matrix>,
}

/// Gradients of every layer, in layer order.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGrads {
    /// Per-layer weight gradients.
    pub weights: Vec<Matrix>,
    /// Per-layer bias gradients.
    pub biases: Vec<Vec<f32>>,
}

impl Mlp {
    /// Create an MLP with the given layer widths (at least two entries).
    pub fn new(dims: &[usize], rng: &mut SeededRng) -> Self {
        assert!(dims.len() >= 2, "an MLP needs an input and an output width");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let layers = dims
            .windows(2)
            .map(|w| Linear {
                w: init::init_matrix(w[0], w[1], Initializer::XavierUniform, rng),
                b: vec![0.0; w[1]],
            })
            .collect();
        Self {
            layers,
            dims: dims.to_vec(),
        }
    }

    /// Layer widths this MLP was built with.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().expect("at least two dims")
    }

    /// Total parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Parameter count per layer (weights + bias), in the order
    /// [`Mlp::flatten_grads`] lays the layers out.
    pub fn layer_param_counts(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).collect()
    }

    /// Forward pass. Returns the output (`batch x output_dim`) and the cache
    /// needed by [`Mlp::backward`].
    pub fn forward(&self, x: &Matrix) -> (Matrix, MlpCache) {
        assert_eq!(x.cols(), self.input_dim(), "MLP input width mismatch");
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre_acts = Vec::with_capacity(self.layers.len());
        let mut current = x.clone();
        for (li, layer) in self.layers.iter().enumerate() {
            inputs.push(current.clone());
            let mut z = current.matmul(&layer.w);
            z.add_row_vector(&layer.b);
            pre_acts.push(z.clone());
            current = if li + 1 < self.layers.len() {
                z.map(ops::relu)
            } else {
                z
            };
        }
        (current, MlpCache { inputs, pre_acts })
    }

    /// Backward pass given the gradient of the loss w.r.t. the MLP output.
    /// Returns the gradient w.r.t. the MLP input and the per-layer parameter
    /// gradients.
    pub fn backward(&self, cache: &MlpCache, grad_output: &Matrix) -> (Matrix, MlpGrads) {
        let (grad, grads) = self.backprop(cache, grad_output);
        (grad.matmul_bt(&self.layers[0].w), grads)
    }

    /// [`Mlp::backward`] without the gradient w.r.t. the MLP input, for an
    /// MLP whose input is data (the DLRM's bottom MLP).
    pub fn param_grads(&self, cache: &MlpCache, grad_output: &Matrix) -> MlpGrads {
        self.backprop(cache, grad_output).1
    }

    /// Per-layer parameter gradients and the gradient w.r.t. the first
    /// layer's pre-activation output, which [`Mlp::backward`] carries back
    /// through the first layer's weights to the input.
    fn backprop(&self, cache: &MlpCache, grad_output: &Matrix) -> (Matrix, MlpGrads) {
        let mut weights = vec![Matrix::zeros(0, 0); self.layers.len()];
        let mut biases = vec![Vec::new(); self.layers.len()];
        let mut grad = grad_output.clone();
        for li in (0..self.layers.len()).rev() {
            // Output layer is linear; hidden layers pass through ReLU.
            if li + 1 < self.layers.len() {
                let pre = &cache.pre_acts[li];
                assert_eq!((grad.rows(), grad.cols()), (pre.rows(), pre.cols()));
                for (g, &z) in grad.as_mut_slice().iter_mut().zip(pre.as_slice()) {
                    *g *= ops::relu_grad(z);
                }
            }
            weights[li] = cache.inputs[li].matmul_at(&grad);
            biases[li] = grad.column_sums();
            if li > 0 {
                grad = grad.matmul_bt(&self.layers[li].w);
            }
        }
        (grad, MlpGrads { weights, biases })
    }

    /// SGD update: `param -= lr * grad`.
    pub fn apply_grads(&mut self, grads: &MlpGrads, lr: f32) {
        assert_eq!(grads.weights.len(), self.layers.len());
        for (layer, (gw, gb)) in self
            .layers
            .iter_mut()
            .zip(grads.weights.iter().zip(grads.biases.iter()))
        {
            layer.sgd(gw.as_slice(), gb, lr);
        }
    }

    /// [`Mlp::apply_grads`] straight from a flat vector laid out as
    /// [`Mlp::flatten_grads`] produces, without rebuilding [`MlpGrads`].
    ///
    /// # Panics
    /// Panics unless `flat.len() == self.num_params()`.
    pub fn apply_flat_grads(&mut self, flat: &[f32], lr: f32) {
        assert_eq!(
            flat.len(),
            self.num_params(),
            "flat gradient length mismatch"
        );
        let mut pos = 0usize;
        for layer in &mut self.layers {
            let (wlen, blen) = (layer.w.len(), layer.b.len());
            let (gw, gb) = flat[pos..pos + wlen + blen].split_at(wlen);
            layer.sgd(gw, gb, lr);
            pos += wlen + blen;
        }
    }

    /// Flatten parameter gradients into one vector (weights then bias, layer
    /// by layer) — the payload of the data-parallel all-reduce.
    pub fn flatten_grads(grads: &MlpGrads) -> Vec<f32> {
        let mut out = Vec::new();
        Self::flatten_grads_into(grads, &mut out);
        out
    }

    /// Allocation-free [`Mlp::flatten_grads`]: *appends* to `out`, reusing
    /// its capacity.
    pub fn flatten_grads_into(grads: &MlpGrads, out: &mut Vec<f32>) {
        for (w, b) in grads.weights.iter().zip(grads.biases.iter()) {
            out.extend_from_slice(w.as_slice());
            out.extend_from_slice(b);
        }
    }

    /// Flatten the *parameters* into one vector, in the same layout as
    /// [`Mlp::flatten_grads`] (weights then bias, layer by layer) — the
    /// payload of a checkpoint. *Appends* to `out`, reusing its capacity.
    pub fn flatten_params_into(&self, out: &mut Vec<f32>) {
        for layer in &self.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(&layer.b);
        }
    }

    /// Overwrite the parameters from a flat vector laid out as
    /// [`Mlp::flatten_params_into`] produces — checkpoint restore.
    ///
    /// # Panics
    /// Panics unless `flat.len() == self.num_params()`.
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        let mut pos = 0usize;
        for layer in &mut self.layers {
            let wlen = layer.w.len();
            layer
                .w
                .as_mut_slice()
                .copy_from_slice(&flat[pos..pos + wlen]);
            pos += wlen;
            let blen = layer.b.len();
            layer.b.copy_from_slice(&flat[pos..pos + blen]);
            pos += blen;
        }
        assert_eq!(pos, flat.len(), "flat parameter length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mlp() -> Mlp {
        let mut rng = SeededRng::new(3);
        Mlp::new(&[4, 8, 2], &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.1);
        let (y, _) = mlp.forward(&x);
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 2);
        assert_eq!(mlp.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerically verify dLoss/dInput where Loss = sum(output).
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.3).sin());
        let (_, cache) = mlp.forward(&x);
        let grad_out = Matrix::filled(3, 2, 1.0);
        let (grad_in, _) = mlp.backward(&cache, &grad_out);

        let eps = 1e-3f32;
        for r in 0..3 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let fp: f32 = mlp.forward(&xp).0.as_slice().iter().sum();
                let fm: f32 = mlp.forward(&xm).0.as_slice().iter().sum();
                let numeric = (fp - fm) / (2.0 * eps);
                let analytic = grad_in.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(2, 4, |r, c| ((r + c) as f32 * 0.7).cos());
        let (_, cache) = mlp.forward(&x);
        let grad_out = Matrix::filled(2, 2, 1.0);
        let (_, grads) = mlp.backward(&cache, &grad_out);

        // Perturb one weight of layer 0 and compare.
        let eps = 1e-3f32;
        let mut plus = mlp.clone();
        plus.layers[0].w.set(1, 2, mlp.layers[0].w.get(1, 2) + eps);
        let mut minus = mlp.clone();
        minus.layers[0].w.set(1, 2, mlp.layers[0].w.get(1, 2) - eps);
        let fp: f32 = plus.forward(&x).0.as_slice().iter().sum();
        let fm: f32 = minus.forward(&x).0.as_slice().iter().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        let analytic = grads.weights[0].get(1, 2);
        assert!(
            (numeric - analytic).abs() < 2e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        // Minimise sum(output^2) for a fixed input: a few steps must reduce it.
        let mut mlp = tiny_mlp();
        let x = Matrix::from_fn(4, 4, |r, c| (r as f32 - c as f32) * 0.2);
        let loss = |m: &Mlp| -> f32 {
            m.forward(&x)
                .0
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
        };
        let initial = loss(&mlp);
        for _ in 0..50 {
            let (y, cache) = mlp.forward(&x);
            let grad_out = y.map(|v| 2.0 * v);
            let (_, grads) = mlp.backward(&cache, &grad_out);
            mlp.apply_grads(&grads, 0.01);
        }
        assert!(loss(&mlp) < initial * 0.5, "{} -> {}", initial, loss(&mlp));
    }

    #[test]
    fn flat_update_matches_structured_update() {
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(3, 4, |r, c| (r * c) as f32 * 0.05);
        let (y, cache) = mlp.forward(&x);
        let (_, grads) = mlp.backward(&cache, &y);
        let flat = Mlp::flatten_grads(&grads);
        assert_eq!(flat.len(), mlp.num_params());
        let mut via_flat = mlp.clone();
        via_flat.apply_flat_grads(&flat, 0.1);
        let mut direct = mlp.clone();
        direct.apply_grads(&grads, 0.1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        via_flat.flatten_params_into(&mut a);
        direct.flatten_params_into(&mut b);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_ne!(via_flat, mlp, "the update changed nothing");
    }

    #[test]
    fn param_grads_equal_backward_grads() {
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(5, 4, |r, c| ((r * 4 + c) as f32 * 0.45).sin());
        let (y, cache) = mlp.forward(&x);
        let (_, grads) = mlp.backward(&cache, &y);
        assert_eq!(mlp.param_grads(&cache, &y), grads);
    }

    #[test]
    fn param_flatten_load_roundtrip() {
        let mlp = tiny_mlp();
        let mut flat = Vec::new();
        mlp.flatten_params_into(&mut flat);
        assert_eq!(flat.len(), mlp.num_params());
        let mut rng = SeededRng::new(99);
        let mut other = Mlp::new(&[4, 8, 2], &mut rng);
        assert_ne!(other, mlp);
        other.load_flat_params(&flat);
        assert_eq!(other, mlp);
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let mlp = tiny_mlp();
        let x = Matrix::zeros(2, 5);
        let _ = mlp.forward(&x);
    }
}
