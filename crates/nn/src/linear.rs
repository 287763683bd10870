//! Fully-connected layer with explicit backward pass.
//!
//! Both passes have `_into` variants writing into caller-owned buffers
//! so training epochs can reuse one [`LinearGrads`] per layer instead
//! of reallocating every step.

use distgnn_tensor::{
    init, matmul_a_bt_into, matmul_at_b_into, matmul_into, ops, Matrix,
};

/// `z = x · W + b`, Xavier-initialized.
#[derive(Clone, Debug)]
pub struct Linear {
    /// `in_dim x out_dim` weights.
    pub weight: Matrix,
    /// `out_dim` bias.
    pub bias: Vec<f32>,
}

/// Gradients produced by [`Linear::backward`].
#[derive(Clone, Debug)]
pub struct LinearGrads {
    pub grad_input: Matrix,
    pub grad_weight: Matrix,
    pub grad_bias: Vec<f32>,
}

impl LinearGrads {
    /// Zeroed gradient buffers shaped for `layer` applied to `rows`
    /// input rows — the reusable target of [`Linear::backward_into`].
    pub fn zeros_for(layer: &Linear, rows: usize) -> Self {
        LinearGrads {
            grad_input: Matrix::zeros(rows, layer.in_dim()),
            grad_weight: Matrix::zeros(layer.in_dim(), layer.out_dim()),
            grad_bias: vec![0.0; layer.out_dim()],
        }
    }
}

impl Linear {
    /// New layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut init::InitRng) -> Self {
        Linear {
            weight: init::xavier_uniform(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
        }
    }

    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass. Callers keep `input` around for the backward pass.
    pub fn forward(&self, input: &Matrix) -> Matrix {
        let mut z = Matrix::zeros(input.rows(), self.out_dim());
        self.forward_into(input, &mut z);
        z
    }

    /// [`Self::forward`] into a caller-owned `rows x out_dim` buffer
    /// (contents overwritten); allocation-free.
    pub fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        matmul_into(input, &self.weight, out);
        ops::add_bias(out, &self.bias);
    }

    /// [`Self::forward_into`] over the first `rows` rows of `input` and
    /// `out` only. The serving batch executor sizes its buffers once for
    /// `max_batch` and pushes every smaller batch through this entry
    /// point, so steady-state batches allocate nothing regardless of
    /// batch size. Computed rows are bit-identical to [`Self::forward_into`].
    pub fn forward_prefix_into(&self, input: &Matrix, rows: usize, out: &mut Matrix) {
        distgnn_tensor::matmul_prefix_into(input, rows, &self.weight, out);
        ops::add_bias_prefix(out, rows, &self.bias);
    }

    /// Backward pass given the cached forward `input` and the gradient
    /// of the loss w.r.t. this layer's output.
    pub fn backward(&self, input: &Matrix, grad_output: &Matrix) -> LinearGrads {
        let mut grads = LinearGrads::zeros_for(self, input.rows());
        let mut scratch = Vec::new();
        self.backward_into(input, grad_output, &mut grads, &mut scratch);
        grads
    }

    /// [`Self::backward`] without the input gradient: the returned
    /// `grad_input` is 0×0 (see [`Self::backward_params_into`]).
    pub fn backward_params(&self, input: &Matrix, grad_output: &Matrix) -> LinearGrads {
        let mut grads = LinearGrads {
            grad_input: Matrix::zeros(0, 0),
            ..LinearGrads::zeros_for(self, 0)
        };
        self.backward_params_into(input, grad_output, &mut grads, &mut Vec::new());
        grads
    }

    /// [`Self::backward`] into caller-owned gradient buffers (see
    /// [`LinearGrads::zeros_for`]). `scratch` holds the weight-gradient
    /// partials and is grown on first use; with a retained `grads` +
    /// `scratch` pair, steady-state calls are allocation-free.
    pub fn backward_into(
        &self,
        input: &Matrix,
        grad_output: &Matrix,
        grads: &mut LinearGrads,
        scratch: &mut Vec<f32>,
    ) {
        self.backward_params_into(input, grad_output, grads, scratch);
        matmul_a_bt_into(grad_output, &self.weight, &mut grads.grad_input);
    }

    /// The parameter half of [`Self::backward_into`]: writes
    /// `grads.grad_weight` and `grads.grad_bias` bit for bit as it does,
    /// and leaves `grads.grad_input` untouched (it may be 0×0). For a
    /// layer whose input is not trainable, such as the first GNN layer.
    pub fn backward_params_into(
        &self,
        input: &Matrix,
        grad_output: &Matrix,
        grads: &mut LinearGrads,
        scratch: &mut Vec<f32>,
    ) {
        assert_eq!(grad_output.cols(), self.out_dim(), "grad_output width");
        assert_eq!(input.rows(), grad_output.rows(), "row count mismatch");
        matmul_at_b_into(input, grad_output, &mut grads.grad_weight, scratch);
        ops::column_sums_into(grad_output, &mut grads.grad_bias);
    }

    /// Number of scalar parameters (for AllReduce buffer sizing).
    pub fn num_params(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.len()
    }

    /// Serializes parameters into `out` (weights row-major, then bias).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weight.as_slice());
        out.extend_from_slice(&self.bias);
    }

    /// Loads parameters from `src`, returning the number consumed.
    pub fn read_params(&mut self, src: &[f32]) -> usize {
        let nw = self.weight.rows() * self.weight.cols();
        let nb = self.bias.len();
        assert!(src.len() >= nw + nb, "parameter buffer too short");
        self.weight.as_mut_slice().copy_from_slice(&src[..nw]);
        self.bias.copy_from_slice(&src[nw..nw + nb]);
        nw + nb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff;
    use distgnn_tensor::init::rng;

    #[test]
    fn forward_matches_hand_computation() {
        let mut l = Linear::new(2, 2, &mut rng(0));
        l.weight = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]);
        l.bias = vec![0.5, -0.5];
        let x = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let z = l.forward(&x);
        assert_eq!(z.row(0), &[3.5, 7.5]);
    }

    #[test]
    fn backward_grad_input_matches_finite_difference() {
        let l = Linear::new(3, 2, &mut rng(1));
        let x = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.3);
        // Loss = sum(forward(x)); grad_output = ones.
        let grads = l.backward(&x, &Matrix::full(4, 2, 1.0));
        let fd = finite_diff(&x, 1e-2, |xp| l.forward(xp).as_slice().iter().sum());
        assert!(grads.grad_input.approx_eq(&fd, 1e-2), "{:?} vs {:?}", grads.grad_input, fd);
    }

    #[test]
    fn backward_grad_weight_matches_finite_difference() {
        let l = Linear::new(2, 3, &mut rng(2));
        let x = Matrix::from_fn(5, 2, |r, c| ((r + c) % 3) as f32 * 0.5 - 0.4);
        let grads = l.backward(&x, &Matrix::full(5, 3, 1.0));
        let fd = finite_diff(&l.weight, 1e-2, |w| {
            let mut l2 = l.clone();
            l2.weight = w.clone();
            l2.forward(&x).as_slice().iter().sum()
        });
        assert!(grads.grad_weight.approx_eq(&fd, 1e-2));
    }

    #[test]
    fn grad_bias_is_column_sum() {
        let l = Linear::new(2, 2, &mut rng(3));
        let g = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = Matrix::zeros(3, 2);
        let grads = l.backward(&x, &g);
        assert_eq!(grads.grad_bias, vec![9.0, 12.0]);
    }

    #[test]
    fn params_only_backward_matches_full_backward_bitwise() {
        let l = Linear::new(3, 4, &mut rng(6));
        let x = Matrix::from_fn(7, 3, |r, c| (r as f32 * 0.7 - c as f32) * 0.3);
        let g = Matrix::from_fn(7, 4, |r, c| ((r * 5 + c) % 7) as f32 * 0.2 - 0.5);
        let full = l.backward(&x, &g);
        let grads = l.backward_params(&x, &g);
        assert_eq!(grads.grad_weight, full.grad_weight);
        assert_eq!(grads.grad_bias, full.grad_bias);
        assert_eq!(grads.grad_input.shape(), (0, 0), "grad_input is not written");
    }

    #[test]
    fn params_round_trip() {
        let l = Linear::new(4, 3, &mut rng(4));
        let mut buf = Vec::new();
        l.write_params(&mut buf);
        assert_eq!(buf.len(), l.num_params());
        let mut l2 = Linear::new(4, 3, &mut rng(5));
        let consumed = l2.read_params(&buf);
        assert_eq!(consumed, l.num_params());
        assert_eq!(l2.weight, l.weight);
        assert_eq!(l2.bias, l.bias);
    }
}
