//! Fully connected layers with gradient accumulation.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// `y = W·x + b`, plus the machinery to backpropagate through it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, `out × in`.
    pub w: Matrix,
    /// Bias, length `out`.
    pub b: Vec<f32>,
}

/// Gradient buffers matching a [`Linear`].
#[derive(Clone, Debug)]
pub struct LinearGrad {
    /// dL/dW.
    pub w: Matrix,
    /// dL/db.
    pub b: Vec<f32>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(input: usize, output: usize, rng: &mut impl Rng) -> Self {
        Linear {
            w: Matrix::xavier(output, input, rng),
            b: vec![0.0; output],
        }
    }

    /// Input width.
    pub fn input(&self) -> usize {
        self.w.cols()
    }

    /// Output width.
    pub fn output(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass into a caller-provided buffer.
    #[inline(always)]
    pub fn forward(&self, x: &[f32], y: &mut [f32]) {
        self.w.matvec(x, y);
        for (yo, &bo) in y.iter_mut().zip(self.b.iter()) {
            *yo += bo;
        }
    }

    /// Backward pass: given upstream `dy` and the input `x` that produced
    /// it, accumulates parameter gradients into `grad` and adds the input
    /// gradient into `dx`.
    pub fn backward(&self, x: &[f32], dy: &[f32], grad: &mut LinearGrad, dx: &mut [f32]) {
        grad.w.rank1_add(dy, x);
        for (gb, &d) in grad.b.iter_mut().zip(dy.iter()) {
            *gb += d;
        }
        self.w.matvec_t_add(dy, dx);
    }

    /// Matching zeroed gradient buffers.
    pub fn grad_buffer(&self) -> LinearGrad {
        LinearGrad {
            w: Matrix::zeros(self.w.rows(), self.w.cols()),
            b: vec![0.0; self.b.len()],
        }
    }
}

impl LinearGrad {
    /// Clears accumulated gradients.
    pub fn zero(&mut self) {
        self.w.fill_zero();
        self.b.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn forward_known() {
        let mut l = Linear::new(2, 2, &mut SmallRng::seed_from_u64(0));
        l.w = Matrix::from_fn(2, 2, |r, c| if r == c { 2.0 } else { 0.0 });
        l.b = vec![1.0, -1.0];
        let mut y = vec![0.0; 2];
        l.forward(&[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 7.0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indices name matrix coordinates
    fn backward_gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(1);
        let l = Linear::new(3, 2, &mut rng);
        let x = [0.5f32, -0.3, 0.8];
        // Loss = sum(y); dL/dy = ones.
        let loss = |layer: &Linear| -> f32 {
            let mut y = vec![0.0; 2];
            layer.forward(&x, &mut y);
            y.iter().sum()
        };
        let mut grad = l.grad_buffer();
        let mut dx = vec![0.0; 3];
        l.backward(&x, &[1.0, 1.0], &mut grad, &mut dx);

        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = l.clone();
                lp.w.set(r, c, lp.w.get(r, c) + eps);
                let mut lm = l.clone();
                lm.w.set(r, c, lm.w.get(r, c) - eps);
                let fd = (loss(&lp) - loss(&lm)) / (2.0 * eps);
                assert!(
                    (fd - grad.w.get(r, c)).abs() < 1e-2,
                    "dW[{r}][{c}] analytic {} vs fd {fd}",
                    grad.w.get(r, c)
                );
            }
        }
        // dx = Wᵀ·ones = column sums.
        for c in 0..3 {
            let expect = l.w.get(0, c) + l.w.get(1, c);
            assert!((dx[c] - expect).abs() < 1e-6);
        }
        // db = dy.
        assert_eq!(grad.b, vec![1.0, 1.0]);
    }
}
