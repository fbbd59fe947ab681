//! Stochastic gradient descent with momentum, plus global-norm clipping.
//!
//! The paper trains with "the stochastic gradient descent optimizer with a
//! learning rate of 0.0001 and momentum of 0.9" (§4.2); this is that
//! optimizer. Parameters are presented as ordered slices; the optimizer
//! lazily allocates one velocity buffer per slice on first use and asserts
//! the ordering never changes.

/// SGD with classical momentum: `v ← m·v − lr·g`, `w ← w + v`.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocities: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates the optimizer. `lr` must be positive, `momentum` in `[0,1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Sgd {
            lr,
            momentum,
            velocities: Vec::new(),
        }
    }

    /// Applies one update. `params[i]` and `grads[i]` must be parallel
    /// slices, presented in the same order on every call.
    pub fn step(&mut self, params: &mut [&mut [f32]], grads: &[&[f32]]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "params/grads slice count mismatch"
        );
        if self.velocities.is_empty() {
            self.velocities = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        assert_eq!(
            self.velocities.len(),
            params.len(),
            "parameter layout changed"
        );
        for ((p, g), v) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(self.velocities.iter_mut())
        {
            assert_eq!(p.len(), g.len(), "param/grad length mismatch");
            assert_eq!(p.len(), v.len(), "parameter layout changed");
            for k in 0..p.len() {
                v[k] = self.momentum * v[k] - self.lr * g[k];
                p[k] += v[k];
            }
        }
    }
}

/// Scales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut [&mut [f32]], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0);
    let sq: f64 = grads
        .iter()
        .flat_map(|g| g.iter())
        .map(|&v| (v as f64) * (v as f64))
        .sum();
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            for v in g.iter_mut() {
                *v *= scale;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_descends_a_quadratic() {
        // Minimize f(w) = (w-3)^2 with momentum 0.
        let mut sgd = Sgd::new(0.1, 0.0);
        let mut w = [0.0f32];
        for _ in 0..200 {
            let g = [2.0 * (w[0] - 3.0)];
            sgd.step(&mut [&mut w], &[&g]);
        }
        assert!((w[0] - 3.0).abs() < 1e-3, "w = {}", w[0]);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |m: f32, iters: usize| {
            let mut sgd = Sgd::new(0.01, m);
            let mut w = [0.0f32];
            for _ in 0..iters {
                let g = [2.0 * (w[0] - 3.0)];
                sgd.step(&mut [&mut w], &[&g]);
            }
            (w[0] - 3.0).abs()
        };
        assert!(
            run(0.9, 50) < run(0.0, 50),
            "momentum converges faster here"
        );
    }

    #[test]
    fn first_step_is_minus_lr_g() {
        let mut sgd = Sgd::new(0.5, 0.9);
        let mut w = [1.0f32, 2.0];
        let g = [2.0f32, -4.0];
        sgd.step(&mut [&mut w], &[&g]);
        assert_eq!(w, [0.0, 4.0]);
    }

    #[test]
    fn clip_rescales_above_threshold() {
        let mut a = [3.0f32, 0.0];
        let mut b = [0.0f32, 4.0];
        let norm = clip_global_norm(&mut [&mut a, &mut b], 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let sq: f32 = a.iter().chain(b.iter()).map(|v| v * v).sum();
        assert!((sq.sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_below_threshold() {
        let mut a = [0.3f32, 0.4];
        let norm = clip_global_norm(&mut [&mut a], 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(a, [0.3, 0.4]);
    }

    #[test]
    #[should_panic]
    fn layout_change_detected() {
        let mut sgd = Sgd::new(0.1, 0.0);
        let mut w = [0.0f32];
        sgd.step(&mut [&mut w], &[&[1.0]]);
        let mut w2 = [0.0f32, 1.0];
        sgd.step(&mut [&mut w2], &[&[1.0, 1.0]]);
    }
}
