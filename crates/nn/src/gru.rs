//! Gated recurrent units — the paper's §7 "testing new LSTM variants".
//!
//! A GRU carries a single hidden vector (no separate cell state) and three
//! gates instead of four, so it is ~25% cheaper per step than an LSTM of
//! the same width — exactly the accuracy-versus-cost trade §7 wants
//! explored. Equations (PyTorch convention):
//!
//! ```text
//! z = σ(W_z·[x; h] + b_z)          update gate
//! r = σ(W_r·[x; h] + b_r)          reset gate
//! n = tanh(W_n·[x; r⊙h] + b_n)     candidate
//! h' = (1 − z)⊙n + z⊙h
//! ```
//!
//! The layout mirrors [`crate::lstm`]: a fused `[z; r]` gate matrix over
//! `[x; h]`, a separate candidate matrix over `[x; r⊙h]`, stacked layers,
//! an allocation-free inference path, and exact BPTT (finite-difference
//! checked in the tests).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// One GRU layer's parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GruCell {
    /// Fused update/reset gate weights, `2H × (I+H)` (z rows first).
    pub w_zr: Matrix,
    /// Fused gate bias, `2H`.
    pub b_zr: Vec<f32>,
    /// Candidate weights, `H × (I+H)` (over `[x; r⊙h]`).
    pub w_n: Matrix,
    /// Candidate bias, `H`.
    pub b_n: Vec<f32>,
    input: usize,
    hidden: usize,
}

/// Gradients matching a [`GruCell`].
#[derive(Clone, Debug)]
pub struct GruCellGrad {
    /// dL/dW_zr.
    pub w_zr: Matrix,
    /// dL/db_zr.
    pub b_zr: Vec<f32>,
    /// dL/dW_n.
    pub w_n: Matrix,
    /// dL/db_n.
    pub b_n: Vec<f32>,
}

impl GruCellGrad {
    /// Clears accumulated gradients.
    pub fn zero(&mut self) {
        self.w_zr.fill_zero();
        self.b_zr.iter_mut().for_each(|v| *v = 0.0);
        self.w_n.fill_zero();
        self.b_n.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Cached activations for one (timestep, layer).
#[derive(Clone, Debug)]
struct StepCache {
    /// `[x; h_prev]`.
    a: Vec<f32>,
    /// `[x; r⊙h_prev]`.
    a_n: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    n: Vec<f32>,
    h_prev: Vec<f32>,
}

impl GruCell {
    /// Xavier-initialized cell.
    pub fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        GruCell {
            w_zr: Matrix::xavier(2 * hidden, input + hidden, rng),
            b_zr: vec![0.0; 2 * hidden],
            w_n: Matrix::xavier(hidden, input + hidden, rng),
            b_n: vec![0.0; hidden],
            input,
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input(&self) -> usize {
        self.input
    }

    /// Matching zeroed gradient buffers.
    pub fn grad_buffer(&self) -> GruCellGrad {
        GruCellGrad {
            w_zr: Matrix::zeros(self.w_zr.rows(), self.w_zr.cols()),
            b_zr: vec![0.0; self.b_zr.len()],
            w_n: Matrix::zeros(self.w_n.rows(), self.w_n.cols()),
            b_n: vec![0.0; self.b_n.len()],
        }
    }

    /// One training step: consumes `h` (the previous hidden state),
    /// returns the new hidden state and the cache.
    fn step_train(&self, x: &[f32], h: &[f32]) -> (Vec<f32>, StepCache) {
        assert_eq!(x.len(), self.input);
        let hd = self.hidden;
        let mut a = Vec::with_capacity(self.input + hd);
        a.extend_from_slice(x);
        a.extend_from_slice(h);
        let mut zr = vec![0.0f32; 2 * hd];
        self.w_zr.gate_matvec(&a, &self.b_zr, 0..0, &mut zr);
        let r = zr.split_off(hd);
        let z = zr;

        let mut a_n = Vec::with_capacity(self.input + hd);
        a_n.extend_from_slice(x);
        for k in 0..hd {
            a_n.push(r[k] * h[k]);
        }
        let mut n = vec![0.0f32; hd];
        self.w_n.gate_matvec(&a_n, &self.b_n, 0..hd, &mut n);

        let mut h_new = vec![0.0f32; hd];
        for k in 0..hd {
            h_new[k] = (1.0 - z[k]) * n[k] + z[k] * h[k];
        }
        let cache = StepCache {
            a,
            a_n,
            z,
            r,
            n,
            h_prev: h.to_vec(),
        };
        (h_new, cache)
    }

    /// One BPTT step: given `dh` on the output, accumulates parameter
    /// gradients and returns `(dx added into dx_buf, dh_prev)`.
    fn backward_step(
        &self,
        cache: &StepCache,
        dh: &[f32],
        grad: &mut GruCellGrad,
        dx: &mut [f32],
    ) -> Vec<f32> {
        let hd = self.hidden;
        let mut dh_prev = vec![0.0f32; hd];
        let mut dzr_pre = vec![0.0f32; 2 * hd];
        let mut dn_pre = vec![0.0f32; hd];
        for k in 0..hd {
            let z = cache.z[k];
            let n = cache.n[k];
            let hp = cache.h_prev[k];
            let dz = dh[k] * (hp - n);
            let dn = dh[k] * (1.0 - z);
            dh_prev[k] += dh[k] * z;
            dzr_pre[k] = dz * z * (1.0 - z);
            dn_pre[k] = dn * (1.0 - n * n);
        }

        // Candidate path: n = tanh(W_n·a_n + b_n), a_n = [x; r⊙h_prev].
        grad.w_n.rank1_add(&dn_pre, &cache.a_n);
        for (g, &d) in grad.b_n.iter_mut().zip(dn_pre.iter()) {
            *g += d;
        }
        let mut da_n = vec![0.0f32; self.input + hd];
        self.w_n.matvec_t_add(&dn_pre, &mut da_n);
        for (xg, &d) in dx.iter_mut().zip(da_n[..self.input].iter()) {
            *xg += d;
        }
        for k in 0..hd {
            let drh = da_n[self.input + k];
            dh_prev[k] += drh * cache.r[k];
            let dr = drh * cache.h_prev[k];
            dzr_pre[hd + k] = dr * cache.r[k] * (1.0 - cache.r[k]);
        }

        // Gate path: [z; r] = σ(W_zr·a + b_zr), a = [x; h_prev].
        grad.w_zr.rank1_add(&dzr_pre, &cache.a);
        for (g, &d) in grad.b_zr.iter_mut().zip(dzr_pre.iter()) {
            *g += d;
        }
        let mut da = vec![0.0f32; self.input + hd];
        self.w_zr.matvec_t_add(&dzr_pre, &mut da);
        for (xg, &d) in dx.iter_mut().zip(da[..self.input].iter()) {
            *xg += d;
        }
        for k in 0..hd {
            dh_prev[k] += da[self.input + k];
        }
        dh_prev
    }
}

/// A stack of GRU layers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Gru {
    /// The layers, bottom first.
    pub cells: Vec<GruCell>,
}

/// Persistent state for a stacked GRU.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GruState {
    /// Per-layer hidden vectors.
    pub layers: Vec<Vec<f32>>,
    #[serde(skip)]
    scratch: InferScratch,
}

#[derive(Clone, Debug, Default)]
struct InferScratch {
    a: Vec<f32>,
    zr: Vec<f32>,
    a_n: Vec<f32>,
    n: Vec<f32>,
    x: Vec<f32>,
}

/// Activation cache for a training window.
pub struct GruSeqCache {
    steps: Vec<Vec<StepCache>>,
}

impl Gru {
    /// Builds `layers` stacked cells.
    pub fn new(input: usize, hidden: usize, layers: usize, rng: &mut impl Rng) -> Self {
        assert!(layers >= 1);
        let mut cells = Vec::with_capacity(layers);
        cells.push(GruCell::new(input, hidden, rng));
        for _ in 1..layers {
            cells.push(GruCell::new(hidden, hidden, rng));
        }
        Gru { cells }
    }

    /// Input width of the bottom layer.
    pub fn input(&self) -> usize {
        self.cells[0].input()
    }

    /// Hidden width of the top layer.
    pub fn hidden(&self) -> usize {
        self.cells.last().expect("non-empty").hidden()
    }

    /// Zeroed state.
    pub fn init_state(&self) -> GruState {
        GruState {
            layers: self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect(),
            scratch: InferScratch::default(),
        }
    }

    /// Matching zeroed gradient buffers, one per layer.
    pub fn grad_buffers(&self) -> Vec<GruCellGrad> {
        self.cells.iter().map(|c| c.grad_buffer()).collect()
    }

    /// Allocation-free inference step; writes the top hidden vector into
    /// `out`.
    pub fn step_infer(&self, x: &[f32], state: &mut GruState, out: &mut [f32]) {
        let InferScratch {
            a,
            zr,
            a_n,
            n,
            x: x_buf,
        } = &mut state.scratch;
        x_buf.clear();
        x_buf.extend_from_slice(x);
        for (cell, h) in self.cells.iter().zip(state.layers.iter_mut()) {
            let hd = cell.hidden;
            a.clear();
            a.extend_from_slice(x_buf);
            a.extend_from_slice(h);
            zr.resize(2 * hd, 0.0);
            // Fused matvec + bias + sigmoid (empty tanh range): zr holds
            // the activated update/reset gates directly.
            cell.w_zr.gate_matvec(a, &cell.b_zr, 0..0, zr);
            a_n.clear();
            a_n.extend_from_slice(x_buf);
            for k in 0..hd {
                a_n.push(zr[hd + k] * h[k]);
            }
            n.resize(hd, 0.0);
            // Candidate: fused matvec + bias + tanh over every row.
            cell.w_n.gate_matvec(a_n, &cell.b_n, 0..hd, n);
            for k in 0..hd {
                let z = zr[k];
                h[k] = (1.0 - z) * n[k] + z * h[k];
            }
            x_buf.clear();
            x_buf.extend_from_slice(h);
        }
        out.copy_from_slice(x_buf);
    }

    /// Training window from a zero state: top hidden vectors + cache.
    pub fn forward_seq(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, GruSeqCache) {
        let mut hs: Vec<Vec<f32>> = self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();
        let mut tops = Vec::with_capacity(xs.len());
        let mut steps = Vec::with_capacity(xs.len());
        for x in xs {
            let mut input = x.clone();
            let mut layer_caches = Vec::with_capacity(self.cells.len());
            for (l, cell) in self.cells.iter().enumerate() {
                let (h_new, cache) = cell.step_train(&input, &hs[l]);
                hs[l] = h_new;
                input = hs[l].clone();
                layer_caches.push(cache);
            }
            tops.push(input);
            steps.push(layer_caches);
        }
        (tops, GruSeqCache { steps })
    }

    /// Full BPTT over a cached window.
    pub fn backward_seq(
        &self,
        cache: &GruSeqCache,
        dh_top: &[Vec<f32>],
        grads: &mut [GruCellGrad],
    ) {
        assert_eq!(dh_top.len(), cache.steps.len());
        assert_eq!(grads.len(), self.cells.len());
        let nl = self.cells.len();
        let mut dh_next: Vec<Vec<f32>> = self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();
        for t in (0..cache.steps.len()).rev() {
            let mut dx_down: Vec<f32> = Vec::new();
            for l in (0..nl).rev() {
                let cell = &self.cells[l];
                let mut dh = dh_next[l].clone();
                if l == nl - 1 {
                    for (a, &b) in dh.iter_mut().zip(dh_top[t].iter()) {
                        *a += b;
                    }
                } else {
                    for (a, &b) in dh.iter_mut().zip(dx_down.iter()) {
                        *a += b;
                    }
                }
                let mut dx = vec![0.0f32; cell.input()];
                let dh_prev = cell.backward_step(&cache.steps[t][l], &dh, &mut grads[l], &mut dx);
                dh_next[l] = dh_prev;
                dx_down = dx;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn seq(t: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..t)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * dim + d) as f32 * 0.9).cos() * 0.4)
                    .collect()
            })
            .collect()
    }

    fn loss(g: &Gru, xs: &[Vec<f32>]) -> f32 {
        let (tops, _) = g.forward_seq(xs);
        tops.iter().flat_map(|h| h.iter()).sum()
    }

    #[test]
    fn infer_matches_forward_seq() {
        let mut rng = SmallRng::seed_from_u64(13);
        let gru = Gru::new(4, 6, 2, &mut rng);
        let xs = seq(5, 4);
        let (tops, _) = gru.forward_seq(&xs);
        let mut state = gru.init_state();
        let mut out = vec![0.0; 6];
        for (t, x) in xs.iter().enumerate() {
            gru.step_infer(x, &mut state, &mut out);
            assert_eq!(out, tops[t], "step {t} diverged");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indices name matrix coordinates
    fn bptt_gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(14);
        let gru = Gru::new(3, 4, 2, &mut rng);
        let xs = seq(6, 3);
        let (tops, cache) = gru.forward_seq(&xs);
        let dh_top: Vec<Vec<f32>> = tops.iter().map(|h| vec![1.0; h.len()]).collect();
        let mut grads = gru.grad_buffers();
        gru.backward_seq(&cache, &dh_top, &mut grads);

        let eps = 1e-2f32;
        for layer in 0..2 {
            // Spot-check the gate matrix, candidate matrix, and biases.
            let checks: Vec<(&str, usize, usize)> = vec![
                ("zr", 0, 0),
                (
                    "zr",
                    gru.cells[layer].w_zr.rows() - 1,
                    gru.cells[layer].w_zr.cols() - 1,
                ),
                ("n", 0, 1),
                (
                    "n",
                    gru.cells[layer].w_n.rows() - 1,
                    gru.cells[layer].w_n.cols() / 2,
                ),
            ];
            for (which, r, c) in checks {
                let mut gp = gru.clone();
                let mut gm = gru.clone();
                let an = match which {
                    "zr" => {
                        let vp = gp.cells[layer].w_zr.get(r, c) + eps;
                        gp.cells[layer].w_zr.set(r, c, vp);
                        let vm = gm.cells[layer].w_zr.get(r, c) - eps;
                        gm.cells[layer].w_zr.set(r, c, vm);
                        grads[layer].w_zr.get(r, c)
                    }
                    _ => {
                        let vp = gp.cells[layer].w_n.get(r, c) + eps;
                        gp.cells[layer].w_n.set(r, c, vp);
                        let vm = gm.cells[layer].w_n.get(r, c) - eps;
                        gm.cells[layer].w_n.set(r, c, vm);
                        grads[layer].w_n.get(r, c)
                    }
                };
                let fd = (loss(&gp, &xs) - loss(&gm, &xs)) / (2.0 * eps);
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                    "layer {layer} {which}[{r}][{c}]: analytic {an} vs fd {fd}"
                );
            }
            let bi = 1;
            let mut gp = gru.clone();
            gp.cells[layer].b_n[bi] += eps;
            let mut gm = gru.clone();
            gm.cells[layer].b_n[bi] -= eps;
            let fd = (loss(&gp, &xs) - loss(&gm, &xs)) / (2.0 * eps);
            let an = grads[layer].b_n[bi];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                "layer {layer} b_n[{bi}]: analytic {an} vs fd {fd}"
            );
        }
    }

    #[test]
    fn history_matters() {
        let mut rng = SmallRng::seed_from_u64(15);
        let gru = Gru::new(2, 4, 1, &mut rng);
        let mut s1 = gru.init_state();
        let mut s2 = gru.init_state();
        let mut o1 = vec![0.0; 4];
        let mut o2 = vec![0.0; 4];
        gru.step_infer(&[1.0, -1.0], &mut s1, &mut o1);
        gru.step_infer(&[0.3, 0.3], &mut s1, &mut o1);
        gru.step_infer(&[0.3, 0.3], &mut s2, &mut o2);
        assert_ne!(o1, o2);
    }

    #[test]
    fn outputs_bounded_and_finite() {
        let mut rng = SmallRng::seed_from_u64(16);
        let gru = Gru::new(2, 8, 2, &mut rng);
        let mut state = gru.init_state();
        let mut out = vec![0.0; 8];
        for i in 0..200 {
            let x = [(i as f32).sin() * 5.0, (i as f32).cos() * 5.0];
            gru.step_infer(&x, &mut state, &mut out);
            assert!(out.iter().all(|v| v.is_finite() && v.abs() <= 1.0));
        }
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = SmallRng::seed_from_u64(17);
        let gru = Gru::new(3, 4, 2, &mut rng);
        let json = serde_json::to_string(&gru).unwrap();
        let back: Gru = serde_json::from_str(&json).unwrap();
        let xs = seq(3, 3);
        assert_eq!(loss(&gru, &xs), loss(&back, &xs));
    }
}
