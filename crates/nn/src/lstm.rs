//! Long short-term memory layers with backpropagation through time.
//!
//! Standard LSTM (Hochreiter & Schmidhuber 1997, the paper's [14]) with
//! input, forget, cell, and output gates computed from one fused weight
//! matrix over the concatenated `[x; h_prev]`. Stacking is plain: layer
//! `l`'s input is layer `l-1`'s hidden state.
//!
//! Two execution modes:
//! * **inference** — [`Lstm::step_infer`] advances a persistent
//!   [`LstmState`] one packet at a time, exactly how the cluster oracle
//!   consumes it;
//! * **training** — [`Lstm::forward_seq`] caches activations over a
//!   truncated window and [`Lstm::backward_seq`] runs full BPTT,
//!   accumulating gradients for the optimizer.

use elephant_des::SmallRng;

use crate::activation::tanh_inplace;
use crate::matrix::Matrix;

/// One LSTM layer's parameters: fused gate weights `W` of shape
/// `4H × (I+H)` (gate order i, f, g, o) and bias `4H`.
#[derive(Clone, Debug)]
pub struct LstmCell {
    /// Fused gate weights.
    pub w: Matrix,
    /// Fused gate bias.
    pub b: Vec<f32>,
    input: usize,
    hidden: usize,
}

/// Gradients matching an [`LstmCell`].
#[derive(Clone, Debug)]
pub struct LstmCellGrad {
    /// dL/dW.
    pub w: Matrix,
    /// dL/db.
    pub b: Vec<f32>,
}

impl LstmCellGrad {
    /// Clears accumulated gradients.
    pub fn zero(&mut self) {
        self.w.fill_zero();
        self.b.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Hidden and cell state of one layer.
#[derive(Clone, Debug)]
pub struct CellState {
    /// Hidden state `h`.
    pub h: Vec<f32>,
    /// Cell state `c`.
    pub c: Vec<f32>,
}

/// Cached activations for one (timestep, layer), consumed by BPTT.
#[derive(Clone, Debug)]
struct StepCache {
    /// Concatenated `[x; h_prev]`.
    a: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
    c_prev: Vec<f32>,
}

impl LstmCell {
    /// Xavier-initialized cell. The forget-gate bias starts at 1.0, the
    /// standard trick that lets fresh models carry state across steps.
    pub fn new(input: usize, hidden: usize, rng: &mut SmallRng) -> Self {
        let mut b = vec![0.0; 4 * hidden];
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        LstmCell {
            w: Matrix::xavier(4 * hidden, input + hidden, rng),
            b,
            input,
            hidden,
        }
    }

    /// All-zero cell, for weights that are filled in afterwards.
    pub fn zeros(input: usize, hidden: usize) -> Self {
        LstmCell {
            w: Matrix::zeros(4 * hidden, input + hidden),
            b: vec![0.0; 4 * hidden],
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

    /// Zeroed state.
    pub fn init_state(&self) -> CellState {
        CellState {
            h: vec![0.0; self.hidden],
            c: vec![0.0; self.hidden],
        }
    }

    /// Matching zeroed gradient buffers.
    pub fn grad_buffer(&self) -> LstmCellGrad {
        LstmCellGrad {
            w: Matrix::zeros(self.w.rows(), self.w.cols()),
            b: vec![0.0; self.b.len()],
        }
    }

    /// Advances `state` by one step; optionally captures the activations.
    fn step(&self, x: &[f32], state: &mut CellState, capture: bool) -> Option<StepCache> {
        assert_eq!(x.len(), self.input, "LSTM input width mismatch");
        let hdim = self.hidden;
        let mut a = Vec::with_capacity(self.input + hdim);
        a.extend_from_slice(x);
        a.extend_from_slice(&state.h);

        let mut z = vec![0.0f32; 4 * hdim];
        self.w.gate_matvec(&a, &self.b, &mut z);
        let [i, f, g, o] = [0, 1, 2, 3].map(|n| z[n * hdim..(n + 1) * hdim].to_vec());

        let c_prev = state.c.clone();
        for k in 0..hdim {
            state.c[k] = f[k] * c_prev[k] + i[k] * g[k];
        }
        let mut tanh_c = state.c.clone();
        tanh_inplace(&mut tanh_c);
        for k in 0..hdim {
            state.h[k] = o[k] * tanh_c[k];
        }

        capture.then_some(StepCache {
            a,
            i,
            f,
            g,
            o,
            tanh_c,
            c_prev,
        })
    }

    /// One BPTT step. `dh`/`dc` are gradients flowing in from above and
    /// from the future; outputs are written to `dx` (input gradient,
    /// added), and the returned `(dh_prev, dc_prev)`.
    fn backward_step(
        &self,
        cache: &StepCache,
        dh: &[f32],
        dc_in: &[f32],
        grad: &mut LstmCellGrad,
        dx: &mut [f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let hdim = self.hidden;
        let mut dz = vec![0.0f32; 4 * hdim];
        let mut dc_prev = vec![0.0f32; hdim];
        for k in 0..hdim {
            let do_ = dh[k] * cache.tanh_c[k];
            let dc = dc_in[k] + dh[k] * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
            let di = dc * cache.g[k];
            let df = dc * cache.c_prev[k];
            let dg = dc * cache.i[k];
            dc_prev[k] = dc * cache.f[k];
            dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
            dz[hdim + k] = df * cache.f[k] * (1.0 - cache.f[k]);
            dz[2 * hdim + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
            dz[3 * hdim + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
        }
        grad.w.rank1_add(&dz, &cache.a);
        for (gb, &d) in grad.b.iter_mut().zip(dz.iter()) {
            *gb += d;
        }
        let mut da = vec![0.0f32; self.input + hdim];
        self.w.matvec_t_add(&dz, &mut da);
        for (x, &d) in dx.iter_mut().zip(da[..self.input].iter()) {
            *x += d;
        }
        let dh_prev = da[self.input..].to_vec();
        (dh_prev, dc_prev)
    }
}

/// A stack of LSTM layers.
#[derive(Clone, Debug)]
pub struct Lstm {
    /// The layers, bottom first.
    pub cells: Vec<LstmCell>,
}

/// Persistent state for a stacked LSTM.
#[derive(Clone, Debug)]
pub struct LstmState {
    /// Per-layer state, bottom first.
    pub layers: Vec<CellState>,
    /// Reused inference buffers (not part of the logical state).
    scratch: InferScratch,
}

/// Allocation-free inference scratch space.
#[derive(Clone, Debug, Default)]
struct InferScratch {
    a: Vec<f32>,
    z: Vec<f32>,
    x: Vec<f32>,
}

/// Activation cache for a training window.
pub struct LstmSeqCache {
    /// `steps[t][layer]`.
    steps: Vec<Vec<StepCache>>,
}

impl Lstm {
    /// Builds `layers` stacked cells: the first maps `input → hidden`, the
    /// rest `hidden → hidden`.
    pub fn new(input: usize, hidden: usize, layers: usize, rng: &mut SmallRng) -> Self {
        assert!(layers >= 1);
        let mut cells = Vec::with_capacity(layers);
        cells.push(LstmCell::new(input, hidden, rng));
        for _ in 1..layers {
            cells.push(LstmCell::new(hidden, hidden, rng));
        }
        Lstm { cells }
    }

    /// All-zero stack of `layers` cells (none for `layers == 0`), shaped as
    /// [`Lstm::new`] shapes them.
    pub fn zeros(input: usize, hidden: usize, layers: usize) -> Self {
        let cells = (0..layers)
            .map(|l| LstmCell::zeros(if l == 0 { input } else { hidden }, hidden))
            .collect();
        Lstm { cells }
    }

    /// Zeroed state for all layers.
    pub fn init_state(&self) -> LstmState {
        LstmState {
            layers: self.cells.iter().map(|c| c.init_state()).collect(),
            scratch: InferScratch::default(),
        }
    }

    /// Matching zeroed gradient buffers, one per layer.
    pub fn grad_buffers(&self) -> Vec<LstmCellGrad> {
        self.cells.iter().map(|c| c.grad_buffer()).collect()
    }

    /// Advances the persistent state one step; writes the top layer's
    /// hidden vector into `out`. Allocation-free: this is the per-packet
    /// hot path of the deployed oracle.
    #[inline(always)]
    pub fn step_infer(&self, x: &[f32], state: &mut LstmState, out: &mut [f32]) {
        let InferScratch { a, z, x: x_buf } = &mut state.scratch;
        x_buf.clear();
        x_buf.extend_from_slice(x);
        for (cell, st) in self.cells.iter().zip(state.layers.iter_mut()) {
            let hdim = cell.hidden;
            a.clear();
            a.extend_from_slice(x_buf);
            a.extend_from_slice(&st.h);
            z.resize(4 * hdim, 0.0);
            // The training-path `step`'s kernel and activations, so the
            // two compute the same bits.
            cell.w.gate_matvec(a, &cell.b, z);
            let (i, rest) = z.split_at(hdim);
            let (f, rest) = rest.split_at(hdim);
            let (g, o) = rest.split_at(hdim);
            for (((c, &i), &f), &g) in st.c.iter_mut().zip(i).zip(f).zip(g) {
                *c = f * *c + i * g;
            }
            // h = o ⊙ tanh(c), the tanh as one pass over the slice.
            st.h.copy_from_slice(&st.c);
            tanh_inplace(&mut st.h);
            for (h, &o) in st.h.iter_mut().zip(o) {
                *h *= o;
            }
            x_buf.clear();
            x_buf.extend_from_slice(&st.h);
        }
        out.copy_from_slice(x_buf);
    }

    /// Runs a training window from a zero state, returning the top hidden
    /// vector at each step and the cache for [`Lstm::backward_seq`].
    pub fn forward_seq(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, LstmSeqCache) {
        let mut state = self.init_state();
        let mut tops = Vec::with_capacity(xs.len());
        let mut steps = Vec::with_capacity(xs.len());
        for x in xs {
            let mut input = x.clone();
            let mut layer_caches = Vec::with_capacity(self.cells.len());
            for (cell, st) in self.cells.iter().zip(state.layers.iter_mut()) {
                let cache = cell.step(&input, st, true).expect("capture requested");
                input.clear();
                input.extend_from_slice(&st.h);
                layer_caches.push(cache);
            }
            tops.push(input.clone());
            steps.push(layer_caches);
        }
        (tops, LstmSeqCache { steps })
    }

    /// Full BPTT over a cached window. `dh_top[t]` is the loss gradient on
    /// the top hidden vector at step `t`; gradients accumulate into
    /// `grads` (one per layer).
    pub fn backward_seq(
        &self,
        cache: &LstmSeqCache,
        dh_top: &[Vec<f32>],
        grads: &mut [LstmCellGrad],
    ) {
        assert_eq!(dh_top.len(), cache.steps.len(), "gradient per timestep");
        assert_eq!(grads.len(), self.cells.len(), "gradient buffer per layer");
        let nl = self.cells.len();
        let mut dh_next: Vec<Vec<f32>> = self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();
        let mut dc_next: Vec<Vec<f32>> = self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();

        for t in (0..cache.steps.len()).rev() {
            // `dx_down` carries the gradient flowing into the layer below.
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
                let (dh_prev, dc_prev) = cell.backward_step(
                    &cache.steps[t][l],
                    &dh,
                    &dc_next[l],
                    &mut grads[l],
                    &mut dx,
                );
                dh_next[l] = dh_prev;
                dc_next[l] = dc_prev;
                dx_down = dx;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(t: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..t)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * dim + d) as f32 * 0.7).sin() * 0.5)
                    .collect()
            })
            .collect()
    }

    /// Scalar loss: sum of all top hidden activations over the window.
    fn loss(lstm: &Lstm, xs: &[Vec<f32>]) -> f32 {
        let (tops, _) = lstm.forward_seq(xs);
        tops.iter().flat_map(|h| h.iter()).sum()
    }

    #[test]
    fn infer_matches_forward_seq() {
        let mut rng = SmallRng::seed_from_u64(3);
        let lstm = Lstm::new(4, 6, 2, &mut rng);
        let xs = seq(5, 4);
        let (tops, _) = lstm.forward_seq(&xs);
        let mut state = lstm.init_state();
        let mut out = vec![0.0; 6];
        for (t, x) in xs.iter().enumerate() {
            lstm.step_infer(x, &mut state, &mut out);
            assert_eq!(out, tops[t], "step {t} diverged");
        }
    }

    #[test]
    fn hidden_state_carries_memory() {
        let mut rng = SmallRng::seed_from_u64(4);
        let lstm = Lstm::new(2, 4, 1, &mut rng);
        let mut s1 = lstm.init_state();
        let mut s2 = lstm.init_state();
        let mut out1 = vec![0.0; 4];
        let mut out2 = vec![0.0; 4];
        // Same final input, different history: outputs must differ.
        lstm.step_infer(&[1.0, -1.0], &mut s1, &mut out1);
        lstm.step_infer(&[0.5, 0.5], &mut s1, &mut out1);
        lstm.step_infer(&[0.5, 0.5], &mut s2, &mut out2);
        assert_ne!(out1, out2, "history must influence output");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indices name matrix coordinates
    fn bptt_gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(5);
        let lstm = Lstm::new(3, 4, 2, &mut rng);
        let xs = seq(6, 3);

        let (tops, cache) = lstm.forward_seq(&xs);
        let dh_top: Vec<Vec<f32>> = tops.iter().map(|h| vec![1.0; h.len()]).collect();
        let mut grads = lstm.grad_buffers();
        lstm.backward_seq(&cache, &dh_top, &mut grads);

        let eps = 1e-2f32;
        // Spot-check a spread of weights in both layers plus biases.
        for layer in 0..2 {
            let rows = lstm.cells[layer].w.rows();
            let cols = lstm.cells[layer].w.cols();
            for &(r, c) in &[(0, 0), (rows - 1, cols - 1), (rows / 2, cols / 2)] {
                let mut lp = lstm.clone();
                let vp = lp.cells[layer].w.get(r, c) + eps;
                lp.cells[layer].w.set(r, c, vp);
                let mut lm = lstm.clone();
                let vm = lm.cells[layer].w.get(r, c) - eps;
                lm.cells[layer].w.set(r, c, vm);
                let fd = (loss(&lp, &xs) - loss(&lm, &xs)) / (2.0 * eps);
                let an = grads[layer].w.get(r, c);
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                    "layer {layer} dW[{r}][{c}]: analytic {an} vs fd {fd}"
                );
            }
            let bi = lstm.cells[layer].b.len() / 2;
            let mut lp = lstm.clone();
            lp.cells[layer].b[bi] += eps;
            let mut lm = lstm.clone();
            lm.cells[layer].b[bi] -= eps;
            let fd = (loss(&lp, &xs) - loss(&lm, &xs)) / (2.0 * eps);
            let an = grads[layer].b[bi];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                "layer {layer} db[{bi}]: analytic {an} vs fd {fd}"
            );
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = SmallRng::seed_from_u64(6);
        let cell = LstmCell::new(2, 3, &mut rng);
        assert_eq!(&cell.b[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&cell.b[0..3], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn outputs_are_bounded() {
        // h = o * tanh(c): |h| < 1 always.
        let mut rng = SmallRng::seed_from_u64(8);
        let lstm = Lstm::new(2, 8, 2, &mut rng);
        let mut state = lstm.init_state();
        let mut out = vec![0.0; 8];
        for i in 0..100 {
            let x = [(i as f32).sin() * 10.0, (i as f32).cos() * 10.0];
            lstm.step_infer(&x, &mut state, &mut out);
            assert!(out.iter().all(|v| v.abs() < 1.0 && v.is_finite()));
        }
    }
}
