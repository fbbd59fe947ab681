//! Dense matrices stored in row panels, and the kernels the models need.
//!
//! The paper's models are tiny (two LSTM layers, ≤128 hidden units), so we
//! implement the handful of BLAS-1/2 kernels ourselves rather than pull in
//! a linear-algebra stack: matrix–vector products forward and transposed,
//! the fused gate kernel, and rank-1 gradient accumulation.
//!
//! **Layout.** Storage is cut into panels of `PANEL` (8) consecutive rows (the
//! last panel may be shorter), and inside a panel the columns are
//! interleaved: column `c` of the panel's rows is one contiguous run. The
//! forward kernel broadcasts `x[c]` and updates a whole panel with one
//! vertical vector operation, instead of reducing each row horizontally.
//!
//! **Summation order.** Each row's dot product is still summed exactly as a
//! row-major kernel with eight accumulators sums it: lane `c mod 8` collects
//! columns `c < cols − cols mod 8`, the lanes are added in order, then the
//! `cols mod 8` tail columns one by one, then the bias. So the layout changes
//! no bit of any result; the tests check every kernel against a row-major
//! reference.
//!
//! **Instruction set.** The forward kernels (`matvec`, `gate_matvec`) are
//! `#[inline(always)]`: they have no build of their own but are compiled
//! into each caller, and so into both builds of `MicroNet::predict`: the
//! portable one, and on an x86-64 CPU with AVX2 a
//! `#[target_feature(enable = "avx2")]` clone, where a full panel is one
//! 256-bit register. The source and the operation order are shared and only
//! IEEE `+ − × ÷` are used — no `mul_add`, no `fma` target feature, and the
//! compiler neither reassociates nor fuses float arithmetic on its own — so
//! both builds compute the same bits; the tests compare them kernel by
//! kernel. Training runs the portable build only.

use std::ops::Range;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::{sigmoid_inplace, tanh_inplace};

/// Rows per storage panel.
const PANEL: usize = 8;
/// Accumulator lanes of a dot product: column `c` adds into lane `c % LANES`.
const LANES: usize = 8;

/// Calls `kernel::<H>(args)` with `H` the panel's height as a constant, so
/// each kernel is compiled for full panels and for every shorter last one.
macro_rules! by_height {
    ($height:expr, $kernel:ident($($arg:expr),*)) => {
        match $height {
            PANEL => $kernel::<PANEL>($($arg),*),
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            _ => unreachable!("panels hold at most {PANEL} rows"),
        }
    };
}

/// A dense `rows × cols` matrix of `f32`, stored in row panels (see the
/// module docs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization: `U(-b, b)` with
    /// `b = sqrt(6 / (fan_in + fan_out))`, drawn in row-major order so a
    /// seed gives the same weight at every `(r, c)` whatever the layout.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt() as f32;
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
    }

    /// Builds from a closure, called in row-major order.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the storage holds exactly `rows × cols` values: always
    /// for a matrix built here, not necessarily for a deserialized one.
    pub(crate) fn is_well_formed(&self) -> bool {
        self.rows.checked_mul(self.cols) == Some(self.data.len())
    }

    /// Storage index of element `(r, c)`.
    #[inline]
    fn index(&self, r: usize, c: usize) -> usize {
        assert!(r < self.rows && c < self.cols, "({r}, {c}) out of bounds");
        let top = r - r % PANEL;
        let height = PANEL.min(self.rows - top);
        top * self.cols + c * height + r % PANEL
    }

    /// Storage of the panel whose first row is `top` and which holds
    /// `height` rows.
    #[inline]
    fn panel(&self, top: usize, height: usize) -> Range<usize> {
        top * self.cols..(top + height) * self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[self.index(r, c)]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let i = self.index(r, c);
        self.data[i] = v;
    }

    /// Flat storage, in panel order (for consumers that treat every weight
    /// alike: the optimizer, clipping, checksums).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable storage, in panel order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `y = A·x` (y allocated by caller, length `rows`).
    #[inline(always)]
    pub fn matvec(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        self.forward(x, None, y);
    }

    /// Fused LSTM gates `y = act(A·x + b)` over `4H` rows in gate order
    /// i, f, g, o: the matvec with the bias folded in, then one activation
    /// pass per gate slice — `tanh` on the g block, rows `2H..3H`, the
    /// logistic sigmoid on every other row. `H` is `rows / 4`.
    ///
    /// This is the one forward kernel of the LSTM, shared by training and
    /// inference, which is why both compute the same bits.
    #[inline(always)]
    pub fn gate_matvec(&self, x: &[f32], bias: &[f32], y: &mut [f32]) {
        assert_eq!(self.rows % 4, 0, "gate_matvec needs four gate blocks");
        assert_eq!(x.len(), self.cols, "gate_matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "gate_matvec output mismatch");
        assert_eq!(bias.len(), self.rows, "gate_matvec bias mismatch");
        self.forward(x, Some(bias), y);
        let h = self.rows / 4;
        let (i_f, g_o) = y.split_at_mut(2 * h);
        let (g, o) = g_o.split_at_mut(h);
        sigmoid_inplace(i_f);
        tanh_inplace(g);
        sigmoid_inplace(o);
    }

    /// `y = A·x (+ b)`, one panel at a time.
    #[inline(always)]
    fn forward(&self, x: &[f32], bias: Option<&[f32]>, y: &mut [f32]) {
        for (p, yp) in y.chunks_mut(PANEL).enumerate() {
            let top = p * PANEL;
            let w = &self.data[self.panel(top, yp.len())];
            let b = bias.map(|b| &b[top..top + yp.len()]);
            by_height!(yp.len(), panel_dot(w, x, b, yp));
        }
    }

    /// `y += Aᵀ·x` (x length `rows`, y length `cols`). Used to propagate
    /// gradients back through a layer. Each `y[c]` accumulates the rows in
    /// order, skipping rows whose `x` is zero.
    pub fn matvec_t_add(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t output mismatch");
        for (p, xp) in x.chunks(PANEL).enumerate() {
            let w = &self.data[self.panel(p * PANEL, xp.len())];
            by_height!(xp.len(), panel_t_add(w, xp, y));
        }
    }

    /// Rank-1 update `A += u·vᵀ` (u length `rows`, v length `cols`). Used
    /// to accumulate weight gradients; rows whose `u` is zero are skipped.
    pub fn rank1_add(&mut self, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows);
        assert_eq!(v.len(), self.cols);
        for (p, up) in u.chunks(PANEL).enumerate() {
            let range = self.panel(p * PANEL, up.len());
            by_height!(up.len(), panel_rank1(&mut self.data[range], up, v));
        }
    }

    /// Sets every element to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of squares of all elements (for clipping).
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }
}

/// `y = W·x (+ b)` for one panel of `H` rows, column-interleaved in `w`, in
/// the row-major summation order the module docs describe: every step is
/// one vertical operation across the `H` rows.
#[inline(always)]
fn panel_dot<const H: usize>(w: &[f32], x: &[f32], bias: Option<&[f32]>, y: &mut [f32]) {
    let split = x.len() - x.len() % LANES;
    let (w_main, w_tail) = w.split_at(split * H);
    let (x_main, x_tail) = x.split_at(split);
    // Fixed-size views: `LANES` columns of `H` rows at a time, then one
    // column at a time.
    let w_main = w_main.as_chunks::<H>().0.as_chunks::<LANES>().0;
    let x_main = x_main.as_chunks::<LANES>().0;
    let w_tail = w_tail.as_chunks::<H>().0;
    let mut acc = [[0.0f32; H]; LANES];
    for (wc, xc) in w_main.iter().zip(x_main) {
        // Lane by lane, written out: as a loop it stays rolled once this is
        // inlined deep in a caller's loops (the AVX2 clone of
        // `MicroNet::predict`), and the accumulators go to the stack.
        let [a0, a1, a2, a3, a4, a5, a6, a7] = &mut acc;
        axpy(a0, &wc[0], xc[0]);
        axpy(a1, &wc[1], xc[1]);
        axpy(a2, &wc[2], xc[2]);
        axpy(a3, &wc[3], xc[3]);
        axpy(a4, &wc[4], xc[4]);
        axpy(a5, &wc[5], xc[5]);
        axpy(a6, &wc[6], xc[6]);
        axpy(a7, &wc[7], xc[7]);
    }
    let mut tail = [0.0f32; H];
    for (wk, &xk) in w_tail.iter().zip(x_tail) {
        axpy(&mut tail, wk, xk);
    }
    // `acc.iter().sum()` folds from -0.0, the identity of `+`, so starting
    // from lane 0 is the same sum.
    let mut sum = acc[0];
    for lane in &acc[1..] {
        for (s, &a) in sum.iter_mut().zip(lane) {
            *s += a;
        }
    }
    for ((yv, &s), &t) in y.iter_mut().zip(&sum).zip(&tail) {
        *yv = s + t;
    }
    if let Some(b) = bias {
        for (yv, &bv) in y.iter_mut().zip(b) {
            *yv += bv;
        }
    }
}

/// `a += w·x` down one column of a panel: one vertical operation.
#[inline(always)]
fn axpy<const H: usize>(a: &mut [f32; H], w: &[f32; H], x: f32) {
    for (a, &w) in a.iter_mut().zip(w) {
        *a += w * x;
    }
}

/// `y += Wᵀ·x` for one panel of `H` rows: row by row, so every column adds
/// the rows in order; each row is a stride-`H` walk over the columns,
/// skipped when its `x` is zero.
#[inline(always)]
fn panel_t_add<const H: usize>(w: &[f32], x: &[f32], y: &mut [f32]) {
    for (i, &xr) in x.iter().enumerate() {
        if xr != 0.0 {
            for (yc, wc) in y.iter_mut().zip(w.chunks_exact(H)) {
                *yc += xr * wc[i];
            }
        }
    }
}

/// `W += u·vᵀ` for one panel of `H` rows, row by row like
/// [`panel_t_add`], rows whose `u` is zero skipped.
#[inline(always)]
fn panel_rank1<const H: usize>(w: &mut [f32], u: &[f32], v: &[f32]) {
    for (i, &ur) in u.iter().enumerate() {
        if ur != 0.0 {
            for (wc, &vc) in w.chunks_exact_mut(H).zip(v) {
                wc[i] += ur * vc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{sigmoid, tanh};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const ROWS: [usize; 6] = [1, 3, 4, 5, 12, 128];
    const COLS: [usize; 6] = [1, 7, 8, 9, 46, 64];

    /// A matrix with a spread of magnitudes and signs, so any change in
    /// summation order shows in the low bits.
    fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-3..3))
        })
    }

    fn vector(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                // Every fifth entry is zero: the transposed and rank-1
                // kernels skip those rows.
                if i % 5 == 2 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect()
    }

    /// The row-major reference: eight lane accumulators, lane sum, tail,
    /// bias — the order the panel kernel must keep.
    fn reference_matvec(a: &Matrix, x: &[f32], bias: Option<&[f32]>) -> Vec<f32> {
        (0..a.rows())
            .map(|r| {
                let row: Vec<f32> = (0..a.cols()).map(|c| a.get(r, c)).collect();
                let mut acc = [0.0f32; 8];
                let mut rc = row.chunks_exact(8);
                let mut xc = x.chunks_exact(8);
                for (rw, xw) in (&mut rc).zip(&mut xc) {
                    for k in 0..8 {
                        acc[k] += rw[k] * xw[k];
                    }
                }
                let mut tail = 0.0f32;
                for (a, b) in rc.remainder().iter().zip(xc.remainder()) {
                    tail += a * b;
                }
                let y = acc.iter().sum::<f32>() + tail;
                bias.map_or(y, |b| y + b[r])
            })
            .collect()
    }

    #[test]
    fn matvec_known_values() {
        // A = [[1,2],[3,4],[5,6]], x = [1, -1]
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f32);
        let mut y = vec![0.0; 3];
        a.matvec(&[1.0, -1.0], &mut y);
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn get_set_from_fn_keep_row_column_meaning() {
        for rows in ROWS {
            for cols in COLS {
                let mut a = Matrix::from_fn(rows, cols, |r, c| (r * 1000 + c) as f32);
                assert_eq!(a.data().len(), rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(a.get(r, c), (r * 1000 + c) as f32);
                    }
                }
                a.set(rows - 1, cols - 1, -1.0);
                assert_eq!(a.get(rows - 1, cols - 1), -1.0);
                let mut seen = a.data().to_vec();
                seen.sort_by(f32::total_cmp);
                seen.dedup();
                assert_eq!(seen.len(), rows * cols, "every cell has its own slot");
            }
        }
    }

    #[test]
    fn panel_kernels_match_row_major_reference_bit_for_bit() {
        for rows in ROWS {
            for cols in COLS {
                let seed = (rows * 100 + cols) as u64;
                let a = sample(rows, cols, seed);
                let x = vector(cols, seed + 1);
                let bias = vector(rows, seed + 2);

                let mut y = vec![0.0f32; rows];
                a.matvec(&x, &mut y);
                assert_eq!(y, reference_matvec(&a, &x, None), "matvec {rows}x{cols}");

                // Gate kernel (four gate blocks only): reference
                // pre-activation, then per-row activation with tanh on the
                // third block.
                if rows % 4 == 0 {
                    let band = rows / 2..3 * rows / 4;
                    let want: Vec<f32> = reference_matvec(&a, &x, Some(&bias))
                        .into_iter()
                        .enumerate()
                        .map(|(r, z)| {
                            if band.contains(&r) {
                                tanh(z)
                            } else {
                                sigmoid(z)
                            }
                        })
                        .collect();
                    a.gate_matvec(&x, &bias, &mut y);
                    assert_eq!(y, want, "gate_matvec {rows}x{cols}");
                }

                // Transposed product: rows in order into each column,
                // zero rows skipped.
                let u = vector(rows, seed + 3);
                let start = vector(cols, seed + 4);
                let mut want = start.clone();
                for (r, &ur) in u.iter().enumerate() {
                    if ur != 0.0 {
                        for (c, w) in want.iter_mut().enumerate() {
                            *w += ur * a.get(r, c);
                        }
                    }
                }
                let mut got = start;
                a.matvec_t_add(&u, &mut got);
                assert_eq!(got, want, "matvec_t_add {rows}x{cols}");

                // Rank-1 update, elementwise.
                let mut b = a.clone();
                b.rank1_add(&u, &x);
                for (r, &ur) in u.iter().enumerate() {
                    for (c, &xc) in x.iter().enumerate() {
                        let want = if ur != 0.0 {
                            a.get(r, c) + ur * xc
                        } else {
                            a.get(r, c)
                        };
                        assert_eq!(b.get(r, c).to_bits(), want.to_bits(), "rank1 ({r},{c})");
                    }
                }
            }
        }
    }

    /// The forward kernels' output on one input set, in one vector, so
    /// the portable build and the AVX2 build of the same source can be
    /// compared.
    #[inline(always)]
    fn forward_outputs(a: &Matrix, x: &[f32], bias: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; a.rows()];
        a.matvec(x, &mut out);
        if a.rows().is_multiple_of(4) {
            let mut y = vec![0.0f32; a.rows()];
            a.gate_matvec(x, bias, &mut y);
            out.extend(y);
        }
        out
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn forward_outputs_avx2(a: &Matrix, x: &[f32], bias: &[f32]) -> Vec<f32> {
        forward_outputs(a, x, bias)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_build_of_the_forward_kernels_gives_the_portable_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this CPU has no AVX2");
            return;
        }
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for rows in ROWS {
            for cols in COLS {
                let seed = (rows * 100 + cols) as u64;
                let a = sample(rows, cols, seed);
                let x = vector(cols, seed + 1);
                let bias = vector(rows, seed + 2);
                let narrow = forward_outputs(&a, &x, &bias);
                // SAFETY: the CPU has AVX2, checked at the top.
                let wide = unsafe { forward_outputs_avx2(&a, &x, &bias) };
                assert_eq!(bits(wide), bits(narrow), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn gate_matvec_matches_unfused_pipeline() {
        let mut rng = SmallRng::seed_from_u64(11);
        let a = Matrix::xavier(12, 9, &mut rng);
        let x: Vec<f32> = (0..9).map(|i| ((i as f32) * 0.3).sin()).collect();
        let bias: Vec<f32> = (0..12).map(|i| (i as f32) * 0.05 - 0.3).collect();

        // Reference: matvec, then bias, then per-row activation.
        let mut want = vec![0.0f32; 12];
        a.matvec(&x, &mut want);
        for (v, &b) in want.iter_mut().zip(bias.iter()) {
            *v += b;
        }
        // H = 3: tanh on the g block, rows 6..9.
        for (r, v) in want.iter_mut().enumerate() {
            *v = if (6..9).contains(&r) {
                tanh(*v)
            } else {
                sigmoid(*v)
            };
        }

        let mut got = vec![0.0f32; 12];
        a.gate_matvec(&x, &bias, &mut got);
        assert_eq!(got, want, "fused kernel must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "four gate blocks")]
    fn gate_matvec_refuses_rows_that_are_not_four_blocks() {
        let a = Matrix::zeros(10, 3);
        a.gate_matvec(&[0.0; 3], &[0.0; 10], &mut [0.0; 10]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f32);
        let mut y = vec![0.0; 2];
        a.matvec_t_add(&[1.0, 0.0, -1.0], &mut y);
        // Aᵀ = [[1,3,5],[2,4,6]] · [1,0,-1] = [-4, -4]
        assert_eq!(y, vec![-4.0, -4.0]);
    }

    #[test]
    fn rank1_matches_manual() {
        let mut a = Matrix::zeros(2, 3);
        a.rank1_add(&[1.0, 2.0], &[10.0, 20.0, 30.0]);
        let rows: Vec<Vec<f32>> = (0..2)
            .map(|r| (0..3).map(|c| a.get(r, c)).collect())
            .collect();
        assert_eq!(rows, vec![vec![10.0, 20.0, 30.0], vec![20.0, 40.0, 60.0]]);
    }

    #[test]
    fn xavier_respects_bound_and_seed() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = Matrix::xavier(64, 64, &mut rng);
        let bound = (6.0 / 128.0f64).sqrt() as f32;
        assert!(a.data().iter().all(|v| v.abs() <= bound));
        let mut rng2 = SmallRng::seed_from_u64(7);
        let b = Matrix::xavier(64, 64, &mut rng2);
        assert_eq!(a, b, "same seed, same init");
    }

    #[test]
    fn xavier_draws_in_row_major_order() {
        // What the row-major layout drew for each (r, c): one draw per
        // cell, rows outer.
        for (rows, cols) in [(5, 7), (12, 9), (128, 46)] {
            let mut rng = SmallRng::seed_from_u64(rows as u64);
            let a = Matrix::xavier(rows, cols, &mut rng);
            let bound = (6.0 / (rows + cols) as f64).sqrt() as f32;
            let mut rng = SmallRng::seed_from_u64(rows as u64);
            let draws: Vec<f32> = (0..rows * cols)
                .map(|_| rng.gen_range(-bound..bound))
                .collect();
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(a.get(r, c), draws[r * cols + c], "({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let json = serde_json::to_string(&a).unwrap();
        let b: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.get(4, 2), 14.0);
    }

    #[test]
    fn sq_norm() {
        let a = Matrix::from_fn(1, 3, |_, c| (c + 1) as f32);
        assert!((a.sq_norm() - 14.0).abs() < 1e-9);
    }
}
