//! A fixed calibration loop, so results from different machines can be
//! normalised later. It rescales nothing the benchmark gates. Also the
//! benchmark's one pseudo-random generator, which the loop, the hold-model
//! probe and the variant seeds share.

use std::time::Instant;

/// The splitmix64 output function: a bijective mix of `z`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The golden-ratio increment of splitmix64.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    mix64(*state)
}

const N: usize = 64;
const ROUNDS: usize = 20_000;

/// Seconds this machine takes for a fixed splitmix64 + 64×64 `f32` matvec
/// loop: integer mixing and dense float arithmetic, the two things the
/// simulator's hot paths are made of.
pub fn calib_s() -> f64 {
    let mut state = 0x00C0_FFEE_u64;
    let mut next = || splitmix64(&mut state);
    let unit = |bits: u64| (bits >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
    let matrix: Vec<f32> = (0..N * N).map(|_| unit(next())).collect();
    let mut x: Vec<f32> = (0..N).map(|_| unit(next())).collect();
    let mut y = vec![0.0f32; N];
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for (row, out) in matrix.chunks_exact(N).zip(y.iter_mut()) {
            *out = row.iter().zip(&x).map(|(a, b)| a * b).sum::<f32>().tanh();
        }
        // Feed the result back, perturbed, so no round can be hoisted.
        let kick = unit(next());
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi + kick;
        }
    }
    std::hint::black_box(&x);
    t0.elapsed().as_secs_f64()
}
