//! Gate activations: the logistic sigmoid and tanh, as pure arithmetic.
//!
//! Both are one rational function — Eigen's odd 13/6 minimax fit of
//! `tanh` on `[-7.905311, 7.905311]` — evaluated in `f64` and rounded to
//! `f32` once, with `σ(x) = ½ + ½·tanh(x/2)`. Against an `f64` reference the
//! absolute error is at most 2.8e-7 for `tanh` and 1.4e-7 for `sigmoid`,
//! most of it the exact saturation past the clamp (`|1 − tanh 7.905311|` is
//! 2.7e-7). Evaluating in `f64` is what makes both monotone non-decreasing
//! over every `f32` input: in `f32` the rounding of the numerator and
//! denominator jitters by an ulp between neighbouring inputs.
//!
//! Why not libm: `expf`/`tanhf` cost 4–15 ns a call, one at a time, where
//! this is a branch-free pass the compiler vectorises over a whole gate
//! slice ([`sigmoid_inplace`], [`tanh_inplace`]); and libm's answer is the
//! host C library's (glibc picks `expf` by CPU feature at load time), while
//! IEEE `+ − × ÷` with no fused multiply-add give the same bits everywhere.
//! That includes both builds of the model's entry points: everything here
//! is `#[inline(always)]`, so the AVX2 clone of `MicroNet::predict` runs the
//! f64 fit four lanes at a time where the portable build runs two, with the
//! same bits (see the `matrix` module docs; the tests compare the builds).
//!
//! NaN in is NaN out — the guard's non-finite check depends on it — which
//! is why the clamp is a select on two comparisons, never `max`/`min`
//! (those return the non-NaN operand).

/// Past this `|x|`, `tanh x` rounds to within 2.7e-7 of ±1.
const CLAMP: f64 = 7.905_311_107_635_498;

// Numerator (odd) and denominator (even) coefficients.
const A1: f64 = 4.893_524_558_917_86e-3;
const A3: f64 = 6.372_619_288_754_36e-4;
const A5: f64 = 1.485_722_357_179_79e-5;
const A7: f64 = 5.122_297_090_371_14e-8;
const A9: f64 = -8.604_671_522_137_35e-11;
const A11: f64 = 2.000_187_904_824_77e-13;
const A13: f64 = -2.760_768_477_423_55e-16;
const B0: f64 = 4.893_525_185_543_85e-3;
const B2: f64 = 2.268_434_632_439e-3;
const B4: f64 = 1.185_347_056_866_54e-4;
const B6: f64 = 1.198_258_394_667_02e-6;

/// The rational fit of `tanh`, meaningful on `[-CLAMP, CLAMP]`; callers
/// select the saturated value past that (where this may overflow to NaN).
#[inline(always)]
fn rational(x: f64) -> f64 {
    let x2 = x * x;
    let p = x * (A1 + x2 * (A3 + x2 * (A5 + x2 * (A7 + x2 * (A9 + x2 * (A11 + x2 * A13))))));
    let q = B0 + x2 * (B2 + x2 * (B4 + x2 * B6));
    p / q
}

/// Hyperbolic tangent (see the module docs for the approximation).
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let x = f64::from(x);
    // Computed unconditionally and then selected, so a loop over a slice
    // vectorises; past the clamp the result saturates exactly, so ±∞ map
    // to ±1. A NaN fails both comparisons and keeps the fit's NaN.
    let t = rational(x);
    let t = if x > CLAMP { 1.0 } else { t };
    (if x < -CLAMP { -1.0 } else { t }) as f32
}

/// Logistic sigmoid, `½ + ½·tanh(x/2)` (see the module docs).
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let h = 0.5 * f64::from(x);
    let s = 0.5 + 0.5 * rational(h);
    let s = if h > CLAMP { 1.0 } else { s };
    (if h < -CLAMP { 0.0 } else { s }) as f32
}

/// Elementwise sigmoid over a slice.
#[inline(always)]
pub fn sigmoid_inplace(xs: &mut [f32]) {
    xs.iter_mut().for_each(|x| *x = sigmoid(*x));
}

/// Elementwise tanh over a slice.
#[inline(always)]
pub fn tanh_inplace(xs: &mut [f32]) {
    xs.iter_mut().for_each(|x| *x = tanh(*x));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `-30, -30 + 1e-4, …, 30`.
    fn grid() -> impl Iterator<Item = f32> {
        (0..=600_000).map(|i| (-30.0 + 1e-4 * i as f64) as f32)
    }

    fn sigmoid_f64(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    #[test]
    fn within_5e7_of_f64_on_a_dense_grid() {
        for x in grid() {
            let xd = f64::from(x);
            let et = (f64::from(tanh(x)) - xd.tanh()).abs();
            let es = (f64::from(sigmoid(x)) - sigmoid_f64(xd)).abs();
            assert!(et <= 5e-7, "tanh({x}) off by {et:e}");
            assert!(es <= 5e-7, "sigmoid({x}) off by {es:e}");
        }
    }

    #[test]
    fn bounded_monotone_odd_and_centred() {
        let (mut prev_t, mut prev_s) = (-1.0f32, 0.0f32);
        for x in grid() {
            let (t, s) = (tanh(x), sigmoid(x));
            assert!((-1.0..=1.0).contains(&t), "tanh({x}) = {t}");
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s}");
            assert!(t >= prev_t, "tanh falls at {x}: {prev_t} -> {t}");
            assert!(s >= prev_s, "sigmoid falls at {x}: {prev_s} -> {s}");
            assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "tanh odd at {x}");
            (prev_t, prev_s) = (t, s);
        }
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(tanh(0.0), 0.0);
    }

    #[test]
    fn monotone_across_neighbouring_floats() {
        // Neighbouring floats are where f32 rounding jitter would show
        // (an f32 evaluation of the same fit first falls at 9.6e-4).
        let windows = [
            (1e-3f32, 1.1e-3f32),
            (0.5, 0.56),
            (3.0, 3.25),
            (7.8, 8.0),
            (15.7, 15.9),
        ];
        for (lo, hi) in windows {
            let (mut prev_t, mut prev_s) = (tanh(lo), sigmoid(lo));
            for bits in lo.to_bits() + 1..=hi.to_bits() {
                let x = f32::from_bits(bits);
                let (t, s) = (tanh(x), sigmoid(x));
                assert!(t >= prev_t && s >= prev_s, "falls at {x}");
                (prev_t, prev_s) = (t, s);
            }
        }
    }

    #[test]
    fn infinities_saturate_and_nan_propagates() {
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
        assert_eq!(sigmoid(f32::MAX), 1.0);
        assert_eq!(sigmoid(f32::MIN), 0.0);
        // The guard's non-finite check relies on NaN surviving.
        assert!(tanh(f32::NAN).is_nan());
        assert!(sigmoid(f32::NAN).is_nan());
        let mut xs = [f32::NAN, 0.0, f32::NAN];
        sigmoid_inplace(&mut xs);
        assert!(xs[0].is_nan() && xs[1] == 0.5 && xs[2].is_nan());
        let mut xs = [1.0, f32::NAN];
        tanh_inplace(&mut xs);
        assert!(xs[1].is_nan());
    }

    #[test]
    fn slice_passes_equal_the_scalar_functions() {
        let xs: Vec<f32> = grid().step_by(997).collect();
        let mut s = xs.clone();
        let mut t = xs.clone();
        sigmoid_inplace(&mut s);
        tanh_inplace(&mut t);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(s[i].to_bits(), sigmoid(x).to_bits());
            assert_eq!(t[i].to_bits(), tanh(x).to_bits());
        }
    }

    /// Both slice passes over `xs`.
    #[inline(always)]
    fn slice_outputs(xs: &[f32]) -> Vec<f32> {
        let (mut s, mut t) = (xs.to_vec(), xs.to_vec());
        sigmoid_inplace(&mut s);
        tanh_inplace(&mut t);
        s.extend(t);
        s
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn slice_outputs_avx2(xs: &[f32]) -> Vec<f32> {
        slice_outputs(xs)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_build_gives_the_portable_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this CPU has no AVX2");
            return;
        }
        // The grid, the specials, and the floats either side of the clamp
        // (`tanh` clamps at `CLAMP`, `sigmoid` at `2·CLAMP`).
        let mut xs: Vec<f32> = grid().collect();
        xs.extend([
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ]);
        for edge in [CLAMP as f32, (2.0 * CLAMP) as f32] {
            for bits in edge.to_bits() - 4..=edge.to_bits() + 4 {
                let x = f32::from_bits(bits);
                xs.extend([x, -x]);
            }
        }
        let narrow = slice_outputs(&xs);
        // SAFETY: the CPU has AVX2, checked at the top.
        let wide = unsafe { slice_outputs_avx2(&xs) };
        for (i, (w, n)) in wide.iter().zip(&narrow).enumerate() {
            // A NaN stays a NaN; its payload is not part of the contract.
            let same = w.to_bits() == n.to_bits() || (w.is_nan() && n.is_nan());
            assert!(same, "input {}: {w} vs {n}", xs[i % xs.len()]);
        }
    }

    /// The output bits over a fixed input list, pinned: any host, libm or
    /// compiler that computed a different bit would change the digest.
    #[test]
    fn golden_digest_pins_the_output_bits() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |v: f32| {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in 0..4_096u32 {
            // A spread over ±40, denser near zero, plus the extremes.
            let x = (i as f32 - 2_048.0) / 2_048.0;
            for x in [x * 40.0, x * x * x * 10.0, x * 1e-3] {
                feed(tanh(x));
                feed(sigmoid(x));
            }
        }
        for x in [f32::MIN_POSITIVE, f32::MAX, f32::MIN, f32::INFINITY] {
            feed(tanh(x));
            feed(sigmoid(x));
        }
        assert_eq!(
            h, 0x06fe_f7ba_6ab7_c466,
            "activation digest moved: {h:#018x}"
        );
    }
}
