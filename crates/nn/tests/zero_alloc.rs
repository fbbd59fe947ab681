//! Zero-allocation regression harness for the inference fast path.
//!
//! The deployed oracle calls [`MicroNet::predict`] once per boundary
//! packet; any heap traffic there multiplies by hundreds of thousands of
//! verdicts per run. This test installs a counting wrapper around the
//! system allocator and asserts that, after a short warmup (during which
//! the serde-skipped scratch buffers size themselves), steady-state
//! inference performs exactly zero allocations. It calls the public,
//! runtime-dispatched `predict`, so on a CPU with AVX2 it counts the AVX2
//! clone the oracle serves from.
//!
//! Everything runs inside one `#[test]` so the global counter never races
//! with a concurrently scheduled test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use elephant_nn::{MicroNet, MicroNetConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn feature(i: usize, d: usize) -> f32 {
    (((i * 31 + d * 7) % 97) as f32 / 97.0).clamp(0.0, 1.0)
}

/// Runs `steps` predictions and returns how many allocations they cost.
fn predict_allocs(net: &MicroNet, state: &mut elephant_nn::MicroNetState, steps: usize) -> u64 {
    let mut x = [0.0f32; 14];
    let before = allocations();
    let mut acc = 0.0f32;
    for i in 0..steps {
        for (d, v) in x.iter_mut().enumerate() {
            *v = feature(i, d);
        }
        let pred = net.predict(&x, state);
        acc += pred.drop_prob + pred.latency;
    }
    assert!(acc.is_finite(), "predictions stay finite");
    allocations() - before
}

#[test]
fn steady_state_inference_is_allocation_free() {
    let net = MicroNet::new(
        MicroNetConfig::compact(14),
        &mut SmallRng::seed_from_u64(42),
    );
    let mut state = net.init_state();
    // Warmup: scratch buffers grow to their steady-state sizes.
    let warmup = predict_allocs(&net, &mut state, 8);
    // Steady state: the fast path must not touch the heap at all. The
    // counter is process-global, so the libtest harness thread can
    // sporadically contribute a few counts; take the minimum over several
    // rounds — a hot path that truly allocates (even once per thousands of
    // calls) can never produce a zero round.
    let steady = (0..5)
        .map(|_| predict_allocs(&net, &mut state, 10_000))
        .min()
        .unwrap();
    assert_eq!(
        steady, 0,
        "{steady} allocations in the best of five 10k-prediction rounds \
         (warmup cost {warmup})"
    );
}
