//! Counting-allocator audit of the GEMM packing panels: a small `gemm`
//! must allocate panels sized to its operands, not to the blocking
//! constants. A full-size `KC × NC` B panel is 4 MiB, and zero-filling it
//! on every call once cost more than the arithmetic of the learner's
//! convolution GEMMs.
//!
//! The counter is thread-local and counts requested bytes, so the harness
//! and any sibling threads cannot pollute the measurement; inputs are
//! seeded and the measured calls therefore deterministic.

use rlnoc_nn::kernels::gemm;
use rlnoc_nn::{PolicyValueConfig, PolicyValueNet, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting bytes requested by *this* thread.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; the counter is a thread-local integer
// that never touches memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.with(|c| c.set(c.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes allocated by the current thread while running `f`.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_BYTES.with(|c| c.get());
    let result = f();
    let after = ALLOC_BYTES.with(|c| c.get());
    (after - before, result)
}

/// Deterministic operand values in `[-1, 1)`.
fn values(len: usize, seed: u32) -> Vec<f32> {
    (0..len as u32)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(2_654_435_761);
            (h >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

/// Batch-1 `small(4)` forward: 1 049 432 bytes measured when the bound was
/// set (43 862 968 with full-size panels, ten GEMMs at about 4.2 MiB each).
/// The bound leaves a 24% margin for incidental changes to the layers' own
/// tensors; a single full-size B panel (4 MiB) would trip it.
const SMALL4_FORWARD_BOUND: u64 = 1_300_000;

/// One test function on purpose: it is the only test in this binary, so
/// no sibling test thread runs while a window is counted.
#[test]
fn small_gemms_allocate_right_sized_panels() {
    // Force thread-local slot initialisation outside the counted windows.
    ALLOC_BYTES.with(|c| c.get());

    // The 4×4 residual convolution's forward GEMM: W[8, 72] × col[72, 256].
    let (m, k, n) = (8, 72, 256);
    let a = values(m * k, 1);
    let b = values(k * n, 2);
    let mut c = vec![0.0f32; m * n];
    gemm(false, false, m, k, n, &a, &b, &mut c);
    let (bytes, ()) = bytes_during(|| gemm(false, false, m, k, n, &a, &b, &mut c));
    assert!(
        bytes < 128 * 1024,
        "warm 8x72x256 gemm allocated {bytes} bytes; its panels need 76 032"
    );

    let mut net = PolicyValueNet::new(PolicyValueConfig::small(4), 7);
    let state = Tensor::from_vec(values(16 * 16, 3), &[1, 1, 16, 16]).unwrap();
    net.forward(&state, false);
    let (bytes, out) = bytes_during(|| net.forward(&state, false));
    assert!(out.value.as_slice()[0].is_finite());
    assert!(
        bytes < SMALL4_FORWARD_BOUND,
        "batch-1 small(4) forward allocated {bytes} bytes (bound {SMALL4_FORWARD_BOUND})"
    );
}
