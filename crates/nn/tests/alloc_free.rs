//! Counting-allocator proof of the scratch arena's zero-allocation
//! contract: after a warm-up image, a whole quantized forward pass through
//! [`zskip_nn::Scratch`] performs **zero** heap allocations.
//!
//! This lives in its own integration-test binary without the libtest
//! harness (`harness = false`, a plain `fn main`), so the only threads
//! that can allocate while the steady-state window is measured are this
//! one and the pool's workers — exactly what the count is about.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use zskip_nn::{LayerSpec, Network, NetworkSpec, Scratch, SyntheticModelConfig};
use zskip_tensor::{Shape, Tensor};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; only adds a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A 16-wide input, so that on the AVX-512 tier `c1` runs the direct
/// kernel (its quad plane and repacked weights) and `c2`, on the pooled
/// 8x8 plane, the lowering and `dot_nt` — on the AMX tier, the default
/// where the host has it, `dot_nt`'s compressed-row twin over the
/// layer's compressed weights.
fn spec() -> NetworkSpec {
    NetworkSpec {
        name: "alloc-probe".into(),
        input: Shape::new(3, 16, 16),
        layers: vec![
            LayerSpec::Conv { name: "c1".into(), in_c: 3, out_c: 8, k: 3, stride: 1, pad: 1, relu: true },
            LayerSpec::MaxPool { name: "p1".into(), k: 2, stride: 2 },
            LayerSpec::Conv { name: "c2".into(), in_c: 8, out_c: 12, k: 3, stride: 1, pad: 1, relu: true },
            LayerSpec::Fc { name: "fc1".into(), in_features: 12 * 8 * 8, out_features: 16, relu: true },
            LayerSpec::Fc { name: "fc2".into(), in_features: 16, out_features: 10, relu: false },
            LayerSpec::Softmax,
        ],
    }
}

fn main() {
    steady_state_forward_pass_allocates_nothing();
    println!("alloc_free: a warm forward pass allocates nothing, single-threaded and on 3 workers");
}

fn steady_state_forward_pass_allocates_nothing() {
    let net = Network::synthetic(spec(), &SyntheticModelConfig::default());
    let inputs: Vec<Tensor<f32>> = (0..3)
        .map(|i| Tensor::from_fn(3, 16, 16, |c, y, x| ((c * 256 + y * 16 + x + i * 7) as f32 * 0.23).sin()))
        .collect();
    let qnet = net.quantize(&inputs[..1]);

    let mut scratch = Scratch::new();
    // Warm-up: grows the arena and fills the lazy weight caches (the
    // offset bias, the direct kernel's repacked weights, the compressed
    // rows) — allowed to allocate.
    let warm = qnet.forward_quant_scratch(&inputs[0], &mut scratch).to_vec();
    assert_eq!(scratch.grow_events(), 1);

    // Steady state: two more images, zero allocations each.
    for input in &inputs[1..] {
        let before = ALLOCS.load(Ordering::Relaxed);
        let out = qnet.forward_quant_scratch(input, &mut scratch);
        let len = out.len();
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(len, warm.len());
        assert_eq!(
            after - before,
            0,
            "steady-state forward pass must not touch the heap"
        );
    }
    assert_eq!(scratch.grow_events(), 1, "arena grew after warm-up");

    // Multithreaded single-image path: attaching a 3-worker ConvPool and
    // re-warming (thread spawn + wider accumulator arena may allocate)
    // must restore a zero-allocation steady state — pooled dispatch uses
    // pre-sized per-worker accumulator slices and a lock/condvar protocol
    // that never touches the heap.
    scratch.set_threads(3);
    let mt_warm = qnet.forward_quant_scratch(&inputs[0], &mut scratch).to_vec();
    assert_eq!(mt_warm, warm, "pooled forward pass stays bit-identical");
    for input in &inputs[1..] {
        let before = ALLOCS.load(Ordering::Relaxed);
        let out = qnet.forward_quant_scratch(input, &mut scratch);
        let len = out.len();
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(len, warm.len());
        assert_eq!(
            after - before,
            0,
            "steady-state multithreaded forward pass must not touch the heap"
        );
    }
}
