//! Reusable buffer arena for allocation-free streaming inference.
//!
//! The accelerator owns a fixed set of on-chip buffers and streams every
//! image through them; the software golden model historically allocated
//! fresh tensors per layer per image. A [`Scratch`] holds the software
//! analogue of that fixed buffer set — the plan's dense activation slots
//! and a ping-pong pair of FC vectors (the one place a network's
//! activations live on the host, whether the golden model or the
//! accelerator driver walks the plan), plus the kernels' working set: the
//! GEMM workspace (a conv layer's input decoded into a zero-bordered plane
//! and the patch matrix lowered from it, or the decoded input of an FC
//! layer) — and every `_into` operator reshapes them in place instead of
//! allocating.
//!
//! # Lifetime rules
//!
//! * A `Scratch` belongs to one thread; the batch engine keeps one per
//!   worker. It may be shared across *networks* — buffers only ever grow.
//! * Buffers grow lazily: the **first** image through a given network
//!   warms the arena (and the per-layer weight caches); every subsequent
//!   image runs with **zero heap allocations**, asserted by a
//!   counting-allocator test (`tests/alloc_free.rs`).
//! * The slice returned by
//!   [`QuantizedNetwork::forward_quant_scratch`](crate::model::QuantizedNetwork::forward_quant_scratch)
//!   borrows the arena — copy it out before running the next image.
//!
//! See `docs/KERNELS.md` for how this composes with the SIMD kernel tiers.

use crate::gemm::GemmScratch;
use crate::par::ConvPool;
use crate::simd::{self, KernelTier};
use std::sync::Arc;
use zskip_quant::Sm8;
use zskip_tensor::Tensor;

/// Reusable buffers for the quantized forward pass, plus the kernel tier
/// the pass should run with.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Plan-addressed activation slots for the quantized plan walk.
    /// A linear chain uses two (the classic ping-pong degenerates to the
    /// plan's two-slot assignment); a residual block briefly needs a
    /// third to hold the skip-branch activation alive across the branch
    /// body. Grown by [`Scratch::ensure_slots`].
    pub(crate) slots: Vec<Tensor<Sm8>>,
    /// The `i64` plane [`Scratch::pass_buffers_pool`] lends out for the
    /// two-phase add (`add_quant_phase1/2`, the join's oracle). The plan
    /// walk's fused join needs no plane, so this stays empty unless a
    /// stand-alone caller uses it.
    pub(crate) acc: Vec<i64>,
    /// Lowered patch matrix of the output-stationary GEMM (every conv
    /// and FC layer).
    pub(crate) gemm: GemmScratch,
    /// Ping-pong FC activation vectors.
    pub(crate) flat: [Vec<Sm8>; 2],
    tier: KernelTier,
    pub(crate) grow_events: u64,
    /// Intra-image worker pool. `None` (the default) is the
    /// single-threaded path; [`Scratch::set_threads`] attaches a pool so
    /// conv layers split their output channels across cores. Cloned
    /// arenas share the pool handle (`ConvPool::run` serializes
    /// concurrent jobs), but an arena still belongs to one thread.
    pub(crate) pool: Option<Arc<ConvPool>>,
}

impl Scratch {
    /// An empty arena using the process-wide dispatched kernel tier
    /// ([`simd::dispatch`]); buffers grow on first use.
    pub fn new() -> Self {
        Self::with_tier(simd::dispatch())
    }

    /// An empty arena pinned to an explicit kernel tier (benchmarks and
    /// tier-equivalence tests).
    pub fn with_tier(tier: KernelTier) -> Self {
        Scratch {
            slots: Vec::new(),
            acc: Vec::new(),
            gemm: GemmScratch::default(),
            flat: [Vec::new(), Vec::new()],
            tier,
            grow_events: 0,
            pool: None,
        }
    }

    /// Attaches (or detaches) the intra-image worker pool. `threads <= 1`
    /// drops the pool (single-threaded conv); larger values spawn
    /// `threads - 1` persistent workers. A no-op when the arena already
    /// has the requested width, so the driver can call this per image —
    /// pool construction is a warmup cost, like the first buffer growth.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if self.threads() == threads {
            return;
        }
        self.pool = if threads > 1 { Some(Arc::new(ConvPool::new(threads))) } else { None };
    }

    /// The intra-image worker count (1 = no pool, the default).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// The attached worker pool, if any.
    pub fn pool(&self) -> Option<&ConvPool> {
        self.pool.as_deref()
    }

    /// The kernel tier forward passes through this arena use.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Re-pins the arena's kernel tier (clamped to what the host
    /// supports). Buffers are tier-agnostic, so this is safe on a warmed
    /// arena; the driver calls it per image so a session's configured
    /// tier wins over whatever the arena was created with.
    pub fn set_tier(&mut self, tier: KernelTier) {
        self.tier = if tier.is_supported() { tier } else { KernelTier::best_supported() };
    }

    /// Total bytes currently reserved by the arena's buffers.
    pub fn capacity_bytes(&self) -> usize {
        self.slots.iter().map(|t| t.capacity()).sum::<usize>()
            + self.acc.capacity() * std::mem::size_of::<i64>()
            + self.gemm.capacity_bytes()
            + self.flat.iter().map(|v| v.capacity()).sum::<usize>()
    }

    /// Ensures the arena holds at least `n` activation slots (an
    /// [`crate::plan::ExecPlan`]'s concurrent-slot count). Slots only
    /// ever accumulate, so an arena shared across networks keeps the
    /// widest plan's pool.
    pub fn ensure_slots(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(Tensor::zeros(1, 1, 1));
        }
    }

    /// Number of forward passes that grew at least one buffer. Stays at 1
    /// for a warmed arena streaming same-shaped images — surfaced by
    /// `zskip analyze` as the steady-state allocation indicator.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Two activation tensors (the first two plan slots), the two-phase
    /// add's `i64` plane, the kernel tier and the attached worker pool:
    /// what a stand-alone kernel call computes with. Must not interleave
    /// with a plan walk on the same arena (it never does — an arena
    /// belongs to one session).
    #[allow(clippy::type_complexity)]
    pub fn pass_buffers_pool(
        &mut self,
    ) -> (&mut Tensor<Sm8>, &mut Tensor<Sm8>, &mut Vec<i64>, KernelTier, Option<&ConvPool>) {
        self.ensure_slots(2);
        let (a, b) = self.slots.split_at_mut(1);
        (&mut a[0], &mut b[0], &mut self.acc, self.tier, self.pool.as_deref())
    }
}

/// The arena's kernel working set, lent to one accelerator pass beside
/// its source and destination slots: what the conv kernel computes with.
#[derive(Debug)]
pub struct KernelBuffers<'a> {
    /// The GEMM's lowered patch matrix.
    pub gemm: &'a mut GemmScratch,
    /// The kernel tier to compute with.
    pub tier: KernelTier,
    /// The intra-image worker pool, when one is attached.
    pub pool: Option<&'a ConvPool>,
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Borrows slot `src` immutably and slot `dst` mutably. The execution
/// plan guarantees a step's output slot never aliases a live input slot.
///
/// # Panics
/// Panics if `src == dst`.
pub(crate) fn slot_pair<T>(v: &mut [T], src: usize, dst: usize) -> (&T, &mut T) {
    assert_ne!(src, dst, "a step never writes over the slot it reads");
    if src < dst {
        let (lo, hi) = v.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(src);
        (&hi[0], &mut lo[dst])
    }
}

/// Borrows slots `src` (two operands, possibly the same slot) immutably
/// and slot `dst` mutably: a join's inputs and output. The execution plan
/// guarantees a join's output slot is neither of its operands.
///
/// # Panics
/// Panics if `dst` is one of `src`.
pub(crate) fn slot_join<T>(v: &mut [T], src: [usize; 2], dst: usize) -> (&T, &T, &mut T) {
    assert!(!src.contains(&dst), "a join never writes over a slot it reads");
    let (lo, rest) = v.split_at_mut(dst);
    let (out, hi) = rest.split_first_mut().expect("the output is a slot");
    let (lo, hi): (&[T], &[T]) = (lo, hi);
    let [a, b] = src.map(|i| if i < dst { &lo[i] } else { &hi[i - dst - 1] });
    (a, b, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_join_lends_both_operands_beside_the_output() {
        let mut v = [10, 11, 12, 13];
        for (src, dst) in [([0, 3], 1), ([3, 0], 2), ([2, 2], 0), ([0, 1], 3)] {
            let (a, b, out) = slot_join(&mut v, src, dst);
            assert_eq!((*a, *b), (10 + src[0], 10 + src[1]));
            *out += 100;
            assert_eq!(v[dst], 110 + dst);
            v[dst] -= 100;
        }
    }

    #[test]
    #[should_panic(expected = "never writes over")]
    fn slot_join_refuses_an_output_that_is_an_operand() {
        let _ = slot_join(&mut [0, 1, 2], [2, 1], 1);
    }

    #[test]
    fn new_arena_is_empty_and_uses_dispatch_tier() {
        let s = Scratch::new();
        assert_eq!(s.tier(), simd::dispatch());
        assert_eq!(s.grow_events(), 0);
        // The 1x1x1 placeholder tensor may reserve a few bytes; nothing else.
        assert!(s.capacity_bytes() <= 16);
    }

    #[test]
    fn with_tier_pins_the_tier() {
        let mut s = Scratch::with_tier(KernelTier::Scalar);
        assert_eq!(s.tier(), KernelTier::Scalar);
        // Re-pinning an existing arena works and clamps to host support.
        let best = KernelTier::best_supported();
        s.set_tier(best);
        assert_eq!(s.tier(), best);
        s.set_tier(KernelTier::Avx512);
        assert!(s.tier().is_supported());
    }

    #[test]
    fn set_threads_attaches_and_detaches_the_pool() {
        let mut s = Scratch::new();
        assert_eq!(s.threads(), 1);
        assert!(s.pool().is_none());
        s.set_threads(3);
        assert_eq!(s.threads(), 3);
        assert!(s.pool().is_some());
        // Same width: no-op, pool identity preserved (no respawn).
        let before = s.pool().map(|p| p as *const _);
        s.set_threads(3);
        assert_eq!(s.pool().map(|p| p as *const _), before);
        s.set_threads(1);
        assert_eq!(s.threads(), 1);
        assert!(s.pool().is_none());
        s.set_threads(0); // clamps to 1
        assert_eq!(s.threads(), 1);
    }
}
