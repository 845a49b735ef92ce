//! Deterministic fault injection for the simulated SoC.
//!
//! A producer/consumer network of streaming kernels lives or dies by how
//! it handles back-pressure and transfer errors: a single stalled FIFO,
//! truncated DMA burst, or dropped Avalon response can wedge the whole
//! System-I/System-II pipeline. This crate provides the *plan* side of a
//! fault-injection subsystem: a seedable, fully deterministic schedule of
//! faults at named sites, shared by reference with every instrumented
//! component (`zskip-sim`'s engine, `zskip-soc`'s DMA/bus/CSR models, and
//! `zskip-core`'s driver).
//!
//! # Sites
//!
//! A site is a string naming one injection point:
//!
//! | site                 | trigger unit  | kinds |
//! |----------------------|---------------|-------|
//! | `fifo:<name>:push`   | engine cycle  | [`FaultKind::FifoStall`] |
//! | `fifo:<name>:pop`    | engine cycle  | [`FaultKind::FifoStall`] |
//! | `dma:xfer`           | nth descriptor| [`FaultKind::DmaTruncate`], [`FaultKind::DmaCorrupt`] |
//! | `avalon:read`        | nth bus read  | [`FaultKind::BusTimeout`] |
//! | `avalon:write`       | nth bus write | [`FaultKind::BusTimeout`] |
//! | `csr:status`         | nth status read | [`FaultKind::CsrBitFlip`] |
//! | `accel:quiesce`      | first check   | [`FaultKind::Hang`] |
//!
//! Each injection fires exactly once, at the first event whose ordinal
//! (cycle number or per-site event count) reaches its trigger point, and
//! is recorded in the plan's fired log so campaigns can report which
//! faults actually landed.

use std::fmt;
use std::sync::{Arc, Mutex};

/// What kind of fault to inject at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Refuse pushes (or pops, by site suffix) on a FIFO for `cycles`
    /// cycles. `u64::MAX` wedges the FIFO permanently — the
    /// non-quiescence fault that must surface as a deadlock report.
    FifoStall {
        /// Stall duration in cycles.
        cycles: u64,
    },
    /// Stop a DMA transfer after `tiles` tile words (descriptor
    /// completion-count mismatch).
    DmaTruncate {
        /// Tile words actually moved before the fault.
        tiles: usize,
    },
    /// XOR one transferred byte with `xor` (detected by the modeled bus
    /// parity check, which the real System I bus carries per beat).
    DmaCorrupt {
        /// Bit pattern XORed into the first byte of the transfer.
        xor: u8,
    },
    /// Drop an Avalon response: the master sees a bus timeout.
    BusTimeout,
    /// Flip bit `bit` of a CSR read response (single-event upset).
    CsrBitFlip {
        /// Bit index to flip (0-31).
        bit: u8,
    },
    /// The device never reaches quiescence (DONE is never raised).
    Hang,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::FifoStall { cycles: u64::MAX } => write!(f, "fifo-stall(forever)"),
            FaultKind::FifoStall { cycles } => write!(f, "fifo-stall({cycles})"),
            FaultKind::DmaTruncate { tiles } => write!(f, "dma-truncate({tiles})"),
            FaultKind::DmaCorrupt { xor } => write!(f, "dma-corrupt({xor:#04x})"),
            FaultKind::BusTimeout => write!(f, "bus-timeout"),
            FaultKind::CsrBitFlip { bit } => write!(f, "csr-bit-flip({bit})"),
            FaultKind::Hang => write!(f, "hang"),
        }
    }
}

/// One scheduled fault: `kind` fires at site `site` once the site's
/// event ordinal reaches `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Site name (see the crate docs for the naming scheme).
    pub site: String,
    /// Trigger ordinal: engine cycle for `fifo:` sites, per-site event
    /// count (0-based) for everything else.
    pub at: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A fault that fired, as recorded in the plan's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Site the fault fired at.
    pub site: String,
    /// Ordinal at which it actually fired.
    pub at: u64,
    /// The injected kind.
    pub kind: FaultKind,
}

/// Failure surfaced by the fault layer itself rather than a
/// domain-specific model error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The device never quiesced within the wait budget.
    Unresponsive {
        /// Polls (or cycles) waited before giving up.
        waited: u64,
    },
    /// An injected fault was consumed directly by a component that has no
    /// richer error to map it onto.
    Injected {
        /// Site the fault fired at.
        site: String,
        /// The injected kind.
        kind: FaultKind,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Unresponsive { waited } => {
                write!(f, "device did not quiesce within {waited} polls")
            }
            FaultError::Injected { site, kind } => write!(f, "injected fault at {site}: {kind}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// A deterministic schedule of faults, shared with instrumented
/// components via [`SharedFaultPlan`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    pending: Vec<Injection>,
    fired: Vec<FiredFault>,
}

/// The handle instrumented components hold: thread-safe so the batch
/// engine's worker pool can share one plan.
pub type SharedFaultPlan = Arc<Mutex<FaultPlan>>;

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an injection (builder style).
    pub fn inject(mut self, site: impl Into<String>, at: u64, kind: FaultKind) -> FaultPlan {
        self.pending.push(Injection { site: site.into(), at, kind });
        self
    }

    /// Builds a single-fault plan chosen deterministically from `seed`:
    /// picks one `(site, kind)` from `menu` and a trigger ordinal in
    /// `[0, at_max)`. The same seed always yields the same plan.
    pub fn seeded(seed: u64, menu: &[(&str, FaultKind)], at_max: u64) -> FaultPlan {
        assert!(!menu.is_empty(), "fault menu must not be empty");
        let mut rng = SplitMix64::new(seed);
        let pick = rng.next_below(menu.len() as u64) as usize;
        let at = rng.next_below(at_max);
        let (site, kind) = menu[pick];
        FaultPlan::new().inject(site, at, kind)
    }

    /// Wraps the plan in the shared handle components consume.
    pub fn shared(self) -> SharedFaultPlan {
        Arc::new(Mutex::new(self))
    }

    /// Fires the first pending injection for `site` whose trigger ordinal
    /// has been reached, removing it from the pending set and logging it.
    pub fn fire(&mut self, site: &str, ordinal: u64) -> Option<FaultKind> {
        let idx = self.pending.iter().position(|i| i.site == site && ordinal >= i.at)?;
        let inj = self.pending.remove(idx);
        self.fired.push(FiredFault { site: inj.site, at: ordinal, kind: inj.kind });
        Some(inj.kind)
    }

    /// Removes and returns every pending injection whose site starts with
    /// `prefix` (the engine pulls all `fifo:` injections up front so it
    /// can resolve names to indices once).
    pub fn drain_prefix(&mut self, prefix: &str) -> Vec<Injection> {
        let (taken, kept): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending).into_iter().partition(|i| i.site.starts_with(prefix));
        self.pending = kept;
        taken
    }

    /// Logs a fault applied by a component that drained its injections
    /// early (see [`FaultPlan::drain_prefix`]).
    pub fn log_fired(&mut self, site: impl Into<String>, at: u64, kind: FaultKind) {
        self.fired.push(FiredFault { site: site.into(), at, kind });
    }

    /// Injections that have not fired yet.
    pub fn pending(&self) -> &[Injection] {
        &self.pending
    }

    /// Faults that fired, in firing order.
    pub fn fired(&self) -> &[FiredFault] {
        &self.fired
    }
}

/// SplitMix64: the tiny deterministic generator used for seeded plans
/// (and reusable by campaigns for site/parameter choice).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace-wide seeded generator: a stateful wrapper around
/// [`splitmix64`], so "seeded-deterministic" means one idiom everywhere —
/// fault plans and synthetic test data draw from this.
///
/// SplitMix64 passes BigCrush, has a full 2^64 period, and every seed is
/// a good seed (no zero-state trap), which is all a reproducibility RNG
/// needs. Not cryptographic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A uniform draw in `[0, bound)`. `bound` 0 returns 0 (the empty
    /// range has one representable answer, which keeps call sites free of
    /// special cases). Uses plain modulo: the bias for any bound that
    /// fits in practice (< 2^32) is below 2^-32, irrelevant for seeding.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_respects_site_and_ordinal() {
        let mut p = FaultPlan::new().inject("dma:xfer", 2, FaultKind::BusTimeout);
        assert_eq!(p.fire("dma:xfer", 0), None);
        assert_eq!(p.fire("avalon:read", 5), None, "wrong site never fires");
        assert_eq!(p.fire("dma:xfer", 2), Some(FaultKind::BusTimeout));
        assert_eq!(p.fire("dma:xfer", 3), None, "one-shot");
        assert_eq!(p.fired().len(), 1);
        assert_eq!(p.fired()[0].at, 2);
    }

    #[test]
    fn late_ordinal_still_fires() {
        // A fault scheduled for event 1 on a site first checked at event 7
        // fires at 7 (first opportunity), not never.
        let mut p = FaultPlan::new().inject("csr:status", 1, FaultKind::CsrBitFlip { bit: 1 });
        assert_eq!(p.fire("csr:status", 7), Some(FaultKind::CsrBitFlip { bit: 1 }));
    }

    #[test]
    fn drain_prefix_partitions_pending() {
        let mut p = FaultPlan::new()
            .inject("fifo:work0:push", 10, FaultKind::FifoStall { cycles: 5 })
            .inject("dma:xfer", 0, FaultKind::DmaTruncate { tiles: 1 });
        let fifo = p.drain_prefix("fifo:");
        assert_eq!(fifo.len(), 1);
        assert_eq!(fifo[0].site, "fifo:work0:push");
        assert_eq!(p.pending().len(), 1);
        assert_eq!(p.pending()[0].site, "dma:xfer");
    }

    #[test]
    fn splitmix64_struct_matches_free_function() {
        let mut rng = SplitMix64::new(42);
        let mut state = 42u64;
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), splitmix64(&mut state));
        }
    }

    #[test]
    fn splitmix64_draws_are_in_range() {
        let mut rng = SplitMix64::new(7);
        assert_eq!(rng.next_below(0), 0, "empty range collapses to 0");
        for bound in [1u64, 2, 3, 17, 1000] {
            for _ in 0..32 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let menu = [
            ("fifo:work0:push", FaultKind::FifoStall { cycles: 100 }),
            ("dma:xfer", FaultKind::DmaTruncate { tiles: 0 }),
            ("avalon:read", FaultKind::BusTimeout),
        ];
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed, &menu, 1000);
            let b = FaultPlan::seeded(seed, &menu, 1000);
            assert_eq!(a.pending(), b.pending());
            assert!(a.pending()[0].at < 1000);
        }
        // Different seeds eventually pick different entries.
        let sites: std::collections::BTreeSet<String> =
            (0..32u64).map(|s| FaultPlan::seeded(s, &menu, 1000).pending()[0].site.clone()).collect();
        assert!(sites.len() > 1);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(FaultKind::FifoStall { cycles: 7 }.to_string(), "fifo-stall(7)");
        assert_eq!(FaultKind::FifoStall { cycles: u64::MAX }.to_string(), "fifo-stall(forever)");
        assert_eq!(FaultKind::DmaCorrupt { xor: 0x80 }.to_string(), "dma-corrupt(0x80)");
        assert_eq!(
            FaultError::Injected { site: "x".into(), kind: FaultKind::Hang }.to_string(),
            "injected fault at x: hang"
        );
    }
}
