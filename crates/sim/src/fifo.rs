//! Hardware FIFO queues with registered-output, single-port semantics.
//!
//! Storage is a fixed-capacity power-of-two ring buffer with an inline
//! staging slot (the output register), so pushes, pops and cycle commits
//! are branch-light O(1) operations with no heap traffic after
//! construction. Occupancy statistics accrue lazily against an internal
//! cycle counter: the engine only commits the FIFOs that were actually
//! touched in a cycle, and `Fifo::sync` settles the untouched stretch
//! in O(1) when the FIFO is next used (the occupancy is constant while
//! nobody touches it, so the accrual is exact).

use crate::stats::FifoStats;

/// Handle to a FIFO registered with an [`crate::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FifoId(pub(crate) usize);

impl FifoId {
    /// The raw index (useful for table-driven kernel wiring).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Why a push was refused this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The FIFO is at capacity (counting this cycle's staged push).
    Full,
    /// The single write port was already used this cycle.
    PortBusy,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "fifo full"),
            PushError::PortBusy => write!(f, "fifo write port already used this cycle"),
        }
    }
}

impl std::error::Error for PushError {}

/// A bounded hardware FIFO.
///
/// Port semantics per cycle (matching a registered FPGA FIFO):
/// * at most one push — a second push the same cycle gets
///   [`PushError::PortBusy`];
/// * at most one pop — a second pop the same cycle returns `None`;
/// * a pushed value becomes poppable the *next* cycle (one cycle of
///   latency through the output register);
/// * capacity counts stored plus staged elements.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    name: String,
    capacity: usize,
    /// Ring storage, `capacity.next_power_of_two()` slots.
    buf: Box<[Option<T>]>,
    /// Index mask (`buf.len() - 1`).
    mask: usize,
    /// Ring read position.
    head: usize,
    /// Elements visible to pops (excludes the staged element).
    len: usize,
    /// The output register: this cycle's push, visible next cycle.
    staged: Option<T>,
    /// Cycles committed so far (the next cycle to account). Advanced by
    /// [`end_cycle`](Fifo::end_cycle) and [`sync`](Fifo::sync).
    now: u64,
    pushed_this_cycle: bool,
    popped_this_cycle: bool,
    stats: FifoStats,
    /// Injected-fault stall expiry (absolute cycle against `now`): while
    /// `now < until`, the corresponding port refuses transfers (modeling a
    /// wedged upstream/downstream handshake). `u64::MAX` wedges the port
    /// permanently. Absolute expiries are invariant under event-driven
    /// cycle jumps.
    push_stall_until: u64,
    pop_stall_until: u64,
    /// Stall attempts observed this cycle, committed into the `last_*`
    /// pair at [`end_cycle`](Fifo::end_cycle). The committed pair survives
    /// cycle jumps and parked-kernel stretches (skipped cycles repeat
    /// the last executed one verbatim), so deadlock snapshots are
    /// identical with and without skipping.
    push_stalled_this_cycle: bool,
    pop_stalled_this_cycle: bool,
    last_push_stalled: bool,
    last_pop_stalled: bool,
}

/// Which FIFO port an injected stall wedges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallPort {
    /// The write port: pushes fail with [`PushError::Full`].
    Push,
    /// The read port: pops return `None`.
    Pop,
}

impl<T> Fifo<T> {
    /// Creates a FIFO with the given display name and capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a zero-depth FIFO can never transfer
    /// data under registered-output semantics.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be at least 1");
        let slots = capacity.next_power_of_two();
        Fifo {
            name: name.into(),
            capacity,
            buf: (0..slots).map(|_| None).collect(),
            mask: slots - 1,
            head: 0,
            len: 0,
            staged: None,
            now: 0,
            pushed_this_cycle: false,
            popped_this_cycle: false,
            stats: FifoStats::default(),
            push_stall_until: 0,
            pop_stall_until: 0,
            push_stalled_this_cycle: false,
            pop_stalled_this_cycle: false,
            last_push_stalled: false,
            last_pop_stalled: false,
        }
    }

    /// The FIFO's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements currently visible to pops (excludes the staged element).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements are poppable this cycle.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total occupancy including the staged element.
    pub fn occupancy(&self) -> usize {
        self.len + usize::from(self.staged.is_some())
    }

    /// Attempts to push a value this cycle.
    ///
    /// # Errors
    /// [`PushError::PortBusy`] if already pushed this cycle,
    /// [`PushError::Full`] if at capacity.
    pub fn try_push(&mut self, value: T) -> Result<(), PushError> {
        if self.pushed_this_cycle {
            self.stats.push_port_conflicts += 1;
            return Err(PushError::PortBusy);
        }
        if self.now < self.push_stall_until {
            // Injected fault: the port looks full to the producer.
            self.stats.push_stalls += 1;
            self.push_stalled_this_cycle = true;
            return Err(PushError::Full);
        }
        if self.occupancy() >= self.capacity {
            self.stats.push_stalls += 1;
            self.push_stalled_this_cycle = true;
            return Err(PushError::Full);
        }
        debug_assert!(self.staged.is_none());
        self.staged = Some(value);
        self.pushed_this_cycle = true;
        self.stats.pushes += 1;
        Ok(())
    }

    /// Attempts to pop a value this cycle. Returns `None` when empty or the
    /// read port was already used.
    pub fn try_pop(&mut self) -> Option<T> {
        if self.popped_this_cycle {
            self.stats.pop_port_conflicts += 1;
            return None;
        }
        if self.now < self.pop_stall_until {
            // Injected fault: the port looks empty to the consumer.
            self.stats.pop_stalls += 1;
            self.pop_stalled_this_cycle = true;
            return None;
        }
        if self.len == 0 {
            self.stats.pop_stalls += 1;
            self.pop_stalled_this_cycle = true;
            return None;
        }
        let v = self.buf[self.head].take();
        debug_assert!(v.is_some());
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        self.popped_this_cycle = true;
        self.stats.pops += 1;
        v
    }

    /// Peeks at the head without consuming it (combinational read of the
    /// output register).
    pub fn peek(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.buf[self.head].as_ref()
        }
    }

    /// Settles occupancy statistics for the untouched stretch up to
    /// `cycle`: while nobody pushed or popped, the visible length was
    /// constant, so the accrual is exact and O(1). Called by the engine
    /// before the first port operation of a cycle and before snapshots.
    #[inline]
    pub(crate) fn sync(&mut self, cycle: u64) {
        if cycle > self.now {
            debug_assert!(self.staged.is_none() && !self.pushed_this_cycle && !self.popped_this_cycle);
            let n = cycle - self.now;
            self.stats.high_water = self.stats.high_water.max(self.len);
            self.stats.occupancy_sum += self.len as u64 * n;
            self.stats.cycles += n;
            self.now = cycle;
        }
    }

    /// Commits the cycle: staged pushes become visible, ports free up,
    /// occupancy statistics update. Called by the engine once per cycle in
    /// which the FIFO was touched (every cycle under the dense stepper).
    pub fn end_cycle(&mut self) {
        if let Some(v) = self.staged.take() {
            let tail = (self.head + self.len) & self.mask;
            debug_assert!(self.buf[tail].is_none());
            self.buf[tail] = Some(v);
            self.len += 1;
        }
        self.pushed_this_cycle = false;
        self.popped_this_cycle = false;
        self.last_push_stalled = self.push_stalled_this_cycle;
        self.last_pop_stalled = self.pop_stalled_this_cycle;
        self.push_stalled_this_cycle = false;
        self.pop_stalled_this_cycle = false;
        self.stats.high_water = self.stats.high_water.max(self.len);
        self.stats.occupancy_sum += self.len as u64;
        self.stats.cycles += 1;
        self.now += 1;
    }

    /// Injects a `cycles`-long stall on one port (fault injection):
    /// `u64::MAX` wedges the port permanently. The stall begins with the
    /// current cycle and expires on its own once `cycles` have elapsed.
    pub fn inject_stall(&mut self, port: StallPort, cycles: u64) {
        let until = if cycles == u64::MAX { u64::MAX } else { self.now.saturating_add(cycles) };
        match port {
            StallPort::Push => self.push_stall_until = self.push_stall_until.max(until),
            StallPort::Pop => self.pop_stall_until = self.pop_stall_until.max(until),
        }
    }

    /// Remaining injected-stall cycles across both ports (0 when healthy).
    /// The event scheduler treats stall expiry as a wake event for
    /// re-running parked kernels.
    pub fn forced_stall_remaining(&self) -> u64 {
        let port = |until: u64, now: u64| {
            if until == u64::MAX {
                u64::MAX
            } else {
                until.saturating_sub(now)
            }
        };
        port(self.push_stall_until, self.now).max(port(self.pop_stall_until, self.now))
    }

    /// Whether a producer failed to push during the most recently committed
    /// cycle. Stable across cycle jumps and parked stretches (skipped
    /// cycles replay the last executed one), so deadlock snapshots agree
    /// with cycle-exact runs.
    pub fn last_push_stalled(&self) -> bool {
        self.last_push_stalled
    }

    /// Whether a consumer failed to pop during the most recently committed
    /// cycle (see [`last_push_stalled`](Fifo::last_push_stalled)).
    pub fn last_pop_stalled(&self) -> bool {
        self.last_pop_stalled
    }

    /// Activity/stall statistics.
    pub fn stats(&self) -> &FifoStats {
        &self.stats
    }

    /// Whether any transfer happened this cycle (used for deadlock
    /// detection).
    pub(crate) fn active_this_cycle(&self) -> bool {
        self.pushed_this_cycle || self.popped_this_cycle
    }

    /// Whether the read port was already used this cycle (so a failed pop
    /// is a port conflict, not an empty/stall condition).
    pub(crate) fn pop_port_used(&self) -> bool {
        self.popped_this_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_is_visible_next_cycle_only() {
        let mut f = Fifo::new("q", 4);
        f.try_push(1).unwrap();
        assert_eq!(f.try_pop(), None, "same-cycle pop must miss");
        f.end_cycle();
        assert_eq!(f.try_pop(), Some(1));
    }

    #[test]
    fn one_push_per_cycle() {
        let mut f = Fifo::new("q", 4);
        f.try_push(1).unwrap();
        assert_eq!(f.try_push(2).unwrap_err(), PushError::PortBusy);
        f.end_cycle();
        f.try_push(2).unwrap();
    }

    #[test]
    fn one_pop_per_cycle() {
        let mut f = Fifo::new("q", 4);
        f.try_push(1).unwrap();
        f.end_cycle();
        f.try_push(2).unwrap();
        f.end_cycle();
        assert_eq!(f.try_pop(), Some(1));
        assert_eq!(f.try_pop(), None, "read port busy");
        f.end_cycle();
        assert_eq!(f.try_pop(), Some(2));
    }

    #[test]
    fn capacity_counts_staged_element() {
        let mut f = Fifo::new("q", 1);
        f.try_push(1).unwrap();
        f.end_cycle();
        assert_eq!(f.try_push(2).unwrap_err(), PushError::Full);
        assert_eq!(f.occupancy(), 1);
        // Draining frees space, but only within the same cycle's pop.
        assert_eq!(f.try_pop(), Some(1));
        f.try_push(2).unwrap();
        f.end_cycle();
        assert_eq!(f.try_pop(), Some(2));
    }

    #[test]
    fn depth_one_fifo_sustains_alternating_transfers() {
        // A depth-1 registered FIFO transfers at best every cycle when
        // producer and consumer alternate push/pop within each cycle.
        let mut f = Fifo::new("q", 1);
        let mut received = Vec::new();
        let mut next = 0;
        for _ in 0..10 {
            if let Some(v) = f.try_pop() {
                received.push(v);
            }
            if f.try_push(next).is_ok() {
                next += 1;
            }
            f.end_cycle();
        }
        assert_eq!(received, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn stats_track_stalls_and_high_water() {
        let mut f = Fifo::new("q", 2);
        assert!(f.try_pop().is_none()); // pop stall
        f.try_push(1).unwrap();
        f.end_cycle();
        f.try_push(2).unwrap();
        f.end_cycle();
        assert_eq!(f.try_push(3).unwrap_err(), PushError::Full); // push stall
        f.end_cycle();
        let s = f.stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.pop_stalls, 1);
        assert_eq!(s.push_stalls, 1);
        assert_eq!(s.high_water, 2);
        assert!(s.mean_occupancy() > 0.0);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = Fifo::new("q", 2);
        f.try_push(7).unwrap();
        f.end_cycle();
        assert_eq!(f.peek(), Some(&7));
        assert_eq!(f.try_pop(), Some(7));
    }

    #[test]
    fn ring_wraps_across_many_cycles() {
        // Non-power-of-two capacity exercises the mask/rounding path; the
        // ring must wrap head/tail indefinitely without reordering.
        let mut f = Fifo::new("q", 3);
        let mut next = 0u32;
        let mut expect = 0u32;
        for _ in 0..1000 {
            if let Some(v) = f.try_pop() {
                assert_eq!(v, expect);
                expect += 1;
            }
            if f.try_push(next).is_ok() {
                next += 1;
            }
            f.end_cycle();
            assert!(f.occupancy() <= f.capacity());
        }
        assert!(expect > 900, "sustained transfers: {expect}");
    }

    #[test]
    fn lazy_sync_accrues_untouched_cycles_exactly() {
        let mut f = Fifo::new("q", 4);
        f.try_push(1).unwrap();
        f.end_cycle(); // cycle 0 accounted, len 1 afterwards
        // Nothing touches the FIFO for cycles 1..=9.
        f.sync(10);
        let s = f.stats();
        assert_eq!(s.cycles, 10);
        assert_eq!(s.occupancy_sum, 1 + 9, "cycle 0 at len 1 post-commit, then 9 at len 1");
        assert_eq!(s.high_water, 1);
        // Synced to cycle 10: operations and commits continue from there.
        assert_eq!(f.try_pop(), Some(1));
        f.end_cycle();
        assert_eq!(f.stats().cycles, 11);
    }

    #[test]
    fn injected_stall_expiry_is_absolute() {
        let mut f = Fifo::new("q", 4);
        f.try_push(1).unwrap();
        f.end_cycle(); // now = 1
        f.inject_stall(StallPort::Pop, 3); // wedged for cycles 1, 2, 3
        assert_eq!(f.forced_stall_remaining(), 3);
        assert_eq!(f.try_pop(), None, "stalled");
        f.end_cycle(); // now = 2
        // Skipping ahead must expire the stall at the same cycle as
        // stepping through it.
        f.sync(4);
        assert_eq!(f.forced_stall_remaining(), 0);
        assert_eq!(f.try_pop(), Some(1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::new("q", 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Random push/pop schedules against a reference queue: the FIFO is a
    /// VecDeque with port limits and one cycle of push latency.
    #[derive(Debug, Clone)]
    enum Action {
        Push(u16),
        Pop,
        EndCycle,
    }

    fn action_strategy() -> impl Strategy<Value = Action> {
        prop_oneof![
            (0u16..1000).prop_map(Action::Push),
            Just(Action::Pop),
            Just(Action::EndCycle),
        ]
    }

    proptest! {
        #[test]
        fn fifo_matches_reference_model(
            capacity in 1usize..8,
            actions in proptest::collection::vec(action_strategy(), 1..200),
        ) {
            let mut fifo = Fifo::new("f", capacity);
            let mut reference: VecDeque<u16> = VecDeque::new();
            let mut staged: Option<u16> = None;
            let mut pushed = false;
            let mut popped = false;
            for a in actions {
                match a {
                    Action::Push(v) => {
                        let expect_ok = !pushed && reference.len() + usize::from(staged.is_some()) < capacity;
                        let got = fifo.try_push(v);
                        prop_assert_eq!(got.is_ok(), expect_ok, "push state");
                        if expect_ok {
                            staged = Some(v);
                            pushed = true;
                        }
                    }
                    Action::Pop => {
                        let expect = if popped { None } else { reference.front().copied() };
                        let got = fifo.try_pop();
                        prop_assert_eq!(got, expect, "pop value");
                        if expect.is_some() {
                            reference.pop_front();
                            popped = true;
                        }
                    }
                    Action::EndCycle => {
                        fifo.end_cycle();
                        if let Some(v) = staged.take() {
                            reference.push_back(v);
                        }
                        pushed = false;
                        popped = false;
                    }
                }
                prop_assert_eq!(fifo.len(), reference.len(), "visible length");
                prop_assert_eq!(fifo.peek(), reference.front(), "head element");
            }
        }
    }
}
