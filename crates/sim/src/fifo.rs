//! Hardware FIFO queues with registered-output, single-port semantics.
//!
//! Storage is a fixed-capacity power-of-two ring buffer with an inline
//! staging slot (the output register), so pushes, pops and commits are
//! branch-light O(1) operations with no heap traffic after construction.
//!
//! Ports are kept by cycle stamp, as the SRAM banks' are: a port is busy
//! iff its stamp equals the cycle being executed, so a new cycle frees
//! every port without touching the FIFO. The engine commits only the
//! FIFOs pushed in a cycle, moving each staged value into its ring.

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

/// The stamp of a port never used.
const NEVER: u64 = u64::MAX;

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
    /// Cycle of the last push / pop: the port is busy in that cycle.
    push_at: u64,
    pop_at: u64,
    /// Cycle of the last refused push / empty pop, for deadlock snapshots.
    push_stall_at: u64,
    pop_stall_at: u64,
    /// Injected-fault stall expiry (absolute cycle): before `until`, the
    /// corresponding port refuses transfers (modeling a wedged
    /// upstream/downstream handshake). `u64::MAX` wedges the port
    /// permanently.
    push_stall_until: u64,
    pop_stall_until: u64,
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
            push_at: NEVER,
            pop_at: NEVER,
            push_stall_at: NEVER,
            pop_stall_at: NEVER,
            push_stall_until: 0,
            pop_stall_until: 0,
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

    /// Attempts to push a value in `cycle`. On success the value is
    /// staged; it reaches the ring when the engine commits the cycle.
    ///
    /// # Errors
    /// [`PushError::PortBusy`] if already pushed this cycle,
    /// [`PushError::Full`] if at capacity or the write port is
    /// fault-stalled.
    #[inline]
    pub fn try_push(&mut self, cycle: u64, value: T) -> Result<(), PushError> {
        if self.push_at == cycle {
            return Err(PushError::PortBusy);
        }
        // An injected stall makes the port look full to the producer.
        if cycle < self.push_stall_until || self.occupancy() >= self.capacity {
            self.push_stall_at = cycle;
            return Err(PushError::Full);
        }
        debug_assert!(self.staged.is_none());
        self.staged = Some(value);
        self.push_at = cycle;
        Ok(())
    }

    /// Attempts to pop a value in `cycle`. Returns `None` when empty,
    /// fault-stalled or the read port was already used.
    #[inline]
    pub fn try_pop(&mut self, cycle: u64) -> Option<T> {
        if self.pop_at == cycle {
            return None;
        }
        // An injected stall makes the port look empty to the consumer.
        if cycle < self.pop_stall_until || self.len == 0 {
            self.pop_stall_at = cycle;
            return None;
        }
        let v = self.buf[self.head].take();
        debug_assert!(v.is_some());
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        self.pop_at = cycle;
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

    /// Ends the cycle of a push: the staged value joins the ring and is
    /// poppable from the next cycle on. The engine calls it once per
    /// pushed FIFO per cycle.
    #[inline]
    pub(crate) fn commit(&mut self) {
        if let Some(v) = self.staged.take() {
            let tail = (self.head + self.len) & self.mask;
            debug_assert!(self.buf[tail].is_none());
            self.buf[tail] = Some(v);
            self.len += 1;
        }
    }

    /// Injects a `cycles`-long stall on one port (fault injection),
    /// starting in cycle `now` and expiring on its own at `now + cycles`;
    /// `u64::MAX` wedges the port permanently.
    pub fn inject_stall(&mut self, now: u64, port: StallPort, cycles: u64) {
        let until = if cycles == u64::MAX { u64::MAX } else { now.saturating_add(cycles) };
        match port {
            StallPort::Push => self.push_stall_until = self.push_stall_until.max(until),
            StallPort::Pop => self.pop_stall_until = self.pop_stall_until.max(until),
        }
    }

    /// Remaining injected-stall cycles across both ports as of cycle
    /// `now` (0 when healthy).
    pub fn forced_stall_remaining(&self, now: u64) -> u64 {
        let port = |until: u64| if until == u64::MAX { u64::MAX } else { until.saturating_sub(now) };
        port(self.push_stall_until).max(port(self.pop_stall_until))
    }

    /// Whether a producer failed to push in the cycle before `now` (the
    /// last one executed when the clock reads `now`).
    pub fn last_push_stalled(&self, now: u64) -> bool {
        now.checked_sub(1) == Some(self.push_stall_at)
    }

    /// Whether a consumer failed to pop in the cycle before `now` (see
    /// [`last_push_stalled`](Fifo::last_push_stalled)).
    pub fn last_pop_stalled(&self, now: u64) -> bool {
        now.checked_sub(1) == Some(self.pop_stall_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_is_visible_next_cycle_only() {
        let mut f = Fifo::new("q", 4);
        f.try_push(0, 1).unwrap();
        assert_eq!(f.try_pop(0), None, "same-cycle pop must miss");
        f.commit();
        assert_eq!(f.try_pop(1), Some(1));
    }

    #[test]
    fn one_push_per_cycle() {
        let mut f = Fifo::new("q", 4);
        f.try_push(0, 1).unwrap();
        assert_eq!(f.try_push(0, 2).unwrap_err(), PushError::PortBusy);
        f.commit();
        f.try_push(1, 2).unwrap();
    }

    #[test]
    fn one_pop_per_cycle() {
        let mut f = Fifo::new("q", 4);
        f.try_push(0, 1).unwrap();
        f.commit();
        f.try_push(1, 2).unwrap();
        f.commit();
        assert_eq!(f.try_pop(2), Some(1));
        assert_eq!(f.try_pop(2), None, "read port busy");
        // Popped in cycle 2 and not pushed: nothing commits the FIFO, yet
        // its read port is free again in cycle 3.
        assert_eq!(f.try_pop(3), Some(2));
    }

    #[test]
    fn capacity_counts_staged_element() {
        let mut f = Fifo::new("q", 1);
        f.try_push(0, 1).unwrap();
        f.commit();
        assert_eq!(f.try_push(1, 2).unwrap_err(), PushError::Full);
        assert_eq!(f.occupancy(), 1);
        // Draining frees space, but only within the same cycle's pop.
        assert_eq!(f.try_pop(1), Some(1));
        f.try_push(1, 2).unwrap();
        f.commit();
        assert_eq!(f.try_pop(2), Some(2));
    }

    #[test]
    fn depth_one_fifo_sustains_alternating_transfers() {
        // A depth-1 registered FIFO transfers at best every cycle when
        // producer and consumer alternate push/pop within each cycle.
        let mut f = Fifo::new("q", 1);
        let mut received = Vec::new();
        let mut next = 0;
        for cycle in 0..10 {
            if let Some(v) = f.try_pop(cycle) {
                received.push(v);
            }
            if f.try_push(cycle, next).is_ok() {
                next += 1;
                f.commit();
            }
        }
        assert_eq!(received, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn stall_flags_name_only_the_last_executed_cycle() {
        let mut f = Fifo::new("q", 1);
        assert!(f.try_pop(0).is_none()); // pop stall in cycle 0
        f.try_push(0, 1).unwrap();
        f.commit();
        assert!(f.last_pop_stalled(1) && !f.last_push_stalled(1));
        assert_eq!(f.try_push(1, 2).unwrap_err(), PushError::Full); // push stall in cycle 1
        assert!(f.last_push_stalled(2) && !f.last_pop_stalled(2));
        // Untouched in cycle 2: by cycle 3 nobody is waiting.
        assert!(!f.last_push_stalled(3) && !f.last_pop_stalled(3));
        assert!(!Fifo::<u8>::new("fresh", 1).last_push_stalled(0));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = Fifo::new("q", 2);
        f.try_push(0, 7).unwrap();
        f.commit();
        assert_eq!(f.peek(), Some(&7));
        assert_eq!(f.try_pop(1), Some(7));
    }

    #[test]
    fn ring_wraps_across_many_cycles() {
        // Non-power-of-two capacity exercises the mask/rounding path; the
        // ring must wrap head/tail indefinitely without reordering.
        let mut f = Fifo::new("q", 3);
        let mut next = 0u32;
        let mut expect = 0u32;
        for cycle in 0..1000 {
            if let Some(v) = f.try_pop(cycle) {
                assert_eq!(v, expect);
                expect += 1;
            }
            if f.try_push(cycle, next).is_ok() {
                next += 1;
                f.commit();
            }
            assert!(f.occupancy() <= f.capacity());
        }
        assert!(expect > 900, "sustained transfers: {expect}");
    }

    #[test]
    fn injected_stall_expiry_is_absolute() {
        let mut f = Fifo::new("q", 4);
        f.try_push(0, 1).unwrap();
        f.commit();
        f.inject_stall(1, StallPort::Pop, 3); // wedged for cycles 1, 2, 3
        assert_eq!(f.forced_stall_remaining(1), 3);
        assert_eq!(f.try_pop(1), None, "stalled");
        assert_eq!(f.forced_stall_remaining(3), 1);
        assert_eq!(f.try_pop(3), None, "still stalled in its last cycle");
        assert_eq!(f.forced_stall_remaining(4), 0);
        assert_eq!(f.try_pop(4), Some(1));
    }

    #[test]
    fn a_stall_expires_on_an_untouched_fifo() {
        let mut f = Fifo::new("q", 4);
        f.try_push(0, 1).unwrap();
        f.commit();
        f.inject_stall(5, StallPort::Pop, 3);
        // Nobody touches the FIFO in cycles 5..8; the expiry is against
        // the clock, not against cycles the FIFO saw.
        assert_eq!(f.forced_stall_remaining(7), 1);
        assert_eq!(f.forced_stall_remaining(8), 0);
        assert_eq!(f.try_pop(8), Some(1));
        f.inject_stall(9, StallPort::Push, u64::MAX);
        assert_eq!(f.forced_stall_remaining(1 << 40), u64::MAX, "a permanent stall never expires");
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
            let mut cycle = 0u64;
            for a in actions {
                match a {
                    Action::Push(v) => {
                        let expect_ok = !pushed && reference.len() + usize::from(staged.is_some()) < capacity;
                        let got = fifo.try_push(cycle, v);
                        prop_assert_eq!(got.is_ok(), expect_ok, "push state");
                        if expect_ok {
                            staged = Some(v);
                            pushed = true;
                        }
                    }
                    Action::Pop => {
                        let expect = if popped { None } else { reference.front().copied() };
                        let got = fifo.try_pop(cycle);
                        prop_assert_eq!(got, expect, "pop value");
                        if expect.is_some() {
                            reference.pop_front();
                            popped = true;
                        }
                    }
                    Action::EndCycle => {
                        // As the engine does: commit only a pushed FIFO.
                        if pushed {
                            fifo.commit();
                        }
                        if let Some(v) = staged.take() {
                            reference.push_back(v);
                        }
                        pushed = false;
                        popped = false;
                        cycle += 1;
                    }
                }
                prop_assert_eq!(fifo.len(), reference.len(), "visible length");
                prop_assert_eq!(fifo.peek(), reference.front(), "head element");
            }
        }
    }
}
