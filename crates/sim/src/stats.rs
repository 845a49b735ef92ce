//! Simulation statistics: kernel activity and user counters.

use std::collections::BTreeMap;

/// Per-kernel cycle accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Cycles in which the kernel performed work.
    pub busy: u64,
    /// Cycles in which the kernel wanted to work but a FIFO blocked it.
    pub blocked: u64,
    /// Cycles with nothing to do.
    pub idle: u64,
    /// Cycles after the kernel reported done.
    pub done: u64,
}

impl KernelStats {
    /// Total observed cycles.
    pub fn total(&self) -> u64 {
        self.busy + self.blocked + self.idle + self.done
    }

    /// Busy fraction of pre-completion cycles (0.0 when never active).
    pub fn utilization(&self) -> f64 {
        let alive = self.busy + self.blocked + self.idle;
        if alive == 0 {
            0.0
        } else {
            self.busy as f64 / alive as f64
        }
    }
}

/// Handle to an interned counter name, for string-free hot-path updates
/// via [`Counters::add_id`]. Obtained from [`Counters::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Named activity counters recorded by kernels (e.g. `"macs"`,
/// `"bank_reads"`). The power model converts these into toggle activity.
///
/// Names are interned: [`intern`](Counters::intern) maps a name to a
/// [`CounterId`] once, and [`add_id`](Counters::add_id) is then a plain
/// indexed add — kernels that fire every cycle should intern their
/// counter names at construction instead of paying a map lookup per tick.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    index: BTreeMap<&'static str, u32>,
    values: Vec<u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Interns `name`, creating a zero-valued counter if new, and returns
    /// its stable id.
    pub fn intern(&mut self, name: &'static str) -> CounterId {
        if let Some(&id) = self.index.get(name) {
            return CounterId(id);
        }
        let id = u32::try_from(self.values.len()).expect("counter count fits u32");
        self.index.insert(name, id);
        self.values.push(0);
        CounterId(id)
    }

    /// Adds `n` to the interned counter — O(1), no string comparison.
    #[inline]
    pub fn add_id(&mut self, id: CounterId, n: u64) {
        self.values[id.0 as usize] += n;
    }

    /// Adds `n` to counter `name` (interning it on first use). Convenient
    /// off the hot path; per-cycle updates should use
    /// [`add_id`](Counters::add_id).
    pub fn add(&mut self, name: &'static str, n: u64) {
        let id = self.intern(name);
        self.add_id(id, n);
    }

    /// Reads counter `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.index.get(name).map_or(0, |&id| self.values[id as usize])
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.index.iter().map(|(&k, &id)| (k, self.values[id as usize]))
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl PartialEq for Counters {
    /// Name/value equality, independent of interning order.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Counters {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_stats_utilization() {
        let s = KernelStats { busy: 75, blocked: 20, idle: 5, done: 100 };
        assert_eq!(s.total(), 200);
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(KernelStats::default().utilization(), 0.0);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Counters::new();
        a.add("macs", 10);
        a.add("macs", 5);
        a.add("bank_reads", 2);
        assert_eq!(a.get("macs"), 15);
        assert_eq!(a.get("missing"), 0);

        let mut b = Counters::new();
        b.add("macs", 1);
        b.merge(&a);
        assert_eq!(b.get("macs"), 16);
        assert_eq!(b.get("bank_reads"), 2);
        assert_eq!(b.iter().count(), 2);
    }

    #[test]
    fn interned_ids_bypass_the_name_lookup() {
        let mut c = Counters::new();
        let macs = c.intern("macs");
        let reads = c.intern("bank_reads");
        assert_eq!(c.intern("macs"), macs, "interning is idempotent");
        c.add_id(macs, 64);
        c.add_id(macs, 64);
        c.add_id(reads, 1);
        c.add("macs", 2);
        assert_eq!(c.get("macs"), 130);
        assert_eq!(c.get("bank_reads"), 1);
    }

    #[test]
    fn equality_ignores_interning_order() {
        let mut a = Counters::new();
        a.intern("x");
        a.intern("y");
        a.add("y", 3);
        let mut b = Counters::new();
        let y = b.intern("y");
        b.add_id(y, 3);
        b.intern("x");
        assert_eq!(a, b);
        b.add("x", 1);
        assert_ne!(a, b);
    }
}
