//! Cycle traces: ASCII waveforms of kernel activity.
//!
//! HLS debugging lives and dies by visibility into stalls. The trace
//! recorder captures each kernel's per-cycle [`Progress`] and renders a
//! waveform — which kernel was busy (`#`), blocked on a FIFO (`x`), idle
//! (`.`), or finished (` `) — so pipeline bubbles, backpressure chains
//! and barrier convoys are visible at a glance.
//!
//! ```text
//! cycle     0        10        20        30
//! staging0  ####x####x####x####x####
//! conv0     .####x####x####x####x###
//! accum0    ..#####xx.#####xx.######
//! ```

use crate::engine::Progress;
use std::num::NonZeroUsize;

/// Per-kernel, per-cycle activity recorder with a bounded window.
#[derive(Debug, Clone)]
pub struct Trace {
    names: Vec<String>,
    /// `rows[k][t]` = symbol of kernel `k` at window cycle `t`.
    rows: Vec<Vec<u8>>,
    /// First recorded cycle.
    start_cycle: u64,
    /// Maximum cycles retained.
    capacity: usize,
    truncated: bool,
}

impl Trace {
    /// Creates a recorder retaining at most `capacity` cycles.
    pub fn new(capacity: NonZeroUsize) -> Trace {
        Trace { names: Vec::new(), rows: Vec::new(), start_cycle: 0, capacity: capacity.get(), truncated: false }
    }

    /// Registers kernel `name`, returning its row index. Called by the
    /// engine for each kernel in registration order.
    pub fn add_kernel(&mut self, name: &str) -> usize {
        self.names.push(name.to_string());
        self.rows.push(Vec::new());
        self.rows.len() - 1
    }

    /// Records kernel `k`'s progress for the current cycle.
    pub fn record(&mut self, k: usize, cycle: u64, progress: Progress) {
        let row = &mut self.rows[k];
        if row.is_empty() && k == 0 {
            self.start_cycle = cycle;
        }
        if row.len() >= self.capacity {
            self.truncated = true;
            return;
        }
        row.push(match progress {
            Progress::Busy => b'#',
            Progress::Blocked => b'x',
            Progress::Idle => b'.',
            Progress::Done => b' ',
        });
    }

    /// Cycles recorded (bounded by capacity).
    pub fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the window filled up and later cycles were dropped.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Busy fraction of kernel `k` within the window.
    pub fn utilization(&self, k: usize) -> f64 {
        let row = &self.rows[k];
        if row.is_empty() {
            return 0.0;
        }
        row.iter().filter(|&&c| c == b'#').count() as f64 / row.len() as f64
    }

    /// Renders the waveform, `width` cycles per line block.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(10);
        let len = self.len();
        let name_w = self.names.iter().map(String::len).max().unwrap_or(5).max(5);
        let mut out = String::new();
        let mut t0 = 0;
        while t0 < len {
            let t1 = (t0 + width).min(len);
            // Cycle ruler with ticks every 10.
            out.push_str(&format!("{:<name_w$}  ", "cycle"));
            let mut ruler = String::new();
            let mut t = t0;
            while t < t1 {
                if t % 10 == 0 {
                    let label = (self.start_cycle + t as u64).to_string();
                    ruler.push_str(&label);
                    t += label.len();
                } else {
                    ruler.push(' ');
                    t += 1;
                }
            }
            ruler.truncate(t1 - t0);
            out.push_str(&ruler);
            out.push('\n');
            for (k, name) in self.names.iter().enumerate() {
                out.push_str(&format!("{name:<name_w$}  "));
                let row = &self.rows[k];
                for t in t0..t1 {
                    out.push(*row.get(t).unwrap_or(&b' ') as char);
                }
                out.push('\n');
            }
            out.push('\n');
            t0 = t1;
        }
        if self.truncated {
            out.push_str("(trace window full; later cycles dropped)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_symbols_in_order() {
        let mut t = Trace::new(NonZeroUsize::new(16).unwrap());
        let a = t.add_kernel("a");
        let b = t.add_kernel("bkern");
        for cy in 0..4 {
            t.record(a, cy, if cy % 2 == 0 { Progress::Busy } else { Progress::Blocked });
            t.record(b, cy, Progress::Idle);
        }
        let text = t.render(80);
        assert!(text.contains("a      #x#x"), "{text}");
        assert!(text.contains("bkern  ...."), "{text}");
        assert_eq!(t.len(), 4);
        assert!((t.utilization(a) - 0.5).abs() < 1e-12);
        assert_eq!(t.utilization(b), 0.0);
    }

    #[test]
    fn capacity_bounds_memory() {
        let mut t = Trace::new(NonZeroUsize::new(8).unwrap());
        let k = t.add_kernel("k");
        for cy in 0..100 {
            t.record(k, cy, Progress::Busy);
        }
        assert_eq!(t.len(), 8);
        assert!(t.is_truncated());
        assert!(t.render(40).contains("window full"));
    }

    #[test]
    fn render_wraps_blocks() {
        let mut t = Trace::new(NonZeroUsize::new(64).unwrap());
        let k = t.add_kernel("k");
        for cy in 0..25 {
            t.record(k, cy, Progress::Busy);
        }
        let text = t.render(10);
        // 25 cycles at width 10: three blocks.
        assert_eq!(text.matches("cycle").count(), 3);
    }
}
