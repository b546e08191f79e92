//! Fill buffers: the microarchitectural buffers MDS attacks sample.
//!
//! Real MDS variants (RIDL, ZombieLoad, Fallout) leak from line fill
//! buffers, load ports, and store buffers. The model collapses them into
//! one small queue of recently transferred data values. A transient
//! *faulting* load on an MDS-vulnerable part receives a stale value from
//! this queue instead of architectural data — untargeted, exactly like the
//! real attacks (§3.3: "MDS attacks cannot be targeted to specific victim
//! addresses").
//!
//! The `verw` instruction with the MD_CLEAR microcode update clears the
//! queue; that clearing is what costs ~500 cycles on every kernel→user
//! transition of a vulnerable CPU (Table 4).

use std::collections::VecDeque;

/// Number of fill-buffer entries (real parts have 10–12 LFBs).
pub const CAPACITY: usize = 12;

/// The collapsed fill-buffer / load-port / store-buffer leak source.
#[derive(Debug, Default, PartialEq)]
pub struct FillBuffers {
    entries: VecDeque<u64>,
    /// Rotation cursor for [`FillBuffers::sample_rotating`].
    cursor: usize,
}

impl FillBuffers {
    /// Creates empty fill buffers.
    pub fn new() -> FillBuffers {
        FillBuffers::default()
    }

    /// Records data movement through the core (every committed load/store
    /// value passes through here).
    pub fn record(&mut self, value: u64) {
        if self.entries.len() >= CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(value);
    }

    /// Samples a stale value, as a transient faulting load does on an
    /// MDS-vulnerable part. Returns the most recent entry, or `None` when
    /// the buffers are clear (mitigated, or nothing in flight).
    pub fn sample(&self) -> Option<u64> {
        self.entries.back().copied()
    }

    /// Samples like hardware does: which buffer entry leaks is effectively
    /// arbitrary, so successive samples rotate through the live entries.
    /// Real MDS exploitation repeats the attack and histograms the
    /// results (§3.3: the attacks "cannot be targeted"); this rotation is
    /// what makes that repetition meaningful in simulation.
    pub fn sample_rotating(&mut self) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        self.cursor = (self.cursor + 1) % self.entries.len();
        self.entries.get(self.cursor).copied()
    }

    /// Clears all buffers (the MD_CLEAR `verw` behaviour).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of live entries (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffers are empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_returns_most_recent() {
        let mut fb = FillBuffers::new();
        assert_eq!(fb.sample(), None);
        fb.record(0xaa);
        fb.record(0xbb);
        assert_eq!(fb.sample(), Some(0xbb));
    }

    #[test]
    fn clear_removes_everything() {
        let mut fb = FillBuffers::new();
        fb.record(0x11);
        fb.clear();
        assert!(fb.is_empty());
        assert_eq!(fb.sample(), None);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut fb = FillBuffers::new();
        for i in 0..100 {
            fb.record(i);
        }
        assert_eq!(fb.len(), CAPACITY);
        assert_eq!(fb.sample(), Some(99));
    }
}
