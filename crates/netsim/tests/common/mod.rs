//! Shared helpers for the event-queue property tests: the reference
//! scheduler the calendar queue is pinned to, and the workload shaping
//! both test binaries draw from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use slowcc_netsim::event::EventKind;
use slowcc_netsim::ids::AgentId;
use slowcc_netsim::time::SimTime;

/// The test oracle: a `BinaryHeap` keyed `(time, seq)`, the total event
/// order `EventQueue` promises. Kinds are stored by `seq` on the side
/// because `EventKind` has no ordering of its own.
#[derive(Default)]
pub struct HeapOracle {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    kinds: Vec<EventKind>,
}

impl HeapOracle {
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.heap.push(Reverse((time, self.kinds.len() as u64)));
        self.kinds.push(kind);
    }

    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let Reverse((time, seq)) = self.heap.pop()?;
        Some((time, self.kinds[seq as usize]))
    }

    /// Every event at the head timestamp, in `seq` order, if that
    /// timestamp is at or before `horizon`.
    pub fn drain_batch(&mut self, horizon: SimTime, out: &mut Vec<EventKind>) -> Option<SimTime> {
        out.clear();
        let t = self.head_time().filter(|&t| t <= horizon)?;
        while self.head_time() == Some(t) {
            out.push(self.pop().expect("head exists").1);
        }
        Some(t)
    }

    fn head_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A timer event carrying `token` so pops are distinguishable even when
/// timestamps collide.
pub fn ev(token: u64) -> EventKind {
    EventKind::AgentTimer {
        agent: AgentId::from_index(0),
        token,
    }
}

pub fn token_of(kind: EventKind) -> u64 {
    match kind {
        EventKind::AgentTimer { token, .. } => token,
        _ => unreachable!("only timers are scheduled"),
    }
}

/// Map raw sampled values into a time distribution that stresses every
/// calendar-queue regime: dense collisions (many ties per bucket),
/// ordinary nanosecond spacing, and far-future times hours ahead that
/// overflow the bucket year and take the global-scan fallback.
pub fn shape_time(raw: u64) -> u64 {
    match raw % 4 {
        0 => raw % 16,                                    // heavy ties near zero
        1 => raw % 1_000_000,                             // sub-millisecond spread
        2 => raw % 10_000_000_000,                        // multi-second spread
        _ => 3_600_000_000_000 + raw % 7_200_000_000_000, // 1-3 hours out
    }
}
