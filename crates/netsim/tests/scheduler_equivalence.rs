//! Property tests pinning the calendar queue to the `(time, seq)`
//! binary-heap oracle in `common`: for *any* schedule — equal-timestamp
//! ties, far-future times that land in overflow buckets, pops
//! interleaved with pushes — the queue must produce the oracle's event
//! sequence exactly. This is the determinism contract `event.rs`
//! promises; if it ever breaks, figure outputs silently change.

mod common;

use proptest::prelude::*;

use common::{ev, shape_time, token_of, HeapOracle};
use slowcc_netsim::event::{EventKind, EventQueue};
use slowcc_netsim::time::SimTime;

/// `(time, token)` of a pop, or `None` for an empty queue.
fn popped(pop: Option<(SimTime, EventKind)>) -> Option<(u64, u64)> {
    pop.map(|(t, k)| (t.as_nanos(), token_of(k)))
}

/// Everything one queue popped, in order.
type Popped = Vec<Option<(u64, u64)>>;

/// Drive the calendar queue and the oracle through the same op sequence
/// and return what each popped, calendar first.
///
/// `ops` encodes a schedule/pop trace: `Some(t)` schedules an event at
/// time `t` (tokens count up in program order, so ties are detectable),
/// `None` pops. Pops from an empty queue record `None` so "popped
/// nothing" must also match. The remainder is drained at the end so
/// the full order is compared, not a prefix.
fn run_trace(ops: &[Option<u64>]) -> (Popped, Popped) {
    let mut q = EventQueue::new();
    let mut oracle = HeapOracle::default();
    let (mut cal, mut reference) = (Vec::new(), Vec::new());
    for (token, op) in ops.iter().enumerate() {
        match op {
            Some(t) => {
                q.schedule(SimTime::from_nanos(*t), ev(token as u64));
                oracle.schedule(SimTime::from_nanos(*t), ev(token as u64));
            }
            None => {
                cal.push(popped(q.pop()));
                reference.push(popped(oracle.pop()));
            }
        }
    }
    while !q.is_empty() || oracle.len() > 0 {
        cal.push(popped(q.pop()));
        reference.push(popped(oracle.pop()));
    }
    (cal, reference)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Pure schedules (no interleaved pops): the queue pops the
    /// oracle's (time, token) sequence.
    #[test]
    fn identical_pop_order_for_random_schedules(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..300),
    ) {
        let ops: Vec<Option<u64>> =
            raw_times.iter().map(|&r| Some(shape_time(r))).collect();
        let (cal, reference) = run_trace(&ops);
        prop_assert_eq!(cal, reference);
    }

    /// Interleaved pushes and pops — the cursor-rewind and resize paths
    /// of the calendar queue fire mid-stream — still the oracle's order.
    #[test]
    fn identical_order_with_interleaved_pops(
        raw_times in prop::collection::vec(0u64..u64::MAX, 1..300),
        pops in prop::collection::vec(prop::bool::ANY, 1..300),
    ) {
        let ops: Vec<Option<u64>> = raw_times
            .iter()
            .zip(pops.iter().cycle())
            .map(|(&r, &pop)| if pop { None } else { Some(shape_time(r)) })
            .collect();
        let (cal, reference) = run_trace(&ops);
        prop_assert_eq!(cal, reference);
    }

    /// Massed equal-timestamp ties: every event at one of a handful of
    /// instants, so ordering is carried almost entirely by the seq token.
    #[test]
    fn ties_resolve_identically(
        slots in prop::collection::vec(0u64..4, 2..200),
        base in 0u64..1_000_000,
    ) {
        let ops: Vec<Option<u64>> = slots.iter().map(|&s| Some(base + s)).collect();
        let (cal, reference) = run_trace(&ops);
        prop_assert_eq!(cal, reference);
    }
}

/// Deterministic pseudo-random churn big enough to force the calendar
/// through many grow and shrink resizes. Every interleaved pop, every
/// interleaved batch drain and the final drain must equal the oracle's
/// `(time, token)` pairs exactly — not just come out time-sorted.
#[test]
fn interleaved_schedule_and_pop_stays_sorted() {
    let mut q = EventQueue::new();
    let mut oracle = HeapOracle::default();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut batch, mut oracle_batch) = (Vec::new(), Vec::new());
    let mut removals = 0u64;
    for i in 0..200_000u64 {
        if q.is_empty() || rand() % 3 != 0 {
            let t = SimTime::from_nanos(rand() % 50_000_000);
            q.schedule(t, ev(i));
            oracle.schedule(t, ev(i));
            continue;
        }
        removals += 1;
        if removals.is_multiple_of(16) {
            // Every 16th removal takes a whole timestamp batch.
            let horizon = SimTime::from_nanos(u64::MAX);
            let t = q.drain_batch(horizon, &mut batch);
            assert_eq!(t, oracle.drain_batch(horizon, &mut oracle_batch), "batch {i}");
            assert_eq!(batch, oracle_batch, "batch {i} contents");
        } else {
            assert_eq!(popped(q.pop()), popped(oracle.pop()), "pop {i}");
        }
    }
    assert_eq!(q.len(), oracle.len());
    assert!(q.len() > 10_000, "churn should leave a deep queue to drain");
    while let Some(want) = popped(oracle.pop()) {
        assert_eq!(popped(q.pop()), Some(want), "final drain");
    }
    assert!(q.is_empty());
}
