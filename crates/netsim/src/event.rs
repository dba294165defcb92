//! The event scheduler: a calendar queue in the style of Brown (1988)
//! and ns-2's scheduler. Events are hashed into time buckets of width
//! 2^k nanoseconds, insert and pop are amortized O(1), and the bucket
//! array resizes (and re-picks its width from the observed event
//! spacing) as the pending-event population drifts.
//!
//! Ordering is by `(time, sequence)`: the instant the event fires, then a
//! monotone token assigned at scheduling time. Ties in simulated time are
//! therefore broken by scheduling order — explicitly, not by bucket
//! layout — which is what makes runs bit-for-bit reproducible. The
//! property tests in `tests/scheduler_equivalence.rs` and
//! `tests/batch_equivalence.rs` pin the queue to a binary-heap oracle
//! keyed the same way.

use crate::ids::{AgentId, LinkId, NodeId};
use crate::pool::PacketId;
use crate::time::SimTime;

/// What happens when an event fires.
///
/// Packets are referenced by [`PacketId`] into the simulator's
/// [`crate::pool::PacketPool`], so an entry is a few machine words — the
/// scheduler moves ids, never packet bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Deliver a timer callback to an agent.
    AgentTimer {
        /// The agent whose timer fires.
        agent: AgentId,
        /// The token handed back to the agent.
        token: u64,
    },
    /// A link finished serializing its current packet.
    LinkTxComplete {
        /// The link whose transmitter went idle.
        link: LinkId,
    },
    /// A packet arrives at `node` after propagation.
    Arrive {
        /// The node the packet arrives at.
        node: NodeId,
        /// The pooled packet.
        packet: PacketId,
    },
    /// An agent's scheduled start time.
    AgentStart {
        /// The agent to start.
        agent: AgentId,
    },
    /// A fault-held (or duplicated) packet is re-offered to `link` by the
    /// fault-injection layer (see [`crate::faults`]).
    FaultRelease {
        /// The link the packet is admitted to.
        link: LinkId,
        /// The pooled packet.
        packet: PacketId,
        /// Whether this packet occupies a slot in the link's hold bay
        /// (reordering) as opposed to being a freshly minted duplicate.
        held: bool,
    },
}

/// One scheduled event.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Entry {
    /// The ordering key: fire time, then scheduling order.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Smallest bucket-array size the calendar queue shrinks down to.
const MIN_BUCKETS: usize = 16;
/// Largest bucket-array size the calendar queue grows up to.
const MAX_BUCKETS: usize = 1 << 20;
/// Initial bucket width: 2^16 ns ≈ 66 µs, the right order of magnitude
/// for packet events on the paper's megabit links (resize re-picks it
/// from the observed spacing anyway).
const INITIAL_SHIFT: u32 = 16;

/// Calendar queue: `buckets[(time >> shift) & mask]` holds the events of
/// every "day" (bucket-width slice of time) congruent to that index. A
/// cursor walks days in order; each pop scans the current day's bucket
/// for the `(time, seq)` minimum.
#[derive(Debug)]
struct CalendarQueue {
    buckets: Vec<Vec<Entry>>,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: u64,
    len: usize,
    /// Day the pop cursor is on. Invariant: no pending event has an
    /// earlier day.
    cursor_day: u64,
    /// Pops since the last resize; amortizes the skew-triggered rebuild
    /// in [`Self::locate_min`] so it costs O(1) per pop even when a
    /// rebuild cannot help (all events at one instant).
    pops_since_resize: usize,
    /// Reusable scratch for [`Self::drain_batch`]: `(seq, kind)` pairs
    /// of the batch being extracted, sorted before they are handed out.
    /// Kept on the queue so steady-state batch drains never allocate.
    scratch: Vec<(u64, EventKind)>,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::with_capacity(8)).collect(),
            shift: INITIAL_SHIFT,
            mask: (MIN_BUCKETS - 1) as u64,
            len: 0,
            cursor_day: 0,
            pops_since_resize: 0,
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn day_of(&self, time: SimTime) -> u64 {
        time.as_nanos() >> self.shift
    }

    #[inline]
    fn push(&mut self, entry: Entry) {
        let day = self.day_of(entry.time);
        // Keep the cursor invariant when an event lands in the past of
        // the cursor (arbitrary schedules in tests) or when the queue was
        // drained and the clock has moved far ahead.
        if day < self.cursor_day || self.len == 0 {
            self.cursor_day = day;
        }
        self.buckets[(day & self.mask) as usize].push(entry);
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Locate the `(time, seq)` minimum: advance the cursor to its day
    /// and return `(bucket, index_in_bucket, ties)`, where `ties` counts
    /// the pending events sharing the minimum's timestamp (ties always
    /// share a day, hence a bucket). `None` when empty.
    ///
    /// Includes the *skew guard*: if the minimum's day bucket holds far
    /// more events than the occupancy target, the bucket width no longer
    /// matches the event spacing (a hold pattern can condense the whole
    /// horizon into one day without ever changing `len`), so re-pick the
    /// width and retry. The `pops_since_resize` gate keeps the O(n)
    /// rebuild amortized O(1) even when rebuilding cannot spread the
    /// events (e.g. everything at one instant).
    ///
    /// Forced inline, with [`Self::scan_min`] and [`bucket_min`]: with
    /// two callers LLVM otherwise keeps the search out of line, and the
    /// `drain_batch` hot path measured 4–9% slower end to end on the
    /// perfbench `parkinglot-wide` workload (2-core Xeon VM).
    #[inline(always)]
    fn locate_min(&mut self) -> Option<(usize, usize, usize)> {
        if self.len == 0 {
            return None;
        }
        self.pops_since_resize += 1;
        loop {
            let (b, i, ties) = self.scan_min();
            // Cheap checks first: the division only runs on the rare
            // pop that actually looks skewed.
            if self.buckets[b].len() > 16
                && self.pops_since_resize > self.len
                && self.buckets[b].len() > 8 * self.len / self.buckets.len()
            {
                self.resize(self.buckets.len());
                continue;
            }
            return Some((b, i, ties));
        }
    }

    /// One pass of the minimum search, cursor advanced to the found day.
    /// Caller guarantees `len > 0`.
    #[inline(always)]
    fn scan_min(&mut self) -> (usize, usize, usize) {
        // Walk at most one "year" (full cycle of the bucket array) from
        // the cursor; each day's events live in exactly one bucket.
        let nb = self.buckets.len() as u64;
        let shift = self.shift;
        for day in self.cursor_day..self.cursor_day + nb {
            let b = (day & self.mask) as usize;
            let found = bucket_min(&self.buckets[b], |e| e.time.as_nanos() >> shift == day);
            if let Some((i, _, ties)) = found {
                self.cursor_day = day;
                return (b, i, ties);
            }
        }
        // Every pending event is more than a year past the cursor (e.g.
        // far-future timers behind a drained present): fall back to a
        // direct scan of all buckets for the global minimum, then jump
        // the cursor to it.
        let mut best: Option<(usize, usize, (SimTime, u64), usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some((i, k, ties)) = bucket_min(bucket, |_| true) {
                if best.is_none_or(|(_, _, bk, _)| k < bk) {
                    best = Some((b, i, k, ties));
                }
            }
        }
        let (b, i, (t, _), ties) = best.expect("len > 0 but no entry found");
        self.cursor_day = self.day_of(t);
        (b, i, ties)
    }

    /// Shrink the bucket array once occupancy drops below a quarter of
    /// it.
    #[inline]
    fn shrink_if_sparse(&mut self) {
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
    }

    /// Remove and return the `(time, seq)` minimum.
    fn pop(&mut self) -> Option<Entry> {
        let (b, i, _) = self.locate_min()?;
        let entry = self.buckets[b].swap_remove(i);
        self.len -= 1;
        self.shrink_if_sparse();
        Some(entry)
    }

    /// The batch drain behind [`EventQueue::drain_batch`]. The search
    /// already counted the minimum's ties, so the untied common case
    /// drains with a single O(1) `swap_remove` and no second bucket
    /// pass. Extracted kinds are appended to `out` in ascending `seq`
    /// order — exactly the order repeated [`Self::pop`] calls would have
    /// produced. Returns the batch timestamp, or `None` when the queue is
    /// empty or the head is past `horizon` (a located-but-rejected head
    /// still advances the cursor).
    fn drain_batch(&mut self, horizon: SimTime, out: &mut Vec<EventKind>) -> Option<SimTime> {
        let (b, i, ties) = self.locate_min()?;
        let t = self.buckets[b][i].time;
        if t > horizon {
            return None;
        }
        let bucket = &mut self.buckets[b];
        if ties == 1 {
            out.push(bucket.swap_remove(i).kind);
            self.len -= 1;
        } else {
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            bucket.retain(|e| {
                if e.time == t {
                    scratch.push((e.seq, e.kind));
                    false
                } else {
                    true
                }
            });
            self.len -= scratch.len();
            scratch.sort_unstable_by_key(|&(seq, _)| seq);
            out.extend(scratch.iter().map(|&(_, kind)| kind));
            self.scratch = scratch;
        }
        // Once per batch, not once per event.
        self.shrink_if_sparse();
        Some(t)
    }

    /// Rebuild with `new_nb` buckets, re-picking the bucket width from
    /// the spacing of the events at the *head* of the queue (Brown's
    /// rule). The head gap is what pops will actually see; a global
    /// `(max - min) / len` estimate is wrong whenever the distribution
    /// is skewed — e.g. a dense recycling cluster at the front with a
    /// sparse tail of far-out timers behind it.
    fn resize(&mut self, new_nb: usize) {
        const WIDTH_SAMPLE: usize = 32;
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.extend(std::mem::take(bucket));
        }
        if entries.len() >= 2 {
            // The WIDTH_SAMPLE earliest event times, via an O(n) select
            // (order within the head does not matter, only its span).
            let mut times: Vec<u64> = entries.iter().map(|e| e.time.as_nanos()).collect();
            if times.len() > WIDTH_SAMPLE {
                times.select_nth_unstable(WIDTH_SAMPLE - 1);
                times.truncate(WIDTH_SAMPLE);
            }
            let head = &times[..];
            let lo = head.iter().min().copied().unwrap_or(0);
            let hi = head.iter().max().copied().unwrap_or(0);
            let mean_gap = (hi - lo) / head.len().max(1) as u64;
            // Width = smallest power of two >= 2 * mean head gap,
            // clamped so day arithmetic stays sane.
            self.shift = (64 - (mean_gap.saturating_mul(2)).leading_zeros()).clamp(4, 40);
        }
        // Pre-size each bucket past the expected occupancy (≤2 by the
        // grow trigger): the grow/shrink oscillation otherwise hands out
        // zero-capacity buckets whose first few pushes realloc, every
        // resize, forever. Capacity is invisible to pop order.
        let cap = (2 * entries.len() / new_nb + 2).next_power_of_two();
        self.buckets = (0..new_nb).map(|_| Vec::with_capacity(cap)).collect();
        self.mask = (new_nb - 1) as u64;
        let mut min_day = u64::MAX;
        for e in &entries {
            min_day = min_day.min(self.day_of(e.time));
        }
        self.cursor_day = if entries.is_empty() { 0 } else { min_day };
        for e in entries {
            let day = self.day_of(e.time);
            self.buckets[(day & self.mask) as usize].push(e);
        }
        self.pops_since_resize = 0;
    }
}

/// The `(time, seq)` minimum of the entries in `bucket` that pass
/// `keep`: its index, its key, and how many kept entries share its time.
#[inline(always)]
fn bucket_min(
    bucket: &[Entry],
    keep: impl Fn(&Entry) -> bool,
) -> Option<(usize, (SimTime, u64), usize)> {
    let mut best: Option<(usize, (SimTime, u64))> = None;
    let mut ties = 0usize;
    for (i, e) in bucket.iter().enumerate() {
        if !keep(e) {
            continue;
        }
        match best {
            Some((_, k)) if e.time > k.0 => {}
            Some((_, k)) if e.time == k.0 => {
                ties += 1;
                if e.seq < k.1 {
                    best = Some((i, e.key()));
                }
            }
            _ => {
                best = Some((i, e.key()));
                ties = 1;
            }
        }
    }
    best.map(|(i, k)| (i, k, ties))
}

/// Deterministic earliest-first event queue.
#[derive(Debug)]
pub struct EventQueue {
    cal: CalendarQueue,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            cal: CalendarQueue::new(),
            next_seq: 0,
        }
    }

    /// Schedule `kind` to fire at `time`.
    ///
    /// Inlined along with `pop`: every packet hop and timer goes through
    /// these, so they should collapse into their callers.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.cal.push(Entry { time, seq, kind });
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.cal.pop().map(|e| (e.time, e.kind))
    }

    /// Remove every event sharing the earliest pending timestamp, if that
    /// timestamp is at or before `horizon`, appending their kinds to `out`
    /// in exactly the order repeated [`Self::pop`] calls would have
    /// produced (ascending `seq`). Returns the batch timestamp,
    /// or `None` when the queue is empty or the head is past the horizon.
    ///
    /// Events scheduled *while a batch is being dispatched* — even at the
    /// batch's own timestamp — get strictly larger sequence numbers than
    /// everything already extracted, so picking them up in the *next*
    /// `drain_batch` call reproduces the single-pop order exactly. This is
    /// the ordering contract `Simulator::run_until` batching relies on;
    /// see DESIGN.md §5g and `tests/batch_equivalence.rs`.
    ///
    /// `out` is a caller-owned arena buffer (cleared here) so steady-state
    /// batch dispatch performs no allocation.
    pub fn drain_batch(&mut self, horizon: SimTime, out: &mut Vec<EventKind>) -> Option<SimTime> {
        out.clear();
        self.cal.drain_batch(horizon, out)
    }

    /// Total number of events ever scheduled on this queue (the next
    /// sequence number). With [`Self::len`] this gives the number of
    /// events already dispatched — `scheduled() - len()` — without any
    /// hot-path counter.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(agent: usize, token: u64) -> EventKind {
        EventKind::AgentTimer {
            agent: AgentId::from_index(agent),
            token,
        }
    }

    fn tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::AgentTimer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn entry_is_32_bytes() {
        // 8 (time) + 8 (seq) + 16 (kind): the layout every calendar
        // bucket stores. Growing it costs cache lines on every schedule
        // and pop.
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), timer(0, 0));
        q.schedule(SimTime::from_millis(10), timer(0, 1));
        q.schedule(SimTime::from_millis(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for token in 0..100 {
            q.schedule(t, timer(0, token));
        }
        assert_eq!(tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_pop_correctly() {
        // Events many "years" past the calendar cursor exercise the
        // overflow fallback scan.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), timer(0, 0));
        q.schedule(SimTime::from_secs(3600), timer(0, 1));
        q.schedule(SimTime::from_secs(7200), timer(0, 2));
        assert_eq!(tokens(&mut q), vec![0, 1, 2]);
    }
}
