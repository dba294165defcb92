//! Time-binned statistics collected by the simulator.
//!
//! Everything the paper's metrics need is derivable from three streams of
//! counters, recorded automatically for every flow and link:
//!
//! * per-flow transmitted bytes/packets (sending rate, smoothness),
//! * per-flow delivered bytes/packets at the destination (throughput,
//!   fairness, utilization),
//! * per-link arrivals, drops and transmitted bytes at the buffer
//!   (loss-rate series, stabilization metrics, utilization).
//!
//! Counters are accumulated into fixed-width time bins (default 10 ms) and
//! re-aggregated into coarser windows on demand, so one simulation run can
//! feed metrics that need different window sizes.
//!
//! The link counters every packet hop writes are packed into one row per
//! bin ([`LinkBin`]), so a hop touches one cache line of its link's
//! series instead of one per counter. Drops and ECN marks are rare next
//! to arrivals and stay separate series, each grown only as far as its
//! own last recorded bin. Flow counters stay one series per counter:
//! packing them gained nothing measurable, and the throughput queries,
//! which read only the delivered bytes, would read three times the
//! memory.

use serde::Serialize;

use crate::ids::{FlowId, LinkId};
use crate::time::{SimDuration, SimTime};

/// One bin of a link's always-recorded counters.
#[derive(Debug, Default, Clone, Copy, Serialize)]
pub struct LinkBin {
    /// Packets offered to the link (before loss patterns and queueing).
    pub arrivals: u64,
    /// Sum of the buffer occupancies observed by arriving packets;
    /// divided by `arrivals` this gives the mean queue seen on arrival
    /// (the queue-dynamics metric).
    pub queue_sum: u64,
    /// Bytes that completed serialization.
    pub tx_bytes: u64,
}

/// Per-flow counters.
#[derive(Debug, Default, Clone, Serialize)]
pub struct FlowStats {
    /// Bytes handed to the network by the source, per bin.
    pub tx_bytes: Vec<u64>,
    /// Data bytes delivered to the destination agent, per bin.
    pub rx_bytes: Vec<u64>,
    /// Data packets delivered to the destination agent, per bin.
    pub rx_packets: Vec<u64>,
    /// Total bytes handed to the network by the source.
    pub total_tx_bytes: u64,
    /// Total data bytes delivered to the destination agent.
    pub total_rx_bytes: u64,
    /// Total data packets delivered to the destination agent.
    pub total_rx_packets: u64,
}

/// Per-link counters, recorded at the link buffer.
#[derive(Debug, Default, Clone, Serialize)]
pub struct LinkStats {
    /// Per-bin arrivals, queue sums and transmitted bytes, up to the last
    /// bin any of them was recorded in.
    pub bins: Vec<LinkBin>,
    /// Packets dropped (scripted loss + queue drops), per bin.
    pub drops: Vec<u64>,
    /// Packets ECN-marked (scripted marking + RED-with-ECN), per bin.
    pub marks: Vec<u64>,
    /// Total packets offered to the link.
    pub total_arrivals: u64,
    /// Total packets dropped at the link.
    pub total_drops: u64,
    /// Total packets ECN-marked at the link.
    pub total_marks: u64,
    /// Total bytes that completed serialization.
    pub total_tx_bytes: u64,
    /// Total packets that completed serialization.
    pub total_tx_packets: u64,
    /// Packets cloned by the fault layer (see [`crate::faults`]). The
    /// clone later shows up in `total_arrivals` like any offered packet.
    pub total_duplicates: u64,
    /// Packets sent through the fault layer's reorder hold bay.
    pub total_fault_held: u64,
    /// Packets dropped inside a scripted outage window. A subset of
    /// `total_drops`, kept separately so experiments can distinguish
    /// blackhole loss from congestive loss.
    pub total_flap_drops: u64,
}

/// Statistics store. Owned by the simulator; read out after (or during)
/// a run.
#[derive(Debug)]
pub struct Stats {
    bin: SimDuration,
    /// Memo of the last bin resolved by the record path: `[start, end)`
    /// in nanos and the bin index. Record timestamps are nearly monotone
    /// and bins are ~10 ms wide, so almost every record hits the memo
    /// and skips the 64-bit division in [`Self::bin_index`].
    bin_memo: (u64, u64, usize),
    flows: Vec<FlowStats>,
    links: Vec<LinkStats>,
}

/// The row for bin `ix`, growing the series with zero rows up to it.
#[inline]
fn bin_mut<T: Default + Clone>(v: &mut Vec<T>, ix: usize) -> &mut T {
    if v.len() <= ix {
        v.resize(ix + 1, T::default());
    }
    &mut v[ix]
}

impl Stats {
    /// A store with the given bin width. Panics on a zero width, which
    /// would make every event land in one bin.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "stats bin width must be positive");
        Stats {
            bin,
            bin_memo: (0, 0, 0),
            flows: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Width of the native bins.
    pub fn bin_width(&self) -> SimDuration {
        self.bin
    }

    fn bin_index(&self, t: SimTime) -> usize {
        (t.as_nanos() / self.bin.as_nanos()) as usize
    }

    /// [`Self::bin_index`] for the record path: checks the `[start, end)`
    /// memo before dividing. Returns the identical index for every input
    /// (the memo is an exact cache, not an approximation), so recorded
    /// series are byte-for-byte unaffected.
    #[inline]
    fn bin_index_hot(&mut self, t: SimTime) -> usize {
        let ns = t.as_nanos();
        let (start, end, ix) = self.bin_memo;
        if ns >= start && ns < end {
            return ix;
        }
        let width = self.bin.as_nanos();
        let ix = (ns / width) as usize;
        let start = ix as u64 * width;
        self.bin_memo = (start, start.saturating_add(width), ix);
        ix
    }

    pub(crate) fn ensure_flow(&mut self, flow: FlowId) {
        if self.flows.len() <= flow.index() {
            self.flows.resize_with(flow.index() + 1, FlowStats::default);
        }
    }

    pub(crate) fn ensure_link(&mut self, link: LinkId) {
        if self.links.len() <= link.index() {
            self.links.resize_with(link.index() + 1, LinkStats::default);
        }
    }

    pub(crate) fn record_flow_tx(&mut self, flow: FlowId, now: SimTime, bytes: u32) {
        let ix = self.bin_index_hot(now);
        self.ensure_flow(flow);
        let f = &mut self.flows[flow.index()];
        *bin_mut(&mut f.tx_bytes, ix) += bytes as u64;
        f.total_tx_bytes += bytes as u64;
    }

    pub(crate) fn record_flow_rx(&mut self, flow: FlowId, now: SimTime, bytes: u32) {
        let ix = self.bin_index_hot(now);
        self.ensure_flow(flow);
        let f = &mut self.flows[flow.index()];
        *bin_mut(&mut f.rx_bytes, ix) += bytes as u64;
        *bin_mut(&mut f.rx_packets, ix) += 1;
        f.total_rx_bytes += bytes as u64;
        f.total_rx_packets += 1;
    }

    pub(crate) fn record_link_arrival(&mut self, link: LinkId, now: SimTime, queue_len: usize) {
        let ix = self.bin_index_hot(now);
        self.ensure_link(link);
        let l = &mut self.links[link.index()];
        let b = bin_mut(&mut l.bins, ix);
        b.arrivals += 1;
        b.queue_sum += queue_len as u64;
        l.total_arrivals += 1;
    }

    /// Mean buffer occupancy seen by packets arriving at `link`, per
    /// `window`-wide interval (zero where nothing arrived).
    pub fn link_queue_series(&self, link: LinkId, window: SimDuration, until: SimTime) -> Vec<f64> {
        let Some(l) = self.link(link) else {
            return Vec::new();
        };
        let n = until.as_nanos().div_ceil(window.as_nanos());
        (0..n)
            .map(|w| {
                let from = SimTime::from_nanos(w * window.as_nanos());
                let to = SimTime::from_nanos((w + 1) * window.as_nanos());
                let rows = self.window(&l.bins, from, to);
                let arrivals: u64 = rows.iter().map(|b| b.arrivals).sum();
                if arrivals == 0 {
                    0.0
                } else {
                    rows.iter().map(|b| b.queue_sum).sum::<u64>() as f64 / arrivals as f64
                }
            })
            .collect()
    }

    pub(crate) fn record_link_drop(&mut self, link: LinkId, now: SimTime) {
        let ix = self.bin_index_hot(now);
        self.ensure_link(link);
        let l = &mut self.links[link.index()];
        *bin_mut(&mut l.drops, ix) += 1;
        l.total_drops += 1;
    }

    /// A scripted-outage drop: ordinary drop accounting plus the
    /// flap-specific sub-counter.
    pub(crate) fn record_link_flap_drop(&mut self, link: LinkId, now: SimTime) {
        self.record_link_drop(link, now);
        self.links[link.index()].total_flap_drops += 1;
    }

    pub(crate) fn record_link_duplicate(&mut self, link: LinkId) {
        self.ensure_link(link);
        self.links[link.index()].total_duplicates += 1;
    }

    pub(crate) fn record_link_fault_held(&mut self, link: LinkId) {
        self.ensure_link(link);
        self.links[link.index()].total_fault_held += 1;
    }

    pub(crate) fn record_link_mark(&mut self, link: LinkId, now: SimTime) {
        let ix = self.bin_index_hot(now);
        self.ensure_link(link);
        let l = &mut self.links[link.index()];
        *bin_mut(&mut l.marks, ix) += 1;
        l.total_marks += 1;
    }

    pub(crate) fn record_link_tx(&mut self, link: LinkId, now: SimTime, bytes: u32) {
        let ix = self.bin_index_hot(now);
        self.ensure_link(link);
        let l = &mut self.links[link.index()];
        bin_mut(&mut l.bins, ix).tx_bytes += bytes as u64;
        l.total_tx_bytes += bytes as u64;
        l.total_tx_packets += 1;
    }

    /// Raw per-flow counters, if the flow ever carried traffic.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowStats> {
        self.flows.get(flow.index())
    }

    /// Raw per-link counters, if the link ever saw traffic.
    pub fn link(&self, link: LinkId) -> Option<&LinkStats> {
        self.links.get(link.index())
    }

    /// The recorded bins of `series` that overlap the half-open interval
    /// `[from, to)`; empty for an empty interval or one past the last
    /// recorded bin.
    fn window<'a, T>(&self, series: &'a [T], from: SimTime, to: SimTime) -> &'a [T] {
        if to <= from {
            return &[];
        }
        let lo = self.bin_index(from).min(series.len());
        // `to` is exclusive; the bin containing `to - 1ns` is the last.
        let hi = ((to.as_nanos() - 1) / self.bin.as_nanos()) as usize;
        &series[lo..hi.saturating_add(1).min(series.len())]
    }

    /// Sum a binned counter over the half-open interval `[from, to)`.
    fn sum_window(&self, series: &[u64], from: SimTime, to: SimTime) -> u64 {
        self.window(series, from, to).iter().sum()
    }

    /// Data bytes delivered on `flow` in `[from, to)`.
    pub fn flow_rx_bytes_in(&self, flow: FlowId, from: SimTime, to: SimTime) -> u64 {
        self.flow(flow)
            .map_or(0, |f| self.sum_window(&f.rx_bytes, from, to))
    }

    /// Bytes the source of `flow` transmitted in `[from, to)`.
    pub fn flow_tx_bytes_in(&self, flow: FlowId, from: SimTime, to: SimTime) -> u64 {
        self.flow(flow)
            .map_or(0, |f| self.sum_window(&f.tx_bytes, from, to))
    }

    /// Average delivered throughput of `flow` over `[from, to)` in bits/s.
    pub fn flow_throughput_bps(&self, flow: FlowId, from: SimTime, to: SimTime) -> f64 {
        let secs = to.saturating_since(from).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.flow_rx_bytes_in(flow, from, to) as f64 * 8.0 / secs
    }

    /// Delivered throughput of `flow` re-binned into windows of `window`
    /// width starting at time zero, in bits/s per window.
    pub fn flow_rate_series_bps(
        &self,
        flow: FlowId,
        window: SimDuration,
        until: SimTime,
    ) -> Vec<f64> {
        self.rate_series(
            self.flow(flow)
                .map(|f| f.rx_bytes.as_slice())
                .unwrap_or(&[]),
            window,
            until,
        )
    }

    /// Source sending rate of `flow` re-binned into `window`-wide windows,
    /// in bits/s per window.
    pub fn flow_tx_rate_series_bps(
        &self,
        flow: FlowId,
        window: SimDuration,
        until: SimTime,
    ) -> Vec<f64> {
        self.rate_series(
            self.flow(flow)
                .map(|f| f.tx_bytes.as_slice())
                .unwrap_or(&[]),
            window,
            until,
        )
    }

    fn rate_series(&self, bytes: &[u64], window: SimDuration, until: SimTime) -> Vec<f64> {
        assert!(
            window.as_nanos() >= self.bin.as_nanos(),
            "window narrower than stats bin"
        );
        let n = until.as_nanos().div_ceil(window.as_nanos());
        let secs = window.as_secs_f64();
        (0..n)
            .map(|w| {
                let from = SimTime::from_nanos(w * window.as_nanos());
                let to = SimTime::from_nanos((w + 1) * window.as_nanos());
                self.sum_window(bytes, from, to) as f64 * 8.0 / secs
            })
            .collect()
    }

    /// Packets dropped at `link` over `[from, to)`.
    pub fn link_drops_in(&self, link: LinkId, from: SimTime, to: SimTime) -> u64 {
        self.link(link)
            .map_or(0, |l| self.sum_window(&l.drops, from, to))
    }

    /// Packets ECN-marked at `link` over `[from, to)`.
    pub fn link_marks_in(&self, link: LinkId, from: SimTime, to: SimTime) -> u64 {
        self.link(link)
            .map_or(0, |l| self.sum_window(&l.marks, from, to))
    }

    /// Packet drop fraction at `link` over `[from, to)`:
    /// drops / arrivals, or zero when nothing arrived.
    pub fn link_loss_fraction_in(&self, link: LinkId, from: SimTime, to: SimTime) -> f64 {
        let Some(l) = self.link(link) else { return 0.0 };
        let arrivals: u64 = self
            .window(&l.bins, from, to)
            .iter()
            .map(|b| b.arrivals)
            .sum();
        if arrivals == 0 {
            return 0.0;
        }
        let drops = self.sum_window(&l.drops, from, to);
        drops as f64 / arrivals as f64
    }

    /// Loss-fraction time series at `link` in windows of `window` width.
    pub fn link_loss_series(&self, link: LinkId, window: SimDuration, until: SimTime) -> Vec<f64> {
        let n = until.as_nanos().div_ceil(window.as_nanos());
        (0..n)
            .map(|w| {
                let from = SimTime::from_nanos(w * window.as_nanos());
                let to = SimTime::from_nanos((w + 1) * window.as_nanos());
                self.link_loss_fraction_in(link, from, to)
            })
            .collect()
    }

    /// Bytes that completed serialization on `link` over `[from, to)`.
    pub fn link_tx_bytes_in(&self, link: LinkId, from: SimTime, to: SimTime) -> u64 {
        self.link(link).map_or(0, |l| {
            self.window(&l.bins, from, to)
                .iter()
                .map(|b| b.tx_bytes)
                .sum()
        })
    }

    /// Utilization of `link` over `[from, to)` against a nominal rate.
    pub fn link_utilization_in(
        &self,
        link: LinkId,
        from: SimTime,
        to: SimTime,
        rate_bps: f64,
    ) -> f64 {
        let secs = to.saturating_since(from).as_secs_f64();
        if secs <= 0.0 || rate_bps <= 0.0 {
            return 0.0;
        }
        (self.link_tx_bytes_in(link, from, to) as f64 * 8.0) / (rate_bps * secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn flow_counters_aggregate_by_window() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let f = FlowId::from_index(0);
        s.record_flow_rx(f, t(5), 1000);
        s.record_flow_rx(f, t(15), 1000);
        s.record_flow_rx(f, t(95), 500);
        assert_eq!(s.flow_rx_bytes_in(f, t(0), t(20)), 2000);
        assert_eq!(s.flow_rx_bytes_in(f, t(0), t(100)), 2500);
        assert_eq!(s.flow_rx_bytes_in(f, t(20), t(90)), 0);
        // 2500 bytes over 0.1 s = 200 kbit/s.
        assert!((s.flow_throughput_bps(f, t(0), t(100)) - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_windows_are_zero() {
        let s = Stats::new(SimDuration::from_millis(10));
        let f = FlowId::from_index(3);
        assert_eq!(s.flow_rx_bytes_in(f, t(0), t(100)), 0);
        assert_eq!(s.flow_throughput_bps(f, t(10), t(10)), 0.0);
    }

    #[test]
    fn loss_fraction_counts_drops_over_arrivals() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let l = LinkId::from_index(0);
        for i in 0..10 {
            s.record_link_arrival(l, t(i), 0);
        }
        s.record_link_drop(l, t(3));
        s.record_link_drop(l, t(4));
        assert!((s.link_loss_fraction_in(l, t(0), t(10)) - 0.2).abs() < 1e-12);
        assert_eq!(s.link_loss_fraction_in(l, t(100), t(200)), 0.0);
    }

    #[test]
    fn rate_series_covers_the_whole_horizon() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let f = FlowId::from_index(0);
        s.record_flow_rx(f, t(5), 125); // 125 B in first 100 ms window -> 10 kbit/s
        s.record_flow_rx(f, t(150), 250);
        let series = s.flow_rate_series_bps(f, SimDuration::from_millis(100), t(200));
        assert_eq!(series.len(), 2);
        assert!((series[0] - 10_000.0).abs() < 1e-6);
        assert!((series[1] - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_against_nominal_rate() {
        let mut s = Stats::new(SimDuration::from_millis(10));
        let l = LinkId::from_index(1);
        // 125_000 bytes in 1 second = 1 Mbit/s.
        s.record_link_tx(l, t(500), 125_000);
        let u = s.link_utilization_in(l, t(0), SimTime::from_secs(1), 2e6);
        assert!((u - 0.5).abs() < 1e-9);
    }

    mod oracle {
        //! Every public query against a naive oracle that keeps the raw
        //! event list and sums it per query, over random interleavings of
        //! all record calls at random (non-monotone) timestamps.
        use super::super::*;
        use proptest::prelude::*;

        const BIN_NS: u64 = 10_000_000;
        /// Flow and link ids recorded are `0..IDS`; queries also probe
        /// `IDS`, which no event touches.
        const IDS: usize = 3;
        const HORIZON_NS: u64 = 300_000_000;

        #[derive(Debug, Clone, Copy)]
        enum Ev {
            FlowTx(usize, u64, u32),
            FlowRx(usize, u64, u32),
            Arrival(usize, u64, usize),
            Tx(usize, u64, u32),
            Drop(usize, u64),
            FlapDrop(usize, u64),
            Mark(usize, u64),
            Duplicate(usize),
            FaultHeld(usize),
        }

        fn decode(op: u64) -> Ev {
            let id = ((op >> 4) % IDS as u64) as usize;
            let ns = (op >> 8) % HORIZON_NS;
            let amount = ((op >> 40) % 1_600) as u32;
            match op % 9 {
                0 => Ev::FlowTx(id, ns, amount),
                1 => Ev::FlowRx(id, ns, amount),
                2 => Ev::Arrival(id, ns, amount as usize % 40),
                3 => Ev::Tx(id, ns, amount),
                4 => Ev::Drop(id, ns),
                5 => Ev::FlapDrop(id, ns),
                6 => Ev::Mark(id, ns),
                7 => Ev::Duplicate(id),
                _ => Ev::FaultHeld(id),
            }
        }

        fn record(s: &mut Stats, ev: Ev) {
            let (f, l, at) = (FlowId::from_index, LinkId::from_index, SimTime::from_nanos);
            match ev {
                Ev::FlowTx(id, ns, b) => s.record_flow_tx(f(id), at(ns), b),
                Ev::FlowRx(id, ns, b) => s.record_flow_rx(f(id), at(ns), b),
                Ev::Arrival(id, ns, q) => s.record_link_arrival(l(id), at(ns), q),
                Ev::Tx(id, ns, b) => s.record_link_tx(l(id), at(ns), b),
                Ev::Drop(id, ns) => s.record_link_drop(l(id), at(ns)),
                Ev::FlapDrop(id, ns) => s.record_link_flap_drop(l(id), at(ns)),
                Ev::Mark(id, ns) => s.record_link_mark(l(id), at(ns)),
                Ev::Duplicate(id) => s.record_link_duplicate(l(id)),
                Ev::FaultHeld(id) => s.record_link_fault_held(l(id)),
            }
        }

        /// Which counter an oracle sum reads.
        #[derive(Clone, Copy, PartialEq)]
        enum C {
            FlowTxBytes,
            FlowRxBytes,
            FlowRxPackets,
            Arrivals,
            QueueSum,
            TxBytes,
            TxPackets,
            Drops,
            FlapDrops,
            Marks,
            Duplicates,
            FaultHeld,
        }

        /// `(counter, id, time, amount)` contributions of one event.
        fn contributions(ev: Ev) -> Vec<(C, usize, Option<u64>, u64)> {
            match ev {
                Ev::FlowTx(id, ns, b) => vec![(C::FlowTxBytes, id, Some(ns), b as u64)],
                Ev::FlowRx(id, ns, b) => vec![
                    (C::FlowRxBytes, id, Some(ns), b as u64),
                    (C::FlowRxPackets, id, Some(ns), 1),
                ],
                Ev::Arrival(id, ns, q) => vec![
                    (C::Arrivals, id, Some(ns), 1),
                    (C::QueueSum, id, Some(ns), q as u64),
                ],
                Ev::Tx(id, ns, b) => vec![
                    (C::TxBytes, id, Some(ns), b as u64),
                    (C::TxPackets, id, Some(ns), 1),
                ],
                Ev::Drop(id, ns) => vec![(C::Drops, id, Some(ns), 1)],
                Ev::FlapDrop(id, ns) => {
                    vec![(C::Drops, id, Some(ns), 1), (C::FlapDrops, id, Some(ns), 1)]
                }
                Ev::Mark(id, ns) => vec![(C::Marks, id, Some(ns), 1)],
                Ev::Duplicate(id) => vec![(C::Duplicates, id, None, 1)],
                Ev::FaultHeld(id) => vec![(C::FaultHeld, id, None, 1)],
            }
        }

        struct Oracle(Vec<(C, usize, Option<u64>, u64)>);

        impl Oracle {
            fn new(evs: &[Ev]) -> Self {
                Oracle(evs.iter().flat_map(|&e| contributions(e)).collect())
            }

            fn total(&self, c: C, id: usize) -> u64 {
                self.0
                    .iter()
                    .filter(|x| x.0 == c && x.1 == id)
                    .map(|x| x.3)
                    .sum()
            }

            /// Sum over events whose bin overlaps `[from, to)`.
            fn sum(&self, c: C, id: usize, from: u64, to: u64) -> u64 {
                if to <= from {
                    return 0;
                }
                let (lo, hi) = (from / BIN_NS, (to - 1) / BIN_NS);
                self.0
                    .iter()
                    .filter(|x| x.0 == c && x.1 == id)
                    .filter(|x| x.2.is_some_and(|ns| (lo..=hi).contains(&(ns / BIN_NS))))
                    .map(|x| x.3)
                    .sum()
            }

            /// Whether the store holds an entry for `id`: ids are dense,
            /// so any event on a flow (link) at or above `id` creates it.
            fn exists(&self, flow: bool, id: usize) -> bool {
                let flow_counter =
                    |c: C| matches!(c, C::FlowTxBytes | C::FlowRxBytes | C::FlowRxPackets);
                self.0
                    .iter()
                    .any(|x| flow_counter(x.0) == flow && x.1 >= id)
            }

            fn windows(window: u64, until: u64) -> impl Iterator<Item = (u64, u64)> {
                (0..until.div_ceil(window)).map(move |w| (w * window, (w + 1) * window))
            }

            fn loss(&self, id: usize, from: u64, to: u64) -> f64 {
                let arrivals = self.sum(C::Arrivals, id, from, to);
                if arrivals == 0 {
                    return 0.0;
                }
                self.sum(C::Drops, id, from, to) as f64 / arrivals as f64
            }
        }

        /// Every public query of `s` equals the oracle's answer.
        fn check(s: &Stats, o: &Oracle, from: u64, to: u64, window: u64, until: u64) {
            let at = SimTime::from_nanos;
            let w = SimDuration::from_nanos(window);
            for id in 0..=IDS {
                let (flow, link) = (FlowId::from_index(id), LinkId::from_index(id));
                assert_eq!(s.flow(flow).is_some(), o.exists(true, id));
                assert_eq!(s.link(link).is_some(), o.exists(false, id));
                if let Some(f) = s.flow(flow) {
                    assert_eq!(f.total_tx_bytes, o.total(C::FlowTxBytes, id));
                    assert_eq!(f.total_rx_bytes, o.total(C::FlowRxBytes, id));
                    assert_eq!(f.total_rx_packets, o.total(C::FlowRxPackets, id));
                }
                if let Some(l) = s.link(link) {
                    assert_eq!(l.total_arrivals, o.total(C::Arrivals, id));
                    assert_eq!(l.total_drops, o.total(C::Drops, id));
                    assert_eq!(l.total_marks, o.total(C::Marks, id));
                    assert_eq!(l.total_tx_bytes, o.total(C::TxBytes, id));
                    assert_eq!(l.total_tx_packets, o.total(C::TxPackets, id));
                    assert_eq!(l.total_duplicates, o.total(C::Duplicates, id));
                    assert_eq!(l.total_fault_held, o.total(C::FaultHeld, id));
                    assert_eq!(l.total_flap_drops, o.total(C::FlapDrops, id));
                }

                // Interval queries: the random window and every single bin.
                let bins = (0..HORIZON_NS / BIN_NS + 2).map(|k| (k * BIN_NS, (k + 1) * BIN_NS));
                for (a, b) in std::iter::once((from, to)).chain(bins) {
                    let rx = o.sum(C::FlowRxBytes, id, a, b);
                    assert_eq!(s.flow_rx_bytes_in(flow, at(a), at(b)), rx);
                    assert_eq!(
                        s.flow_tx_bytes_in(flow, at(a), at(b)),
                        o.sum(C::FlowTxBytes, id, a, b)
                    );
                    let tx = o.sum(C::TxBytes, id, a, b);
                    assert_eq!(s.link_tx_bytes_in(link, at(a), at(b)), tx);
                    assert_eq!(
                        s.link_drops_in(link, at(a), at(b)),
                        o.sum(C::Drops, id, a, b)
                    );
                    assert_eq!(
                        s.link_marks_in(link, at(a), at(b)),
                        o.sum(C::Marks, id, a, b)
                    );
                    assert_eq!(
                        s.link_loss_fraction_in(link, at(a), at(b)),
                        o.loss(id, a, b)
                    );
                    let secs_ab = at(b).saturating_since(at(a)).as_secs_f64();
                    let bps = if secs_ab <= 0.0 {
                        0.0
                    } else {
                        rx as f64 * 8.0 / secs_ab
                    };
                    assert_eq!(s.flow_throughput_bps(flow, at(a), at(b)), bps);
                    let util = if secs_ab <= 0.0 {
                        0.0
                    } else {
                        tx as f64 * 8.0 / (1e6 * secs_ab)
                    };
                    assert_eq!(s.link_utilization_in(link, at(a), at(b), 1e6), util);
                }

                // Re-binned series.
                let rate = |c: C| -> Vec<f64> {
                    Oracle::windows(window, until)
                        .map(|(a, b)| o.sum(c, id, a, b) as f64 * 8.0 / w.as_secs_f64())
                        .collect()
                };
                assert_eq!(
                    s.flow_rate_series_bps(flow, w, at(until)),
                    rate(C::FlowRxBytes)
                );
                assert_eq!(
                    s.flow_tx_rate_series_bps(flow, w, at(until)),
                    rate(C::FlowTxBytes)
                );
                let loss: Vec<f64> = Oracle::windows(window, until)
                    .map(|(a, b)| o.loss(id, a, b))
                    .collect();
                assert_eq!(s.link_loss_series(link, w, at(until)), loss);
                let queue: Vec<f64> = if o.exists(false, id) {
                    Oracle::windows(window, until)
                        .map(|(a, b)| match o.sum(C::Arrivals, id, a, b) {
                            0 => 0.0,
                            n => o.sum(C::QueueSum, id, a, b) as f64 / n as f64,
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                assert_eq!(s.link_queue_series(link, w, at(until)), queue);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

            /// Recording a random event stream answers every query like the
            /// oracle.
            #[test]
            fn queries_match_naive_oracle(
                ops in prop::collection::vec(0u64..u64::MAX, 0..160),
                from in 0u64..HORIZON_NS + 3 * BIN_NS,
                len in 0u64..HORIZON_NS,
                window in BIN_NS..5 * BIN_NS,
                until in 0u64..HORIZON_NS + 3 * BIN_NS,
            ) {
                let evs: Vec<Ev> = ops.iter().map(|&op| decode(op)).collect();
                let oracle = Oracle::new(&evs);
                let mut stats = Stats::new(SimDuration::from_nanos(BIN_NS));
                for &ev in &evs {
                    record(&mut stats, ev);
                }
                // Exercise `to <= from` too: `len` can be 0, and the
                // reversed pair is checked as well.
                check(&stats, &oracle, from, from + len, window, until);
                check(&stats, &oracle, from + len, from, window, until);
            }
        }
    }
}
