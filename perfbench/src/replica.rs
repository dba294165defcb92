//! A scenario cell rebuilt from the benchmark's own files, with a span
//! around each layer it calls into.
//!
//! `ScenarioExperiment::run_cell` keeps its `Simulator` private, so the
//! traced run replays the cell through the same public calls, in the
//! same order: `TopologySpec::build_with`, `Flavor::install`,
//! `install_cbr`, `install_flash_crowd`, `Simulator::run_until`, and the
//! `Stats` queries the cell output makes. The traced run's artifacts
//! must be byte-identical to the untraced run's, which proves the
//! replay does the program's work and no other.

use std::any::Any;
use std::time::Instant;

use slowcc_experiments::dsl::{
    BinOut, CbrShape, FlowOut, LinkOut, ScenarioCellOut, ScenarioSpec, TraceOut,
};
use slowcc_netsim::ids::FlowId;
use slowcc_netsim::sim::Simulator;
use slowcc_netsim::time::SimTime;
use slowcc_netsim::topology::{BuiltTopology, DumbbellOptions};
use slowcc_netsim::trace::{TraceEvent, TraceSink, WindowedStats};
use slowcc_traffic::bulk::add_reverse_tcp;
use slowcc_traffic::cbr::{install_cbr, RateSchedule};
use slowcc_traffic::flash::{install_flash_crowd, FlashCrowdConfig};

/// Forwards every record to the scenario's `WindowedStats` and counts
/// them: the `trace` layer's work count.
pub struct CountingSink {
    inner: WindowedStats,
    records: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: &TraceEvent) {
        self.records += 1;
        self.inner.record(event);
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// Spans and exact counts of one replayed cell.
#[derive(Debug, Default, Clone)]
pub struct CellTrace {
    pub topology_build_s: f64,
    pub core_install_s: f64,
    pub traffic_install_s: f64,
    pub run_until_s: f64,
    pub stats_query_s: f64,
    /// Congestion-controlled flows installed (flow blocks and reverse TCP).
    pub flows: u64,
    pub events: u64,
    pub packets: u64,
    pub pool_capacity: u64,
    pub trace_records: u64,
    pub trace_bins: u64,
    /// Summed over the congested links, forward and reverse.
    pub queue_arrivals: u64,
    pub queue_drops: u64,
    pub queue_marks: u64,
    pub queue_tx: u64,
    /// Congested links where arrivals != tx + drops + queued (+1 in service).
    pub conservation_failures: u64,
}

/// A cell whose topology is built and whose agents are installed, ready
/// to run.
pub struct Built {
    sim: Simulator,
    topo: BuiltTopology,
    tracked: Vec<(String, FlowId)>,
    reverse: Vec<FlowId>,
    trace: CellTrace,
}

/// Set the cell up the way the program does, timing the topology,
/// agent and traffic layers. With `count_trace` the scenario's
/// `WindowedStats` sits behind a [`CountingSink`].
pub fn build(spec: &ScenarioSpec, seed: u64, count_trace: bool) -> Built {
    assert!(
        spec.forward_faults.is_none() && spec.reverse_faults.is_none(),
        "benchmark scenarios carry no fault plans"
    );
    let mut trace = CellTrace::default();
    let mut sim = Simulator::new(seed);
    if let Some(tr) = &spec.trace {
        let ws = WindowedStats::new(tr.bin);
        if count_trace {
            sim.set_trace(Box::new(CountingSink {
                inner: ws,
                records: 0,
            }));
        } else {
            sim.set_trace(Box::new(ws));
        }
    }

    let t = Instant::now();
    let topo = spec.topology.build_with(&mut sim, DumbbellOptions::new());
    trace.topology_build_s = t.elapsed().as_secs_f64();
    let pkt = topo.config().pkt_size;

    let t = Instant::now();
    let reverse = if spec.reverse_tcp > 0 {
        let db = topo.as_dumbbell().expect("reverse TCP is dumbbell-only");
        add_reverse_tcp(&mut sim, db, spec.reverse_tcp)
            .iter()
            .map(|h| h.flow)
            .collect()
    } else {
        Vec::new()
    };
    let mut tracked: Vec<(String, FlowId)> = Vec::new();
    for fb in &spec.flows {
        for i in 0..fb.count {
            let pair = if let Some(d) = fb.access_delay {
                topo.add_host_pair_with_delay(&mut sim, d)
            } else if let Some((from, to)) = fb.span {
                topo.add_host_pair_span(&mut sim, from, to)
            } else {
                topo.add_host_pair(&mut sim)
            };
            let start = SimTime::ZERO + fb.start + fb.stagger * i as u64;
            let stop = fb.stop.map(|d| SimTime::ZERO + d);
            let h = fb.flavor.install(&mut sim, &pair, pkt, start, stop);
            tracked.push((fb.flavor.label(), h.flow));
        }
    }
    trace.core_install_s = t.elapsed().as_secs_f64();
    trace.flows = (tracked.len() + reverse.len()) as u64;

    let t = Instant::now();
    for cb in &spec.cbr {
        let pair = match cb.span {
            Some((from, to)) => topo.add_host_pair_span(&mut sim, from, to),
            None => topo.add_host_pair(&mut sim),
        };
        let schedule = match cb.shape {
            CbrShape::Constant => RateSchedule::Constant(cb.rate_bps),
            CbrShape::Square { half_period } => RateSchedule::SquareWave {
                rate_bps: cb.rate_bps,
                half_period,
            },
            CbrShape::OnOff { on, off } => RateSchedule::OnOff {
                rate_bps: cb.rate_bps,
                on,
                off,
            },
        };
        let h = install_cbr(&mut sim, &pair, schedule, pkt, SimTime::ZERO + cb.start);
        tracked.push(("CBR".to_string(), h.flow));
    }
    for fl in &spec.flash {
        let db = topo.as_dumbbell().expect("flash crowds are dumbbell-only");
        let cfg = FlashCrowdConfig {
            flows_per_sec: fl.flows_per_sec,
            duration: fl.duration,
            transfer_packets: fl.transfer_packets,
            pkt_size: pkt,
            host_pairs: fl.host_pairs,
            seed: fl.seed.unwrap_or(seed),
        };
        let crowd = install_flash_crowd(&mut sim, db, cfg, SimTime::ZERO + fl.start);
        tracked.push(("flash-crowd".to_string(), crowd.flow));
    }
    trace.traffic_install_s = t.elapsed().as_secs_f64();

    Built {
        sim,
        topo,
        tracked,
        reverse,
        trace,
    }
}

fn zero_link(label: String) -> LinkOut {
    LinkOut {
        label,
        arrivals: 0,
        drops: 0,
        marks: 0,
        tx_packets: 0,
        tx_bytes: 0,
        duplicates: 0,
        fault_held: 0,
        flap_drops: 0,
    }
}

/// Run a built cell to the horizon and assemble its output exactly as
/// the program's cell does, recording the `sim`, `stats`, `queue` and
/// `trace` layers on the way.
pub fn run(spec: &ScenarioSpec, seed: u64, built: Built) -> (ScenarioCellOut, CellTrace) {
    let Built {
        mut sim,
        topo,
        tracked,
        reverse,
        mut trace,
    } = built;
    let end = SimTime::ZERO + spec.stop;
    let t = Instant::now();
    sim.run_until(end);
    trace.run_until_s = t.elapsed().as_secs_f64();
    trace.events = sim.events_processed();
    trace.packets = sim.packets_injected();
    trace.pool_capacity = sim.packet_pool_capacity() as u64;

    let t = Instant::now();
    let warmup_t = SimTime::ZERO + spec.warmup;
    let tail_start = SimTime::from_nanos(spec.stop.as_nanos() * 3 / 4);
    let horizon_secs = spec.stop.as_secs_f64();
    let flow_out = |label: String, flow: FlowId| -> FlowOut {
        let stats = sim.stats();
        let (rx_packets, rx_bytes) = stats
            .flow(flow)
            .map(|f| (f.total_rx_packets, f.total_rx_bytes))
            .unwrap_or((0, 0));
        FlowOut {
            label,
            rx_packets,
            rx_bytes,
            throughput_bps: stats.flow_throughput_bps(flow, warmup_t, end),
            mean_mbps: rx_bytes as f64 * 8.0 / horizon_secs / 1e6,
            tail_rx_bytes: stats.flow_rx_bytes_in(flow, tail_start, end),
        }
    };
    let flows: Vec<FlowOut> = tracked.into_iter().map(|(l, f)| flow_out(l, f)).collect();
    let reverse: Vec<FlowOut> = reverse
        .into_iter()
        .map(|f| flow_out("reverse-TCP".to_string(), f))
        .collect();
    let mut links = Vec::new();
    for (dir, ids) in [
        ("forward", topo.forward_links()),
        ("reverse", topo.reverse_links()),
    ] {
        for (hop, id) in ids.iter().enumerate() {
            let label = format!("{dir}[{hop}]");
            links.push(match sim.stats().link(*id) {
                Some(ls) => LinkOut {
                    label,
                    arrivals: ls.total_arrivals,
                    drops: ls.total_drops,
                    marks: ls.total_marks,
                    tx_packets: ls.total_tx_packets,
                    tx_bytes: ls.total_tx_bytes,
                    duplicates: ls.total_duplicates,
                    fault_held: ls.total_fault_held,
                    flap_drops: ls.total_flap_drops,
                },
                None => zero_link(label),
            });
        }
    }
    trace.stats_query_s = t.elapsed().as_secs_f64();

    let ids: Vec<_> = topo
        .forward_links()
        .into_iter()
        .chain(topo.reverse_links())
        .collect();
    for (link, id) in links.iter().zip(ids) {
        trace.queue_arrivals += link.arrivals;
        trace.queue_drops += link.drops;
        trace.queue_marks += link.marks;
        trace.queue_tx += link.tx_packets;
        let settled = link.tx_packets + link.drops + sim.link_queue_len(id) as u64;
        if !(settled == link.arrivals || settled + 1 == link.arrivals) {
            trace.conservation_failures += 1;
        }
    }

    let cell_trace = spec.trace.as_ref().map(|tr| {
        let sink = sim
            .take_trace()
            .expect("the scenario installed a trace sink");
        let any = sink.as_any().expect("benchmark sinks downcast");
        let (ws, records) = match any.downcast_ref::<CountingSink>() {
            Some(c) => (&c.inner, c.records),
            None => (
                any.downcast_ref::<WindowedStats>()
                    .expect("an uncounted sink is WindowedStats"),
                0,
            ),
        };
        let bins: Vec<BinOut> = ws
            .bins()
            .iter()
            .map(|b| BinOut {
                index: b.index,
                sends: b.sends,
                enqueues: b.enqueues,
                dequeues: b.dequeues,
                delivered_packets: b.delivered_packets,
                delivered_bytes: b.delivered_bytes,
                drops_loss: b.drops_loss,
                drops_queue: b.drops_queue,
                drops_link_down: b.drops_link_down,
                marks: b.marks,
                fault_dups: b.fault_dups,
                fault_holds: b.fault_holds,
                occupancy_max: b.occupancy_max,
                occupancy_end: b.occupancy_end,
            })
            .collect();
        trace.trace_records = records;
        trace.trace_bins = bins.len() as u64;
        TraceOut {
            bin_ns: tr.bin.as_nanos(),
            bins,
        }
    });

    let out = ScenarioCellOut {
        seed,
        flows,
        reverse,
        links,
        trace: cell_trace,
    };
    (out, trace)
}
