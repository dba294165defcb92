//! Faulted runs must replay byte-identically.
//!
//! The fault layer re-enters packets through the event queue
//! (`FaultRelease` for holds and duplicates), so its determinism contract
//! leans directly on the scheduler's `(time, seq)` tie-break: the same
//! `(plan, seed)` must give the same delivery order and statistics on
//! every run, traced or not.

use std::sync::{Arc, Mutex};

use slowcc_netsim::faults::FaultPlan;
use slowcc_netsim::ids::{AgentId, FlowId, LinkId, NodeId};
use slowcc_netsim::link::Link;
use slowcc_netsim::packet::{AckInfo, Packet, PacketSpec};
use slowcc_netsim::queue::DropTail;
use slowcc_netsim::sim::{Agent, Ctx, Simulator};
use slowcc_netsim::stats::Stats;
use slowcc_netsim::time::{SimDuration, SimTime};
use slowcc_netsim::topology::{DumbbellConfig, DumbbellOptions, ParkingLot};
use slowcc_netsim::trace::VecTrace;

struct Paced {
    flow: FlowId,
    dst_node: NodeId,
    dst_agent: AgentId,
    count: u64,
    sent: u64,
}

impl Agent for Paced {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(2), 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.sent < self.count {
            ctx.send(PacketSpec::data(
                self.flow,
                self.sent,
                1000,
                self.dst_node,
                self.dst_agent,
            ));
            self.sent += 1;
            if self.sent < self.count {
                ctx.set_timer(SimDuration::from_millis(2), 0);
            }
        }
    }
}

struct AckingSink {
    seqs: Arc<Mutex<Vec<u64>>>,
}

impl Agent for AckingSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.is_data() {
            self.seqs.lock().unwrap().push(pkt.seq);
            let info = AckInfo::cumulative(pkt.seq + 1, pkt.seq, pkt.sent_at);
            ctx.send(PacketSpec::ack_to(&pkt, 40, info));
        }
    }
}

/// Byte-comparable fingerprint of everything the run's statistics
/// recorded for the given flows and links.
fn stats_fingerprint(stats: &Stats, flows: &[FlowId], links: &[LinkId]) -> String {
    let mut out = String::new();
    for &f in flows {
        out.push_str(&format!("{f}: {:?}\n", stats.flow(f)));
    }
    for &l in links {
        out.push_str(&format!("{l}: {:?}\n", stats.link(l)));
    }
    out
}

/// Run the full fault menu (reorder + duplication + jitter + flap) and
/// return a byte-comparable transcript.
/// `traced` additionally captures the full packet trace.
fn run_chaotic(seed: u64, traced: bool) -> (Option<String>, Vec<u64>, String) {
    let plan = FaultPlan::seeded(seed ^ 0xC0FFEE)
        .with_reorder(9, SimDuration::from_millis(20), 6)
        .with_duplication(0.03)
        .with_jitter(SimDuration::from_millis(4))
        .with_flap(SimTime::from_millis(120), SimTime::from_millis(180));
    let mut sim = Simulator::new(seed);
    let a = sim.add_node();
    let b = sim.add_node();
    let ab = sim.add_link(
        a,
        Link::new(
            b,
            8e6,
            SimDuration::from_millis(5),
            Box::new(DropTail::new(64)),
        )
        .with_faults(plan),
    );
    let ba = sim.add_link(
        b,
        Link::new(
            a,
            8e6,
            SimDuration::from_millis(5),
            Box::new(DropTail::new(64)),
        ),
    );
    sim.set_default_route(a, ab);
    sim.set_default_route(b, ba);
    if traced {
        sim.set_trace(Box::new(VecTrace::new(250_000)));
    }

    let seqs = Arc::new(Mutex::new(Vec::new()));
    let sink = sim.add_agent(b, Box::new(AckingSink { seqs: seqs.clone() }));
    let flow = sim.new_flow();
    sim.add_agent(
        a,
        Box::new(Paced {
            flow,
            dst_node: b,
            dst_agent: sink,
            count: 200,
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(2));

    let trace = sim.take_trace().map(|sink| {
        let trace: &VecTrace = sink
            .as_any()
            .and_then(|s| s.downcast_ref())
            .expect("VecTrace downcasts");
        format!("{:?}", trace.events())
    });
    let order = seqs.lock().unwrap().clone();
    let fp = stats_fingerprint(sim.stats(), &[flow], &[ab, ba]);
    (trace, order, fp)
}

/// A three-hop parking lot under a fault plan: held, duplicated and
/// jittered packets are released onto a multi-hop route, so every later
/// hop sees the fault layer's re-entry order.
fn run_parking_lot(seed: u64) -> (Vec<u64>, String) {
    let mut cfg = DumbbellConfig::paper(8e6);
    cfg.queue = slowcc_netsim::topology::QueueKind::DropTail(64);
    let mut sim = Simulator::new(seed);
    // Fault plans on the first hop (both directions), so the downstream
    // hops carry reordered/duplicated/jittered packets too.
    let opts = DumbbellOptions::new()
        .forward_faults(
            FaultPlan::seeded(seed ^ 0xBEEF)
                .with_reorder(11, SimDuration::from_millis(15), 4)
                .with_duplication(0.02)
                .with_jitter(SimDuration::from_millis(3)),
        )
        .reverse_faults(FaultPlan::seeded(seed ^ 0xFACE).with_jitter(SimDuration::from_millis(2)));
    let lot = ParkingLot::build_with(&mut sim, cfg, 3, opts);
    let pair = lot.add_host_pair(&mut sim, 0, 3);
    let seqs = Arc::new(Mutex::new(Vec::new()));
    let sink = sim.add_agent(pair.right, Box::new(AckingSink { seqs: seqs.clone() }));
    let flow = sim.new_flow();
    sim.add_agent(
        pair.left,
        Box::new(Paced {
            flow,
            dst_node: pair.right,
            dst_agent: sink,
            count: 300,
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(2));
    let order = seqs.lock().unwrap().clone();
    let mut links: Vec<LinkId> = lot.forward.clone();
    links.extend(lot.reverse.iter().copied());
    let fp = stats_fingerprint(sim.stats(), &[flow], &links);
    (order, fp)
}

#[test]
fn faulted_runs_are_identical_traced_and_untraced() {
    // Two traced runs must agree on the full packet trace, and
    // installing the trace sink must not perturb the delivery order or
    // the statistics.
    for seed in [1u64, 17, 99] {
        let traced = run_chaotic(seed, true);
        assert_eq!(
            traced,
            run_chaotic(seed, true),
            "seed {seed}: fault-layer transcript diverged between runs"
        );
        assert_eq!(
            run_chaotic(seed, false),
            (None, traced.1, traced.2),
            "seed {seed}: untraced run diverged from the traced one"
        );
    }

    // Multi-hop routes: fault releases on the first hop of a three-hop
    // parking lot must order identically on every run.
    for seed in [5u64, 23] {
        let first = run_parking_lot(seed);
        assert!(
            !first.0.is_empty(),
            "seed {seed}: parking lot delivered nothing"
        );
        assert_eq!(
            first,
            run_parking_lot(seed),
            "seed {seed}: parking lot diverged between runs"
        );
    }
}
