//! Same-process calibrations: the host spin loop, and one hot-path
//! operation of each netsim and agent layer in ns/op.
//!
//! Each calibration runs a fixed amount of work three times and keeps
//! the median, so one preempted repetition does not move it. Inputs and
//! results pass through `black_box` so the measured work is not folded
//! away.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use slowcc_core::aimd::BinomialParams;
use slowcc_core::equation::padhye_rate_bps;
use slowcc_core::tfrc::LossHistory;
use slowcc_netsim::event::{EventKind, EventQueue};
use slowcc_netsim::prelude::*;
use slowcc_netsim::trace::WindowedStats;

/// Event-queue depth of the shallow hold model (a dumbbell with tens of
/// flows keeps about this many events pending).
pub const SHALLOW_DEPTH: usize = 1_024;
/// Event-queue depth of the deep hold model (a thousand flows, each with
/// a timer and packets in flight).
pub const DEEP_DEPTH: usize = 16_384;

/// Median of three timed repetitions of `f`, in ns per op.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The host calibration loop: ns per step of a dependent xorshift chain.
/// Recorded with every result set so runs on different or busier hosts
/// can be told apart.
pub fn spin_ns() -> f64 {
    const OPS: u64 = 5_000_000;
    ns_per_op(OPS, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..OPS {
            xorshift(&mut x);
        }
        black_box(x);
    })
}

/// The classic hold model on the process's default scheduler: keep
/// `depth` events pending, pop the earliest and schedule a replacement
/// a random ~100 µs later. One op is one pop plus one schedule, the
/// queue work behind every simulated event.
pub fn event_hold_ns(depth: usize) -> f64 {
    const OPS: u64 = 1_000_000;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut q = EventQueue::new();
    for i in 0..depth {
        let t = SimTime::from_nanos(xorshift(&mut x) % 1_000_000_000);
        q.schedule(
            t,
            EventKind::AgentTimer {
                agent: AgentId::from_index(0),
                token: i as u64,
            },
        );
    }
    ns_per_op(OPS, || {
        for i in 0..OPS {
            let (t, _) = black_box(q.pop().expect("the hold model keeps the queue full"));
            let hold = xorshift(&mut x) % 200_000;
            q.schedule(
                SimTime::from_nanos(t.as_nanos() + hold),
                EventKind::AgentTimer {
                    agent: AgentId::from_index(0),
                    token: i,
                },
            );
        }
    })
}

fn data_packet(uid: u64, t: SimTime) -> Packet {
    Packet {
        uid,
        flow: FlowId::from_index(0),
        seq: uid,
        size: 1000,
        payload: Payload::Data(DataInfo::default()),
        src_node: NodeId::from_index(0),
        dst_node: NodeId::from_index(1),
        src_agent: AgentId::from_index(0),
        dst_agent: AgentId::from_index(1),
        sent_at: t,
        ecn: Default::default(),
    }
}

/// One paper-RED arrival and (15 times in 16) one departure on the
/// 100 Mb/s bottleneck: arrivals outpace departures slightly, so the
/// average settles between the thresholds where RED draws its early
/// drops, as on a congested bottleneck.
pub fn queue_red_ns() -> f64 {
    const OPS: u64 = 1_000_000;
    let cfg = DumbbellConfig::paper(100e6);
    let mean_pkt = SimDuration::from_nanos((8e9 * cfg.pkt_size as f64 / cfg.bottleneck_bps) as u64);
    let mut q = Red::new(RedConfig::paper_defaults(cfg.bdp_packets(), mean_pkt));
    let mut pool = PacketPool::new();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut uid = 0u64;
    let mut t = SimTime::ZERO;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            t += mean_pkt;
            let id = pool.insert(data_packet(uid, t));
            uid += 1;
            if black_box(q.enqueue(id, &mut pool, t, &mut rng)) == EnqueueResult::Dropped {
                pool.remove(id);
            }
            if !uid.is_multiple_of(16) {
                if let Some(out) = black_box(q.dequeue(t)) {
                    pool.remove(out);
                }
            }
        }
    })
}

/// One `PacketPool` insert plus one remove with a standing population of
/// in-flight packets, first in first out like a queue.
pub fn pool_churn_ns() -> f64 {
    const OPS: u64 = 2_000_000;
    const IN_FLIGHT: usize = 2_048;
    let mut pool = PacketPool::new();
    let mut live: VecDeque<PacketId> = (0..IN_FLIGHT as u64)
        .map(|uid| pool.insert(data_packet(uid, SimTime::ZERO)))
        .collect();
    let mut uid = IN_FLIGHT as u64;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let old = live.pop_front().expect("the pool keeps its population");
            black_box(pool.remove(old));
            live.push_back(pool.insert(data_packet(uid, SimTime::ZERO)));
            uid += 1;
        }
    })
}

/// One Padhye TCP-throughput evaluation, the TFRC sender's per-feedback
/// rate computation.
pub fn core_padhye_ns() -> f64 {
    const OPS: u64 = 2_000_000;
    ns_per_op(OPS, || {
        let mut p = 0.001;
        for _ in 0..OPS {
            p = if p > 0.5 { 0.001 } else { p * 1.01 };
            black_box(padhye_rate_bps(1000, black_box(p), 0.05, 0.2));
        }
    })
}

/// One loss-event-rate evaluation over a full `k`-interval history, the
/// TFRC receiver's per-feedback computation.
pub fn core_loss_history_ns(k: usize) -> f64 {
    // The cost grows with k; keep each calibration near 70 ms.
    let ops = 25_600_000 / k as u64;
    let mut h = LossHistory::new(k, false);
    for i in 0..k {
        h.record_interval(50 + i as u64);
    }
    ns_per_op(ops, || {
        let mut open = 0u64;
        for _ in 0..ops {
            open = (open + 7) % 1000;
            black_box(h.loss_event_rate(black_box(open)));
        }
    })
}

/// One per-ACK window update, averaged over the AIMD, SQRT and IIAD
/// rules (each op is one increase, with a decrease whenever the window
/// passes 100 packets).
pub fn core_window_rule_ns() -> f64 {
    const OPS: u64 = 1_000_000;
    let rules = [
        BinomialParams::standard_tcp(),
        BinomialParams::sqrt_gamma(2.0),
        BinomialParams::iiad_gamma(2.0),
    ];
    ns_per_op(OPS * rules.len() as u64, || {
        for params in &rules {
            let mut w = 2.0f64;
            for _ in 0..OPS {
                w += params.increase_per_ack(black_box(w));
                if w > 100.0 {
                    w = params.decrease(w);
                }
                black_box(w);
            }
        }
    })
}

/// One `WindowedStats::record`, cycling through the record kinds of a
/// packet's life (send, enqueue, dequeue, deliver) every 20 µs of
/// simulated time into 100 ms bins, as the `mixed-long` trace does.
pub fn trace_record_ns() -> f64 {
    const OPS: u64 = 2_000_000;
    let mut ws = WindowedStats::new(SimDuration::from_millis(100));
    let link = LinkId::from_index(0);
    let kinds = [
        TraceKind::Send,
        TraceKind::Enqueue { link },
        TraceKind::Dequeue { link },
        TraceKind::Deliver {
            node: NodeId::from_index(1),
        },
    ];
    let mut t = SimTime::ZERO;
    ns_per_op(OPS, || {
        for i in 0..OPS {
            t += SimDuration::from_micros(5);
            let ev = TraceEvent {
                time: t,
                kind: kinds[(i % 4) as usize],
                flow: FlowId::from_index(0),
                seq: i,
                uid: i,
                size: 1000,
                is_data: true,
            };
            ws.record(black_box(&ev));
        }
    })
}
