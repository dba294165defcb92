//! One pass of one benchmark workload, in a process of its own.
//!
//! ```text
//! perfbench <workload> --mode full|setup|traced --seed N --out DIR --result FILE [--tiny]
//! ```
//!
//! * `full` runs the workload through `exec::run`, writing its
//!   artifacts under `DIR/artifacts`, and records the untraced
//!   end-to-end figures plus the output checks.
//! * `setup` stops where the first cell would be dispatched; for the
//!   single-cell workloads it also builds the topology and installs the
//!   agents of that cell through the same public calls.
//! * `traced` runs the workload again with a span around each layer
//!   (see `timed` and `replica`), then calibrates each hot-path layer in
//!   ns/op and writes the modeled-time ledger.
//!
//! The result is one flat JSON object of numbers written to FILE.
//! `run.py` drives the passes and turns them into the benchmark's
//! metrics; see `BENCHMARK.md` next to this package for what each one
//! means.

mod ledger;
mod replica;
mod scenarios;
mod timed;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use slowcc_experiments::dsl::{parse_scenario, ScenarioCellOut, ScenarioExperiment, ScenarioSpec};
use slowcc_experiments::exec::{self, ExecOptions};
use slowcc_experiments::experiment::AnyExperiment;
use slowcc_experiments::registry;
use slowcc_experiments::runner;
use slowcc_experiments::scale::Scale;
use slowcc_netsim::audit::{self, AuditMode, AuditReport};

use crate::timed::{Log, Timed};

const SWEEP_QUICK: &str = "sweep-quick";

/// Registry targets of the `--tiny` sweep (the benchmark's smoke test):
/// two cheap ones that still run simulations under the auditor.
const TINY_TARGETS: [&str; 2] = ["fk-model", "validate-ecn"];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Full,
    Setup,
    Traced,
}

struct Args {
    workload: String,
    mode: Mode,
    seed: u64,
    out: PathBuf,
    result: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let (mut mode, mut seed, mut out, mut result, mut tiny) = (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--mode" => {
                mode = Some(match value()?.as_str() {
                    "full" => Mode::Full,
                    "setup" => Mode::Setup,
                    "traced" => Mode::Traced,
                    other => return Err(format!("unknown mode `{other}`")),
                })
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--result" => result = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload,
        mode: mode.ok_or("missing --mode")?,
        seed: seed.ok_or("missing --seed")?,
        out: out.ok_or("missing --out")?,
        result: result.ok_or("missing --result")?,
        tiny,
    })
}

/// The figures of one pass, written as one flat JSON object.
#[derive(Default)]
struct Figures(BTreeMap<String, f64>);

impl Figures {
    fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.insert(name.to_string(), value);
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:?}"))
            .collect();
        format!("{{{}}}\n", fields.join(", "))
    }
}

/// The workload's targets, resolved and compiled: everything before the
/// first cell is dispatched.
struct Workload {
    targets: Vec<&'static dyn AnyExperiment>,
    spec: Option<ScenarioSpec>,
    cells: usize,
    parse_s: f64,
    compile_s: f64,
}

fn set_up(args: &Args) -> Result<Workload, String> {
    if args.workload == SWEEP_QUICK {
        let names: Vec<String> = if args.tiny {
            TINY_TARGETS.iter().map(|s| s.to_string()).collect()
        } else {
            vec!["all".to_string()]
        };
        let targets =
            registry::resolve_targets(&names).map_err(|n| format!("unknown target {n}"))?;
        let cells = targets
            .iter()
            .map(|t| t.cell_meta(Scale::Quick).len())
            .sum();
        return Ok(Workload {
            targets,
            spec: None,
            cells,
            parse_s: 0.0,
            compile_s: 0.0,
        });
    }
    let text = scenarios::generate(&args.workload, args.seed, args.tiny)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    if args.mode != Mode::Setup {
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        std::fs::write(args.out.join("scenario.toml"), &text).map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    let spec = parse_scenario(&text, "scenario.toml")?;
    let parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let exp: &'static dyn AnyExperiment =
        Box::leak(Box::new(ScenarioExperiment::new(spec.clone())));
    let cells = exp.cell_meta(Scale::Quick).len();
    let compile_s = t.elapsed().as_secs_f64();
    Ok(Workload {
        targets: vec![exp],
        spec: Some(spec),
        cells,
        parse_s,
        compile_s,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Output checks on a scenario cell that hold in every run: each
/// congested link accounts for no more packets than arrived, and every
/// forward link carried data. (A single flow may starve: among 1,024
/// flows a TCP can back its timer off past the horizon.)
fn scenario_check_failures(out: &ScenarioCellOut) -> u64 {
    out.links
        .iter()
        .filter(|l| {
            l.tx_packets + l.drops > l.arrivals
                || (l.label.starts_with("forward") && l.tx_packets == 0)
        })
        .count() as u64
}

fn forward_tx(out: &ScenarioCellOut) -> u64 {
    out.links
        .iter()
        .filter(|l| l.label.starts_with("forward"))
        .map(|l| l.tx_packets)
        .sum()
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workload = match set_up(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut fig = Figures::default();
    if args.mode == Mode::Setup {
        let built = workload.spec.as_ref().map(|spec| {
            let seed = workload.targets[0].cell_meta(Scale::Quick)[0].seed;
            replica::build(spec, seed, false)
        });
        fig.set("setup_s", start.elapsed().as_secs_f64());
        drop(std::hint::black_box(built));
        // The host calibration runs in the setup-only processes and the
        // traced one, never inside a full pass, whose CPU time it would
        // inflate.
        fig.set("bench.spin_ns", ledger::spin_ns());
    } else {
        run(&args, workload, start, &mut fig);
    }
    if let Err(e) = std::fs::write(&args.result, fig.to_json()) {
        eprintln!("perfbench: cannot write {}: {e}", args.result.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run(args: &Args, workload: Workload, start: Instant, fig: &mut Figures) {
    let sweep = workload.spec.is_none();
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    runner::set_jobs(jobs);
    if sweep {
        // The sweep runs under the program's own invariant auditor, the
        // output check `repro --audit` applies to every figure cell.
        audit::set_default_audit(Some(AuditMode::Collect));
        let _ = audit::take_global_report();
    }
    let replay = if args.mode == Mode::Traced {
        workload.spec.clone()
    } else {
        None
    };
    let wrapped: Vec<&'static Timed> = workload
        .targets
        .iter()
        .map(|t| Timed::leak(*t, replay.clone()))
        .collect();
    let targets: Vec<&'static dyn AnyExperiment> = wrapped
        .iter()
        .map(|t| *t as &'static dyn AnyExperiment)
        .collect();
    fig.set("setup_s", start.elapsed().as_secs_f64());

    let artifacts = args.out.join("artifacts");
    let opts = ExecOptions {
        scale: Scale::Quick,
        out: Some(artifacts.clone()),
        manifest_dir: artifacts,
        resume: false,
        cell_timeout: None,
        retries: 0,
    };
    let summary = exec::run(&targets, &opts);
    let wall_s = start.elapsed().as_secs_f64();

    let mut log = Log::default();
    for t in &wrapped {
        let l = t.take_log();
        log.cell_s.extend(l.cell_s);
        log.cache_bytes += l.cache_bytes;
        log.finish_s += l.finish_s;
        log.cells.extend(l.cells);
        log.outs.extend(l.outs);
    }
    let mut checks_failed = 0u64;
    if summary.interrupted {
        checks_failed += 1;
    }
    let report: AuditReport = if sweep {
        match audit::take_global_report() {
            Some(r) => r,
            None => {
                checks_failed += 1;
                AuditReport::default()
            }
        }
    } else {
        AuditReport::default()
    };
    checks_failed += report.violations;
    let mut pkts = if sweep { report.packets_delivered } else { 0 };
    for out in &log.outs {
        checks_failed += scenario_check_failures(out);
        pkts += forward_tx(out);
    }
    for cell in &log.cells {
        checks_failed += cell.conservation_failures;
    }
    let cell_busy_s: f64 = log.cell_s.iter().sum();

    fig.set("wall_s", wall_s);
    fig.set("cells", workload.cells as f64);
    fig.set("failed_cells", summary.failed_cells as f64);
    fig.set("checks_failed", checks_failed as f64);
    fig.set("jobs", jobs.min(workload.cells).max(1) as f64);
    fig.set("cell_busy_s", cell_busy_s);
    fig.set("pkts", pkts as f64);
    if args.mode == Mode::Traced {
        layer_figures(&workload, &log, &report, fig);
        fig.set("bench.spin_ns", ledger::spin_ns());
    }
}

/// The per-layer figures of a traced pass.
fn layer_figures(workload: &Workload, log: &Log, report: &AuditReport, fig: &mut Figures) {
    let ms: Vec<f64> = log.cell_s.iter().map(|s| s * 1e3).collect();
    fig.set("exec.cells", log.cell_s.len() as f64);
    fig.set("exec.cell_busy_s", ms.iter().sum::<f64>() / 1e3);
    fig.set("exec.cell_p50_ms", median(ms.clone()));
    fig.set("exec.cell_max_ms", ms.iter().copied().fold(0.0, f64::max));
    fig.set("cache.bytes", log.cache_bytes as f64);
    fig.set("report.finish_s", log.finish_s);
    fig.set("dsl.parse_s", workload.parse_s);
    fig.set("dsl.compile_s", workload.compile_s);

    // A fold from +0.0: an empty f64 `sum()` is -0.0.
    let sum =
        |f: fn(&replica::CellTrace) -> f64| -> f64 { log.cells.iter().fold(0.0, |a, c| a + f(c)) };
    let run_until_s = sum(|c| c.run_until_s);
    let events = sum(|c| c.events as f64);
    let flows = sum(|c| c.flows as f64);
    let pool_capacity = log.cells.iter().map(|c| c.pool_capacity).max().unwrap_or(0) as f64;
    let arrivals = sum(|c| c.queue_arrivals as f64);
    let records = sum(|c| c.trace_records as f64);
    // The sweep's cells keep their simulators private; the auditor's
    // sweep-wide report is the only public count that reaches them.
    let (sims, packets) = if workload.spec.is_none() {
        (report.sims as f64, report.packets_injected as f64)
    } else {
        (log.cells.len() as f64, sum(|c| c.packets as f64))
    };
    fig.set("topology.build_s", sum(|c| c.topology_build_s));
    fig.set("core.install_s", sum(|c| c.core_install_s));
    fig.set("traffic.install_s", sum(|c| c.traffic_install_s));
    fig.set("core.flows", flows);
    fig.set("sim.sims", sims);
    fig.set("sim.run_until_s", run_until_s);
    fig.set("sim.events", events);
    fig.set("sim.packets", packets);
    fig.set("sim.events_per_packet", ratio(events, packets));
    fig.set("sim.events_per_s", ratio(events, run_until_s));
    fig.set("sim.pool_capacity", pool_capacity);
    fig.set("queue.arrivals", arrivals);
    fig.set("queue.drops", sum(|c| c.queue_drops as f64));
    fig.set("queue.marks", sum(|c| c.queue_marks as f64));
    let tx = sum(|c| c.queue_tx as f64);
    fig.set("queue.tx_frac", ratio(tx, arrivals));
    fig.set("trace.records", records);
    fig.set("trace.bins", sum(|c| c.trace_bins as f64));
    fig.set("stats.query_s", sum(|c| c.stats_query_s));

    let hold_shallow = ledger::event_hold_ns(ledger::SHALLOW_DEPTH);
    let hold_deep = ledger::event_hold_ns(ledger::DEEP_DEPTH);
    let red = ledger::queue_red_ns();
    let churn = ledger::pool_churn_ns();
    let record = ledger::trace_record_ns();
    fig.set("event.hold_ns_shallow", hold_shallow);
    fig.set("event.hold_ns_deep", hold_deep);
    fig.set("queue.red_ns", red);
    fig.set("pool.churn_ns", churn);
    fig.set("trace.record_ns", record);
    fig.set("core.padhye_ns", ledger::core_padhye_ns());
    fig.set("core.loss_history_ns_k6", ledger::core_loss_history_ns(6));
    fig.set(
        "core.loss_history_ns_k256",
        ledger::core_loss_history_ns(256),
    );
    fig.set("core.window_rule_ns", ledger::core_window_rule_ns());

    // The ledger multiplies each calibration by the exact count of the
    // operation it mirrors. Pending events are about the packets in
    // flight (the pool's high-water mark) plus a timer or two per flow;
    // the hold model nearest that depth, on a log scale, prices them.
    let (modeled, base) = if workload.spec.is_some() {
        let depth = pool_capacity + 2.0 * flows;
        let geo_mid = ((ledger::SHALLOW_DEPTH * ledger::DEEP_DEPTH) as f64).sqrt();
        let hold = if depth < geo_mid {
            hold_shallow
        } else {
            hold_deep
        };
        let ns = events * hold + arrivals * red + packets * churn + records * record;
        (ns * 1e-9, run_until_s)
    } else {
        // Timer firings are the only exact event count the auditor keeps.
        let ns = report.timers_fired as f64 * hold_shallow + packets * churn;
        (ns * 1e-9, ms.iter().sum::<f64>() / 1e3)
    };
    fig.set("model.modeled_s", modeled);
    fig.set("model.residual_frac", 1.0 - ratio(modeled, base));
}

/// `a / b`, or 0 where the workload did none of the work `b` counts.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
