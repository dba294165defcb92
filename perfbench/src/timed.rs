//! An `AnyExperiment` that forwards to a registered target and times
//! the calls the executor makes into it: the `exec`/`experiment`
//! boundary (`run_cell_dyn`) and the `report` boundary (`finish`).
//!
//! Both modes wrap every target, so the untraced run pays the same two
//! `Instant::now` calls per cell as the traced one and the cell host
//! seconds behind `pkts_per_s` are measured the same way in each. In
//! traced mode a scenario target's cells are replayed through
//! [`crate::replica`] instead, which adds the per-layer spans.

use std::any::Any;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use slowcc_experiments::dsl::{ScenarioCellOut, ScenarioSpec};
use slowcc_experiments::experiment::{AnyExperiment, CellMeta};
use slowcc_experiments::scale::Scale;

use crate::replica::{self, CellTrace};

/// What the wrapper saw, accumulated over every cell of the target.
#[derive(Debug, Default)]
pub struct Log {
    /// Host seconds of each `run_cell_dyn`, in completion order.
    pub cell_s: Vec<f64>,
    /// JSON bytes of the cell outputs (what the cell cache stores).
    pub cache_bytes: u64,
    /// Seconds in `finish`: assemble, render and save.
    pub finish_s: f64,
    /// Layer spans and counts of replayed scenario cells.
    pub cells: Vec<CellTrace>,
    /// Outputs of scenario cells, for the output checks.
    pub outs: Vec<ScenarioCellOut>,
}

pub struct Timed {
    inner: &'static dyn AnyExperiment,
    replay: Option<ScenarioSpec>,
    log: Mutex<Log>,
}

impl Timed {
    /// Wrap `inner`; with `replay`, its cells are replayed from that spec
    /// by the traced replica instead of the target's own `run_cell`.
    pub fn leak(inner: &'static dyn AnyExperiment, replay: Option<ScenarioSpec>) -> &'static Timed {
        Box::leak(Box::new(Timed {
            inner,
            replay,
            log: Mutex::new(Log::default()),
        }))
    }

    /// Take the accumulated log.
    pub fn take_log(&self) -> Log {
        std::mem::take(
            &mut *self
                .log
                .lock()
                .expect("no cell panics while holding the log"),
        )
    }
}

impl AnyExperiment for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.inner.aliases()
    }

    fn hidden(&self) -> bool {
        self.inner.hidden()
    }

    fn cell_meta(&self, scale: Scale) -> Vec<CellMeta> {
        self.inner.cell_meta(scale)
    }

    fn run_cell_dyn(&self, scale: Scale, index: usize) -> (Box<dyn Any + Send>, String) {
        let t = Instant::now();
        let (out, json, cell) = match &self.replay {
            None => {
                let (out, json) = self.inner.run_cell_dyn(scale, index);
                (out, json, None)
            }
            Some(spec) => {
                let seed = self.inner.cell_meta(scale)[index].seed;
                let built = replica::build(spec, seed, true);
                let (out, cell) = replica::run(spec, seed, built);
                let json = serde_json::to_string(&out).expect("cell outputs serialize");
                (Box::new(out) as Box<dyn Any + Send>, json, Some(cell))
            }
        };
        let secs = t.elapsed().as_secs_f64();
        let mut log = self
            .log
            .lock()
            .expect("no cell panics while holding the log");
        log.cell_s.push(secs);
        log.cache_bytes += json.len() as u64;
        log.cells.extend(cell);
        log.outs
            .extend(out.downcast_ref::<ScenarioCellOut>().cloned());
        (out, json)
    }

    fn load_cell(&self, json: &str) -> Result<Box<dyn Any + Send>, String> {
        self.inner.load_cell(json)
    }

    fn finish(&self, scale: Scale, outs: Vec<Box<dyn Any + Send>>, out_dir: Option<&Path>) {
        let t = Instant::now();
        self.inner.finish(scale, outs, out_dir);
        let secs = t.elapsed().as_secs_f64();
        self.log
            .lock()
            .expect("no cell panics while holding the log")
            .finish_s += secs;
    }

    fn output_json(&self, scale: Scale) -> String {
        self.inner.output_json(scale)
    }

    fn cell_jsons(&self, scale: Scale) -> Vec<String> {
        self.inner.cell_jsons(scale)
    }
}
