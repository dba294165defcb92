//! Scenario TOML for the two single-cell workloads, generated from the
//! workload seed.
//!
//! The seed moves only what leaves the amount of work nearly unchanged:
//! the simulation seed, flow start offsets, the CBR square-wave period
//! and the flash-crowd timing. Topology, flow counts and horizons are
//! fixed, so runs under different seeds cost the same to within the
//! noise of the host, and every seed exercises the same layers.

use std::fmt::Write as _;

/// Workload name of the long all-flavors dumbbell run.
pub const MIXED_LONG: &str = "mixed-long";
/// Workload name of the 1,024-flow parking lot.
pub const PARKINGLOT_WIDE: &str = "parkinglot-wide";

/// Every flavor the paper compares, as `Flavor::parse` spells them.
pub const MIXED_FLAVORS: [&str; 7] = [
    "TCP(1/2)",
    "TCP(1/8)",
    "TFRC(6)",
    "TFRC(256)+sc",
    "RAP(1/8)",
    "SQRT(1/2)",
    "IIAD(1/2)",
];

/// The parking lot's flavor mix, 256 flows each.
pub const WIDE_FLAVORS: [&str; 4] = ["TCP(1/2)", "TFRC(6)", "TCP(1/8)", "SQRT(1/2)"];

/// Flows of each flavor in `parkinglot-wide`.
pub const WIDE_FLOWS_PER_FLAVOR: usize = 256;

/// splitmix64: a seed-to-stream mixer, so nearby workload seeds give
/// unrelated draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A simulation seed that the TOML subset reads as a plain integer.
    fn sim_seed(&mut self) -> u64 {
        self.next() >> 33
    }
}

/// Simulated seconds of each scenario; `tiny` shortens both for the
/// benchmark's own smoke test.
fn horizon(workload: &str, tiny: bool) -> u64 {
    match (workload, tiny) {
        (MIXED_LONG, false) => 60,
        (PARKINGLOT_WIDE, false) => 10,
        _ => 2,
    }
}

/// `mixed-long`: every flavor, two flows each, sharing a 100 Mb/s
/// paper-RED dumbbell with the default reverse TCP traffic, a
/// square-wave CBR source, a flash crowd, and a windowed trace streamed
/// as JSON lines.
pub fn mixed_long(seed: u64, tiny: bool) -> String {
    let mut d = Draws(seed);
    let stop = horizon(MIXED_LONG, tiny);
    let mut out = String::new();
    let _ = writeln!(out, "name = \"perfbench-mixed-long\"");
    let _ = writeln!(
        out,
        "description = \"every flavor on a 100 Mb/s paper-RED dumbbell with square-wave CBR and a flash crowd\""
    );
    let _ = writeln!(out, "stop_secs = {stop}");
    let _ = writeln!(out, "warmup_secs = {}", stop / 6);
    let _ = writeln!(out, "seeds = [{}]", d.sim_seed());
    // No reverse bulk TCP: its throughput, and with it the ACK load on
    // the forward link, swings by a factor of two from seed to seed,
    // which would make the amount of work depend on the seed.
    let _ = writeln!(out, "reverse_tcp = 0");
    let _ = writeln!(
        out,
        "\n[topology]\nkind = \"dumbbell\"\nbottleneck_mbps = 100.0\nqueue = \"paper-red\""
    );
    for flavor in MIXED_FLAVORS {
        let _ = writeln!(
            out,
            "\n[[flow]]\nflavor = \"{flavor}\"\ncount = 4\nstart_ms = {}\nstagger_ms = {}",
            d.below(500),
            40 + d.below(60)
        );
    }
    let _ = writeln!(
        out,
        "\n[[cbr]]\nrate_mbps = 20.0\nshape = \"square\"\nhalf_period_ms = {}\nstart_ms = {}",
        5000,
        1000 + d.below(1000)
    );
    let _ = writeln!(
        out,
        "\n[[flash]]\nflows_per_sec = 20.0\nduration_ms = {}\ntransfer_packets = 30\nhost_pairs = 8\nseed = {}\nstart_ms = {}",
        stop * 1000 / 6,
        d.sim_seed(),
        stop * 1000 / 3 + d.below(1000)
    );
    let _ = writeln!(out, "\n[trace]\nbin_ms = 100\nstream = \"jsonl\"");
    out
}

/// `parkinglot-wide`: 1,024 flows of four flavors on a 3-hop 100 Mb/s
/// paper-RED parking lot, no trace. Of each flavor's 256 flows, 160
/// cross all three hops and 32 cross each single hop.
pub fn parkinglot_wide(seed: u64, tiny: bool) -> String {
    let mut d = Draws(seed);
    let stop = horizon(PARKINGLOT_WIDE, tiny);
    let mut out = String::new();
    let _ = writeln!(out, "name = \"perfbench-parkinglot-wide\"");
    let _ = writeln!(
        out,
        "description = \"1024 flows of four flavors on a 3-hop paper-RED parking lot\""
    );
    let _ = writeln!(out, "stop_secs = {stop}");
    let _ = writeln!(out, "warmup_secs = {}", stop / 4);
    let _ = writeln!(out, "seeds = [{}]", d.sim_seed());
    let _ = writeln!(
        out,
        "\n[topology]\nkind = \"parking-lot\"\nhops = 3\nbottleneck_mbps = 100.0\nqueue = \"paper-red\""
    );
    const CROSS: usize = 32;
    let through = WIDE_FLOWS_PER_FLAVOR - 3 * CROSS;
    for flavor in WIDE_FLAVORS {
        for (path, count) in [
            ((0, 3), through),
            ((0, 1), CROSS),
            ((1, 2), CROSS),
            ((2, 3), CROSS),
        ] {
            let _ = writeln!(
                out,
                "\n[[flow]]\nflavor = \"{flavor}\"\ncount = {count}\npath = [{}, {}]\nstart_ms = {}\nstagger_ms = {}",
                path.0,
                path.1,
                d.below(200),
                3 + d.below(4)
            );
        }
    }
    out
}

/// The scenario text of a single-cell workload.
pub fn generate(workload: &str, seed: u64, tiny: bool) -> Option<String> {
    match workload {
        MIXED_LONG => Some(mixed_long(seed, tiny)),
        PARKINGLOT_WIDE => Some(parkinglot_wide(seed, tiny)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slowcc_experiments::dsl::{parse_scenario, render_scenario};

    const SEEDS: [u64; 4] = [0, 1, 7, u64::MAX];

    #[test]
    fn generated_scenarios_parse_and_round_trip() {
        for workload in [MIXED_LONG, PARKINGLOT_WIDE] {
            for seed in SEEDS {
                for tiny in [false, true] {
                    let text = generate(workload, seed, tiny).expect("single-cell workload");
                    let spec = parse_scenario(&text, workload).expect("generated TOML parses");
                    let rendered = render_scenario(&spec);
                    let again = parse_scenario(&rendered, workload).expect("rendered TOML parses");
                    assert_eq!(spec, again, "{workload} seed {seed} does not round-trip");
                    assert_eq!(render_scenario(&again), rendered);
                }
            }
        }
    }

    #[test]
    fn scenarios_have_the_documented_shape() {
        let mixed = parse_scenario(&mixed_long(3, false), MIXED_LONG).unwrap();
        let labels: Vec<String> = mixed.flows.iter().map(|f| f.flavor.label()).collect();
        assert_eq!(labels, MIXED_FLAVORS);
        assert!(mixed.trace.is_some() && mixed.cbr.len() == 1 && mixed.flash.len() == 1);

        let wide = parse_scenario(&parkinglot_wide(3, false), PARKINGLOT_WIDE).unwrap();
        let flows: usize = wide.flows.iter().map(|f| f.count).sum();
        assert_eq!(flows, WIDE_FLAVORS.len() * WIDE_FLOWS_PER_FLAVOR);
        assert!(wide.trace.is_none());
    }

    #[test]
    fn the_seed_moves_the_inputs_but_not_their_size() {
        let a = parse_scenario(&parkinglot_wide(1, false), PARKINGLOT_WIDE).unwrap();
        let b = parse_scenario(&parkinglot_wide(2, false), PARKINGLOT_WIDE).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.stop, b.stop);
        assert_eq!(a.flows.len(), b.flows.len());
        assert_eq!(mixed_long(9, false), mixed_long(9, false));
    }
}
