//! The CoopRT benchmark: one workload per process, one thread of work.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload render|query|serve --seed N --seconds S --trace 0|1 [--spread RUNS]
//! ```
//!
//! `--trace 0` runs the untraced pass and prints the end-to-end metrics;
//! `--trace 1` runs the traced pass and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.
//!
//! `--setup-only` prints only the median set-up seconds; the untraced
//! pass runs it in a child process for `setup_s`.
//!
//! `--spread RUNS` runs the workload RUNS times, each in a fresh process
//! with seeds `seed, seed+1, ...`, and prints each metric's median,
//! quartiles and quartile spread. See `README.md`.

mod layers;
mod serve;
mod sim;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every workload under `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_cycles", "cycles"),
    ("coop_speedup", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload under `--trace 1`. A
/// layer the workload never enters reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("scenes.build_s", "s"),
    ("engine.baseline_s", "s"),
    ("engine.cooprt_s", "s"),
    ("engine.ns_per_ray", "ns"),
    ("engine.non_mem_s", "s"),
    ("trace.overhead_s", "s"),
    ("mem.replay_s", "s"),
    ("mem.ns_per_fetch", "ns"),
    ("mem.share", "ratio"),
    ("engine.rays", "count"),
    ("engine.warps", "count"),
    ("engine.trace_instrs", "count"),
    ("rtunit.node_fetches", "count"),
    ("rtunit.threads_per_fetch", "ratio"),
    ("rtunit.response_pops", "count"),
    ("lbu.moves", "count"),
    ("mem.l1_accesses", "count"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l1_mshr_merges", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.dram_bytes", "bytes"),
    ("reorder.passes", "count"),
    ("reorder.rays_moved", "count"),
    ("query.answer_entries", "count"),
    ("serve.req_per_s", "1/s"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("route.render_p50_ms", "ms"),
    ("route.simulate_p50_ms", "ms"),
    ("route.query_p50_ms", "ms"),
    ("route.metrics_p50_ms", "ms"),
    ("server.parse_us.hit", "us"),
    ("server.parse_us.miss", "us"),
    ("queue.wait_us.hit", "us"),
    ("queue.wait_us.miss", "us"),
    ("cache.lookup_us.hit", "us"),
    ("cache.lookup_us.miss", "us"),
    ("exec.scene_us", "us"),
    ("exec.engine_us", "us"),
    ("exec.serialize_us", "us"),
    ("http.parse_ns", "ns"),
    ("api.validate_ns", "ns"),
    ("metrics.json_us", "us"),
    ("metrics.prom_us", "us"),
    ("cache.result_hits", "count"),
    ("cache.result_misses", "count"),
    ("cache.scene_builds", "count"),
];

/// What one run of a workload found.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (frames, query batches or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` of every metric the pass measured.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Failed output checks of one run.
#[derive(Default)]
pub struct Checks {
    problems: Vec<String>,
}

impl Checks {
    /// Records the check described by `what` as failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// How many checks have failed so far.
    pub fn count(&self) -> usize {
        self.problems.len()
    }

    /// Prints the first failed checks to standard error; true when none
    /// failed.
    pub fn report(&self) -> bool {
        for p in self.problems.iter().take(20) {
            eprintln!("check failed: {p}");
        }
        if self.problems.len() > 20 {
            eprintln!("... {} more failed checks", self.problems.len() - 20);
        }
        self.problems.is_empty()
    }
}

/// Set-up is repeated at least this many times for the `setup_s` median.
const SETUP_REPEATS: usize = 15;
/// The least time spent on those repeats. A single set-up takes 13–22 ms
/// (`serve`) to ~0.2 s (`render`), and on a shared host its time jumps
/// from one repeat to the next, so the median needs many.
const SETUP_TIME: Duration = Duration::from_secs(4);

/// Median seconds of `set_up`, which sets up, tears down and returns
/// the seconds its set-up took, repeated at least [`SETUP_REPEATS`] times
/// and for [`SETUP_TIME`].
fn median_set_up(mut set_up: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < SETUP_REPEATS || start.elapsed() < SETUP_TIME {
        secs.push(set_up());
    }
    stats::median(&secs)
}

/// The median set-up seconds of `workload`, measured in a child process
/// (`--setup-only`). The repeats would otherwise enter the run's
/// `peak_rss_mb`: each repeated server start runs new threads, and the
/// allocator keeps the memory they freed, in amounts that vary from run
/// to run.
pub fn setup_s_in_child(workload: &str) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--setup-only"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start the set-up process");
    assert!(
        out.status.success(),
        "set-up process failed: {}",
        out.status
    );
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .unwrap_or_else(|_| panic!("set-up process printed '{text}'"))
}

/// SplitMix64: the benchmark's own seeded generator for workload inputs.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spread: Option<usize>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        spread: None,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number '{v}'"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--spread" => args.spread = Some(number(value()?)? as usize),
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !["render", "query", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be render, query or serve (got '{}')",
            args.workload
        ));
    }
    Ok(args)
}

/// Runs one pass of one workload.
fn run(args: &Args) -> Outcome {
    use sim::Matrix;
    match (args.workload.as_str(), args.trace) {
        ("render", false) => sim::run_untraced(Matrix::Render, args.seed, args.seconds),
        ("render", true) => sim::run_traced(Matrix::Render, args.seed),
        ("query", false) => sim::run_untraced(Matrix::Query, args.seed, args.seconds),
        ("query", true) => sim::run_traced(Matrix::Query, args.seed),
        (_, false) => serve::run_untraced(args.seed, args.seconds),
        (_, true) => serve::run_traced(args.seed, args.seconds),
    }
}

/// Formats the result line, in the declared metric order; per-layer
/// metrics of layers the workload does not enter read 0.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _, _) in &outcome.metrics {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric '{name}' is not declared for this pass"
        );
    }
    if !trace {
        for (name, _) in declared {
            assert!(
                outcome.metrics.iter().any(|(m, _, _)| m == name),
                "end-to-end metric '{name}' was not measured"
            );
        }
    }
    let fields: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            let (value, unit) = outcome
                .metrics
                .iter()
                .find(|(m, _, _)| *m == name)
                .map_or((0.0, unit), |&(_, v, u)| (v, u));
            assert!(value.is_finite(), "metric '{name}' is not finite");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    )
}

/// Spread mode: runs the workload `runs` times in fresh processes and
/// prints every metric's median, quartiles and quartile spread.
fn spread(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failed_shares = Vec::new();
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or("");
        if !out.status.success() {
            return Err(format!("run {i} (seed {seed}) failed: {}", out.status));
        }
        let doc = cooprt_telemetry::parse_json(last).map_err(|e| format!("run {i}: {e}"))?;
        let num = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        if doc.get("correct") != Some(&cooprt_telemetry::JsonValue::Bool(true)) {
            return Err(format!("run {i} (seed {seed}) reported incorrect outputs"));
        }
        failed_shares.push(num("failed") / num("attempted"));
        println!("run {i} seed {seed}: {last}");
        let cooprt_telemetry::JsonValue::Object(metrics) = doc
            .get("metrics")
            .cloned()
            .unwrap_or(cooprt_telemetry::JsonValue::Null)
        else {
            return Err(format!("run {i}: no metrics object"));
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(|u| u.as_str())
                .unwrap_or("")
                .to_string();
            match samples.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, v)) => v.push(value),
                None => samples.push((name, unit, vec![value])),
            }
        }
    }
    println!(
        "\n{} x {} (trace {}), failed share per run: {:?}",
        runs, args.workload, args.trace as u8, failed_shares
    );
    println!(
        "{:<26} {:>8} {:>14} {:>14} {:>14} {:>9}",
        "metric", "unit", "q1", "median", "q3", "spread"
    );
    for (name, unit, v) in &samples {
        let med = stats::median(v);
        let [q1, _, q3] = if v.len() >= 2 {
            stats::quartiles(v)
        } else {
            [med; 3]
        };
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        println!(
            "{name:<26} {unit:>8} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>8.2}%",
            spread * 100.0
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.spread {
        return match spread(&args, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.setup_only {
        let secs = match args.workload.as_str() {
            "render" => median_set_up(|| sim::set_up_once(sim::Matrix::Render)),
            "query" => median_set_up(|| sim::set_up_once(sim::Matrix::Query)),
            _ => median_set_up(serve::set_up_once),
        };
        println!("{secs:?}");
        return ExitCode::SUCCESS;
    }
    let outcome = run(&args);
    println!("{}", result_line(&outcome, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogue here and `BENCHMARK.json` at the repository
    /// root must name the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = cooprt_telemetry::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, want) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(cooprt_telemetry::JsonValue::Array(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no '{key}' list");
            };
            let got: Vec<(String, String)> = items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = want
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                got, want,
                "'{key}' differs between BENCHMARK.json and the catalogue"
            );
        }
    }
}
