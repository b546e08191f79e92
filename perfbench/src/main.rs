//! The repository's benchmark: end-to-end and per-layer metrics of the
//! `regen` sweep and the `regend` serving tier, driven from outside
//! through the crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cells|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ... -- --workload cells --check        # fail on drift from perfbench/pins.txt
//! ... -- --workload cells --write-pins   # re-record that workload's pins
//! ```
//!
//! Run from the repository root: the correctness gate reads
//! `results_regenerated.txt` there. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics (the
//! end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`). METRICS.md beside this crate says what each metric
//! measures and what it is expected to move.

mod golden;
mod layers;
mod pins;
mod serve_mix;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::Artifact;

use crate::golden::Golden;
use crate::spans::Tracer;

/// Sweep jobs, server workers and load connections: two, the core count
/// of the 2-vCPU virtual machine the bounds were set on.
pub const JOBS: usize = 2;

/// The cheap artifacts: every one except the two big sweeps, Table 2
/// (no cells) and the discussion ablations (a sweep of their own).
pub const CHEAP: [Artifact; 14] = [
    Artifact::Table1,
    Artifact::Table3,
    Artifact::Table4,
    Artifact::Table5,
    Artifact::Table6,
    Artifact::Table7,
    Artifact::Table8,
    Artifact::Table9,
    Artifact::Table10,
    Artifact::Figure5,
    Artifact::VmWorkloads,
    Artifact::EibrsBimodal,
    Artifact::EbpfBoundary,
    Artifact::Targeted,
];

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 2] = ["cells", "serve_mix"];

/// Every end-to-end metric and its unit; each run reports all of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Every per-layer metric and its unit; each traced run reports all of
/// them, with 0 for a layer the workload does not exercise.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("uarch.committed_insts", "count"),
    ("uarch.transient_insts", "count"),
    ("uarch.transient_windows", "count"),
    ("uarch.transient_per_committed", "ratio"),
    ("uarch.host_ns_per_sim_inst", "ns"),
    ("uarch.link_ms", "ms"),
    ("sim_kernel.boot_ms", "ms"),
    ("sim_kernel.boot_share", "ratio"),
    ("workloads.lebench.fork_ms", "ms"),
    ("workloads.lebench.big_fork_ms", "ms"),
    ("workloads.lebench.context_switch_ms", "ms"),
    ("workloads.lebench.other_ms", "ms"),
    ("workloads.lebench.fork_share", "ratio"),
    ("js_engine.jit_compile_ms", "ms"),
    ("js_engine.run_ms.mitigated", "ms"),
    ("js_engine.run_ms.unmitigated", "ms"),
    ("js_engine.setup_share", "ratio"),
    ("spec_taint.boot_analysis_ms", "ms"),
    ("spec_taint.branches_scanned", "count"),
    ("core.executor.cell_ms_p50", "ms"),
    ("core.executor.cell_ms_max", "ms"),
    ("core.executor.queue_wait_ms_p50", "ms"),
    ("core.executor.busy_ratio", "ratio"),
    ("core.journal_ms", "ms"),
    ("core.journal_bytes", "count"),
    ("core.journal_lines", "count"),
    ("core.cells", "count"),
    ("core.cells_run", "count"),
    ("core.cache_hits", "count"),
    ("core.render_ms", "ms"),
    ("obs.scrape_ms_p50", "ms"),
    ("obs.scrape_ms_max", "ms"),
    ("obs.rss_bytes_per_request", "B"),
    ("serve.http.parse_ns", "ns"),
    ("serve.core.route_us", "us"),
    ("serve.artifact_hit_ms_p99", "ms"),
    ("serve.proxy_hop_ms", "ms"),
    ("serve.shard.fetch_ms", "ms"),
    ("serve.sockets_opened", "count"),
    ("serve.responses_429", "count"),
    ("serve.loadgen_lag_ms_p99", "ms"),
    ("serve.requests", "count"),
    ("serve.body_bytes", "count"),
    ("trace.wall_s", "s"),
];

/// The run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Where traces are written.
    pub out: PathBuf,
    /// Scratch space for journals, removed at exit.
    pub dir: PathBuf,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// False on any golden mismatch or determinism violation.
    pub correct: bool,
    /// Operations attempted (cells, or requests).
    pub attempted: u64,
    /// Operations that failed or returned wrong bytes.
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    /// Deterministic counts: pinned, and reported as per-layer metrics.
    pub counts: BTreeMap<String, u64>,
    errors: Vec<String>,
}

impl Outcome {
    fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            correct: true,
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    fn e2e(&mut self, name: &'static str, value: f64, unit: &str) {
        debug_assert!(
            END_TO_END.contains(&(name, unit)),
            "undeclared {name} [{unit}]"
        );
        self.e2e.insert(name, value);
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &str) {
        debug_assert!(
            PER_LAYER.contains(&(name, unit)),
            "undeclared {name} [{unit}]"
        );
        self.layers.insert(name, value);
    }

    fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    fn error(&mut self, e: String) {
        self.correct = false;
        self.errors.push(e);
    }

    /// The final JSON line.
    fn json(&self, traced: bool) -> String {
        let mut metrics = Vec::new();
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in declared {
            let value = if traced {
                self.layers
                    .get(name)
                    .copied()
                    .or_else(|| self.counts.get(*name).map(|c| *c as f64))
            } else {
                self.e2e.get(name).copied()
            };
            let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    params: Params,
    trace: bool,
    check: bool,
    write_pins: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut check, mut write_pins) =
        (1, 10.0, false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check" => check = true,
            "--write-pins" => write_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    // Build and scratch output stays under the cargo target directory.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let out = target.join("perfbench");
    let dir = out.join(format!("scratch-{}", std::process::id()));
    Ok(Args {
        params: Params {
            workload,
            seed,
            seconds,
            out,
            dir,
        },
        trace,
        check,
        write_pins,
    })
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Resident and peak resident set, bytes, from `/proc/self/status`.
pub fn rss_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the system, then resets the peak
/// resident set (`VmHWM`) to the current resident set, so the next
/// [`rss_bytes`] reports the peak since this call over a baseline that
/// does not depend on what earlier work left in the allocator.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim only releases free heap pages; it reads no
    // caller memory.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

fn run_workload(p: &Params, golden: &Golden, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    match p.workload.as_str() {
        "cells" => sweep::run(p, golden, tracer),
        "serve_mix" => serve_mix::run(p, golden, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one invocation; the exit code is 0 for a correct run with no
/// failed operation (and no pin drift), 1 otherwise.
fn run(argv: &[String]) -> Result<u8, String> {
    let mut args = parse_args(argv)?;
    let golden = Golden::load()?;
    if args.check {
        let pinned = pins::load(&args.params.workload)?
            .ok_or(format!("no pins for {}", args.params.workload))?;
        args.params.seed = pinned.seed;
        args.params.seconds = pinned.seconds;
    }
    let p = &args.params;
    std::fs::create_dir_all(&p.dir).map_err(|e| format!("{}: {e}", p.dir.display()))?;
    let tracer = args.trace.then(Tracer::new);
    let started = std::time::Instant::now();
    let result = run_workload(p, &golden, tracer.as_ref());
    let _ = std::fs::remove_dir_all(&p.dir);
    let mut out = result.map_err(|e| format!("{}: {e}", p.workload))?;
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
    out.e2e("ok_ratio", ok, "ratio");
    for e in &out.errors {
        eprintln!("perfbench: {}: INCORRECT: {e}", p.workload);
    }
    if let Some(t) = &tracer {
        report_trace(t, p, started.elapsed().as_secs_f64())?;
    }
    let clean = out.correct && out.failed == 0;
    let mut code = if clean { 0 } else { 1 };
    if args.write_pins {
        if !clean {
            return Err(format!(
                "{}: not pinning the counts of a failed run",
                p.workload
            ));
        }
        pins::write(&p.workload, p.seed, p.seconds, &out.counts)?;
    } else if args.check {
        if let Err(e) = pins::check(&p.workload, &out.counts) {
            eprintln!("perfbench: {}: {e}", p.workload);
            code = 1;
        }
    }
    let declared = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (name, unit) in declared {
        let measured = if args.trace {
            out.layers.contains_key(name) || out.counts.contains_key(*name)
        } else {
            out.e2e.contains_key(name)
        };
        if !measured {
            eprintln!(
                "perfbench: {}: {name} [{unit}] not exercised by this workload: 0",
                p.workload
            );
        }
    }
    println!("{}", out.json(args.trace));
    Ok(code)
}

/// Writes the spans as a Chrome trace and prints each span name's self
/// time and its share of the traced run's `wall` seconds.
fn report_trace(t: &Tracer, p: &Params, wall: f64) -> Result<(), String> {
    let all = t.spans();
    let json = spans::chrome_trace_json(&all);
    spectrebench::obs::trace::validate_json(&json)?;
    let path = p.out.join(format!("trace-{}.json", p.workload));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = spans::summary(&all);
    let share = |d: std::time::Duration| 100.0 * d.as_secs_f64() / wall.max(1e-9);
    let mut layers: BTreeMap<&str, std::time::Duration> = BTreeMap::new();
    for (name, _, _, own) in &rows {
        *layers
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += *own;
    }
    eprintln!(
        "{}: {} spans in {}; self time by layer:",
        p.workload,
        all.len(),
        path.display()
    );
    for (layer, own) in layers {
        eprintln!(
            "  {layer:<12} {:>10.1} ms {:>6.1}% of the run",
            own.as_secs_f64() * 1e3,
            share(own)
        );
    }
    eprintln!("{}: self time by span:", p.workload);
    for (name, count, total, own) in rows {
        eprintln!(
            "  {name:<36} {count:>6} calls {:>10.1} ms total {:>10.1} ms self {:>6.1}% of the run",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3,
            share(own)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_reports_every_declared_metric() {
        let mut o = Outcome::new(10, 0);
        o.e2e("wall_s", 1.5, "s");
        o.count("core.cells", 7);
        let e2e = o.json(false);
        for (name, unit) in END_TO_END {
            assert!(e2e.contains(&format!("\"{name}\": {{\"value\"")), "{name}");
            assert!(e2e.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(e2e.contains("\"wall_s\": {\"value\": 1.5"));
        spectrebench::obs::trace::validate_json(&e2e).unwrap();
        let layers = o.json(true);
        assert!(layers.contains("\"core.cells\": {\"value\": 7,"));
        spectrebench::obs::trace::validate_json(&layers).unwrap();
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
        for name in all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn metrics_match_the_benchmark_declaration() {
        let decl = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(decl.contains(&entry), "{name} [{unit}] is not declared");
        }
        let declared = decl.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(decl.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(args("--workload cells --seed 3 --seconds 5 --trace 1").is_ok());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload cells --trace 2").is_err());
        assert!(args("--workload cells --seconds 0").is_err());
        assert!(args("--seed 3").is_err());
    }
}
