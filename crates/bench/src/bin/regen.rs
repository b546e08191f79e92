//! Regenerates the paper's tables and figures from the simulation.
//!
//! ```text
//! cargo run --release -p bench --bin regen                  # everything
//! cargo run --release -p bench --bin regen -- figure2       # one artifact
//! cargo run --release -p bench --bin regen -- --quick       # fast variants
//! cargo run --release -p bench --bin regen -- --keep-going  # don't stop on failure
//! cargo run --release -p bench --bin regen -- --resume run.jsonl
//! cargo run --release -p bench --bin regen -- --jobs 8      # worker threads
//! cargo run --release -p bench --bin regen -- --inject 'cell=Broadwell:kind=sim:times=2'
//! cargo run --release -p bench --bin regen -- --trace-out trace.json --metrics-out metrics.prom
//! cargo run --release -p bench --bin regen -- --out results.txt
//! cargo run --release -p bench --bin regen -- fsck run.jsonl   # verify/repair a journal
//! cargo run --release -p bench --bin regen -- --list           # artifact inventory
//! cargo run --release -p bench --bin regen -- fetch http://127.0.0.1:7979 figure2
//! cargo run --release -p bench --bin regen -- campaign --quick table1  # fault-space sweep
//! cargo run --release -p bench --bin regen -- bench-uarch --out BENCH_uarch.json
//! cargo run --release -p bench --bin regen -- bench-uarch --check BENCH_uarch.json
//! cargo run --release -p bench --bin regen -- loadgen http://127.0.0.1:7979/artifact/table2
//! ```
//!
//! Exit codes: 0 clean; 1 at least one artifact failed or was degraded
//! (or a journal append was lost); 2 bad usage (unknown artifact or
//! malformed flag). `regen fsck` exits 0 when every line was valid, 1
//! when only recoverable artifacts (legacy v1 lines / torn tail) were
//! found, 2 on checksum or structural corruption. `regen campaign`
//! exits 0 when every explored coordinate was absorbed, degraded, or
//! failed loud; 1 when the reference sweep was not clean; 2 on any
//! silent-corruption classification (or bad usage).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use bench::campaign::{run_campaign, CampaignError, CampaignOptions};
use bench::{Artifact, RegenOptions, run_regen};
use spectrebench::campaign::SurvivalClass;
use spectrebench::{fsck_journal, jobs_from_env, FaultKind, FaultPlan};

fn usage(to_stdout: bool) {
    // The kind lists come from FaultKind::ALL so --help can never
    // drift from what parse_spec accepts.
    let compute_kinds = FaultKind::ALL
        .iter()
        .filter(|k| !k.is_io())
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join("|");
    let io_kinds = FaultKind::ALL
        .iter()
        .filter(|k| k.is_io())
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join("|");
    let mut text = format!(
        "usage: regen [options] [artifact ...]\n\
         \x20      regen fsck <journal>\n\
         \x20      regen fetch <base-url> <artifact|results>\n\
         \x20      regen loadgen [loadgen-options] <url>\n\
         \x20      regen campaign [campaign-options] [artifact ...]\n\
         \n\
         subcommands:\n\
         \x20 fsck <journal>    verify the journal's per-line checksums,\n\
         \x20                   quarantine damaged lines to <journal>.quarantine,\n\
         \x20                   and atomically rewrite a compacted valid journal.\n\
         \x20                   Exits 0 (clean), 1 (recoverable crash artifacts),\n\
         \x20                   or 2 (corruption found / unreadable)\n\
         \x20 fetch <url> <a>   pull one artifact rendering (or 'results' for\n\
         \x20                   all of them) off a running regend and print it;\n\
         \x20                   retries politely on 429 + Retry-After, and with\n\
         \x20                   seeded backoff on refused/timed-out connections\n\
         \x20 bench-uarch       benchmark the uarch interpreter itself: a pinned\n\
         \x20                   4-workload mix (branch/loadstore/syscall/transient)\n\
         \x20                   run through both the decoded dispatch loop and the\n\
         \x20                   reference stepper. Options: --out <f> (JSON report,\n\
         \x20                   atomic), --check <f> (re-run at the file's scale and\n\
         \x20                   fail on any retired-count drift; timings never\n\
         \x20                   gate), --scale <n>, --quick. Exits 1 on drift or\n\
         \x20                   if the decoded path is slower than the reference\n\
         \x20 loadgen <url>     open-loop HTTP load generator against a running\n\
         \x20                   regend: arrivals on a fixed-rate clock, latency\n\
         \x20                   measured from each scheduled arrival (no\n\
         \x20                   coordinated omission), keep-alive connection\n\
         \x20                   reuse, p50/p90/p99/max + achieved throughput.\n\
         \x20                   Options: --rate <req/s> (default 200),\n\
         \x20                   --requests <n> (default 1000), --connections <n>\n\
         \x20                   (default 8), --timeout-ms <n>, --histogram <f>\n\
         \x20                   (write the latency histogram to <f>),\n\
         \x20                   --target <url> (repeatable; arrivals rotate over\n\
         \x20                   all targets and the summary adds per-target\n\
         \x20                   latency splits).\n\
         \x20                   Exits 1 when any request errored\n\
         \x20 campaign          explore the whole (cell x attempt x fault-kind)\n\
         \x20                   space: reference sweep, one perturbed sweep per\n\
         \x20                   coordinate (all of {compute_kinds},\n\
         \x20                   {io_kinds}), survivability report.\n\
         \x20                   Campaign options: --sample <n> (seeded stratified\n\
         \x20                   sample), --seed <n>, --dir <d> (scratch + campaign\n\
         \x20                   journal), --resume (continue an interrupted\n\
         \x20                   campaign), --report <f> (JSON report, atomic),\n\
         \x20                   plus --quick/--retries/--jobs as below.\n\
         \x20                   Exits 2 on any silent-corruption verdict\n\
         \n\
         options:\n\
         \x20 --list            list the artifacts and exit\n\
         \x20 --quick           fast workload variants\n\
         \x20 --keep-going      continue past failed artifacts\n\
         \x20 --retries <n>     attempts per measurement cell (default 3)\n\
         \x20 --jobs <n>        worker threads for measurement cells (default:\n\
         \x20                   the REGEN_JOBS environment variable, else the\n\
         \x20                   machine's available parallelism); the rendered\n\
         \x20                   output is byte-identical for any value\n\
         \x20 --resume <log>    reuse cells journaled in <log>; append new ones\n\
         \x20 --inject <spec>   deterministic fault plan, e.g.\n\
         \x20                   'cell=<substr>:kind=<kind>:times=<n|forever>'\n\
         \x20                   or 'seed=<n>:prob=<p>'. Compute kinds\n\
         \x20                   {compute_kinds} fail attempts; I/O kinds\n\
         \x20                   {io_kinds} damage the cell's\n\
         \x20                   journal line instead (the value still renders)\n\
         \x20 --trace-out <f>   write a Chrome trace-event JSON timeline of the\n\
         \x20                   sweep (one lane per worker; open in Perfetto or\n\
         \x20                   chrome://tracing)\n\
         \x20 --metrics-out <f> write a Prometheus-style text metrics dump\n\
         \x20                   (cell counters, retry/fault totals, latency\n\
         \x20                   histograms)\n\
         \x20 --out <f>         also write the artifact renderings to <f>,\n\
         \x20                   atomically (tmp + fsync + rename): a killed run\n\
         \x20                   leaves the old file or the complete new one\n\
         \n\
         artifacts:\n",
    );
    for a in Artifact::ALL {
        text.push_str(&format!("  {:14} {}\n", a.name(), a.caption()));
    }
    // The policy list comes from V1Policy::ALL — the same slice the
    // kernel's spectre_v1= parser accepts — so the help can never name
    // a policy the boot parameter rejects, or vice versa.
    let policies = sim_kernel::V1Policy::ALL
        .iter()
        .map(|p| p.name())
        .collect::<Vec<_>>()
        .join("|");
    text.push_str(&format!(
        "\nThe 'targeted' artifact measures every spectre_v1= boot policy\n\
         ({policies}) over the paper CPUs plus the extended RISC-V catalog.\n"
    ));
    if to_stdout {
        print!("{text}");
    } else {
        eprint!("{text}");
    }
}

fn parse_args(args: &[String]) -> Result<RegenOptions, String> {
    let mut opts = RegenOptions::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--keep-going" => opts.keep_going = true,
            "--retries" => {
                let v = value("--retries")?;
                opts.retries =
                    Some(v.parse().map_err(|_| format!("bad --retries value: {v}"))?);
            }
            "--jobs" => {
                let v = value("--jobs")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs value: {v}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = Some(n);
            }
            "--resume" => opts.resume = Some(PathBuf::from(value("--resume")?)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--inject" => {
                let spec = value("--inject")?;
                opts.inject =
                    Some(FaultPlan::parse_spec(&spec).map_err(|e| format!("bad --inject: {e}"))?);
            }
            name if !name.starts_with("--") => match Artifact::parse(name) {
                Some(a) => opts.artifacts.push(a),
                None => return Err(unknown_artifact(name)),
            },
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// "unknown artifact" with a nearest-name hint when one is close.
fn unknown_artifact(name: &str) -> String {
    match Artifact::suggest(name) {
        Some(s) => format!("unknown artifact: {name} (did you mean: {s}?)"),
        None => format!("unknown artifact: {name} (see --list)"),
    }
}

/// `regen fetch <base-url> <artifact|results>`: pull a rendering off a
/// running regend and print it to stdout, exactly as `regen <artifact>`
/// would have (the server's bytes are golden-pinned to the same
/// renderer).
fn run_fetch(base: &str, what: &str) -> ExitCode {
    let path = match what {
        "results" => "/results".to_string(),
        name => match Artifact::parse(name) {
            Some(a) => format!("/artifact/{}", a.name()),
            None => {
                eprintln!("regen: {}", unknown_artifact(name));
                return ExitCode::from(2);
            }
        },
    };
    let base = base.strip_suffix('/').unwrap_or(base);
    let url = format!("{base}{path}");
    match bench::client::http_get_retrying(&url, Duration::from_secs(120), 5) {
        Ok(r) if r.status == 200 => {
            if r.header("x-regend-degraded").is_some() {
                eprintln!("regen: warning: {what} is DEGRADED (bridged over failed cells)");
            }
            if r.header("x-regend-quick").is_some() {
                eprintln!("regen: note: the server rendered the quick variant");
            }
            print!("{}", r.text());
            ExitCode::SUCCESS
        }
        Ok(r) => {
            eprintln!("regen: fetch {url} failed: HTTP {}", r.status);
            for line in r.text().lines() {
                eprintln!("regen:   {line}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("regen: fetch {url} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `regen campaign` arguments (everything after the subcommand
/// word).
fn parse_campaign_args(args: &[String]) -> Result<CampaignOptions, String> {
    let mut opts = CampaignOptions::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--retries" => {
                let v = value("--retries")?;
                let n: u32 = v.parse().map_err(|_| format!("bad --retries value: {v}"))?;
                if n == 0 {
                    return Err("--retries must be at least 1".to_string());
                }
                opts.retries = n;
            }
            "--jobs" => {
                let v = value("--jobs")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs value: {v}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = Some(n);
            }
            "--sample" => {
                let v = value("--sample")?;
                let n: usize = v.parse().map_err(|_| format!("bad --sample value: {v}"))?;
                if n == 0 {
                    return Err("--sample must be at least 1".to_string());
                }
                opts.sample = Some(n);
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--dir" => opts.dir = PathBuf::from(value("--dir")?),
            "--resume" => opts.resume = true,
            "--report" => opts.report_out = Some(PathBuf::from(value("--report")?)),
            name if !name.starts_with("--") => match Artifact::parse(name) {
                Some(a) => opts.artifacts.push(a),
                None => return Err(unknown_artifact(name)),
            },
            other => return Err(format!("unknown campaign flag: {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// `regen campaign`: the three-phase fault-space exploration. Prints
/// the survivability matrix to stdout; exit 2 on any silent-corruption
/// verdict, exit 1 when the reference sweep could not baseline.
fn run_campaign_cmd(args: &[String]) -> ExitCode {
    let mut opts = match parse_campaign_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("regen campaign: {msg}");
            eprintln!();
            usage(false);
            return ExitCode::from(2);
        }
    };
    if opts.jobs.is_none() {
        match jobs_from_env() {
            Ok(n) => opts.jobs = n,
            Err(msg) => {
                eprintln!("regen: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    let run = match run_campaign(&opts) {
        Ok(run) => run,
        Err(e @ CampaignError::ReferenceNotClean(_)) => {
            eprintln!("regen campaign: {e}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("regen campaign: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", run.report.render_matrix());
    eprintln!(
        "regen campaign: {} coordinate(s) explored ({} executed now, {} replayed from {}), \
         space {} over {} cell(s)",
        run.report.outcomes.len(),
        run.executed,
        run.replayed,
        opts.dir.join("campaign.jsonl").display(),
        run.report.space,
        run.report.cells
    );
    let s = &run.stats;
    eprintln!(
        "regen campaign: {} cells run, {} retries, {} faults injected, {} cells failed, {} panic(s) caught",
        s.cells_run, s.retries, s.faults_injected, s.cells_failed, s.panics_caught
    );
    if let Some(path) = &opts.report_out {
        eprintln!("regen campaign: report written to {}", path.display());
    }
    let silent = run.report.silent_corruptions();
    if silent.is_empty() {
        ExitCode::SUCCESS
    } else {
        for o in &silent {
            eprintln!("regen campaign: SILENT CORRUPTION at {} ({})", o.coord.id(), o.detail);
        }
        // Reserve exit 2 for the one verdict that is always a bug.
        debug_assert!(silent.iter().all(|o| o.class == SurvivalClass::SilentCorruption));
        ExitCode::from(2)
    }
}

/// Parses `regen bench-uarch` arguments.
struct BenchUarchArgs {
    opts: bench::uarch_bench::UarchBenchOptions,
    scale_overridden: bool,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
}

fn parse_bench_uarch_args(args: &[String]) -> Result<BenchUarchArgs, String> {
    let mut parsed = BenchUarchArgs {
        opts: bench::uarch_bench::UarchBenchOptions::default(),
        scale_overridden: false,
        out: None,
        check: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => {
                parsed.opts = bench::uarch_bench::UarchBenchOptions::quick();
                parsed.scale_overridden = true;
            }
            "--scale" => {
                let v = value("--scale")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --scale value: {v}"))?;
                if n == 0 {
                    return Err("--scale must be at least 1".to_string());
                }
                parsed.opts.scale = n;
                parsed.scale_overridden = true;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--check" => parsed.check = Some(PathBuf::from(value("--check")?)),
            other => return Err(format!("unknown bench-uarch flag: {other}")),
        }
        i += 1;
    }
    Ok(parsed)
}

/// `regen bench-uarch`: benchmark the interpreter. In `--check` mode the
/// run is pinned to the committed report's scale and any retired-work
/// drift fails the command; timings are reported but only gate in the
/// one way that is always a bug — the decoded path being slower than the
/// reference interpreter it replaced.
fn run_bench_uarch_cmd(args: &[String]) -> ExitCode {
    use bench::uarch_bench;
    let mut parsed = match parse_bench_uarch_args(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("regen bench-uarch: {msg}");
            eprintln!();
            usage(false);
            return ExitCode::from(2);
        }
    };
    let pinned = match &parsed.check {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => {
                match uarch_bench::pinned_scale(&text) {
                    Ok(scale) if !parsed.scale_overridden => parsed.opts.scale = scale,
                    Ok(_) => {}
                    Err(msg) => {
                        eprintln!("regen bench-uarch: {}: {msg}", path.display());
                        return ExitCode::from(2);
                    }
                }
                Some(text)
            }
            Err(e) => {
                eprintln!("regen bench-uarch: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let report = match uarch_bench::run_bench_uarch(&parsed.opts) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("regen bench-uarch: {msg}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_text());
    if let Some(path) = &parsed.out {
        if let Err(e) = spectrebench::atomic_write(path, report.render_json().as_bytes()) {
            eprintln!("regen bench-uarch: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("regen bench-uarch: report written to {}", path.display());
    }
    let mut failed = false;
    if let Some(pinned) = pinned {
        match uarch_bench::check_report(&pinned, &report) {
            Ok(drifts) if drifts.is_empty() => {
                eprintln!("regen bench-uarch: retired-work counts match the pinned report");
            }
            Ok(drifts) => {
                for d in &drifts {
                    eprintln!("regen bench-uarch: DRIFT: {d}");
                }
                failed = true;
            }
            Err(msg) => {
                eprintln!("regen bench-uarch: {msg}");
                failed = true;
            }
        }
        if report.total_speedup() < 1.0 {
            eprintln!(
                "regen bench-uarch: decoded dispatch is SLOWER than the reference stepper ({:.2}x)",
                report.total_speedup()
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses `regen loadgen` arguments (everything after the subcommand
/// word; the first bare argument is the URL).
fn parse_loadgen_args(args: &[String]) -> Result<(bench::loadgen::LoadgenOptions, Option<PathBuf>), String> {
    let mut opts = bench::loadgen::LoadgenOptions::default();
    let mut histogram = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--rate" => {
                let v = value("--rate")?;
                let r: f64 = v.parse().map_err(|_| format!("bad --rate value: {v}"))?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--rate must be positive".to_string());
                }
                opts.rate = r;
            }
            "--requests" => {
                let v = value("--requests")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --requests value: {v}"))?;
                if n == 0 {
                    return Err("--requests must be at least 1".to_string());
                }
                opts.requests = n;
            }
            "--connections" => {
                let v = value("--connections")?;
                let n: usize = v.parse().map_err(|_| format!("bad --connections value: {v}"))?;
                if n == 0 {
                    return Err("--connections must be at least 1".to_string());
                }
                opts.connections = n;
            }
            "--timeout-ms" => {
                let v = value("--timeout-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --timeout-ms value: {v}"))?;
                opts.timeout = Duration::from_millis(ms.max(1));
            }
            "--histogram" => histogram = Some(PathBuf::from(value("--histogram")?)),
            "--target" => opts.targets.push(value("--target")?),
            url if !url.starts_with("--") => opts.targets.push(url.to_string()),
            other => return Err(format!("unknown loadgen flag: {other}")),
        }
        i += 1;
    }
    if opts.targets.is_empty() {
        return Err("loadgen needs a target URL (bare or --target)".to_string());
    }
    Ok((opts, histogram))
}

/// `regen loadgen <url>`: open-loop load against a running regend.
/// Exit 1 when any request failed outright (429s are responses, not
/// errors: they are the server keeping its overload contract).
fn run_loadgen_cmd(args: &[String]) -> ExitCode {
    let (opts, histogram) = match parse_loadgen_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("regen loadgen: {msg}");
            eprintln!();
            usage(false);
            return ExitCode::from(2);
        }
    };
    let report = match bench::loadgen::run_loadgen(&opts) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("regen loadgen: {msg}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_text());
    if let Some(path) = &histogram {
        if let Err(e) = spectrebench::atomic_write(path, report.render_histogram().as_bytes()) {
            eprintln!("regen loadgen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("regen loadgen: histogram written to {}", path.display());
    }
    if report.errors > 0 {
        eprintln!("regen loadgen: {} request(s) failed", report.errors);
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `regen fsck <journal>`: verify, quarantine, compact. Severity maps
/// directly to the exit code; an unreadable journal is severity 2.
fn run_fsck(path: &Path) -> ExitCode {
    match fsck_journal(path) {
        Ok(report) => {
            let s = &report.scan;
            eprintln!(
                "regen fsck: {}: {} valid line(s) -> {} entr{} compacted; {} stale, {} truncated, {} corrupt skipped",
                path.display(),
                s.valid,
                report.entries,
                if report.entries == 1 { "y" } else { "ies" },
                s.stale,
                s.truncated,
                s.corrupt
            );
            if let Some(q) = &report.quarantine {
                eprintln!("regen fsck: damaged lines quarantined to {}", q.display());
            }
            ExitCode::from(report.severity())
        }
        Err(e) => {
            eprintln!("regen fsck: cannot read {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage(true);
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for a in Artifact::ALL {
            println!("{:14} {}", a.name(), a.caption());
        }
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("fetch") {
        return match (args.get(1), args.get(2)) {
            (Some(base), Some(what)) if args.len() == 3 => run_fetch(base, what),
            _ => {
                eprintln!("regen: fetch takes exactly two arguments: <base-url> <artifact|results>");
                eprintln!();
                usage(false);
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("campaign") {
        return run_campaign_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench-uarch") {
        return run_bench_uarch_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("loadgen") {
        return run_loadgen_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fsck") {
        return match args.get(1) {
            Some(path) if args.len() == 2 => run_fsck(Path::new(path)),
            _ => {
                eprintln!("regen: fsck takes exactly one argument: the journal path");
                eprintln!();
                usage(false);
                ExitCode::from(2)
            }
        };
    }
    let mut opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("regen: {msg}");
            eprintln!();
            usage(false);
            return ExitCode::from(2);
        }
    };
    // Validate REGEN_JOBS up front: a malformed value is a usage error
    // (exit 2), not a silent fallback to machine parallelism.
    if opts.jobs.is_none() {
        match jobs_from_env() {
            Ok(n) => opts.jobs = n,
            Err(msg) => {
                eprintln!("regen: {msg}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match run_regen(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("regen: cannot open resume journal: {e}");
            return ExitCode::from(2);
        }
    };

    for r in &report.results {
        print!("{}", bench::render_artifact_block(r));
        let c = &r.cells;
        eprintln!(
            "regen: {}: {} cells simulated, {} from cache, {} from journal ({:.2}s simulating, {:.2}s in plans)",
            r.artifact.name(),
            c.cells_run,
            c.cells_from_cache,
            c.cells_from_journal,
            c.sim_time.as_secs_f64(),
            c.plan_time.as_secs_f64()
        );
    }

    let s = &report.stats;
    eprintln!(
        "regen: {} cells run, {} from cache, {} from journal, {} retries, {} faults injected, {} cells failed",
        s.cells_run,
        s.cells_from_cache,
        s.cells_from_journal,
        s.retries,
        s.faults_injected,
        s.cells_failed
    );
    eprintln!(
        "regen: timing: {:.2}s simulating cells, {:.2}s inside plan execution",
        s.sim_time.as_secs_f64(),
        s.plan_time.as_secs_f64()
    );
    if s.panics_caught > 0 || s.breaker_skipped > 0 {
        eprintln!(
            "regen: {} compute panic(s) caught; {} cell(s) degraded by the panic circuit breaker",
            s.panics_caught, s.breaker_skipped
        );
    }
    if s.journal_stale > 0 || s.journal_corrupt > 0 || s.journal_truncated > 0 {
        eprintln!(
            "regen: resume journal damage skipped: {} stale, {} corrupt, {} truncated line(s) (run `regen fsck` to quarantine and compact)",
            s.journal_stale, s.journal_corrupt, s.journal_truncated
        );
    }
    if s.journal_write_errors > 0 {
        eprintln!(
            "regen: {} journal write error(s): affected cells will re-run on resume",
            s.journal_write_errors
        );
    }
    if let Some(path) = &opts.trace_out {
        eprintln!("regen: trace written to {}", path.display());
    }
    if let Some(path) = &opts.metrics_out {
        eprintln!("regen: metrics written to {}", path.display());
    }
    if let Some(path) = &opts.out {
        eprintln!("regen: artifacts written to {}", path.display());
    }
    let failures = report.failures();
    for (a, e) in &failures {
        eprintln!("regen: {} FAILED: {e}", a.name());
    }
    for a in report.degraded() {
        eprintln!("regen: {} is DEGRADED (bridged over failed cells)", a.name());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
