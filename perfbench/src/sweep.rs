//! The `cells` workload: passes over the fourteen cheap artifacts, each
//! pass on a fresh executor with a fresh resume journal, exactly as
//! `regen --resume` builds them.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::Artifact;
use spectrebench::obs::{trace, EventKind};
use spectrebench::{EventBus, Executor, Harness, HarnessStats, Journal};

use crate::golden::Golden;
use crate::layers;
use crate::spans::{self, Tracer};
use crate::stats::{self, median, percentile, sorted, Rng};
use crate::{ms_since, Outcome, Params, CHEAP, JOBS};

/// Set-ups timed before each pass; `setup_s` is the median of all.
const SETUPS_PER_PASS: usize = 5;

/// A fresh executor, recording on `bus` if given, over a fresh resume
/// journal at `journal` if given.
fn setup(journal: Option<&Path>, bus: Option<&Arc<EventBus>>) -> Result<Executor, String> {
    let mut exec = Executor::new(Harness::new()).with_jobs(JOBS);
    if let Some(bus) = bus {
        exec = exec.with_obs(Arc::clone(bus));
    }
    let Some(path) = journal else { return Ok(exec) };
    let _ = std::fs::remove_file(path);
    let journal = Journal::open(path).map_err(|e| format!("journal {}: {e}", path.display()))?;
    Ok(exec.with_journal(journal))
}

/// What one pass measured.
struct Pass {
    wall: Duration,
    /// Fresh cells' run times (started → finished), milliseconds.
    cell_ms: Vec<f64>,
    /// Fresh cells' queue waits (queued → started), milliseconds.
    wait_ms: Vec<f64>,
    counts: BTreeMap<&'static str, u64>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    /// Kept for the last pass only (the traced run re-renders on it).
    exec: Option<Executor>,
    bus: Option<Arc<EventBus>>,
}

fn cell_times(bus: &EventBus) -> (Vec<f64>, Vec<f64>, u64) {
    let mut queued: HashMap<String, Duration> = HashMap::new();
    let mut started: HashMap<usize, (Duration, String)> = HashMap::new();
    let (mut run, mut wait, mut scanned) = (Vec::new(), Vec::new(), 0u64);
    for e in bus.snapshot() {
        match e.kind {
            EventKind::CellQueued => {
                queued.insert(e.cell, e.ts);
            }
            EventKind::CellStarted => {
                if let Some(q) = queued.get(&e.cell) {
                    wait.push((e.ts - *q).as_secs_f64() * 1e3);
                }
                started.insert(e.worker, (e.ts, e.cell));
            }
            EventKind::CellFinished { .. } => {
                if let Some((s, _)) = started.remove(&e.worker) {
                    run.push((e.ts - s).as_secs_f64() * 1e3);
                }
            }
            EventKind::SpecTaintAnalyzed { scanned: n, .. } => scanned += n as u64,
            _ => {}
        }
    }
    (run, wait, scanned)
}

fn pass(
    artifacts: &[Artifact],
    golden: &Golden,
    journal: Option<&Path>,
    with_events: bool,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let run = tracer.map_or(0, Tracer::next_id);
    spans::maybe(tracer, "core.pass", None, run, |id| {
        pass_inner(artifacts, golden, journal, with_events, tracer, id, run)
    })
}

fn pass_inner(
    artifacts: &[Artifact],
    golden: &Golden,
    journal: Option<&Path>,
    with_events: bool,
    tracer: Option<&Tracer>,
    span: Option<u64>,
    run: u64,
) -> Result<Pass, String> {
    let bus = with_events.then(|| Arc::new(EventBus::new()));
    let exec = spans::maybe(tracer, "core.setup", span, run, |_| {
        setup(journal, bus.as_ref())
    })?;
    let pmc0 = uarch::pmc::global::snapshot();
    let t = Instant::now();
    let mut mismatches = Vec::new();
    let mut failed = 0;
    for a in artifacts {
        let before = exec.stats();
        let outcome = spans::maybe(tracer, "core.regenerate", span, run, |_| {
            a.regenerate(false, &exec)
        });
        let cells = exec.stats().since(&before);
        let ok = match &outcome {
            Ok(out) => {
                !out.degraded
                    && golden.artifact(*a)?
                        == bench::render_artifact_block(&bench::ArtifactResult {
                            artifact: *a,
                            outcome: Ok(out.clone()),
                            cells: HarnessStats::default(),
                        })
            }
            Err(_) => false,
        };
        if !ok {
            mismatches.push(format!("{} does not match its golden block", a.name()));
            failed += attempted(&cells);
        } else {
            failed += cells.cells_failed;
        }
    }
    let wall = t.elapsed();
    let pmc1 = uarch::pmc::global::snapshot();
    let stats = exec.stats();
    let (cell_ms, wait_ms, scanned) = bus.as_deref().map(cell_times).unwrap_or_default();
    let mut counts = BTreeMap::new();
    counts.insert("core.cells", attempted(&stats));
    counts.insert("core.cells_run", stats.cells_run);
    counts.insert("core.cache_hits", stats.cells_from_cache);
    counts.insert("uarch.committed_insts", pmc1.0 - pmc0.0);
    counts.insert("uarch.transient_insts", pmc1.1 - pmc0.1);
    counts.insert("uarch.transient_windows", pmc1.2 - pmc0.2);
    counts.insert("spec_taint.branches_scanned", scanned);
    if let Some(journal) = journal {
        let text = std::fs::read_to_string(journal).map_err(|e| format!("journal: {e}"))?;
        counts.insert("core.journal_lines", text.lines().count() as u64);
        counts.insert("core.journal_bytes", text.len() as u64);
    }
    Ok(Pass {
        wall,
        cell_ms,
        wait_ms,
        counts,
        attempted: attempted(&stats),
        failed,
        mismatches,
        exec: Some(exec),
        bus,
    })
}

fn attempted(s: &HarnessStats) -> u64 {
    s.cells_run + s.cells_failed + s.cells_from_cache + s.cells_from_journal
}

/// Runs the workload.
pub fn run(p: &Params, golden: &Golden, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let base = CHEAP.to_vec();
    let journal = p.dir.join("journal.jsonl");
    let mut setups = Vec::new();
    let mut rng = Rng::new(p.seed);
    // A traced run spends half its time on the layer probes.
    let budget = if tracer.is_some() {
        p.seconds / 2.0
    } else {
        p.seconds
    };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peaks = Vec::new();
    loop {
        let mut order = base.clone();
        rng.shuffle(&mut order);
        // Only the last pass keeps its executor and events, so peak
        // memory does not grow with the number of passes.
        if let Some(prev) = passes.last_mut() {
            prev.exec = None;
            prev.bus = None;
        }
        // Set-up, timed on its own: a pass's own set-up runs cold, right
        // after the previous pass, so it is left to the trace. Set-ups
        // are spread over the whole run, like the passes, because the
        // host's speed drifts: a burst of them at the start of a run
        // read up to 1.7x apart from one run to the next.
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let exec = setup(Some(&journal), Some(&Arc::new(EventBus::new())))?;
            setups.push(t.elapsed().as_secs_f64());
            drop(exec);
        }
        // Peak memory per pass, over a trimmed heap: the process-wide
        // high-water mark is the largest of many passes, and what
        // glibc's per-thread arenas kept from earlier passes varied
        // from run to run.
        crate::reset_peak_rss()?;
        passes.push(pass(&order, golden, Some(&journal), true, tracer)?);
        peaks.push(crate::rss_bytes().1 as f64);
        // Start another pass only if it should end within the budget.
        let per_pass = started.elapsed().as_secs_f64() / passes.len() as f64;
        if started.elapsed().as_secs_f64() + per_pass > budget {
            break;
        }
    }
    let _ = std::fs::remove_file(&journal);

    let attempted: u64 = passes.iter().map(|x| x.attempted).sum();
    let failed: u64 = passes.iter().map(|x| x.failed).sum();
    let mut out = Outcome::new(attempted, failed);
    for x in &passes {
        for m in &x.mismatches {
            out.error(m.clone());
        }
    }
    // Every pass must count the same work, whatever the artifact order
    // or thread schedule.
    for x in &passes[1..] {
        if x.counts != passes[0].counts {
            out.error(format!(
                "pass counts differ between passes: {:?} vs {:?}",
                passes[0].counts, x.counts
            ));
        }
    }
    for (k, v) in &passes[0].counts {
        out.count(k, *v);
    }

    let walls: Vec<f64> = passes.iter().map(|x| x.wall.as_secs_f64()).collect();
    let cell_ms = sorted(
        passes
            .iter()
            .flat_map(|x| x.cell_ms.iter().copied())
            .collect(),
    );
    let rates: Vec<f64> = passes
        .iter()
        .map(|x| x.attempted as f64 / x.wall.as_secs_f64())
        .collect();
    out.e2e("setup_s", median(&setups), "s");
    out.e2e("wall_s", median(&walls), "s");
    out.e2e(
        "p50_ms",
        percentile(&cell_ms, 50.0).unwrap_or_else(|| median(&cell_ms)),
        "ms",
    );
    out.e2e("p99_ms", stats::tail(&cell_ms, 99.0), "ms");
    out.e2e("max_rps", median(&rates), "1/s");
    out.e2e("peak_rss_mb", median(&peaks) / (1 << 20) as f64, "MB");
    eprintln!(
        "{}: {} pass(es), wall median {:.3}s, {} cells per pass, cell time p50 {:.3} ms, \
         tail {:.3} ms over {} cells",
        p.workload,
        passes.len(),
        median(&walls),
        passes[0].attempted,
        median(&cell_ms),
        stats::tail(&cell_ms, 99.0),
        cell_ms.len()
    );

    if let Some(t) = tracer {
        traced(t, &base, golden, &passes, p, &mut out)?;
    }
    Ok(out)
}

fn traced(
    t: &Tracer,
    artifacts: &[Artifact],
    golden: &Golden,
    passes: &[Pass],
    p: &Params,
    out: &mut Outcome,
) -> Result<(), String> {
    let walls: Vec<f64> = passes.iter().map(|x| x.wall.as_secs_f64()).collect();
    let cell_ms = sorted(
        passes
            .iter()
            .flat_map(|x| x.cell_ms.iter().copied())
            .collect(),
    );
    let wait_ms = sorted(
        passes
            .iter()
            .flat_map(|x| x.wait_ms.iter().copied())
            .collect(),
    );
    // The traced run's wall_s; against the untraced wall_s it gives the
    // tracing overhead.
    out.layer("trace.wall_s", median(&walls), "s");
    out.layer("core.executor.cell_ms_p50", median(&cell_ms), "ms");
    out.layer(
        "core.executor.cell_ms_max",
        cell_ms.last().copied().unwrap_or(0.0),
        "ms",
    );
    out.layer("core.executor.queue_wait_ms_p50", median(&wait_ms), "ms");
    out.layer(
        "core.executor.busy_ratio",
        cell_ms.iter().sum::<f64>() / 1e3 / (JOBS as f64 * walls.iter().sum::<f64>()),
        "ratio",
    );

    // core render: the same artifacts again on the last pass's warm
    // executor, where every cell is a cache hit, leaves reduce + render.
    let last = passes.last().expect("at least one pass");
    let exec = last
        .exec
        .as_ref()
        .expect("the last pass keeps its executor");
    let run = t.next_id();
    let render_ms = t.span("core.render", None, run, |_| {
        let start = Instant::now();
        for a in artifacts {
            a.regenerate(false, exec).map_err(|e| e.to_string())?;
        }
        Ok::<f64, String>(ms_since(start))
    })?;
    out.layer("core.render_ms", render_ms, "ms");

    // core journal: alternate passes with and without a journal.
    let journal = p.dir.join("journal-probe.jsonl");
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for i in 0..6 {
        for use_journal in [i % 2 == 0, i % 2 == 1] {
            let path = use_journal.then_some(journal.as_path());
            let name = if use_journal {
                "core.pass.journal"
            } else {
                "core.pass.no_journal"
            };
            let x = t.span(name, None, t.next_id(), |_| {
                pass(artifacts, golden, path, false, None)
            })?;
            if !x.mismatches.is_empty() {
                return Err(x.mismatches.join("; "));
            }
            let into = if use_journal { &mut with } else { &mut without };
            into.push(x.wall.as_secs_f64() * 1e3);
        }
    }
    let _ = std::fs::remove_file(&journal);
    out.layer("core.journal_ms", median(&with) - median(&without), "ms");
    layers::spec_taint(t, 5, out);
    layers::boot(t, &layers::boot_configs(&layers::cells_cmdlines()), 3, out);
    layers::link(t, 3, out);
    // The two big sweeps' layers, probed directly: Figure 2's cost is
    // `lebench::run_op`, Figure 3's is `octane::run_bench`.
    layers::lebench_ops(t, out);
    layers::octane_runs(t, out);
    // The executor's own cell events of the last pass, as a Chrome
    // trace beside the span trace.
    if let Some(bus) = &last.bus {
        let path = p.out.join(format!("events-{}.json", p.workload));
        std::fs::write(&path, trace::chrome_trace_json(&bus.snapshot()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{}: executor events of the last pass in {}",
            p.workload,
            path.display()
        );
    }
    Ok(())
}
