//! # bench — regeneration harness and timing benchmarks
//!
//! The `regen` binary reprints every table and figure of the paper from
//! the simulation (see `cargo run -p bench --bin regen -- --help`); the
//! plain-`main` benches under `benches/` time the harness itself, one
//! group per paper artifact.
//!
//! The regeneration sweep itself is a library ([`run_regen`]) so the
//! integration tests can drive `--keep-going`, fault injection, and
//! `--resume` without spawning processes. The [`client`] module is the
//! other half of the serving story: a small HTTP client behind
//! `regen fetch`, for pulling renderings off a running `regend`.

pub mod campaign;
pub mod client;
pub mod loadgen;
pub mod uarch_bench;

use std::path::PathBuf;
use std::sync::Arc;

use cpu_models::CpuId;
use spectrebench::experiments as exp;
use spectrebench::obs::trace;
use spectrebench::{
    atomic_write, default_jobs, EventBus, Executor, ExperimentError, FaultPlan, Harness,
    HarnessStats, Journal, RetryPolicy,
};

/// Every regenerable artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Table 1: default mitigations.
    Table1,
    /// Table 2: CPU inventory.
    Table2,
    /// Figure 2: LEBench attribution.
    Figure2,
    /// Figure 3: Octane attribution.
    Figure3,
    /// Table 3: entry/exit primitives.
    Table3,
    /// Table 4: verw.
    Table4,
    /// Table 5: indirect branches.
    Table5,
    /// Table 6: IBPB.
    Table6,
    /// Table 7: RSB fill.
    Table7,
    /// Table 8: lfence.
    Table8,
    /// Figure 5: SSBD on PARSEC.
    Figure5,
    /// Table 9: speculation matrix, IBRS off.
    Table9,
    /// Table 10: speculation matrix, IBRS on.
    Table10,
    /// §4.4 VM workloads.
    VmWorkloads,
    /// §6.2.2 eIBRS bimodal entries.
    EibrsBimodal,
    /// The eBPF/kernel boundary (the paper's acknowledged gap).
    EbpfBoundary,
    /// §7 what-ifs + design ablations (beyond the paper's artifacts).
    Discussion,
    /// Targeted Spectre-V1 hardening vs the blanket policies, across the
    /// paper CPUs and the extended RISC-V catalog (beyond the paper).
    Targeted,
}

/// One regenerated artifact: its text plus whether any slice had to be
/// bridged over a permanently failed lattice cell.
#[derive(Debug, Clone)]
pub struct ArtifactOutput {
    /// The plain-text rendering.
    pub text: String,
    /// Whether the artifact is partial (degraded attribution slices).
    pub degraded: bool,
}

impl ArtifactOutput {
    fn clean(text: String) -> ArtifactOutput {
        ArtifactOutput { text, degraded: false }
    }
}

impl Artifact {
    /// All artifacts in paper order.
    pub const ALL: [Artifact; 18] = [
        Artifact::Table1,
        Artifact::Table2,
        Artifact::Figure2,
        Artifact::Figure3,
        Artifact::Table3,
        Artifact::Table4,
        Artifact::Table5,
        Artifact::Table6,
        Artifact::Table7,
        Artifact::Table8,
        Artifact::Figure5,
        Artifact::Table9,
        Artifact::Table10,
        Artifact::VmWorkloads,
        Artifact::EibrsBimodal,
        Artifact::EbpfBoundary,
        Artifact::Discussion,
        Artifact::Targeted,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Table1 => "table1",
            Artifact::Table2 => "table2",
            Artifact::Figure2 => "figure2",
            Artifact::Figure3 => "figure3",
            Artifact::Table3 => "table3",
            Artifact::Table4 => "table4",
            Artifact::Table5 => "table5",
            Artifact::Table6 => "table6",
            Artifact::Table7 => "table7",
            Artifact::Table8 => "table8",
            Artifact::Figure5 => "figure5",
            Artifact::Table9 => "table9",
            Artifact::Table10 => "table10",
            Artifact::VmWorkloads => "vm",
            Artifact::EibrsBimodal => "eibrs-bimodal",
            Artifact::EbpfBoundary => "ebpf",
            Artifact::Discussion => "discussion",
            Artifact::Targeted => "targeted",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Artifact> {
        Artifact::ALL.iter().copied().find(|a| a.name() == name)
    }

    /// The closest valid artifact name by edit distance, for
    /// "did you mean" hints on unknown names. `None` when nothing is
    /// plausibly close.
    pub fn suggest(name: &str) -> Option<&'static str> {
        Artifact::ALL
            .iter()
            .map(|a| (edit_distance(name, a.name()), a.name()))
            .min()
            .filter(|(d, _)| *d <= 3 && *d < name.len())
            .map(|(_, n)| n)
    }

    /// Paper caption.
    pub fn caption(self) -> &'static str {
        match self {
            Artifact::Table1 => "Table 1: default mitigations used by Linux on each processor",
            Artifact::Table2 => "Table 2: evaluated CPUs",
            Artifact::Figure2 => "Figure 2: mitigation overhead on LEBench (geomean, attributed)",
            Artifact::Figure3 => "Figure 3: Octane slowdown from JS and OS mitigations",
            Artifact::Table3 => "Table 3: syscall/sysret/swap-cr3 cycles",
            Artifact::Table4 => "Table 4: verw buffer-clear cycles",
            Artifact::Table5 => "Table 5: indirect branch cycles per mitigation",
            Artifact::Table6 => "Table 6: IBPB cycles",
            Artifact::Table7 => "Table 7: RSB stuffing cycles",
            Artifact::Table8 => "Table 8: lfence cycles",
            Artifact::Figure5 => "Figure 5: SSBD slowdown on PARSEC",
            Artifact::Table9 => "Table 9: speculation matrix (IBRS disabled)",
            Artifact::Table10 => "Table 10: speculation matrix (IBRS enabled)",
            Artifact::VmWorkloads => "Section 4.4: VM workloads",
            Artifact::EibrsBimodal => "Section 6.2.2: eIBRS bimodal kernel-entry latency",
            Artifact::EbpfBoundary => {
                "Beyond the paper: the eBPF/kernel boundary (verifier masking cost)"
            }
            Artifact::Discussion => {
                "Beyond the paper: section 7 what-ifs and design ablations"
            }
            Artifact::Targeted => {
                "Beyond the paper: targeted Spectre V1 hardening vs blanket (incl. RISC-V)"
            }
        }
    }

    /// Regenerates the artifact through `exec` (worker pool, retry,
    /// watchdog, fault injection, cell cache, journaling) and returns
    /// its text rendering.
    ///
    /// `quick` trades workload size for speed where the driver supports
    /// it (used by tests; the full run is what EXPERIMENTS.md records).
    pub fn regenerate(
        self,
        quick: bool,
        exec: &Executor,
    ) -> Result<ArtifactOutput, ExperimentError> {
        let out = match self {
            Artifact::Table1 => {
                ArtifactOutput::clean(exp::table1::render(&exp::table1::run(exec)?))
            }
            Artifact::Table2 => ArtifactOutput::clean(exp::table2::render()),
            Artifact::Figure2 => {
                let fig = exp::figure2::run(exec, &CpuId::ALL, quick)?;
                ArtifactOutput {
                    text: exp::figure2::render(&fig),
                    degraded: !fig.failures().is_empty(),
                }
            }
            Artifact::Figure3 => ArtifactOutput::clean(exp::figure3::render(
                &exp::figure3::run(exec, &CpuId::ALL, quick)?,
            )),
            Artifact::Table3 => ArtifactOutput::clean(exp::tables3to8::render_table3(exec)?),
            Artifact::Table4 => ArtifactOutput::clean(exp::tables3to8::render_table4(exec)?),
            Artifact::Table5 => ArtifactOutput::clean(exp::tables3to8::render_table5(exec)?),
            Artifact::Table6 => ArtifactOutput::clean(exp::tables3to8::render_table6(exec)?),
            Artifact::Table7 => ArtifactOutput::clean(exp::tables3to8::render_table7(exec)?),
            Artifact::Table8 => ArtifactOutput::clean(exp::tables3to8::render_table8(exec)?),
            Artifact::Figure5 => ArtifactOutput::clean(exp::figure5::render(
                &exp::figure5::run(exec, &CpuId::ALL)?,
            )),
            Artifact::Table9 => ArtifactOutput::clean(exp::tables9and10::render(
                &exp::tables9and10::run(exec, false)?,
            )),
            Artifact::Table10 => ArtifactOutput::clean(exp::tables9and10::render(
                &exp::tables9and10::run(exec, true)?,
            )),
            Artifact::VmWorkloads => {
                let cpus: &[CpuId] = if quick {
                    &[CpuId::SkylakeClient, CpuId::CascadeLake]
                } else {
                    &CpuId::ALL
                };
                ArtifactOutput::clean(exp::vm::render(&exp::vm::run(exec, cpus)?))
            }
            Artifact::EibrsBimodal => {
                let mut s = String::new();
                for id in [CpuId::CascadeLake, CpuId::IceLakeClient, CpuId::IceLakeServer] {
                    s.push_str(&format!("{}:\n", id.microarch()));
                    s.push_str(&exp::eibrs_bimodal::render(&exp::eibrs_bimodal::run(
                        exec,
                        &id.model(),
                        128,
                    )?));
                }
                ArtifactOutput::clean(s)
            }
            Artifact::EbpfBoundary => {
                let cpus: &[CpuId] = if quick {
                    &[CpuId::Broadwell, CpuId::IceLakeServer]
                } else {
                    &CpuId::ALL
                };
                ArtifactOutput::clean(exp::ebpf::render(&exp::ebpf::run(exec, cpus)?))
            }
            Artifact::Discussion => {
                let cpus: &[CpuId] = if quick {
                    &[CpuId::SkylakeClient, CpuId::IceLakeServer]
                } else {
                    &CpuId::ALL
                };
                let mut s = String::new();
                s.push_str("Spectre V2 strategy (LEBench overhead, V2 isolated):\n");
                s.push_str(&exp::ablations::render_v2_strategies(exec, cpus)?);
                s.push_str("\nSection 7 what-ifs (suite-score gains):\n");
                s.push_str(&exp::ablations::render_discussion(exec, cpus)?);
                let a = exp::ablations::pcid_ablation(exec, CpuId::Broadwell)?;
                s.push_str(&format!(
                    "\nPCID ablation on Broadwell: PTI overhead {:.1}% with PCID, {:.1}% without\n",
                    a.with_pcid * 100.0,
                    a.without_pcid * 100.0
                ));
                s.push_str("\nMDS: verw vs disabling SMT (Table 1's '!'):\n");
                s.push_str(&exp::smt::render(&exp::smt::run(
                    exec,
                    &[CpuId::Broadwell, CpuId::SkylakeClient, CpuId::CascadeLake],
                )?));
                ArtifactOutput::clean(s)
            }
            Artifact::Targeted => ArtifactOutput::clean(exp::targeted::render(
                &exp::targeted::run(exec, quick)?,
            )),
        };
        Ok(out)
    }
}

/// Levenshtein edit distance (insert/delete/substitute, all cost 1);
/// powers [`Artifact::suggest`]. Both strings are short CLI names, so
/// the O(nm) two-row DP is plenty.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Options for one regeneration sweep.
#[derive(Debug, Clone, Default)]
pub struct RegenOptions {
    /// Artifacts to regenerate, in order. Empty means all of them.
    pub artifacts: Vec<Artifact>,
    /// Use the quick workload variants.
    pub quick: bool,
    /// Keep regenerating later artifacts after one fails.
    pub keep_going: bool,
    /// Override the retry limit (attempts per cell).
    pub retries: Option<u32>,
    /// Deterministic fault injection plan.
    pub inject: Option<FaultPlan>,
    /// Journal path: completed cells are recorded here, and cells
    /// already present (with a matching seed) are reused instead of
    /// re-measured.
    pub resume: Option<PathBuf>,
    /// Worker threads for the executor. `None` uses
    /// [`spectrebench::default_jobs`] (the `REGEN_JOBS` environment
    /// variable, falling back to the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Write a Chrome trace-event JSON file (one lane per worker;
    /// loadable in Perfetto or `chrome://tracing`) here after the sweep.
    pub trace_out: Option<PathBuf>,
    /// Write a Prometheus-style text metrics exposition here after the
    /// sweep.
    pub metrics_out: Option<PathBuf>,
    /// Write the concatenated artifact renderings here (atomically:
    /// tmp + fsync + rename) in addition to stdout. This is what the
    /// crash/resume proof byte-compares against the committed golden
    /// file — a killed run must leave either the old artifact or the
    /// complete new one, never a torn hybrid.
    pub out: Option<PathBuf>,
    /// Record events on this bus instead of a fresh one. Tests pass a
    /// bus over a virtual clock; when `None`, a bus is created only if
    /// `trace_out` or `metrics_out` asks for one.
    pub obs: Option<Arc<EventBus>>,
}

/// The outcome of one artifact within a sweep.
#[derive(Debug)]
pub struct ArtifactResult {
    /// Which artifact.
    pub artifact: Artifact,
    /// The rendering, or why it could not be produced.
    pub outcome: Result<ArtifactOutput, ExperimentError>,
    /// Cell-level counters for this artifact alone (cells simulated,
    /// served from the cache, served from the journal, ...).
    pub cells: HarnessStats,
}

/// The outcome of a regeneration sweep.
#[derive(Debug)]
pub struct RegenReport {
    /// Per-artifact outcomes, in the order attempted. With
    /// `keep_going` off this stops after the first failure.
    pub results: Vec<ArtifactResult>,
    /// Cell-level counters for the whole sweep (runs, cache hits,
    /// journal hits, retries, injected faults, failed cells, and the
    /// per-phase timing totals).
    pub stats: HarnessStats,
    /// The event bus the sweep recorded on, when observability was
    /// requested (via [`RegenOptions::obs`], `trace_out`, or
    /// `metrics_out`).
    pub obs: Option<Arc<EventBus>>,
}

impl RegenReport {
    /// The artifacts that could not be regenerated at all.
    pub fn failures(&self) -> Vec<(Artifact, &ExperimentError)> {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| (r.artifact, e)))
            .collect()
    }

    /// The artifacts that rendered but contain degraded slices.
    pub fn degraded(&self) -> Vec<Artifact> {
        self.results
            .iter()
            .filter_map(|r| match &r.outcome {
                Ok(out) if out.degraded => Some(r.artifact),
                _ => None,
            })
            .collect()
    }

    /// Whether the sweep was fully clean: no failures, no degradation,
    /// and every journal append reached the OS (a sweep whose resume
    /// state silently rotted is not clean even if every table printed).
    pub fn is_clean(&self) -> bool {
        self.failures().is_empty()
            && self.degraded().is_empty()
            && self.stats.journal_write_errors == 0
    }
}

/// Renders one artifact result exactly as the `regen` binary prints it
/// to stdout — the unit the golden-output test diffs.
pub fn render_artifact_block(r: &ArtifactResult) -> String {
    match &r.outcome {
        Ok(out) => format!("== {} ==\n{}\n", r.artifact.caption(), out.text),
        Err(_) => format!("== {} == FAILED\n\n", r.artifact.caption()),
    }
}

/// Renders a whole report as the `regen` binary's stdout: the
/// concatenation of every artifact block, in attempt order.
pub fn render_report(report: &RegenReport) -> String {
    report.results.iter().map(render_artifact_block).collect()
}

/// Runs a regeneration sweep. The only I/O error possible is opening
/// the resume journal; everything else is reported per-artifact.
pub fn run_regen(opts: &RegenOptions) -> std::io::Result<RegenReport> {
    let mut harness = Harness::new();
    if let Some(plan) = &opts.inject {
        harness = harness.with_plan(plan.clone());
    }
    if let Some(n) = opts.retries {
        let mut retry = RetryPolicy::standard();
        retry.max_attempts = n.max(1);
        harness = harness.with_retry(retry);
    }
    let obs = if opts.obs.is_some() || opts.trace_out.is_some() || opts.metrics_out.is_some() {
        Some(opts.obs.clone().unwrap_or_else(|| Arc::new(EventBus::new())))
    } else {
        None
    };
    let mut exec = Executor::new(harness).with_jobs(opts.jobs.unwrap_or_else(default_jobs));
    if let Some(bus) = &obs {
        exec = exec.with_obs(Arc::clone(bus));
    }
    if let Some(path) = &opts.resume {
        exec = exec.with_journal(Journal::open(path)?);
    }

    let selected: &[Artifact] =
        if opts.artifacts.is_empty() { &Artifact::ALL } else { &opts.artifacts };
    let mut results = Vec::new();
    for a in selected {
        let before = exec.stats();
        let outcome = a.regenerate(opts.quick, &exec);
        let failed = outcome.is_err();
        results.push(ArtifactResult {
            artifact: *a,
            outcome,
            cells: exec.stats().since(&before),
        });
        if failed && !opts.keep_going {
            break;
        }
    }
    let stats = exec.stats();
    if let Some(bus) = &obs {
        if let Some(path) = &opts.trace_out {
            atomic_write(path, trace::chrome_trace_json(&bus.snapshot()).as_bytes())?;
            let dropped = bus.dropped();
            if dropped > 0 {
                eprintln!(
                    "regen: trace holds the newest {} events; {dropped} older event(s) were dropped",
                    bus.len()
                );
            }
        }
        if let Some(path) = &opts.metrics_out {
            atomic_write(path, bus.registry_text(&stats).as_bytes())?;
        }
    }
    let report = RegenReport { results, stats, obs };
    if let Some(path) = &opts.out {
        atomic_write(path, render_report(&report).as_bytes())?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_round_trip() {
        for a in Artifact::ALL {
            assert_eq!(Artifact::parse(a.name()), Some(a));
        }
        assert_eq!(Artifact::parse("nope"), None);
    }

    #[test]
    fn suggestions_catch_typos_but_not_noise() {
        // Ties (figure2/3/5 are all one edit away) break toward the
        // lexicographically smallest candidate.
        assert_eq!(Artifact::suggest("figure4"), Some("figure2"));
        assert_eq!(Artifact::suggest("tabel1"), Some("table1"));
        assert_eq!(Artifact::suggest("dicussion"), Some("discussion"));
        assert_eq!(Artifact::suggest("vms"), Some("vm"));
        assert_eq!(Artifact::suggest("zzzzzzzzzz"), None);
        // An exact name suggests itself at distance zero (callers only
        // consult suggest() after parse() failed, so this is moot, but
        // pin it down).
        assert_eq!(Artifact::suggest("table1"), Some("table1"));
    }

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("figure2", "figure3"), 1);
        assert_eq!(edit_distance("table", "tabel"), 2);
    }

    #[test]
    fn cheap_artifacts_regenerate() {
        let exec = Executor::default();
        for a in [Artifact::Table1, Artifact::Table2, Artifact::Table9, Artifact::Table10] {
            let s = a.regenerate(true, &exec).unwrap();
            assert!(!s.degraded);
            assert!(s.text.lines().count() >= 8, "{}:\n{}", a.name(), s.text);
        }
    }

    #[test]
    fn sweep_without_keep_going_stops_at_first_failure() {
        use spectrebench::FaultKind;
        // Kill a table1 column permanently: table1 fails, table2 is
        // never attempted without --keep-going...
        let plan =
            FaultPlan::new().fail_cell("table1/Broadwell", FaultKind::SimFault, None);
        let opts = RegenOptions {
            artifacts: vec![Artifact::Table1, Artifact::Table2],
            quick: true,
            inject: Some(plan.clone()),
            ..RegenOptions::default()
        };
        let report = run_regen(&opts).unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.failures().len(), 1);
        // ...and with it, the sweep carries on.
        let report = run_regen(&RegenOptions { keep_going: true, ..opts }).unwrap();
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.failures().len(), 1);
        assert!(report.results[1].outcome.is_ok());
        assert!(report.stats.cells_failed >= 1);
    }
}
