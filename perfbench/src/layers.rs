//! Per-layer probes for the traced run of the `cells` workload.
//!
//! Each probe calls one layer's public API directly, inside a span, on
//! the configurations the artifacts' cells use; the LEBench and Octane
//! probes cover the layers of Figure 2 and Figure 3, the two big
//! sweeps. A sweep itself cannot be split this way from outside: its
//! cells call these same functions internally.

use std::time::Instant;

use cpu_models::CpuId;
use js_engine::jit::Jit;
use js_engine::octane::{self, OctaneBench};
use js_engine::JsMitigations;
use sim_kernel::abi::nr;
use sim_kernel::{userlib, BootParams, Kernel};
use workloads::lebench::{self, LeBenchOp};

use crate::spans::Tracer;
use crate::stats::median;
use crate::{ms_since, Outcome};

/// The (CPU × command line) configurations a workload's cells boot.
pub fn boot_configs(cmdlines: &[String]) -> Vec<(CpuId, String)> {
    CpuId::ALL
        .iter()
        .flat_map(|cpu| cmdlines.iter().map(move |c| (*cpu, c.clone())))
        .collect()
}

/// A representative spread of the cheap artifacts' command lines.
pub fn cells_cmdlines() -> Vec<String> {
    [
        "",
        "mitigations=off",
        "spectre_v1=lfence",
        "spectre_v1=targeted",
    ]
    .map(String::from)
    .to_vec()
}

/// `sim_kernel.boot_ms`: median time of one `Kernel::boot` over
/// `configs`, each booted `reps` times.
pub fn boot(t: &Tracer, configs: &[(CpuId, String)], reps: usize, out: &mut Outcome) {
    let run = t.next_id();
    let mut ms = Vec::new();
    for _ in 0..reps {
        for (cpu, cmdline) in configs {
            let model = cpu.model();
            let params = BootParams::parse(cmdline);
            ms.push(t.span("sim_kernel.boot", None, run, |_| {
                let start = Instant::now();
                std::hint::black_box(Kernel::boot(model, &params));
                ms_since(start)
            }));
        }
    }
    out.layer("sim_kernel.boot_ms", median(&ms), "ms");
}

/// JIT-compiles `bench` as `Engine::run_jit` does, returning the
/// compile and link times in milliseconds.
fn jit_and_link(t: &Tracer, run: u64, bench: OctaneBench, mits: JsMitigations) -> (f64, f64) {
    let (jit_ms, builder) = t.span("js_engine.jit_compile", None, run, |_| {
        let start = Instant::now();
        let engine = bench.build();
        let b = Jit::new(&engine, mits, userlib::data_base())
            .compile(|b| userlib::emit_syscall(b, nr::EXIT));
        (ms_since(start), b)
    });
    let link_ms = t.span("uarch.link", None, run, |_| {
        let start = Instant::now();
        std::hint::black_box(builder.link(0x40_0100));
        ms_since(start)
    });
    (jit_ms, link_ms)
}

/// `uarch.link_ms`: median time of `ProgramBuilder::link` over every
/// Octane benchmark's JIT output.
pub fn link(t: &Tracer, reps: usize, out: &mut Outcome) {
    let run = t.next_id();
    let mut ms = Vec::new();
    for _ in 0..reps {
        for bench in OctaneBench::ALL {
            ms.push(jit_and_link(t, run, bench, JsMitigations::full()).1);
        }
    }
    out.layer("uarch.link_ms", median(&ms), "ms");
}

/// The LEBench layer: every op through `lebench::run_op` on each paper
/// CPU at the default command line, plus the boot each call starts
/// with.
pub fn lebench_ops(t: &Tracer, out: &mut Outcome) {
    let names: Vec<&'static str> = LeBenchOp::ALL
        .iter()
        .map(|op| &*Box::leak(format!("workloads.lebench.{}", op.name()).into_boxed_str()))
        .collect();
    let params = BootParams::default();
    let mut by_op = vec![Vec::new(); LeBenchOp::ALL.len()];
    let mut boots = Vec::new();
    for cpu in CpuId::ALL {
        let model = cpu.model();
        let run = t.next_id();
        t.span("workloads.lebench.suite", None, run, |suite| {
            for (i, op) in LeBenchOp::ALL.iter().enumerate() {
                by_op[i].push(t.span(names[i], Some(suite), run, |_| {
                    let start = Instant::now();
                    std::hint::black_box(lebench::run_op(&model, &params, *op));
                    ms_since(start)
                }));
            }
        });
        boots.push(t.span("sim_kernel.boot", None, run, |_| {
            let start = Instant::now();
            std::hint::black_box(Kernel::boot(model.clone(), &params));
            ms_since(start)
        }));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let idx = |want: LeBenchOp| {
        LeBenchOp::ALL
            .iter()
            .position(|op| *op == want)
            .expect("op")
    };
    let (fork, big_fork, ctx) = (
        idx(LeBenchOp::Fork),
        idx(LeBenchOp::BigFork),
        idx(LeBenchOp::ContextSwitch),
    );
    let others: Vec<f64> = by_op
        .iter()
        .enumerate()
        .filter(|(i, _)| ![fork, big_fork, ctx].contains(i))
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    let total: f64 = by_op.iter().flatten().sum();
    let calls = by_op.iter().map(Vec::len).sum::<usize>() as f64;
    out.layer("workloads.lebench.fork_ms", mean(&by_op[fork]), "ms");
    out.layer(
        "workloads.lebench.big_fork_ms",
        mean(&by_op[big_fork]),
        "ms",
    );
    out.layer(
        "workloads.lebench.context_switch_ms",
        mean(&by_op[ctx]),
        "ms",
    );
    out.layer("workloads.lebench.other_ms", mean(&others), "ms");
    let fork_share =
        (by_op[fork].iter().sum::<f64>() + by_op[big_fork].iter().sum::<f64>()) / total;
    out.layer("workloads.lebench.fork_share", fork_share, "ratio");
    // Every run_op boots once: the boot's share of the suite.
    let boot_share = mean(&boots) * calls / total;
    out.layer("sim_kernel.boot_share", boot_share, "ratio");
    eprintln!(
        "lebench probe: fork + big-fork take {:.1}% of run_op time, boot {:.1}%",
        100.0 * fork_share,
        100.0 * boot_share
    );
}

/// The Octane layers: `octane::run_bench` on two CPUs under all six of
/// Figure 3's configurations, with its boot, JIT compile and link timed
/// separately so the simulation's own cost per instruction falls out.
pub fn octane_runs(t: &Tracer, out: &mut Outcome) {
    let configs = [
        ("mitigations=off", JsMitigations::none()),
        (
            "mitigations=off",
            JsMitigations {
                index_masking: true,
                ..JsMitigations::none()
            },
        ),
        (
            "mitigations=off",
            JsMitigations {
                index_masking: true,
                object_guards: true,
                other_js: false,
            },
        ),
        ("mitigations=off", JsMitigations::full()),
        ("spec_store_bypass_disable=prctl", JsMitigations::full()),
        ("", JsMitigations::full()),
    ];
    let (mut run_ms, mut boot_ms, mut jit_ms, mut link_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut mitigated, mut unmitigated) = (Vec::new(), Vec::new());
    let before = uarch::pmc::global::snapshot();
    let mut sim_insts = 0u64;
    for cpu in [CpuId::SkylakeClient, CpuId::Zen2] {
        let model = cpu.model();
        for (cmdline, mits) in configs {
            let params = BootParams::parse(cmdline);
            for bench in OctaneBench::ALL {
                let run = t.next_id();
                let pmc0 = uarch::pmc::global::snapshot();
                let ms = t.span("js_engine.run_bench", None, run, |_| {
                    let start = Instant::now();
                    std::hint::black_box(octane::run_bench(bench, &model, &params, mits));
                    ms_since(start)
                });
                let pmc1 = uarch::pmc::global::snapshot();
                sim_insts += (pmc1.0 - pmc0.0) + (pmc1.1 - pmc0.1);
                run_ms += ms;
                if mits == JsMitigations::full() {
                    mitigated.push(ms);
                } else if mits == JsMitigations::none() {
                    unmitigated.push(ms);
                }
                boot_ms += t.span("sim_kernel.boot", None, run, |_| {
                    let start = Instant::now();
                    std::hint::black_box(Kernel::boot(model.clone(), &params));
                    ms_since(start)
                });
                let (j, l) = jit_and_link(t, run, bench, mits);
                jit_ms += j;
                link_ms += l;
            }
        }
    }
    let after = uarch::pmc::global::snapshot();
    let calls = (2 * configs.len() * OctaneBench::ALL.len()) as f64;
    let sim_ms = run_ms - boot_ms - jit_ms - link_ms;
    out.layer(
        "uarch.host_ns_per_sim_inst",
        sim_ms * 1e6 / sim_insts as f64,
        "ns",
    );
    out.layer("js_engine.jit_compile_ms", jit_ms / calls, "ms");
    out.layer("js_engine.run_ms.mitigated", median(&mitigated), "ms");
    out.layer("js_engine.run_ms.unmitigated", median(&unmitigated), "ms");
    eprintln!(
        "octane probe: boot takes {:.1}% of run_bench time, boot + JIT + link {:.1}%",
        100.0 * boot_ms / run_ms,
        100.0 * (boot_ms + jit_ms + link_ms) / run_ms
    );
    out.layer(
        "js_engine.setup_share",
        (boot_ms + jit_ms + link_ms) / run_ms,
        "ratio",
    );
    let transient = (after.1 - before.1) as f64 / (after.0 - before.0).max(1) as f64;
    out.layer("uarch.transient_per_committed", transient, "ratio");
}

/// `spec_taint.boot_analysis_ms`: on every paper CPU, the median boot
/// under `spectre_v1=targeted` (which runs the branch analysis) minus
/// the median boot under `spectre_v1=lfence` (which does not); the mean
/// over CPUs.
pub fn spec_taint(t: &Tracer, reps: usize, out: &mut Outcome) {
    let run = t.next_id();
    let targeted = BootParams::parse("spectre_v1=targeted");
    let lfence = BootParams::parse("spectre_v1=lfence");
    let mut diffs = Vec::new();
    for cpu in CpuId::ALL {
        let model = cpu.model();
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            for (params, into) in [(&targeted, &mut with), (&lfence, &mut without)] {
                into.push(t.span("spec_taint.boot", None, run, |_| {
                    let start = Instant::now();
                    std::hint::black_box(Kernel::boot(model.clone(), params));
                    ms_since(start)
                }));
            }
        }
        diffs.push(median(&with) - median(&without));
    }
    out.layer(
        "spec_taint.boot_analysis_ms",
        diffs.iter().sum::<f64>() / diffs.len() as f64,
        "ms",
    );
}
