//! `ndp-lint` — the static verification suite, as a CLI gate.
//!
//! Runs both passes over everything the repository ships:
//!
//! * **Pass 1 (partition verifier)**: compiles every Table-1 workload and
//!   diffs each offload block's stored annotations (roles, live-in,
//!   live-out, NSU code) against an independent re-derivation from the
//!   program text (`ndp_isa::verify_blocks`).
//! * **Pass 2 (fabric graph)**: lifts the fabric pipeline into a static
//!   graph for every configuration preset and checks routing completeness,
//!   credit acquire/release pairing, and bounded wait-for cycles
//!   (`ndp_core::fabric_graph`).
//! * **Environment hygiene**: any `NDP_`-prefixed variable the simulator
//!   does not understand is reported as a likely typo.
//!
//! Exit codes: `0` everything clean, `1` findings were printed, `2` usage
//! error. CI runs this as the `lint-model` job.

use ndp_compiler::{compile, CompilerConfig};
use ndp_core::fabric_graph;
use ndp_workloads::{Scale, WORKLOADS};

use ndp_common::config::SystemConfig;

fn usage() -> ! {
    eprintln!("usage: ndp_lint [--quiet] [--drop-edge NAME] [--drop-watch STAGE EDGE] [--drop-wake STAGE SOURCE]");
    eprintln!("  static model checks; exits 1 if any finding is printed");
    eprintln!("  --drop-* flags mutate the lifted graph before checking (mutation");
    eprintln!("  testing: a dropped edge/watch/wake-source must produce a finding)");
    std::process::exit(2);
}

/// A graph mutation requested on the command line, applied to every
/// preset's lifted graph before checking. Used to demonstrate (in CI or by
/// hand) that the soundness passes actually catch a dropped pipeline edge,
/// an unwatched in-edge, or an unobserved internal wake source.
#[allow(clippy::enum_variant_names)] // "Drop" is the operation, not noise
enum Mutation {
    DropEdge(String),
    DropWatch(String, String),
    DropWake(String, String),
}

fn main() {
    let mut quiet = false;
    let mut mutations: Vec<Mutation> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            "--drop-edge" => mutations.push(Mutation::DropEdge(take())),
            "--drop-watch" => mutations.push(Mutation::DropWatch(take(), take())),
            "--drop-wake" => mutations.push(Mutation::DropWake(take(), take())),
            _ => usage(),
        }
    }

    let mut findings = 0usize;
    let mut emit = |line: String| {
        findings += 1;
        println!("{line}");
    };

    // Pass 1: every workload at both the smoke and the default scale (loop
    // trip counts differ, so the derived live sets can too).
    for (scale_name, scale) in [("tiny", Scale::tiny()), ("default", Scale::default())] {
        for w in WORKLOADS {
            let program = match w.try_build(&scale) {
                Ok(p) => p,
                Err(e) => {
                    emit(format!("{} [{scale_name}]: build failed: {e}", w.name()));
                    continue;
                }
            };
            let kernel = compile(&program, &CompilerConfig::default());
            for d in ndp_isa::verify_blocks(&kernel.program, &kernel.blocks) {
                emit(format!("{} [{scale_name}]: {d}", w.name()));
            }
        }
    }

    // Pass 2: the lifted fabric graph under every configuration preset.
    let presets: [(&str, SystemConfig); 6] = [
        ("baseline", SystemConfig::baseline()),
        ("baseline_more_core", SystemConfig::baseline_more_core()),
        ("naive_ndp", SystemConfig::naive_ndp()),
        ("ndp_static", SystemConfig::ndp_static(0.5)),
        ("ndp_dynamic", SystemConfig::ndp_dynamic()),
        ("ndp_dynamic_cache", SystemConfig::ndp_dynamic_cache()),
    ];
    for (name, cfg) in &presets {
        let mut g = fabric_graph(cfg);
        for m in &mutations {
            let applied = match m {
                Mutation::DropEdge(e) => g.remove_edge(e),
                Mutation::DropWatch(s, e) => g.remove_watch(s, e),
                Mutation::DropWake(s, w) => g.remove_wake(s, w),
            };
            if !applied {
                emit(format!("fabric [{name}]: mutation target not found"));
            }
        }
        for d in g.check() {
            emit(format!("fabric [{name}]: {d}"));
        }
    }

    // Environment hygiene: unknown NDP_* names are almost always typos of a
    // real knob, and a typoed knob silently does nothing.
    for (var, suggestion) in ndp_common::env::unknown_ndp_vars() {
        match suggestion {
            Some(s) => emit(format!("env: unknown variable {var} (did you mean {s}?)")),
            None => emit(format!("env: unknown variable {var}")),
        }
    }

    if findings == 0 {
        if !quiet {
            let blocks: usize = WORKLOADS
                .iter()
                .map(|w| compile(&w.build(&Scale::default()), &CompilerConfig::default()))
                .map(|k| k.blocks.len())
                .sum();
            println!(
                "ndp-lint: clean ({} workloads x 2 scales, {blocks} offload blocks, {} fabric presets)",
                WORKLOADS.len(),
                presets.len()
            );
        }
        std::process::exit(0);
    }
    eprintln!("ndp-lint: {findings} finding(s)");
    std::process::exit(1);
}
