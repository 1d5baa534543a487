//! `figures` — regenerate the paper's tables and figures.
//!
//! Usage: `figures [--out DIR] [NAME...]`
//!
//! Declares the cells of the named figures (all of them when none is
//! named) on one plan, simulates each distinct cell once, and prints every
//! figure in report order after a line `==> NAME <==`. With `--out DIR` it
//! writes `DIR/<name>.txt` and `DIR/REPORT.md` instead. The scale and the
//! Algorithm 1 epoch come from `NDP_WARPS`, `NDP_ITERS` and `NDP_EPOCH`.
//!
//! Exits 2 on an unknown name, and, after writing its outputs, when any
//! cell hit the safety cycle cap.

use std::path::Path;

use ndp_bench::{figures, harness_epoch, harness_scale, Outcome, Plan};

fn fail(why: &str) -> ! {
    eprintln!("error: {why}\nusage: figures [--out DIR] [NAME...]");
    std::process::exit(2);
}

fn write_out(dir: &Path, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (f, text) in &outcome.texts {
        std::fs::write(dir.join(format!("{}.txt", f.name)), text)?;
    }
    std::fs::write(dir.join("REPORT.md"), outcome.report())
}

fn main() {
    let (mut out, mut names) = (None, vec![]);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().or_else(|| fail("--out needs a directory")),
            _ if arg.starts_with('-') => fail(&format!("unknown option {arg}")),
            _ => names.push(arg),
        }
    }
    let selected = figures::select(&names).unwrap_or_else(|e| fail(&e));
    let outcome = Plan::new(harness_scale(), harness_epoch()).run(&selected);
    let (declared, simulated) = (outcome.declared, outcome.simulated);
    eprintln!("{declared} cells declared, {simulated} simulated");
    match out {
        None => print!("{}", outcome.listing()),
        Some(dir) => {
            if let Err(e) = write_out(Path::new(&dir), &outcome) {
                eprintln!("error: could not write {dir}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Err(why) = outcome.check() {
        eprintln!("error: {why}");
        std::process::exit(2);
    }
}
