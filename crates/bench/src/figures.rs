//! The paper's tables and figures, in report order. Each one declares its
//! cells on a [`Plan`] and renders its text from the plan's results.

use std::fmt::{self, Write as _};

use ndp_common::stats::geomean;
use ndp_common::SystemConfig;
use ndp_compiler::{compile, table1_row, CompilerConfig};
use ndp_core::experiments::{fig10_configs, fig7_configs, fig9_configs, Matrix};
use ndp_core::table::render;
use ndp_core::RunResult;
use ndp_energy::EnergyParams;
use ndp_workloads::{Scale, Workload, WORKLOADS};

use crate::plan::{Plan, Render};

/// One table or figure of the suite.
pub struct Figure {
    /// Its name on the command line, and its file's name under `--out`.
    pub name: &'static str,
    /// Its section title in `REPORT.md`.
    pub title: &'static str,
    /// The start of its text: a heading line and a blank line, or nothing.
    pub(crate) heading: &'static str,
    /// Declares its cells and returns how to render the rest of its text
    /// from their results.
    pub(crate) declare: fn(&mut Plan) -> Render,
}

/// Lists the figures as `function: title => heading;` (the heading is
/// optional). Each figure is named after the function that declares it.
macro_rules! figures {
    ($($declare:ident: $title:literal $(=> $heading:literal)?;)*) => {
        /// Every figure, in report order.
        pub const FIGURES: &[Figure] = &[$(Figure {
            name: stringify!($declare),
            title: $title,
            heading: concat!($($heading, "\n\n")?),
            declare: $declare,
        }),*];
    };
}

figures! {
    table1: "Table 1 — workloads and offload-block sizes"
        => "Table 1: workloads and offload-block sizes (NSU instructions)";
    table2: "Table 2 — system configuration" => "Table 2: system configuration";
    fig5: "Fig. 5 — target-NSU selection policy"
        => "Fig. 5: normalized traffic vs #memory accesses (8 HMCs)";
    fig7: "Fig. 7 — naive NDP vs baselines"
        => "Fig. 7: naive NDP vs baselines (speedup over Baseline)";
    fig8: "Fig. 8 — no-issue cycle breakdown"
        => "Fig. 8: no-issue cycle breakdown (normalized to Baseline total)";
    fig9: "Fig. 9 — offload ratio sweep + dynamic policies"
        => "Fig. 9: NDP speedup over Baseline as the offload ratio varies";
    fig10: "Fig. 10 — energy breakdown"
        => "Fig. 10: energy breakdown, normalized to Baseline total";
    fig11: "Fig. 11 — NSU I-cache utilization and occupancy"
        => "Fig. 11: NSU I-cache utilization and average warp occupancy";
    inval_traffic: "§4.2 — cache-invalidation overhead"
        => "§4.2: cache-invalidation traffic overhead";
    bigger_gpu: "§7.3 — doubled compute units"
        => "§7.3: doubled compute units (speedup over the 2x baseline)";
    overhead: "§7.5 — hardware overhead" => "§7.5: hardware overhead";
    nsu_freq: "§7.6 — NSU frequency sensitivity"
        => "§7.6: NSU frequency sensitivity (speedup over Baseline)";
    bicg_fine: "§7.1 — BICG at fine-grained offload ratios"
        => "§7.1: BICG at fine-grained offload ratios (speedup over baseline)";
    nsu_cache: "Extension — §7.1 read-only NSU cache";
    ablate: "Extension — design-choice ablations";
}

/// The named figures in report order, or all of them when `names` is
/// empty. An unknown name is an error that lists the valid ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Figure>, String> {
    if let Some(bad) = names.iter().find(|n| FIGURES.iter().all(|f| f.name != *n)) {
        let valid = FIGURES
            .iter()
            .map(|f| f.name)
            .collect::<Vec<_>>()
            .join(", ");
        return Err(format!("unknown figure {bad:?}; one of: {valid}"));
    }
    Ok(FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == f.name))
        .collect())
}

fn gmean(v: &[f64]) -> String {
    geomean(v).map_or("n/a".to_string(), |g| format!("{g:.3}"))
}

/// A speedup-vs-`baseline` table (Fig. 7/9 format) with a GMEAN row.
fn speedups(o: &mut String, m: &Matrix, baseline: &str) -> fmt::Result {
    let cols: Vec<Vec<f64>> = m.configs.iter().map(|c| m.speedups(c, baseline)).collect();
    let mut headers = vec!["Workload"];
    headers.extend(m.configs.iter().map(String::as_str));
    let mut rows: Vec<Vec<String>> = (m.workloads.iter().enumerate())
        .map(|(wi, w)| {
            let mut row = vec![w.name().to_string()];
            row.extend(cols.iter().map(|c| format!("{:.3}", c[wi])));
            row
        })
        .collect();
    let mut gm = vec!["GMEAN".to_string()];
    gm.extend(cols.iter().map(|c| gmean(c)));
    rows.push(gm);
    writeln!(o, "{}", render(&headers, &rows))
}

/// A table with one row per workload and config: the two names, then each
/// of `parts` of the run over the last part of the workload's first-config
/// (Baseline) run.
fn breakdown<const N: usize>(
    m: &Matrix,
    headers: [&str; N],
    parts: impl Fn(&RunResult) -> [f64; N],
) -> String {
    let mut rows = vec![];
    for (wi, w) in m.workloads.iter().enumerate() {
        let base = parts(&m.results[0][wi])[N - 1];
        for (c, runs) in m.configs.iter().zip(&m.results) {
            let mut row = vec![w.name().to_string(), c.clone()];
            row.extend(parts(&runs[wi]).map(|p| format!("{:.3}", p / base)));
            rows.push(row);
        }
    }
    render(&[&["Workload", "Config"][..], &headers].concat(), &rows)
}

/// Offload-block sizes as the static analyzer extracts them (§3.1).
fn table1(_: &mut Plan) -> Render {
    Box::new(|_, o| {
        let scale = Scale::tiny(); // block structure is scale-invariant
        let mut rows = vec![];
        let (mut tot_in, mut tot_out, mut nblocks) = (0.0, 0.0, 0.0);
        for w in WORKLOADS {
            let ck = compile(&w.build(&scale), &CompilerConfig::default());
            let row = table1_row(w.name(), w.description(), &ck);
            tot_in += row.avg_regs_in * ck.blocks.len() as f64;
            tot_out += row.avg_regs_out * ck.blocks.len() as f64;
            nblocks += ck.blocks.len() as f64;
            rows.push(vec![
                w.name().to_string(),
                w.description().to_string(),
                row.sizes_string(),
                format!("{:?}", w.table1_sizes()),
            ]);
        }
        let table = render(
            &["Abbr.", "Description", "# instrs (measured)", "paper"],
            &rows,
        );
        let (avg_in, avg_out) = (tot_in / nblocks, tot_out / nblocks);
        writeln!(
            o,
            "{table}\navg registers transferred per block: {avg_in:.2} in / {avg_out:.2} out \
             (paper: 0.41 / 0.47)"
        )
    })
}

/// The active system configuration, with derived bandwidths.
fn table2(_: &mut Plan) -> Render {
    Box::new(|_, o| {
        let c = SystemConfig::default();
        let json = serde_json::to_string_pretty(&c).expect("serializable");
        let (link, dram) = (c.gpu_offchip_gbps(), c.aggregate_dram_gbps());
        let (div, sm, nsu) = (c.nsu_divider(), c.gpu.sm_clock_mhz, c.nsu.clock_mhz);
        let buf = c.sm_ndp_buffer_bytes();
        writeln!(
            o,
            "{json}\n\nderived:
  GPU off-chip bandwidth : {link:.0} GB/s per direction
  aggregate DRAM bandwidth: {dram:.0} GB/s
  NSU clock divider       : {div} (SM {sm} MHz / NSU {nsu} MHz)
  SM NDP buffer storage   : {buf} B per SM (paper: 2.84 KB)"
        )
    })
}

/// Fig. 5 — impact of the target-NSU selection policy on off-chip traffic.
fn fig5(_: &mut Plan) -> Render {
    Box::new(|_, o| {
        let pts = ndp_core::fig5::sweep(8, 64, 20_000, 0x5C17);
        let rows: Vec<Vec<String>> = (pts.iter())
            .filter(|p| p.accesses == 1 || p.accesses % 4 == 0)
            .map(|p| {
                vec![
                    p.accesses.to_string(),
                    format!("{:.3}", p.optimal),
                    format!("{:.3}", p.first),
                    format!("{:+.1}%", p.overhead() * 100.0),
                ]
            })
            .collect();
        let table = render(
            &["#accesses", "optimal HMC", "first HMC", "overhead"],
            &rows,
        );
        let worst = pts.iter().map(|p| p.overhead()).fold(0.0f64, f64::max) * 100.0;
        writeln!(
            o,
            "{table}\nworst-case overhead of the first-HMC policy: {worst:.1}% (paper: ≤15%)"
        )
    })
}

/// Fig. 7 — performance of the naive NDP mechanism vs the baselines (§6).
fn fig7(plan: &mut Plan) -> Render {
    let grid = plan.grid(&fig7_configs());
    Box::new(move |r, o| speedups(o, &grid.matrix(r), "Baseline"))
}

/// Fig. 8 — breakdown of instruction no-issue cycles on the GPU (§6),
/// normalized to the baseline's total no-issue cycles.
fn fig8(plan: &mut Plan) -> Render {
    let grid = plan.grid(&fig7_configs());
    Box::new(move |r, o| {
        let headers = ["ExecUnitBusy", "DependencyStall", "WarpIdle", "Total"];
        let table = breakdown(&grid.matrix(r), headers, |r| {
            let s = &r.issue;
            let total = s.no_issue_total();
            [s.exec_unit_busy, s.dependency_stall, s.warp_idle, total].map(|n| n as f64)
        });
        writeln!(
            o,
            "{table}\nExpected shape (paper): NaiveNDP inflates WarpIdle (warps blocked on ACKs)."
        )
    })
}

/// Fig. 9 — static offload ratios 0.2–1.0, NDP(Dyn), NDP(Dyn)_Cache (§7).
fn fig9(plan: &mut Plan) -> Render {
    let grid = plan.grid(&fig9_configs());
    Box::new(move |r, o| {
        let m = grid.matrix(r);
        speedups(o, &m, "Baseline")?;
        // Achieved dynamic ratios, for the record.
        let dyn_i = m.config_index("NDP(Dyn)").expect("present");
        writeln!(o, "achieved offload fraction under NDP(Dyn):")?;
        for (w, r) in m.workloads.iter().zip(&m.results[dyn_i]) {
            writeln!(o, "  {:8} {:.2}", w.name(), r.offload_fraction())?;
        }
        Ok(())
    })
}

/// Fig. 10 — normalized energy for baselines and NDP mechanisms (§7.4).
fn fig10(plan: &mut Plan) -> Render {
    let grid = plan.grid(&fig10_configs());
    Box::new(move |r, o| {
        let m = grid.matrix(r);
        let p = EnergyParams::default();
        let headers = ["GPU", "NSU", "IntraHMC", "OffchipICNT", "DRAM", "Total"];
        let table = breakdown(&m, headers, |r| {
            let e = r.energy(&p);
            [e.gpu, e.nsu, e.intra_hmc, e.offchip, e.dram, e.total()]
        });
        writeln!(o, "{table}")?;
        for (c, runs) in m.configs.iter().zip(&m.results) {
            let ratios: Vec<f64> = (runs.iter().zip(&m.results[0]))
                .map(|(r, b)| r.energy(&p).total() / b.energy(&p).total())
                .collect();
            writeln!(o, "GMEAN normalized energy, {c}: {}", gmean(&ratios))?;
        }
        let paper = "NDP(Dyn) −7.5% avg, NDP(Dyn)_Cache −8.6% avg, up to −37.6% for KMN";
        writeln!(o, "(paper: {paper})")
    })
}

/// Fig. 11 — NSU I-cache utilization and warp occupancy (§7.5).
fn fig11(plan: &mut Plan) -> Render {
    let cells = WORKLOADS.map(|w| plan.cell(w, SystemConfig::ndp_dynamic_cache()));
    Box::new(move |r, o| {
        let runs = cells.map(|c| &r[c]);
        let pct = |x: f64| format!("{:.1}%", x * 100.0);
        let rows: Vec<Vec<String>> = (runs.iter())
            .map(|r| {
                vec![
                    r.workload.clone(),
                    pct(r.nsu_icache_util),
                    pct(r.nsu_occupancy),
                ]
            })
            .collect();
        let table = render(&["Workload", "I-cache util", "warp occupancy"], &rows);
        let avg = |f: fn(&RunResult) -> f64| runs.map(f).iter().sum::<f64>() / runs.len() as f64;
        let (icache, occ) = (avg(|r| r.nsu_icache_util), avg(|r| r.nsu_occupancy));
        writeln!(
            o,
            "{table}\naverages: icache {:.1}% (paper 23.7%), occupancy {:.1}% \
             (paper 22.1%, max 39.3%)",
            icache * 100.0,
            occ * 100.0
        )
    })
}

/// §4.2 — cache-invalidation traffic overhead of NSU writes, relative to
/// the workload's baseline off-chip traffic (paper: ≤1.42%, avg 0.38%).
fn inval_traffic(plan: &mut Plan) -> Render {
    let cells = WORKLOADS.map(|w| {
        let base = plan.cell(w, SystemConfig::baseline());
        (base, plan.cell(w, SystemConfig::ndp_dynamic_cache()))
    });
    Box::new(move |r, o| {
        let fracs = cells.map(|(b, n)| r[n].inval_bytes as f64 / r[b].gpu_link_bytes.max(1) as f64);
        let rows: Vec<Vec<String>> = (cells.iter().zip(fracs))
            .map(|(&(_, n), f)| {
                let pct = format!("{:.3}%", f * 100.0);
                vec![r[n].workload.clone(), r[n].inval_bytes.to_string(), pct]
            })
            .collect();
        let table = render(&["Workload", "inval bytes", "overhead"], &rows);
        let avg = fracs.iter().sum::<f64>() / fracs.len() as f64 * 100.0;
        let max = fracs.iter().cloned().fold(0.0f64, f64::max) * 100.0;
        writeln!(
            o,
            "{table}\navg {avg:.2}% (paper 0.38%), max {max:.2}% (paper 1.42%)"
        )
    })
}

/// §7.3 — sensitivity to a more powerful GPU: double the compute units in
/// every configuration (paper: the proposed mechanism still gains 11.6%).
fn bigger_gpu(plan: &mut Plan) -> Render {
    let mut configs = [
        ("Baseline(2x)", SystemConfig::baseline()),
        ("NDP(Dyn)_Cache(2x)", SystemConfig::ndp_dynamic_cache()),
    ];
    for (_, c) in &mut configs {
        c.gpu.num_sms *= 2;
    }
    let grid = plan.grid(&configs);
    Box::new(move |r, o| {
        speedups(o, &grid.matrix(r), "Baseline(2x)")?;
        writeln!(o, "(paper: 11.6% average speedup with 2x compute units)")
    })
}

/// §7.5 — GPU-side hardware overhead of the NDP buffers, with the peak
/// buffer occupancy observed across representative NDP runs.
fn overhead(plan: &mut Plan) -> Render {
    let cells = [Workload::Vadd, Workload::Kmn, Workload::Bfs];
    let cells = cells.map(|w| plan.cell(w, SystemConfig::naive_ndp()));
    Box::new(move |r, o| {
        let c = SystemConfig::default();
        let buf = c.sm_ndp_buffer_bytes();
        let share = buf as f64 / c.sm_onchip_storage_bytes() as f64 * 100.0;
        let pending = cells.map(|x| r[x].sm_buffer_peaks.0).into_iter().max();
        let ready = cells.map(|x| r[x].sm_buffer_peaks.1).into_iter().max();
        let (pending, ready) = (pending.unwrap_or(0), ready.unwrap_or(0));
        let (pending_cap, ready_cap) = (c.nsu.sm_pending_entries, c.nsu.sm_ready_entries);
        writeln!(
            o,
            "per-SM NDP packet buffers : {buf} B (paper: 2.84 KB)
fraction of on-chip storage: {share:.1}% (paper: 1.8%)
peak occupancy observed     : pending {pending} / {pending_cap} entries, ready {ready} / {ready_cap}"
        )
    })
}

/// §7.6 — performance sensitivity to the NSU clock: 350 MHz vs 175 MHz
/// (paper: 175 MHz retains most of the benefit — 14.1% avg vs 17.9%).
fn nsu_freq(plan: &mut Plan) -> Render {
    let mut slow = SystemConfig::ndp_dynamic_cache();
    slow.nsu.clock_mhz = 175;
    let configs = [
        ("Baseline", SystemConfig::baseline()),
        ("NDP@350MHz", SystemConfig::ndp_dynamic_cache()),
        ("NDP@175MHz", slow),
    ];
    let grid = plan.grid(&configs);
    Box::new(move |r, o| speedups(o, &grid.matrix(r), "Baseline"))
}

/// §7.1 fine-grained ratio study: "The performance of BICG did not improve
/// with the evaluated static offloading but it was due to the large
/// granularity we used to change the offload ratio ... the offload ratio of
/// 0.15 resulted in an 11.5% speedup."
fn bicg_fine(plan: &mut Plan) -> Render {
    let base = plan.cell(Workload::Bicg, SystemConfig::baseline());
    let ratios = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
    let runs = ratios.map(|x| (x, plan.cell(Workload::Bicg, SystemConfig::ndp_static(x))));
    Box::new(move |r, o| {
        let mut best = (0.0f64, 0.0f64);
        for (ratio, run) in runs {
            let sp = r[run].speedup_over(&r[base]);
            if sp > best.1 {
                best = (ratio, sp);
            }
            writeln!(o, "  ratio {ratio:.2}: {sp:.3}x")?;
        }
        let (ratio, sp) = best;
        writeln!(
            o,
            "\nbest fine ratio: {ratio:.2} at {sp:.3}x (paper: 0.15 at 1.115x)"
        )
    })
}

/// §7.1 suggested fix: "such a workload can benefit from adding a small
/// read-only cache to each NSU with minimal cost." Compares BPROP (the
/// workload that ships its hot 68 B structure off-chip on every offloaded
/// instance) with and without a 4 KB read-only NSU cache.
fn nsu_cache(plan: &mut Plan) -> Render {
    let cells = [Workload::Bprop, Workload::Bicg].map(|w| {
        let base = plan.cell(w, SystemConfig::baseline());
        let plain = plan.cell(w, SystemConfig::ndp_static(0.6));
        let edit = |c: &mut SystemConfig| c.nsu.readonly_cache_bytes = 4096;
        let cached = plan.cell_with(w, SystemConfig::ndp_static(0.6), edit);
        (
            w,
            base,
            [("no NSU cache ", plain), ("4 KB RO cache", cached)],
        )
    });
    Box::new(move |r, o| {
        for (w, base, runs) in cells {
            writeln!(o, "=== {} (NDP at ratio 0.6) ===", w.name())?;
            for (label, c) in runs {
                let (sp, kb) = (r[c].speedup_over(&r[base]), r[c].gpu_link_bytes / 1024);
                writeln!(
                    o,
                    "  {label}: {sp:.3}x speedup, {kb:>8} KB GPU-link traffic"
                )?;
            }
        }
        Ok(())
    })
}

/// Design-choice ablations (DESIGN.md §6): RDF cache probing, NSU command
/// buffer depth, and the Algorithm 1 epoch length.
fn ablate(plan: &mut Plan) -> Render {
    let cells = [Workload::Bprop, Workload::Kmn, Workload::Stn].map(|w| {
        let base = plan.cell(w, SystemConfig::baseline());
        // RDF cache-probe on/off under the dynamic policy.
        let on = plan.cell(w, SystemConfig::ndp_dynamic());
        let edit = |c: &mut SystemConfig| c.nsu.rdf_probes_gpu_cache = false;
        let off = plan.cell_with(w, SystemConfig::ndp_dynamic(), edit);
        // Offload command buffer depth (concurrency throttle, §4.3).
        let cmd = [2usize, 10, 32].map(|n| {
            let edit = |c: &mut SystemConfig| c.nsu.cmd_entries = n;
            (n, plan.cell_with(w, SystemConfig::ndp_static(0.6), edit))
        });
        // Epoch length for the hill climber (§7.2): a quarter, one and
        // four times the plan's epoch, so that the sweep brackets the epoch
        // every other figure runs at. The middle cell is the `on` cell.
        let epoch = [plan.epoch / 4, plan.epoch, plan.epoch * 4].map(|n| {
            let edit = |c: &mut SystemConfig| c.hill_climb.epoch_cycles = n;
            (n, plan.cell_with(w, SystemConfig::ndp_dynamic(), edit))
        });
        (w, base, on, off, cmd, epoch)
    });
    Box::new(move |r, o| {
        for (w, base, on, off, cmd, epoch) in cells {
            let speed = |c: usize| r[c].speedup_over(&r[base]);
            let (sp_on, sp_off) = (speed(on), speed(off));
            let (bytes_on, bytes_off) = (r[on].gpu_link_bytes, r[off].gpu_link_bytes);
            writeln!(
                o,
                "=== {} ===\n  RDF probes GPU cache: on {sp_on:.3}x  off {sp_off:.3}x  \
                 (link bytes {bytes_on} vs {bytes_off})",
                w.name()
            )?;
            for (n, c) in cmd {
                writeln!(o, "  cmd buffer {n:>2} entries: {:.3}x", speed(c))?;
            }
            for (n, c) in epoch {
                let (sp, ratio) = (speed(c), r[c].offload_fraction());
                writeln!(
                    o,
                    "  epoch {n:>6} cycles: {sp:.3}x (achieved ratio {ratio:.2})"
                )?;
            }
        }
        Ok(())
    })
}
