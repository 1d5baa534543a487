//! Mutation tests for the static verification suite (`ndp-lint`).
//!
//! Pass 1 and Pass 2 are only trustworthy if they actually *catch* broken
//! annotations — a verifier that accepts everything would pass every clean
//! check. So: take the real compiled workloads and the real lifted fabric
//! graph, corrupt one fact at a time (a live set, an instruction role, a
//! pipeline edge), and require a named diagnostic for each corruption —
//! plus a zero-diagnostic run over everything unmodified.

use std::sync::Arc;

use ndp_common::config::SystemConfig;
use ndp_common::SimError;
use ndp_compiler::{compile, CompiledKernel, CompilerConfig};
use ndp_core::{fabric_graph, System};
use ndp_isa::{verify_blocks, InstrRole, Reg};
use ndp_workloads::{Scale, Workload, WORKLOADS};

fn compiled(w: Workload) -> CompiledKernel {
    compile(&w.build(&Scale::tiny()), &CompilerConfig::default())
}

/// A workload with at least one offload block, plus the index of a block
/// with a nonempty role vector (all Table-1 kernels have one).
fn victim() -> CompiledKernel {
    let k = compiled(Workload::Vadd);
    assert!(!k.blocks.is_empty(), "VADD must have an offload block");
    k
}

// ---------------------------------------------------------------- clean run

#[test]
fn all_builtin_workloads_verify_clean() {
    for scale in [Scale::tiny(), Scale::default()] {
        for w in WORKLOADS {
            let k = compile(&w.build(&scale), &CompilerConfig::default());
            let diags = verify_blocks(&k.program, &k.blocks);
            assert!(diags.is_empty(), "{}: {diags:?}", w.name());
        }
    }
}

#[test]
fn all_config_presets_lift_to_clean_graphs() {
    for (name, cfg) in [
        ("baseline", SystemConfig::baseline()),
        ("baseline_more_core", SystemConfig::baseline_more_core()),
        ("naive_ndp", SystemConfig::naive_ndp()),
        ("ndp_static", SystemConfig::ndp_static(0.5)),
        ("ndp_dynamic", SystemConfig::ndp_dynamic()),
        ("ndp_dynamic_cache", SystemConfig::ndp_dynamic_cache()),
    ] {
        let diags = fabric_graph(&cfg).check();
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
}

// ------------------------------------------------- mutation: live sets

#[test]
fn corrupt_live_out_is_caught_with_location() {
    let mut k = victim();
    // R60 is defined nowhere in the tiny kernels: claiming it in the ACK
    // is pure wasted transfer and must be flagged.
    k.blocks[0].live_out.push(Reg(60));
    let diags = verify_blocks(&k.program, &k.blocks);
    let hit = diags
        .iter()
        .find(|d| d.detail.contains("live-out") && d.detail.contains("R60"))
        .unwrap_or_else(|| panic!("no live-out diagnostic in {diags:?}"));
    assert_eq!(hit.block, k.blocks[0].id, "diag names the mutated block");
}

#[test]
fn dropped_live_in_is_caught() {
    // Find any Table-1 block that transfers a GPU-computed value.
    let (mut k, bi) = WORKLOADS
        .iter()
        .map(|w| compiled(*w))
        .find_map(|k| {
            let bi = k.blocks.iter().position(|b| !b.live_in.is_empty())?;
            Some((k, bi))
        })
        .expect("some block has a live-in");
    let lost = k.blocks[bi].live_in.remove(0);
    let diags = verify_blocks(&k.program, &k.blocks);
    assert!(
        diags.iter().any(
            |d| d.detail.contains("live-in is missing") && d.detail.contains(&lost.to_string())
        ),
        "no missing-live-in diagnostic for {lost} in {diags:?}"
    );
}

// ------------------------------------------------- mutation: roles

#[test]
fn flipped_alu_role_is_caught() {
    let mut k = victim();
    let b = &mut k.blocks[0];
    // Flip one ALU role across the GPU/NSU split.
    let i = b
        .roles
        .iter()
        .position(|r| matches!(r, InstrRole::AtNsu | InstrRole::AddrCalc))
        .expect("block has an ALU instruction");
    b.roles[i] = match b.roles[i] {
        InstrRole::AtNsu => InstrRole::AddrCalc,
        _ => InstrRole::AtNsu,
    };
    let diags = verify_blocks(&k.program, &k.blocks);
    assert!(
        diags.iter().any(|d| d.detail.contains("role annotated")),
        "no role diagnostic in {diags:?}"
    );
}

#[test]
fn load_annotated_as_store_is_caught() {
    let mut k = victim();
    let b = &mut k.blocks[0];
    let i = b
        .roles
        .iter()
        .position(|r| matches!(r, InstrRole::Load))
        .expect("block has a load");
    b.roles[i] = InstrRole::Store;
    let diags = verify_blocks(&k.program, &k.blocks);
    assert!(
        diags
            .iter()
            .any(|d| d.detail.contains("misclassified across the RDF/WTA split")),
        "no RDF/WTA diagnostic in {diags:?}"
    );
}

// ------------------------------------------------- mutation: fabric graph

#[test]
fn dropped_pipeline_edge_is_caught_by_name() {
    let mut g = fabric_graph(&SystemConfig::ndp_dynamic());
    assert!(g.remove_edge("stack_to_nsu"), "edge exists before removal");
    let diags = g.check();
    let hit = diags
        .iter()
        .find(|d| d.check == "routing")
        .unwrap_or_else(|| panic!("no routing diagnostic in {diags:?}"));
    assert!(
        hit.detail.contains("OffloadCmd"),
        "diag names the stranded packet kind: {hit}"
    );
}

#[test]
fn dropped_credit_release_site_is_caught() {
    let mut g = fabric_graph(&SystemConfig::ndp_dynamic());
    assert!(g.remove_site("side:credits"));
    let diags = g.check();
    assert!(
        diags
            .iter()
            .any(|d| d.check == "credit" && d.detail.contains("side:credits")),
        "no credit-pairing diagnostic in {diags:?}"
    );
}

// --------------------------------------- construction surfaces the findings

#[test]
fn system_construction_rejects_a_corrupted_kernel() {
    let mut k = victim();
    k.blocks[0].live_out.push(Reg(60));
    let mut cfg = SystemConfig::ndp_dynamic();
    cfg.gpu.num_sms = 4;
    let err = System::try_with_kernel(cfg, Arc::new(k))
        .err()
        .expect("try_with_kernel must reject the corrupted partition");
    match &err {
        SimError::BadPartition {
            kernel, location, ..
        } => {
            assert_eq!(kernel, "VADD");
            assert!(location.contains("block 0"), "location: {location}");
        }
        other => panic!("expected BadPartition, got {other:?}"),
    }
    assert!(err.to_string().contains("offload partition invalid"));
}

#[test]
fn system_construction_accepts_every_builtin() {
    let mut cfg = SystemConfig::ndp_dynamic();
    cfg.gpu.num_sms = 4;
    for w in WORKLOADS {
        let k = Arc::new(compiled(w));
        assert!(
            System::try_with_kernel(cfg.clone(), k).is_ok(),
            "{} rejected",
            w.name()
        );
    }
}
