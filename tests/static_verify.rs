//! Mutation tests for the static partition verifier
//! (`ndp_isa::verify_blocks`, run by every `System::build`).
//!
//! The verifier is only trustworthy if it actually *catches* broken
//! annotations — a verifier that accepts everything would pass every clean
//! check. So: take the real compiled workloads, corrupt one fact at a time
//! (a live set, an instruction role), and require a named diagnostic for
//! each corruption — plus a zero-diagnostic run over every workload
//! unmodified, and construction surfacing the same findings.

use std::sync::Arc;

use ndp_common::config::SystemConfig;
use ndp_common::SimError;
use ndp_compiler::{compile, CompiledKernel, CompilerConfig};
use ndp_core::System;
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
