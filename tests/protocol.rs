//! Protocol-level integration tests: the partitioned-execution packet
//! protocol (§4.1), credit flow (§4.3), and coherence (§4.2) observed
//! through a live system.

use standardized_ndp::prelude::*;

const MAX: u64 = 30_000_000;

fn run(mut cfg: SystemConfig, w: Workload, warps: u32, iters: u32) -> RunResult {
    cfg.gpu.num_sms = 8;
    let p = w.build(&Scale { warps, iters });
    System::new(cfg, &p)
        .run(MAX)
        .expect("no protocol violation")
}

#[test]
fn cmd_buffer_of_two_still_completes() {
    // Credit-based flow control must degrade throughput, never deadlock.
    let mut cfg = SystemConfig::naive_ndp();
    cfg.nsu.cmd_entries = 2;
    let r = run(cfg, Workload::Vadd, 64, 4);
    assert!(!r.timed_out, "tiny command buffer deadlocked");
    assert!(r.offloaded > 0);
}

#[test]
fn tiny_read_data_buffer_still_completes() {
    let mut cfg = SystemConfig::naive_ndp();
    cfg.nsu.read_data_entries = 8;
    cfg.nsu.write_addr_entries = 8;
    let r = run(cfg, Workload::Bprop, 32, 4);
    assert!(!r.timed_out, "tiny NDP buffers deadlocked");
}

#[test]
fn deep_buffers_never_slow_things_down() {
    let base = run(SystemConfig::naive_ndp(), Workload::Vadd, 64, 4);
    let mut cfg = SystemConfig::naive_ndp();
    cfg.nsu.cmd_entries = 64;
    cfg.nsu.read_data_entries = 1024;
    cfg.nsu.write_addr_entries = 1024;
    let deep = run(cfg, Workload::Vadd, 64, 4);
    assert!(
        deep.cycles <= base.cycles + base.cycles / 10,
        "deeper buffers regressed: {} vs {}",
        deep.cycles,
        base.cycles
    );
}

#[test]
fn naive_ndp_inflates_warp_idle() {
    // The §6 diagnosis: full offload turns GPU warps into ACK-waiters.
    let base = run(SystemConfig::baseline(), Workload::Stn, 64, 8);
    let naive = run(SystemConfig::naive_ndp(), Workload::Stn, 64, 8);
    let base_idle = base.issue.warp_idle as f64 / base.issue.no_issue_total().max(1) as f64;
    let naive_idle = naive.issue.warp_idle as f64 / naive.issue.no_issue_total().max(1) as f64;
    assert!(
        naive_idle > base_idle,
        "WarpIdle share should grow under naive NDP: {base_idle:.3} → {naive_idle:.3}"
    );
}

#[test]
fn divergent_gather_ships_fewer_bytes_per_access() {
    // §4.4: for BFS the per-gather GPU traffic drops because RDF responses
    // carry only touched words (and go over the memnet), with the packed
    // result returning in one ACK. The gather windows must outgrow the L2
    // for the effect to show, hence the warp count.
    let base = run(SystemConfig::baseline(), Workload::Bfs, 1024, 4);
    let ndp = run(SystemConfig::naive_ndp(), Workload::Bfs, 1024, 4);
    let base_down = base.gpu_link_bytes;
    let ndp_down = ndp.gpu_link_bytes;
    assert!(
        ndp_down < base_down,
        "BFS NDP must reduce GPU-link bytes: {ndp_down} vs {base_down}"
    );
}

#[test]
fn cache_invalidations_match_offloaded_store_lines() {
    // §4.2: every NSU write produces exactly one invalidation (16 B each).
    let ndp = run(SystemConfig::naive_ndp(), Workload::Vadd, 64, 4);
    // VADD: one store per block instance, unit-stride ⇒ one line per store.
    let expected = ndp.offloaded; // one write line per instance
    let observed = ndp.inval_bytes / 16;
    assert_eq!(observed, expected, "one inval per NSU write line");
}

#[test]
fn ndp_protocol_bytes_classified() {
    let ndp = run(SystemConfig::naive_ndp(), Workload::Vadd, 64, 4);
    assert!(ndp.gpu_link_ndp_bytes > 0);
    assert!(ndp.gpu_link_ndp_bytes <= ndp.gpu_link_bytes);
    let base = run(SystemConfig::baseline(), Workload::Vadd, 64, 4);
    assert_eq!(base.gpu_link_ndp_bytes, 0, "baseline has no NDP packets");
}

#[test]
fn nsu_occupancy_reported_within_bounds() {
    let ndp = run(SystemConfig::naive_ndp(), Workload::Bprop, 64, 4);
    assert!(ndp.nsu_occupancy > 0.0 && ndp.nsu_occupancy <= 1.0);
    assert!(ndp.nsu_icache_util > 0.0 && ndp.nsu_icache_util <= 1.0);
}

#[test]
fn ro_cache_reduces_bprop_link_traffic() {
    // §7.1's suggested fix, implemented as an extension: with a small
    // read-only NSU cache the hot structure ships once per NSU, not once
    // per instance.
    let plain = run(SystemConfig::naive_ndp(), Workload::Bprop, 64, 8);
    let mut cfg = SystemConfig::naive_ndp();
    cfg.nsu.readonly_cache_bytes = 4096;
    let cached = run(cfg, Workload::Bprop, 64, 8);
    assert!(
        cached.gpu_link_bytes < plain.gpu_link_bytes,
        "RO cache must cut GPU-link bytes: {} vs {}",
        cached.gpu_link_bytes,
        plain.gpu_link_bytes
    );
    assert!(!cached.timed_out);
}

#[test]
fn every_offload_cmd_gets_exactly_one_ack() {
    // §4.1 protocol completeness, checked through the observability layer:
    // each block instance's CMD must come back as exactly one ACK — no
    // transaction still in flight after drain. An ACK without a CMD is an
    // invariant violation, which fails the run itself.
    let mut cfg = SystemConfig::naive_ndp();
    cfg.gpu.num_sms = 8;
    let p = Workload::Vadd.build(&Scale {
        warps: 64,
        iters: 4,
    });
    let opts = RunOptions {
        obs: true,
        ..RunOptions::from_env().expect("valid NDP_* environment")
    };
    let kernel = std::sync::Arc::new(compile(&p, &CompilerConfig::default()));
    let r = System::build(cfg, kernel, &opts).unwrap().run(MAX).unwrap();
    assert!(!r.timed_out, "run did not drain");
    let obs = r.obs.as_ref().expect("observability enabled");
    assert!(r.offloaded > 0);
    assert_eq!(obs.txn_issued, r.offloaded, "one tracked txn per offload");
    assert_eq!(obs.txn_completed, obs.txn_issued, "every CMD acked");
    assert_eq!(obs.txn_inflight, 0, "nothing in flight after drain");
    let e2e = obs.segment("end_to_end").expect("histogram present");
    assert_eq!(e2e.count, obs.txn_completed);
    assert!(e2e.p50 > 0, "round trips take nonzero cycles");
}

#[test]
fn rdf_probe_ablation_changes_traffic_mix() {
    let probed = run(SystemConfig::naive_ndp(), Workload::Bprop, 64, 4);
    let mut cfg = SystemConfig::naive_ndp();
    cfg.nsu.rdf_probes_gpu_cache = false;
    let blind = run(cfg, Workload::Bprop, 64, 4);
    assert!(!blind.timed_out);
    // Without cache probing, hits stop shipping data on the GPU link...
    assert!(blind.gpu_link_bytes < probed.gpu_link_bytes);
    // ...and the DRAM absorbs the reads instead.
    assert!(blind.dram.read_bytes > probed.dram.read_bytes);
}
