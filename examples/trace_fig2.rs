//! Fig. 2 walkthrough: trace the packet-level life of offload-block
//! instances for the vector-addition kernel and print the ①–⑨ message
//! sequence of the partitioned execution model.
//!
//! Run: `cargo run --release --example trace_fig2`

use std::sync::Arc;

use standardized_ndp::prelude::*;

fn main() {
    let program = Workload::Vadd.build(&Scale { warps: 8, iters: 1 });
    let mut cfg = SystemConfig::naive_ndp();
    cfg.gpu.num_sms = 2;
    let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
    // The observability layer's event ring records every packet movement
    // the walkthrough renders.
    let opts = RunOptions {
        obs: true,
        ..RunOptions::default()
    };
    let mut sys = System::build(cfg, kernel, &opts).expect("builtin workload builds");
    for _ in 0..200_000u64 {
        sys.tick();
        if sys.is_done() {
            break;
        }
    }
    let events = &sys.obs.events;
    let token = events.first_token().expect("an offload happened");
    println!("{}", events.render_instance(token));
    println!(
        "Legend (paper Fig. 2(b)): OffloadCmd = ①, Rdf = ②③ (read requests,\n\
         addresses generated on the GPU), RdfResp = ⑤⑥ (DRAM data forwarded\n\
         to the target NSU over the memory network), Wta = ④ (store\n\
         addresses), NsuWrite/NsuWriteAck = ⑦⑧, OffloadAck = ⑨."
    );
}
