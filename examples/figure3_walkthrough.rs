//! The paper's Figure 3, animated: its 6x6 example matrix run through
//! both dataflows on a 2x2 system, with the simulator's execution trace
//! showing exactly the steps the figure draws —
//!
//! * IP on SCS: ① load matrix elements sequentially, ② load the
//!   corresponding vector element (from the shared SPM), ③ multiply and
//!   accumulate into the output vector;
//! * OP on PS: ① build the sorted list of column heads (in the private
//!   SPM), ② pop the smallest index and load the column's next element,
//!   ③ merge equal indices and hand the element to the LCP, ④ the LCP
//!   writes results back to main memory.
//!
//! Run with: `cargo run --release --example figure3_walkthrough`

use cosparse::{CoSparse, Frontier, HwConfig, Policy, SwConfig};
use sparse::{CooMatrix, SparseVector};
use transmuter::{Geometry, Machine, MicroArch, Op, ProgramSet};

fn op_name(op: Op) -> String {
    match op {
        Op::Compute(n) => format!("compute x{n}"),
        Op::Load(a) => format!("load  {a:#x}"),
        Op::Store(a) => format!("store {a:#x}"),
        Op::SpmLoad(o) => format!("spm load  +{o}"),
        Op::SpmStore(o) => format!("spm store +{o}"),
        Op::TileBarrier => "tile barrier".to_string(),
        Op::GlobalBarrier => "global barrier".to_string(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 3's matrix (1s marking nonzeros, read off the figure).
    let matrix = CooMatrix::from_triplets(
        6,
        6,
        vec![
            (0, 5, 1.0),
            (1, 0, 1.0),
            (1, 5, 1.0),
            (2, 0, 1.0),
            (2, 5, 1.0),
            (3, 0, 1.0),
            (3, 5, 1.0),
            (4, 0, 1.0),
            (4, 2, 1.0),
            (4, 3, 1.0),
            (4, 5, 1.0),
            (5, 0, 1.0),
            (5, 3, 1.0),
            (5, 4, 1.0),
        ],
    )?;
    // Figure 3's vector: x = [1, 0, 0, 1, 1, 1].
    let x = SparseVector::from_entries(6, vec![(0u32, 1.0f32), (3, 1.0), (4, 1.0), (5, 1.0)])?;
    let geometry = Geometry::new(2, 2);

    for (sw, hw) in [
        (SwConfig::InnerProduct, HwConfig::Scs),
        (SwConfig::OuterProduct, HwConfig::Ps),
    ] {
        println!("=== {} on {} (2x2 system) ===", sw, hw);
        let machine = Machine::new(geometry, MicroArch::paper());
        let mut rt = CoSparse::new(&matrix, machine);
        rt.set_policy(Policy::Fixed(sw, hw));
        let frontier = match sw {
            SwConfig::InnerProduct => Frontier::Dense(x.to_dense(0.0)),
            SwConfig::OuterProduct => Frontier::Sparse(x.clone()),
        };
        let out = rt.spmv(&frontier)?;
        let result = match out.result {
            Frontier::Dense(v) => v.into_inner(),
            Frontier::Sparse(v) => v.to_dense(0.0).into_inner(),
        };
        println!("y = {result:?}  ({} cycles)", out.report.cycles);
        // CoSparse runs built programs, which record no trace — so
        // collect the same kernel's op streams and run them on the
        // reference loop, showing PE (0,0) and the tile-0 LCP.
        println!("(trace of the same kernel, worker-by-worker)");
        let mut machine = Machine::new(geometry, MicroArch::paper());
        machine.reconfigure(hw);
        let layout = cosparse::Layout::new(6, 6, matrix.nnz(), geometry, 1);
        let mut sink = ProgramSet::new(geometry);
        match sw {
            SwConfig::InnerProduct => {
                let partition = cosparse::balance::ip_partitions(
                    &matrix.row_counts(),
                    geometry,
                    Default::default(),
                );
                let vblocks = sparse::partition::VBlocks::whole(6);
                cosparse::kernels::ip::build(
                    &matrix,
                    geometry,
                    cosparse::kernels::ip::IpParams {
                        layout: &layout,
                        partition: &partition,
                        vblocks: &vblocks,
                        use_spm: true,
                        active: None,
                        profile: cosparse::OpProfile::scalar(),
                    },
                    &mut sink,
                );
            }
            SwConfig::OuterProduct => {
                let csc = sparse::CscMatrix::from(&matrix);
                let tile_parts = cosparse::balance::op_tile_partitions(
                    &matrix.row_counts(),
                    geometry,
                    Default::default(),
                );
                let active: Vec<u32> = x.iter().map(|(i, _)| i).collect();
                cosparse::kernels::op::build(
                    &csc,
                    geometry,
                    cosparse::kernels::op::OpParams {
                        layout: &layout,
                        tile_parts: &tile_parts,
                        frontier: &active,
                        heap_in_spm: true,
                        spm_node_cap: 512,
                        profile: cosparse::OpProfile::scalar(),
                    },
                    &cosparse::kernels::op::subruns(&csc, &tile_parts),
                    &mut sink,
                );
            }
        }
        let (_, trace) = machine.run_traced(&sink)?;
        for e in trace.iter().filter(|e| matches!(e.worker, 0 | 4)).take(40) {
            let who = if e.worker == 4 { "LCP " } else { "PE0 " };
            println!("  cyc {:>4}  {who} {}", e.cycle, op_name(e.op));
        }
        println!();
    }
    println!(
        "both dataflows computed the same product — the figure's point: the\n\
         access patterns differ (sequential matrix + SPM vector vs heap merge\n\
         + LCP write-back), the math does not."
    );
    Ok(())
}
