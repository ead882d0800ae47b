//! Ablations of the design choices DESIGN.md §5 calls out (beyond the
//! paper's own Figure 7 balancing ablation):
//!
//! 1. vblock (vertical) tiling on/off for the inner product in SC mode;
//! 2. the L2 stride prefetcher on/off (Table II lists it; this shows
//!    how much of IP's streaming performance it carries);
//! 3. the outer product's SPM spill threshold (how much of the merge
//!    heap must live in SPM before PS stops paying off).
//!
//! Usage: `cargo run --release -p bench --bin ablation`

use bench::{print_table, scale};
use cosparse::balance::{ip_partitions, op_tile_partitions, Balancing};
use cosparse::kernels::{ip, op};
use cosparse::{Layout, OpProfile};
use sparse::partition::VBlocks;
use sparse::{CscMatrix, Idx};
use transmuter::{Geometry, HwConfig, Machine, MicroArch, ProgramBuilder, SimReport};

/// Emits one kernel for `machine`'s current configuration and runs the
/// program.
fn run(machine: &mut Machine, emit: impl FnOnce(&mut ProgramBuilder)) -> SimReport {
    let mut builder = ProgramBuilder::new();
    builder.begin(machine.geometry(), machine.config(), machine.uarch());
    emit(&mut builder);
    machine.run_program(builder.finish()).expect("run")
}

fn main() {
    let s = scale();
    let n = 524_288 / s;
    let nnz = 4_000_000 / s;
    let matrix = sparse::generate::uniform(n, n, nnz, 0xAB1).expect("generator");
    let geometry = Geometry::new(4, 8);
    println!("ablations on N={n}, nnz={nnz}, 4x8 system (scale = {s})");

    // --- 1. vblock tiling for IP/SC -------------------------------------
    let layout = Layout::new(n, n, nnz, geometry, 1);
    let partition = ip_partitions(&matrix.row_counts(), geometry, Balancing::NnzBalanced);
    let mut rows = Vec::new();
    let cache_words = geometry.pes_per_tile() * 4096 / 4;
    for (name, vblocks) in [
        ("no tiling", VBlocks::whole(n)),
        ("L1-sized vblocks", VBlocks::new(n, cache_words)),
        ("half-L1 vblocks", VBlocks::new(n, cache_words / 2)),
        ("quarter-L1 vblocks", VBlocks::new(n, cache_words / 4)),
    ] {
        let mut machine = Machine::new(geometry, MicroArch::paper());
        machine.reconfigure(HwConfig::Sc);
        let params = ip::IpParams {
            layout: &layout,
            partition: &partition,
            vblocks: &vblocks,
            use_spm: false,
            active: None,
            profile: OpProfile::scalar(),
        };
        let r = run(&mut machine, |b| ip::build(&matrix, geometry, params, b));
        rows.push(vec![
            name.to_string(),
            r.cycles.to_string(),
            format!("{:.3}", r.stats.l1_hit_rate()),
            format!("{:.3}", r.stats.l2_hit_rate()),
            r.stats.hbm_line_reads.to_string(),
        ]);
    }
    print_table(
        "Ablation 1 | IP/SC vertical tiling (paper §III-B: \"not required for SC but beneficial\")",
        &["vblocks", "cycles", "l1 hit", "l2 hit", "hbm lines"],
        &rows,
    );

    // --- 2. stride prefetcher on/off ------------------------------------
    let mut rows = Vec::new();
    for (name, prefetch) in [("prefetch on", true), ("prefetch off", false)] {
        let mut ua = MicroArch::paper();
        ua.prefetch = prefetch;
        let mut machine = Machine::new(geometry, ua);
        machine.reconfigure(HwConfig::Sc);
        let vblocks = VBlocks::new(n, cache_words);
        let params = ip::IpParams {
            layout: &layout,
            partition: &partition,
            vblocks: &vblocks,
            use_spm: false,
            active: None,
            profile: OpProfile::scalar(),
        };
        let r = run(&mut machine, |b| ip::build(&matrix, geometry, params, b));
        rows.push(vec![
            name.to_string(),
            r.cycles.to_string(),
            r.stats.prefetches.to_string(),
            r.stats.mem_stall_cycles.to_string(),
        ]);
    }
    print_table(
        "Ablation 2 | L2 stride prefetcher (IP/SC streaming)",
        &["config", "cycles", "prefetches", "mem stalls"],
        &rows,
    );

    // --- 3. OP SPM spill threshold --------------------------------------
    let csc = CscMatrix::from(&matrix);
    let tile_parts = op_tile_partitions(&matrix.row_counts(), geometry, Balancing::NnzBalanced);
    let sub = op::subruns(&csc, &tile_parts);
    let frontier: Vec<Idx> = sparse::generate::random_sparse_vector(n, 0.04, 0xAB2)
        .expect("generator")
        .iter()
        .map(|(i, _)| i)
        .collect();
    let mut rows = Vec::new();
    for (name, cap) in [
        ("full 4 kB SPM (512 nodes)", 512usize),
        ("half SPM (256 nodes)", 256),
        ("64 nodes", 64),
        ("no SPM (all spill)", 0),
    ] {
        let mut machine = Machine::new(geometry, MicroArch::paper());
        machine.reconfigure(HwConfig::Ps);
        let params = op::OpParams {
            layout: &layout,
            tile_parts: &tile_parts,
            frontier: &frontier,
            heap_in_spm: true,
            spm_node_cap: cap,
            profile: OpProfile::scalar(),
        };
        let r = run(&mut machine, |b| op::build(&csc, geometry, params, &sub, b));
        rows.push(vec![
            name.to_string(),
            r.cycles.to_string(),
            r.stats.spm_accesses.to_string(),
            (r.stats.loads + r.stats.stores).to_string(),
        ]);
    }
    print_table(
        "Ablation 3 | OP/PS merge-heap SPM capacity (frontier density 0.04)",
        &["spm budget", "cycles", "spm accesses", "global accesses"],
        &rows,
    );
}
