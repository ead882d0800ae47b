//! Kernel-level differential suite for the single-pass pipeline: every
//! SW x HW combination is emitted twice from the same kernel `build` —
//! once into a [`ProgramSet`] (per-worker op buffers, run through the
//! machine's op-stream reference loop) and once straight into a
//! [`ProgramBuilder`] (run through the program core) — and the two
//! executions must agree bit for bit on cycles and traffic statistics.
//!
//! One builder instance is reused across every combination, mirroring
//! how a runtime session repurposes its builder between conversion and
//! scratch builds.

use cosparse::balance::{ip_partitions, op_tile_partitions, Balancing};
use cosparse::kernels::convert::{self, Direction};
use cosparse::kernels::{ip, op};
use cosparse::{Layout, OpProfile};
use sparse::partition::VBlocks;
use sparse::{CooMatrix, CscMatrix, Idx};
use transmuter::{Geometry, HwConfig, Machine, MicroArch, ProgramBuilder, ProgramSet, SimReport};

const N: usize = 1024;
const NNZ: usize = 15_000;

fn geometry() -> Geometry {
    Geometry::new(2, 4)
}

fn machine(hw: HwConfig) -> Machine {
    let mut m = Machine::new(geometry(), MicroArch::paper());
    m.reconfigure(hw);
    m
}

fn matrix() -> CooMatrix {
    sparse::generate::uniform(N, N, NNZ, 21).unwrap()
}

fn sparse_frontier() -> Vec<Idx> {
    sparse::generate::random_sparse_vector(N, 0.05, 3)
        .unwrap()
        .iter()
        .map(|(i, _)| i)
        .collect()
}

/// Runs `build`'s op buffers through the event loop of a fresh machine
/// configured for `hw`.
fn event_loop(hw: HwConfig, build: impl FnOnce(&mut ProgramSet)) -> SimReport {
    let mut sink = ProgramSet::new(geometry());
    build(&mut sink);
    machine(hw).run(&sink).unwrap()
}

/// Asserts the two pipeline outputs are indistinguishable.
fn assert_identical(label: &str, legacy: SimReport, built: SimReport) {
    assert_eq!(
        legacy.cycles, built.cycles,
        "{label}: cycles diverged (legacy {} vs builder {})",
        legacy.cycles, built.cycles
    );
    assert_eq!(legacy.stats, built.stats, "{label}: stats diverged");
}

#[test]
fn ip_builder_matches_legacy_event_loop_on_all_hw() {
    let coo = matrix();
    let g = geometry();
    let layout = Layout::new(N, N, NNZ, g, 1);
    let partition = ip_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
    let ua = MicroArch::paper();
    let spm_words = ua.spm_bytes_per_tile(g.pes_per_tile(), HwConfig::Scs.l1()) / 4;
    let mut builder = ProgramBuilder::new();

    for hw in HwConfig::ALL {
        let use_spm = hw == HwConfig::Scs;
        let vblocks = if use_spm {
            VBlocks::new(N, spm_words.min(N))
        } else {
            VBlocks::whole(N)
        };
        let params = ip::IpParams {
            layout: &layout,
            partition: &partition,
            vblocks: &vblocks,
            use_spm,
            active: None,
            profile: OpProfile::scalar(),
        };

        let legacy = event_loop(hw, |s| ip::build(&coo, g, params, s));

        builder.begin(g, hw, &ua);
        ip::build(&coo, g, params, &mut builder);
        let prog = builder.finish();
        assert!(prog.lint_clean(), "IP/{hw}: kernel not clean");
        let built = machine(hw).run_program(prog).unwrap();

        assert_identical(&format!("IP/{hw}"), legacy, built);
    }
}

#[test]
fn masked_ip_builder_matches_legacy_event_loop() {
    let coo = matrix();
    let g = geometry();
    let layout = Layout::new(N, N, NNZ, g, 1);
    let partition = ip_partitions(&coo.row_counts(), g, Balancing::NnzBalanced);
    let vblocks = VBlocks::whole(N);
    let mut active = vec![false; N];
    for idx in sparse_frontier() {
        active[idx as usize] = true;
    }
    let params = ip::IpParams {
        layout: &layout,
        partition: &partition,
        vblocks: &vblocks,
        use_spm: false,
        active: Some(&active),
        profile: OpProfile::scalar(),
    };
    let ua = MicroArch::paper();
    let mut builder = ProgramBuilder::new();

    for hw in [HwConfig::Sc, HwConfig::Pc] {
        let legacy = event_loop(hw, |s| ip::build(&coo, g, params, s));
        builder.begin(g, hw, &ua);
        ip::build(&coo, g, params, &mut builder);
        let built = machine(hw).run_program(builder.finish()).unwrap();
        assert_identical(&format!("masked IP/{hw}"), legacy, built);
    }
}

#[test]
fn op_builder_matches_legacy_event_loop_on_all_hw() {
    let coo = matrix();
    let csc = CscMatrix::from(&coo);
    let g = geometry();
    let layout = Layout::new(N, N, NNZ, g, 1);
    let counts = {
        let mut c = vec![0usize; csc.rows()];
        for &r in csc.row_idx() {
            c[r as usize] += 1;
        }
        c
    };
    let tile_parts = op_tile_partitions(&counts, g, Balancing::NnzBalanced);
    let sub = op::subruns(&csc, &tile_parts);
    let frontier = sparse_frontier();
    let ua = MicroArch::paper();
    let mut builder = ProgramBuilder::new();

    for hw in HwConfig::ALL {
        let params = op::OpParams {
            layout: &layout,
            tile_parts: &tile_parts,
            frontier: &frontier,
            heap_in_spm: hw == HwConfig::Ps,
            spm_node_cap: 512,
            profile: OpProfile::scalar(),
        };

        let legacy = event_loop(hw, |s| op::build(&csc, g, params, &sub, s));

        builder.begin(g, hw, &ua);
        op::build(&csc, g, params, &sub, &mut builder);
        let prog = builder.finish();
        assert!(prog.lint_clean(), "OP/{hw}: kernel not clean");
        let built = machine(hw).run_program(prog).unwrap();

        assert_identical(&format!("OP/{hw}"), legacy, built);
    }
}

#[test]
fn conversion_builder_matches_legacy_event_loop() {
    let g = geometry();
    let layout = Layout::new(N, N, NNZ, g, 1);
    let ua = MicroArch::paper();
    let mut builder = ProgramBuilder::new();
    let active_nnz = sparse_frontier().len();

    for dir in [Direction::DenseToSparse, Direction::SparseToDense] {
        let legacy = event_loop(HwConfig::Sc, |s| {
            convert::build(&layout, g, N, active_nnz, dir, OpProfile::scalar(), s)
        });

        builder.begin(g, HwConfig::Sc, &ua);
        convert::build(
            &layout,
            g,
            N,
            active_nnz,
            dir,
            OpProfile::scalar(),
            &mut builder,
        );
        let prog = builder.finish();
        assert!(prog.lint_clean(), "convert/{dir:?}: kernel not clean");
        let built = machine(HwConfig::Sc).run_program(prog).unwrap();

        assert_identical(&format!("convert/{dir:?}"), legacy, built);
    }
}
