//! Differential properties of the single-pass [`ProgramBuilder`]: a
//! program emitted through the builder must be indistinguishable —
//! micro-op count, parallel-epoch eligibility, lint verdict, and
//! simulated execution — from one compiled out of materialized op
//! streams and linted after the fact (the legacy two-pass pipeline the
//! builder replaced).

use proptest::prelude::*;
use transmuter::verify::{self, ProgramSet, RegionMap};
use transmuter::{Geometry, HwConfig, Machine, MicroArch, Op, Program, ProgramBuilder};

/// Decodes one generated op. SPM offsets stay word-aligned and inside
/// the smallest capacity any SPM-bearing config offers, mirroring the
/// linter-equivalence generator in `verify_props.rs`.
fn decode_op(kind: usize, addr: u64, off: u32, n: u32) -> Op {
    match kind {
        0 => Op::Compute(n),
        1 => Op::Load(addr * 4),
        2 => Op::Store(addr * 4),
        3 => Op::SpmLoad(off * 4),
        4 => Op::SpmStore(off * 4),
        5 => Op::TileBarrier,
        _ => Op::GlobalBarrier,
    }
}

/// LCP SPM accesses are a host-side bug the memory system does not
/// model; both pipelines under test reject them statically, but keeping
/// them out of the domain lets the execution comparison run.
fn lcp_safe(op: Op) -> Op {
    match op {
        Op::SpmLoad(off) | Op::SpmStore(off) => Op::Load(off as u64),
        other => other,
    }
}

/// One encoded worker stream: a presence selector (0 = no stream) plus
/// raw `(kind, addr, spm_offset, cycles)` op tuples for `decode_op`.
type RawStream = (usize, Vec<(usize, u64, u32, u32)>);

fn arb_case() -> impl Strategy<Value = (usize, usize, usize, Vec<RawStream>)> {
    (1usize..3, 2usize..4, 0usize..4).prop_flat_map(|(tiles, pes, hw)| {
        let workers = tiles * pes + tiles;
        (
            Just(tiles),
            Just(pes),
            Just(hw),
            proptest::collection::vec(
                (
                    0usize..4, // 0 = no stream
                    proptest::collection::vec(
                        // Cycle counts include 0 to exercise the
                        // zero-cycle-compute warning on both paths.
                        (0usize..7, 0u64..0x4000, 0u32..1023, 0u32..4),
                        0..10,
                    ),
                ),
                workers,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder-emitted programs are bit-identical to legacy
    /// compile-then-lint programs: same length, same parallel verdict,
    /// same diagnostics, and the machine cannot tell them apart.
    #[test]
    fn builder_program_matches_legacy_compile(case in arb_case()) {
        let (tiles, pes, hw_idx, raw) = case;
        let geom = Geometry::new(tiles, pes);
        let hw = HwConfig::ALL[hw_idx];
        let ua = MicroArch::paper();

        // Decode into (worker, ops) streams, LCP-sanitized.
        let mut streams: Vec<(usize, Vec<Op>)> = Vec::new();
        for (w, (selector, ops)) in raw.iter().enumerate() {
            if *selector == 0 {
                continue;
            }
            let (_, pe) = geom.locate(w);
            let decoded: Vec<Op> = ops
                .iter()
                .map(|&(k, a, o, n)| {
                    let op = decode_op(k, a, o, n);
                    if pe.is_none() {
                        lcp_safe(op)
                    } else {
                        op
                    }
                })
                .collect();
            streams.push((w, decoded));
        }

        // Legacy two-pass pipeline: materialize op streams, compile a
        // Program from them, lint the stream set separately, attach.
        let mut legacy = Program::compile(
            geom,
            hw,
            &ua,
            streams.iter().map(|(w, v)| (*w, v.as_slice())),
        );
        let mut pset = ProgramSet::new(geom);
        for (w, ops) in &streams {
            let (tile, pe) = geom.locate(*w);
            match pe {
                Some(pe) => pset.set_pe(tile, pe, ops.iter().copied()),
                None => pset.set_lcp(tile, ops.iter().copied()),
            }
        }
        legacy.attach_lint(verify::lint(&pset, hw, &ua, None));

        // Single-pass builder pipeline over the same emission order.
        let mut b = ProgramBuilder::new();
        b.begin(geom, hw, &ua);
        for (w, ops) in &streams {
            let (tile, pe) = geom.locate(*w);
            match pe {
                Some(pe) => b.begin_pe(tile, pe),
                None => b.begin_lcp(tile),
            }
            for op in ops {
                match *op {
                    Op::Compute(n) => b.compute(n),
                    Op::Load(a) => b.load(a),
                    Op::Store(a) => b.store(a),
                    Op::SpmLoad(o) => b.spm_load(o),
                    Op::SpmStore(o) => b.spm_store(o),
                    Op::TileBarrier => b.tile_barrier(),
                    Op::GlobalBarrier => b.global_barrier(),
                }
            }
        }
        let built = b.finish();

        prop_assert_eq!(built.len(), legacy.len());
        prop_assert_eq!(built.parallel_ok(), legacy.parallel_ok());
        prop_assert_eq!(built.lint_clean(), legacy.lint_clean());
        prop_assert_eq!(built.lint_diagnostics(), legacy.lint_diagnostics());

        // The machine cannot tell them apart either: identical reports
        // on success, identical rejections on lint errors.
        let mut ma = Machine::new(geom, MicroArch::paper());
        ma.reconfigure(hw);
        let mut mb = Machine::new(geom, MicroArch::paper());
        mb.reconfigure(hw);
        let ra = ma.run_program(&legacy);
        let rb = mb.run_program(built);
        match (ra, rb) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.cycles, b.cycles);
                prop_assert_eq!(a.stats, b.stats);
            }
            (Err(ea), Err(eb)) => {
                prop_assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "divergent outcomes: legacy {:?} vs builder {:?}",
                    a.map(|r| r.cycles),
                    b.map(|r| r.cycles)
                )));
            }
        }
    }

    /// A checked build's verdict equals the batch lint with the same
    /// address map, [`verify::LintKind::UnmappedAddress`] findings
    /// included: word-granular, at the same worker and position. Regions
    /// start and end off word boundaries too, so a word straddling a
    /// region's end is unmapped on both paths.
    #[test]
    fn checked_builder_verdict_matches_lint_with_regions(
        case in arb_case(),
        raw_regions in proptest::collection::vec((0u64..0x1_0000, 0u64..0x4000), 0..4),
    ) {
        let (tiles, pes, hw_idx, raw) = case;
        let geom = Geometry::new(tiles, pes);
        let hw = HwConfig::ALL[hw_idx];
        let ua = MicroArch::paper();
        let mut regions = RegionMap::new();
        for &(start, bytes) in &raw_regions {
            regions.add("r", start, bytes);
        }

        let mut pset = ProgramSet::new(geom);
        let mut b = ProgramBuilder::new();
        b.begin(geom, hw, &ua);
        b.bind_regions(&regions);
        for (w, (selector, ops)) in raw.iter().enumerate() {
            if *selector == 0 {
                continue;
            }
            let (tile, pe) = geom.locate(w);
            let decoded: Vec<Op> = ops
                .iter()
                .map(|&(k, a, o, n)| {
                    let op = decode_op(k, a, o, n);
                    if pe.is_none() {
                        lcp_safe(op)
                    } else {
                        op
                    }
                })
                .collect();
            match pe {
                Some(pe) => b.begin_pe(tile, pe),
                None => b.begin_lcp(tile),
            }
            for op in &decoded {
                match *op {
                    Op::Compute(n) => b.compute(n),
                    Op::Load(a) => b.load(a),
                    Op::Store(a) => b.store(a),
                    Op::SpmLoad(o) => b.spm_load(o),
                    Op::SpmStore(o) => b.spm_store(o),
                    Op::TileBarrier => b.tile_barrier(),
                    Op::GlobalBarrier => b.global_barrier(),
                }
            }
            match pe {
                Some(pe) => pset.set_pe(tile, pe, decoded),
                None => pset.set_lcp(tile, decoded),
            }
        }
        let built = b.finish();
        let want = verify::lint(&pset, hw, &ua, Some(&regions));
        prop_assert_eq!(built.lint_diagnostics(), Some(&want[..]));
        prop_assert_eq!(built.lint_clean(), Some(verify::is_clean(&want)));
        prop_assert!(built.races().is_some());

        // The binding lasts one build: the next build is unchecked.
        b.begin(geom, hw, &ua);
        prop_assert_eq!(b.finish().races(), None);
    }
}
