//! Differential properties of the single-pass [`ProgramBuilder`]
//! against the op-stream reference: a program emitted through the
//! builder must be indistinguishable — lint verdict and simulated
//! execution — from the same op streams in a [`ProgramSet`], linted by
//! [`verify::lint`] and run by [`Machine::run_verified`]. The fold
//! oracle then checks that folding compute bursts into the micro-op
//! before them changes neither a run nor a reported position.

use proptest::prelude::*;
use transmuter::verify::{self, Diagnostic, LintKind, ProgramSet, RegionMap};
use transmuter::{
    analyze, Analysis, Geometry, HwConfig, Machine, MicroArch, Op, Program, ProgramBuilder,
    SimError, SimReport,
};

/// Emits `(worker, ops)` streams, in order, through one build; a
/// checked build when `regions` is given.
fn build(
    geom: Geometry,
    hw: HwConfig,
    streams: &[(usize, Vec<Op>)],
    regions: Option<&RegionMap>,
) -> Program {
    let mut b = ProgramBuilder::new();
    b.begin(geom, hw, &MicroArch::paper());
    if let Some(regions) = regions {
        b.bind_regions(regions);
    }
    for (w, ops) in streams {
        match geom.locate(*w) {
            (tile, Some(pe)) => b.begin_pe(tile, pe),
            (tile, None) => b.begin_lcp(tile),
        }
        for &op in ops {
            emit(&mut b, op);
        }
    }
    b.finish().clone()
}

/// The same streams in a [`ProgramSet`], for the reference.
fn program_set(geom: Geometry, streams: &[(usize, Vec<Op>)]) -> ProgramSet {
    let mut pset = ProgramSet::new(geom);
    for (w, ops) in streams {
        match geom.locate(*w) {
            (tile, Some(pe)) => pset.set_pe(tile, pe, ops.iter().copied()),
            (tile, None) => pset.set_lcp(tile, ops.iter().copied()),
        }
    }
    pset
}

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

/// Emits one op through the builder's verb for it.
fn emit(b: &mut ProgramBuilder, op: Op) {
    match op {
        Op::Compute(n) => b.compute(n),
        Op::Load(a) => b.load(a),
        Op::Store(a) => b.store(a),
        Op::SpmLoad(o) => b.spm_load(o),
        Op::SpmStore(o) => b.spm_store(o),
        Op::TileBarrier => b.tile_barrier(),
        Op::GlobalBarrier => b.global_barrier(),
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

    /// A builder-emitted program carries exactly the verdict the batch
    /// lint gives its op streams, and the machine cannot tell it from
    /// those streams under `run_verified`: the same report when they
    /// lint clean, the same rejection when they do not.
    #[test]
    fn builder_program_matches_lint_and_run_verified(case in arb_case()) {
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

        let pset = program_set(geom, &streams);
        let want = verify::lint(&pset, hw, &ua, None);
        let built = build(geom, hw, &streams, None);
        let source_ops: usize = streams.iter().map(|(_, v)| v.len()).sum();
        prop_assert!(built.len() <= source_ops);
        prop_assert_eq!(built.lint_diagnostics(), &want[..]);
        prop_assert_eq!(built.lint_clean(), verify::is_clean(&want));

        let reference = machine(geom, hw).run_verified(&pset, None);
        let got = machine(geom, hw).run_program(&built);
        prop_assert_eq!(outcome(&got), outcome(&reference));
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
                emit(&mut b, *op);
            }
            match pe {
                Some(pe) => pset.set_pe(tile, pe, decoded),
                None => pset.set_lcp(tile, decoded),
            }
        }
        let built = b.finish();
        let want = verify::lint(&pset, hw, &ua, Some(&regions));
        prop_assert_eq!(built.lint_diagnostics(), &want[..]);
        prop_assert_eq!(built.lint_clean(), verify::is_clean(&want));
        prop_assert!(built.races().is_some());

        // The binding lasts one build: the next build is unchecked.
        b.begin(geom, hw, &ua);
        prop_assert_eq!(b.finish().races(), None);
    }

    /// The fold oracle: built programs, whose compute bursts ride on
    /// the micro-op before them, answer exactly like
    /// [`Machine::run_verified`] over the unfolded op streams — same
    /// cycles, every stats field, energy, and the same rejection of
    /// poisoned or deadlocking streams. Lint and analysis positions
    /// stay op-stream positions, on the checked build's incremental
    /// analysis and on the post-hoc one alike.
    #[test]
    fn folded_programs_run_like_their_op_streams(case in arb_fold_case()) {
        let (geom, hw, streams) = fold_streams(&case);
        let ua = MicroArch::paper();

        // A checked build, so the analyzer runs; the map covers every
        // generated address.
        let mut regions = RegionMap::new();
        regions.add("all", 0, 1 << 20);
        let pset = program_set(geom, &streams);
        let built = build(geom, hw, &streams, Some(&regions));
        let source_ops: usize = streams.iter().map(|(_, v)| v.len()).sum();
        prop_assert!(built.len() <= source_ops);

        let verified = machine(geom, hw).run_verified(&pset, Some(&regions));
        let got = machine(geom, hw).run_program(&built);
        prop_assert_eq!(outcome(&got), outcome(&verified));

        // Lint positions: the batch lint reads the op streams.
        let want = verify::lint(&pset, hw, &ua, Some(&regions));
        prop_assert_eq!(built.lint_diagnostics(), &want[..]);

        // Analysis positions: the streams with their compute bursts
        // stripped hold no foldable op and make the same accesses, so
        // the analysis of their unchecked build, re-indexed to the full
        // streams, is the unfolded oracle.
        let mut index: Vec<Vec<usize>> = vec![Vec::new(); geom.total_workers()];
        let mut stripped = Vec::new();
        for (w, ops) in &streams {
            index[*w] = (0..ops.len())
                .filter(|&i| !matches!(ops[i], Op::Compute(_)))
                .collect();
            stripped.push((*w, index[*w].iter().map(|&i| ops[i]).collect::<Vec<Op>>()));
        }
        let unfolded = build(geom, hw, &stripped, None);
        prop_assert!(unfolded.analysis().is_none());
        let oracle = reindexed(&analyze(&unfolded), &index);
        prop_assert_eq!(&summary(built.analysis().expect("checked builds analyze")), &oracle);
        prop_assert_eq!(&summary(&analyze(&built)), &oracle);
    }
}

fn machine(geom: Geometry, hw: HwConfig) -> Machine {
    let mut m = Machine::new(geom, MicroArch::paper());
    m.reconfigure(hw);
    m
}

/// A run's outcome in comparable form: the whole report (cycles, every
/// stats field, energy) or the error.
fn outcome(r: &Result<SimReport, SimError>) -> Result<SimReport, String> {
    r.clone().map_err(|e| format!("{e:?}"))
}

/// Cycle counts a fold case draws from: zero-cycle bursts (clamped to
/// one, with a lint warning), small ones, and `u32::MAX`, whose sums
/// overflow a carrier's `u32` budget.
const FOLD_CYCLES: [u32; 4] = [0, 1, 3, u32::MAX];

/// Burst-run lengths: runs past 255 overflow a carrier's fold count.
const FOLD_RUNS: [usize; 4] = [1, 2, 5, 300];

/// One fold-case worker stream: a presence selector (0 = no stream)
/// plus raw `(kind, word, spm_word, cycles, run, slot)` elements; kinds
/// 7 and 8 are runs of `FOLD_RUNS[run]` bursts of `FOLD_CYCLES[cycles]`.
type FoldStream = (usize, Vec<(usize, u64, u32, usize, usize, usize)>);

/// One fold case: geometry, config, a barrier skeleton (global
/// barriers, tile barriers per segment), a mode selector (0 = free
/// barriers) and the worker streams.
type FoldCase = (usize, usize, usize, (usize, usize, usize), Vec<FoldStream>);

/// Stream sets dense in the shapes the fold rule distinguishes: bursts
/// at the head of a stream and after tile and global barriers, zero-
/// cycle bursts, runs of 300, `u32` overflow and LCP streams. Most
/// cases share one barrier skeleton across workers, as the kernels do,
/// so they run to completion; the rest place barriers freely and keep
/// SPM ops where the config has none, so they deadlock or hit poisoned
/// ops (SPM without SPM, LCP tile barriers). Few distinct words, so the
/// analysis reports dead stores and hazards with positions.
fn arb_fold_case() -> impl Strategy<Value = FoldCase> {
    (
        1usize..3,
        2usize..4,
        0usize..4,
        (0usize..3, 0usize..3, 0usize..4),
    )
        .prop_flat_map(|(tiles, pes, hw, skeleton)| {
            let workers = tiles * pes + tiles;
            (
                Just(tiles),
                Just(pes),
                Just(hw),
                Just(skeleton),
                proptest::collection::vec(
                    (
                        0usize..3, // 0 = no stream
                        proptest::collection::vec(
                            (
                                0usize..9,
                                0u64..24,
                                0u32..64,
                                0usize..4,
                                0usize..4,
                                0usize..9,
                            ),
                            0..10,
                        ),
                    ),
                    workers,
                ),
            )
        })
}

/// Decodes a fold case into `(worker, ops)` streams and its config.
fn fold_streams(case: &FoldCase) -> (Geometry, HwConfig, Vec<(usize, Vec<Op>)>) {
    let (tiles, pes, hw_idx, (globals, tile_bars, mode), raw) = case;
    let geom = Geometry::new(*tiles, *pes);
    let hw = HwConfig::ALL[*hw_idx];
    let has_spm = matches!(hw, HwConfig::Scs | HwConfig::Ps);
    let free = *mode == 0;
    let mut streams = Vec::new();
    for (w, (selector, elems)) in raw.iter().enumerate() {
        if *selector == 0 {
            continue;
        }
        let pe = geom.locate(w).1;
        let sub_slots = if pe.is_some() { tile_bars + 1 } else { 1 };
        let slots = if free { 1 } else { (globals + 1) * sub_slots };
        let mut slotted: Vec<(usize, Vec<Op>)> = elems
            .iter()
            .map(|&(k, word, spm, c, run, slot)| {
                let n = FOLD_CYCLES[c];
                // In skeleton mode barriers come from the skeleton and
                // SPM ops stay only where they can run.
                let keep = free || (k < 5 && has_spm && pe.is_some());
                let ops = match k {
                    7 | 8 => vec![Op::Compute(n); FOLD_RUNS[run]],
                    3..=6 if !keep => vec![Op::Store(word * 4)],
                    _ if pe.is_none() => vec![lcp_safe(decode_op(k, word, spm, n))],
                    _ => vec![decode_op(k, word, spm, n)],
                };
                (slot % slots, ops)
            })
            .collect();
        slotted.sort_by_key(|(slot, _)| *slot);
        let mut ops = Vec::new();
        let mut next = slotted.into_iter().peekable();
        for slot in 0..slots {
            if slot > 0 {
                ops.push(if slot % sub_slots == 0 {
                    Op::GlobalBarrier
                } else {
                    Op::TileBarrier
                });
            }
            while let Some((_, elem)) = next.next_if(|(s, _)| *s == slot) {
                ops.extend(elem);
            }
        }
        streams.push((w, ops));
    }
    (geom, hw, streams)
}

/// An [`Analysis`] with every position mapped through `index`
/// (per worker: stripped-stream position → full-stream position).
#[derive(Debug, PartialEq)]
struct AnalysisSummary {
    congruent: bool,
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
}

fn summary(a: &Analysis) -> AnalysisSummary {
    AnalysisSummary {
        congruent: a.congruent(),
        diagnostics: a.diagnostics().to_vec(),
        suppressed: a.suppressed(),
    }
}

fn reindexed(a: &Analysis, index: &[Vec<usize>]) -> AnalysisSummary {
    let mut s = summary(a);
    for d in &mut s.diagnostics {
        if let Some(p) = d.position.as_mut() {
            *p = index[d.worker][*p];
        }
        if let LintKind::CrossEpochWriteHazard { first, second, .. } = &mut d.kind {
            first.2 = index[first.0][first.2];
            second.2 = index[second.0][second.2];
        }
    }
    s
}

#[test]
fn fold_cases_cover_every_shape() {
    // The oracle above only means something if its generator reaches
    // every fold boundary; count how often each shape shows up.
    let mut rng = proptest::test_runner::TestRng::deterministic("fold_cases_cover_every_shape");
    let strategy = arb_fold_case();
    let mut seen = [0usize; 8];
    for _ in 0..64 {
        let (geom, _, streams) = fold_streams(&strategy.generate(&mut rng));
        for (w, ops) in streams {
            let burst = |op: &Op| matches!(op, Op::Compute(_));
            seen[0] += ops.first().is_some_and(burst) as usize;
            for pair in ops.windows(2) {
                seen[1] += (pair[0] == Op::TileBarrier && burst(&pair[1])) as usize;
                seen[2] += (pair[0] == Op::GlobalBarrier && burst(&pair[1])) as usize;
            }
            seen[3] += ops.contains(&Op::Compute(0)) as usize;
            let mut run = 0usize;
            let mut longest = 0usize;
            let mut max_bursts = 0usize;
            for op in &ops {
                run = if burst(op) { run + 1 } else { 0 };
                longest = longest.max(run);
                max_bursts += (*op == Op::Compute(u32::MAX)) as usize;
            }
            seen[4] += (longest >= 256) as usize;
            seen[5] += ops
                .windows(2)
                .any(|p| p[0] == Op::Compute(u32::MAX) && p[1] == Op::Compute(u32::MAX))
                as usize;
            seen[6] += (geom.locate(w).1.is_none() && ops.iter().any(burst)) as usize;
            seen[7] += max_bursts.min(1);
        }
    }
    let names = [
        "leading burst",
        "burst after a tile barrier",
        "burst after a global barrier",
        "zero-cycle burst",
        "256+ consecutive bursts",
        "u32 sum overflow",
        "LCP stream with bursts",
        "u32::MAX burst",
    ];
    for (name, n) in names.iter().zip(seen) {
        assert!(n >= 4, "{name}: only {n} streams in 64 cases");
    }
}
