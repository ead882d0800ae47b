//! Property and unit tests of the verification layer: the linter must
//! accept exactly the program sets the machine runs to completion, and
//! the race detector must respect barrier-epoch happens-before.

use proptest::prelude::*;
use transmuter::verify::{
    self, LintKind, ProgramSet, Race, RaceKind, RaceSite, RegionMap, Severity,
};
use transmuter::{
    Geometry, HwConfig, Machine, MicroArch, Op, Program, ProgramBuilder, SimError, StreamBuilder,
};

fn machine_with(geom: Geometry, hw: HwConfig) -> Machine {
    let mut m = Machine::new(geom, MicroArch::paper());
    m.reconfigure(hw);
    m
}

/// Emits `programs` into a checked [`ProgramBuilder`] build against
/// `regions`, worker by worker in id order.
fn checked_build<'b>(
    b: &'b mut ProgramBuilder,
    programs: &ProgramSet,
    hw: HwConfig,
    regions: &RegionMap,
) -> &'b Program {
    let geom = programs.geometry();
    b.begin(geom, hw, &MicroArch::paper());
    b.bind_regions(regions);
    for w in 0..geom.total_workers() {
        let Some(ops) = programs.worker(w) else {
            continue;
        };
        match geom.locate(w) {
            (tile, Some(pe)) => b.begin_pe(tile, pe),
            (tile, None) => b.begin_lcp(tile),
        }
        for &op in ops {
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
    }
    b.finish()
}

/// A map covering every address the generators below produce.
fn everything() -> RegionMap {
    let mut map = RegionMap::new();
    map.add("all", 0, 1 << 40);
    map
}

// ---------------------------------------------------------------------
// Seeded-fault unit tests (acceptance criteria).
// ---------------------------------------------------------------------

#[test]
fn linter_catches_tile_barrier_mismatch() {
    let geom = Geometry::new(1, 2);
    let mut p = ProgramSet::new(geom);
    let mut a = StreamBuilder::new();
    a.compute(1).tile_barrier().compute(1);
    let mut b = StreamBuilder::new();
    b.compute(1); // seeded fault: no barrier
    p.set_pe(0, 0, a);
    p.set_pe(0, 1, b);
    let diags = verify::lint(&p, HwConfig::Sc, &MicroArch::paper(), None);
    assert!(!verify::is_clean(&diags));
    assert!(
        diags
            .iter()
            .any(|d| matches!(d.kind, LintKind::BarrierMismatch { tile: 0, .. })),
        "expected a barrier mismatch, got {diags:?}"
    );
    // ... and the machine agrees.
    let err = machine_with(geom, HwConfig::Sc)
        .run_verified(&p, None)
        .unwrap_err();
    assert!(matches!(err, SimError::Rejected { .. }));
}

#[test]
fn linter_catches_spm_offset_past_capacity() {
    let geom = Geometry::new(1, 2);
    let ua = MicroArch::paper();
    let cap = ua.spm_bytes_per_pe(HwConfig::Ps.l1());
    let mut p = ProgramSet::new(geom);
    let mut a = StreamBuilder::new();
    a.spm_store(cap as u32); // seeded fault: one word past the end
    p.set_pe(0, 0, a);
    let diags = verify::lint(&p, HwConfig::Ps, &ua, None);
    assert!(diags.iter().any(|d| matches!(
        d.kind,
        LintKind::SpmOffsetOutOfRange { offset, capacity } if offset as usize == cap && capacity == cap
    )));
    // The last in-bounds word is fine.
    let mut p = ProgramSet::new(geom);
    let mut a = StreamBuilder::new();
    a.spm_store(cap as u32 - 4);
    p.set_pe(0, 0, a);
    assert!(verify::is_clean(&verify::lint(&p, HwConfig::Ps, &ua, None)));
}

#[test]
fn linter_catches_spm_under_cache_only_configs() {
    let geom = Geometry::new(1, 2);
    for hw in [HwConfig::Sc, HwConfig::Pc] {
        let mut p = ProgramSet::new(geom);
        let mut a = StreamBuilder::new();
        a.spm_load(0);
        p.set_pe(0, 0, a);
        let diags = verify::lint(&p, hw, &MicroArch::paper(), None);
        assert!(
            diags
                .iter()
                .any(|d| matches!(d.kind, LintKind::SpmUnavailable { config } if config == hw)),
            "{hw}: expected SpmUnavailable, got {diags:?}"
        );
    }
}

#[test]
fn linter_catches_lcp_tile_barrier_and_unmapped_address() {
    let geom = Geometry::new(1, 1);
    let mut p = ProgramSet::new(geom);
    let mut lcp = StreamBuilder::new();
    lcp.tile_barrier();
    p.set_lcp(0, lcp);
    let mut pe = StreamBuilder::new();
    pe.load(0x9999_0000);
    p.set_pe(0, 0, pe);
    let mut map = RegionMap::new();
    map.add("x", 0x1_0000, 0x1000);
    let diags = verify::lint(&p, HwConfig::Sc, &MicroArch::paper(), Some(&map));
    assert!(diags.iter().any(|d| d.kind == LintKind::LcpTileBarrier));
    assert!(diags
        .iter()
        .any(|d| matches!(d.kind, LintKind::UnmappedAddress { addr: 0x9999_0000 })));
    // Mapped accesses are accepted.
    let mut p = ProgramSet::new(geom);
    let mut pe = StreamBuilder::new();
    pe.load(0x1_0000).store(0x1_0ffc);
    p.set_pe(0, 0, pe);
    assert!(verify::is_clean(&verify::lint(
        &p,
        HwConfig::Sc,
        &MicroArch::paper(),
        Some(&map)
    )));
}

#[test]
fn linter_warns_on_zero_cycle_compute() {
    let geom = Geometry::new(1, 1);
    let mut p = ProgramSet::new(geom);
    p.set_pe(0, 0, [Op::Compute(0)]);
    let diags = verify::lint(&p, HwConfig::Sc, &MicroArch::paper(), None);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].kind, LintKind::ZeroCycleCompute);
    // Warnings do not reject the run.
    assert!(verify::is_clean(&diags));
    assert!(machine_with(geom, HwConfig::Sc)
        .run_verified(&p, None)
        .is_ok());
}

#[test]
fn race_detector_flags_seeded_same_epoch_store_store() {
    // Two PEs in different tiles store the same word with no barrier.
    let geom = Geometry::new(2, 1);
    let mut p = ProgramSet::new(geom);
    let mut a = StreamBuilder::new();
    a.store(0x2000);
    let mut b = StreamBuilder::new();
    b.compute(5).store(0x2000);
    p.set_pe(0, 0, a);
    p.set_pe(1, 0, b);
    let races = verify::detect_races(&p, HwConfig::Sc, &MicroArch::paper());
    assert_eq!(races.len(), 1, "expected exactly one race, got {races:?}");
    assert_eq!(races[0].kind, RaceKind::StoreStore);
    assert_eq!(races[0].epoch, 0);
}

#[test]
fn race_detector_accepts_global_barrier_separation() {
    // Same conflicting stores, but an interposed global barrier orders
    // them: no race.
    let geom = Geometry::new(2, 1);
    let mut p = ProgramSet::new(geom);
    let mut a = StreamBuilder::new();
    a.store(0x2000).global_barrier();
    let mut b = StreamBuilder::new();
    b.global_barrier().store(0x2000);
    p.set_pe(0, 0, a);
    p.set_pe(1, 0, b);
    let races = verify::detect_races(&p, HwConfig::Sc, &MicroArch::paper());
    assert!(
        races.is_empty(),
        "barrier-separated stores must not race: {races:?}"
    );
}

#[test]
fn race_detector_accepts_tile_barrier_separation_within_tile() {
    let geom = Geometry::new(1, 2);
    let mut p = ProgramSet::new(geom);
    let mut a = StreamBuilder::new();
    a.store(0x3000).tile_barrier();
    let mut b = StreamBuilder::new();
    b.tile_barrier().store(0x3000);
    p.set_pe(0, 0, a);
    p.set_pe(0, 1, b);
    let races = verify::detect_races(&p, HwConfig::Sc, &MicroArch::paper());
    assert!(
        races.is_empty(),
        "tile-barrier-separated stores must not race: {races:?}"
    );

    // But a tile barrier does NOT order PEs of different tiles.
    let geom = Geometry::new(2, 2);
    let mut p = ProgramSet::new(geom);
    let mut a = StreamBuilder::new();
    a.store(0x3000).tile_barrier();
    let mut a2 = StreamBuilder::new();
    a2.tile_barrier();
    let mut b = StreamBuilder::new();
    b.tile_barrier().store(0x3000);
    let mut b2 = StreamBuilder::new();
    b2.tile_barrier();
    p.set_pe(0, 0, a);
    p.set_pe(0, 1, a2);
    p.set_pe(1, 0, b);
    p.set_pe(1, 1, b2);
    let races = verify::detect_races(&p, HwConfig::Sc, &MicroArch::paper());
    assert_eq!(
        races.len(),
        1,
        "cross-tile stores stay unordered: {races:?}"
    );
}

#[test]
fn race_detector_reports_load_store_conflicts() {
    let geom = Geometry::new(2, 1);
    let mut p = ProgramSet::new(geom);
    let mut a = StreamBuilder::new();
    a.load(0x2000);
    let mut b = StreamBuilder::new();
    b.store(0x2000);
    p.set_pe(0, 0, a);
    p.set_pe(1, 0, b);
    let races = verify::detect_races(&p, HwConfig::Sc, &MicroArch::paper());
    assert_eq!(races.len(), 1);
    assert_eq!(races[0].kind, RaceKind::LoadStore);
}

#[test]
fn private_spm_never_races() {
    // Both PEs hammer SPM offset 0 — but in PS each has its own bank.
    let geom = Geometry::new(1, 2);
    let mut p = ProgramSet::new(geom);
    for pe in 0..2 {
        let mut q = StreamBuilder::new();
        q.spm_store(0).spm_load(0);
        p.set_pe(0, pe, q);
    }
    let races = verify::detect_races(&p, HwConfig::Ps, &MicroArch::paper());
    assert!(races.is_empty(), "{races:?}");
}

#[test]
fn shared_spm_store_store_races() {
    // In SCS the tile's SPM is shared: same offset from two PEs is a
    // real conflict.
    let geom = Geometry::new(1, 2);
    let mut p = ProgramSet::new(geom);
    for pe in 0..2 {
        let mut q = StreamBuilder::new();
        q.spm_store(64);
        p.set_pe(0, pe, q);
    }
    let races = verify::detect_races(&p, HwConfig::Scs, &MicroArch::paper());
    assert_eq!(races.len(), 1, "{races:?}");
    assert!(matches!(
        races[0].site,
        verify::RaceSite::SharedSpm {
            tile: 0,
            offset: 64
        }
    ));
}

#[test]
fn checked_build_rejects_a_store_outside_every_region() {
    let geom = Geometry::new(1, 2);
    let mut p = ProgramSet::new(geom);
    p.set_pe(0, 0, [Op::Load(0x1_0000), Op::Store(0x9999_0000)]);
    let mut map = RegionMap::new();
    map.add("x", 0x1_0000, 0x1000);
    let mut b = ProgramBuilder::new();
    let prog = checked_build(&mut b, &p, HwConfig::Sc, &map);
    assert!(!prog.lint_clean());
    let err = machine_with(geom, HwConfig::Sc)
        .run_program(prog)
        .unwrap_err();
    let SimError::Rejected { diagnostics } = err else {
        panic!("expected a static rejection, got {err}");
    };
    assert_eq!(
        diagnostics
            .iter()
            .map(|d| (&d.kind, d.worker, d.position))
            .collect::<Vec<_>>(),
        [(&LintKind::UnmappedAddress { addr: 0x9999_0000 }, 0, Some(1))]
    );
    // The same emission unchecked knows no map and runs.
    b.begin(geom, HwConfig::Sc, &MicroArch::paper());
    b.begin_pe(0, 0);
    b.load(0x1_0000);
    b.store(0x9999_0000);
    let prog = b.finish();
    assert_eq!(prog.races(), None, "unchecked builds carry no races");
    assert!(machine_with(geom, HwConfig::Sc).run_program(prog).is_ok());
}

#[test]
fn checked_build_reports_global_and_shared_spm_races() {
    // Tile 0's two PEs store one shared-SPM word with no tile barrier
    // between them; PE 0 and tile 1's PE store one global word with no
    // global barrier between them.
    let geom = Geometry::new(2, 2);
    let mut p = ProgramSet::new(geom);
    p.set_pe(0, 0, [Op::SpmStore(64), Op::Store(0x2000)]);
    p.set_pe(0, 1, [Op::Compute(3), Op::SpmStore(66)]);
    p.set_pe(1, 0, [Op::Load(0x2002)]);
    p.set_pe(1, 1, []);
    let mut b = ProgramBuilder::new();
    let prog = checked_build(&mut b, &p, HwConfig::Scs, &everything());
    assert!(prog.lint_clean());
    let races = prog.races().expect("checked builds attach races");
    assert_eq!(
        races,
        [
            Race {
                kind: RaceKind::LoadStore,
                site: RaceSite::Global(0x2000),
                workers: (0, 2),
                epoch: 0,
            },
            Race {
                kind: RaceKind::StoreStore,
                site: RaceSite::SharedSpm {
                    tile: 0,
                    offset: 64
                },
                workers: (0, 1),
                epoch: 0,
            },
        ]
    );
    // The stream detector finds exactly the same races.
    assert_eq!(
        verify::detect_races(&p, HwConfig::Scs, &MicroArch::paper()),
        races
    );
}

#[test]
fn scs_on_single_pe_tiles_is_rejected_statically() {
    let geom = Geometry::new(2, 1);
    let mut p = ProgramSet::new(geom);
    p.set_pe(0, 0, [Op::Compute(1)]);
    let diags = verify::lint(&p, HwConfig::Scs, &MicroArch::paper(), None);
    assert!(diags.iter().any(|d| matches!(
        d.kind,
        LintKind::UnsupportedConfig {
            config: HwConfig::Scs
        }
    )));
}

#[test]
fn program_set_appends_and_reruns() {
    let geom = Geometry::new(1, 2);
    let mut p = ProgramSet::new(geom);
    p.set_pe(0, 0, [Op::Compute(3)]);
    p.push(Op::Load(0x40));
    assert_eq!(p.worker(0), Some(&[Op::Compute(3), Op::Load(0x40)][..]));
    assert_eq!(p.worker(1), None);
    // The run borrows the buffers, so the set runs again unchanged.
    let r1 = machine_with(geom, HwConfig::Sc).run(&p).unwrap();
    let r2 = machine_with(geom, HwConfig::Sc).run(&p).unwrap();
    assert_eq!(r1, r2);
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

/// Decodes one generated op. SPM offsets stay word-aligned and inside
/// the smallest capacity any SPM-bearing config offers (4 kB), because
/// the simulator deliberately tolerates wrapped offsets that the linter
/// rejects — the equivalence below is over the simulator's contract.
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

/// LCPs have no SPM port, so an LCP SPM op only makes a case lint
/// unclean; the race proptest on `arb_machine_case` downgrades them to
/// plain loads to keep more of its cases in the domain it checks.
fn lcp_safe(op: Op) -> Op {
    match op {
        Op::SpmLoad(off) | Op::SpmStore(off) => Op::Load(off as u64),
        other => other,
    }
}

/// One encoded worker stream: a presence selector (0 = no stream) plus
/// raw `(kind, addr, spm_offset, cycles)` op tuples for `decode_op`.
type RawStream = (usize, Vec<(usize, u64, u32, u32)>);

fn arb_machine_case() -> impl Strategy<Value = (usize, usize, usize, Vec<RawStream>)> {
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
                        (0usize..7, 0u64..0x4000, 0u32..1023, 1u32..4),
                        0..10,
                    ),
                ),
                workers,
            ),
        )
    })
}

/// One congruent case: geometry, config, and per worker a presence
/// selector plus raw `(kind, word, spm_word, cycles, slot)` op tuples.
type CongruentCase = (usize, usize, usize, usize, usize, Vec<RawSlotted>);
type RawSlotted = (usize, Vec<(usize, u64, u32, u32, usize)>);

/// Lint-clean stream sets by construction, dense in races: every
/// stream-bearing worker shares one barrier skeleton (`globals` global
/// barriers, `tile_bars` tile barriers per segment on PEs), and the ops
/// between barriers touch a handful of words, so conflicts are common
/// and barriers decide which of them race.
fn arb_congruent_case() -> impl Strategy<Value = CongruentCase> {
    (1usize..3, 2usize..4, 0usize..4, 0usize..3, 0usize..3).prop_flat_map(
        |(tiles, pes, hw, globals, tile_bars)| {
            let workers = tiles * pes + tiles;
            (
                Just(tiles),
                Just(pes),
                Just(hw),
                Just(globals),
                Just(tile_bars),
                proptest::collection::vec(
                    (
                        0usize..4, // 0 = no stream
                        proptest::collection::vec(
                            (0usize..5, 0u64..6, 0u32..4, 1u32..4, 0usize..9),
                            0..12,
                        ),
                    ),
                    workers,
                ),
            )
        },
    )
}

/// Decodes a [`CongruentCase`] into streams that share its barrier
/// skeleton. SPM ops appear only on PEs of SPM-bearing configs.
fn congruent_programs(case: &CongruentCase) -> (ProgramSet, HwConfig) {
    let (tiles, pes, hw_idx, globals, tile_bars, raw) = case;
    let geom = Geometry::new(*tiles, *pes);
    let hw = HwConfig::ALL[*hw_idx];
    let has_spm = matches!(hw, HwConfig::Scs | HwConfig::Ps);
    let mut programs = ProgramSet::new(geom);
    for (w, (selector, ops)) in raw.iter().enumerate() {
        if *selector == 0 {
            continue;
        }
        let (tile, pe) = geom.locate(w);
        let sub_slots = if pe.is_some() { tile_bars + 1 } else { 1 };
        let slots = (globals + 1) * sub_slots;
        let mut slotted: Vec<(usize, Op)> = ops
            .iter()
            .map(|&(k, word, spm, n, slot)| {
                let op = match k {
                    0 => Op::Compute(n),
                    1 => Op::Load(word * 4),
                    2 => Op::Store(word * 4),
                    3 if has_spm && pe.is_some() => Op::SpmLoad(spm * 4),
                    4 if has_spm && pe.is_some() => Op::SpmStore(spm * 4),
                    _ => Op::Store(word * 4),
                };
                (slot % slots, op)
            })
            .collect();
        slotted.sort_by_key(|&(slot, _)| slot);
        let mut stream = Vec::new();
        let mut next = slotted.into_iter().peekable();
        for slot in 0..slots {
            if slot > 0 {
                stream.push(if slot % sub_slots == 0 {
                    Op::GlobalBarrier
                } else {
                    Op::TileBarrier
                });
            }
            while let Some((_, op)) = next.next_if(|&(s, _)| s == slot) {
                stream.push(op);
            }
        }
        match pe {
            Some(pe) => programs.set_pe(tile, pe, stream),
            None => programs.set_lcp(tile, stream),
        }
    }
    (programs, hw)
}

/// Checks that a checked build of `programs` races exactly as the
/// stream detector finds; `programs` must lint clean.
fn assert_static_races_match_streams(programs: &ProgramSet, hw: HwConfig) -> usize {
    let mut b = ProgramBuilder::new();
    let prog = checked_build(&mut b, programs, hw, &everything());
    assert!(prog.lint_clean());
    let races = verify::detect_races(programs, hw, &MicroArch::paper());
    assert_eq!(prog.races(), Some(&races[..]), "{hw}");
    races.len()
}

/// Lint ⟺ run: the linter accepts `programs` iff the machine runs them
/// to completion, and `run_verified` agrees with both.
fn assert_lint_accepts_iff_run_completes(
    programs: &ProgramSet,
    hw: HwConfig,
) -> Result<(), TestCaseError> {
    let geom = programs.geometry();
    let diags = verify::lint(programs, hw, &MicroArch::paper(), None);
    let accepted = verify::is_clean(&diags);

    let mut m = machine_with(geom, hw);
    let run = m.run(programs);
    prop_assert_eq!(
        accepted,
        run.is_ok(),
        "lint accepted={} but run={:?} (diags: {:?})",
        accepted,
        run.as_ref().map(|r| r.cycles).map_err(|e| e.to_string()),
        &diags
    );

    let mut m = machine_with(geom, hw);
    let verified = m.run_verified(programs, None);
    prop_assert_eq!(accepted, verified.is_ok());
    if !accepted {
        prop_assert!(matches!(verified, Err(SimError::Rejected { .. })));
    }
    Ok(())
}

#[test]
fn congruent_cases_race_often() {
    // The generator must exercise the race finder, not just the empty
    // report: most cases it draws should race somewhere.
    let mut rng = proptest::test_runner::TestRng::deterministic("congruent_cases_race_often");
    let strategy = arb_congruent_case();
    let racy = (0..64)
        .filter(|_| {
            let case = strategy.generate(&mut rng);
            let (programs, hw) = congruent_programs(&case);
            assert_static_races_match_streams(&programs, hw) > 0
        })
        .count();
    assert!(racy >= 16, "only {racy} of 64 cases race");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The linter accepts a stream set iff the machine runs it to
    /// completion (over the domain where the simulator's error reporting
    /// is well-defined; see `decode_op`). Random streams mostly exercise
    /// the reject side; congruent ones, which lint clean by
    /// construction, the accept side.
    #[test]
    fn lint_accepts_iff_run_completes(
        case in arb_machine_case(),
        congruent in arb_congruent_case(),
    ) {
        let (tiles, pes, hw_idx, raw) = case;
        let geom = Geometry::new(tiles, pes);
        let hw = HwConfig::ALL[hw_idx];

        let mut programs = ProgramSet::new(geom);
        for (w, (selector, ops)) in raw.iter().enumerate() {
            if *selector == 0 {
                continue;
            }
            let (tile, pe) = geom.locate(w);
            let decoded: Vec<Op> =
                ops.iter().map(|&(k, a, o, n)| decode_op(k, a, o, n)).collect();
            match pe {
                Some(pe) => programs.set_pe(tile, pe, decoded),
                None => programs.set_lcp(tile, decoded),
            }
        }
        assert_lint_accepts_iff_run_completes(&programs, hw)?;

        let (programs, hw) = congruent_programs(&congruent);
        assert_lint_accepts_iff_run_completes(&programs, hw)?;
    }

    /// A checked build's static races equal the stream detector's on
    /// the same streams, on every case the linter accepts: the race
    /// relation is a program-order fact, whatever the schedule.
    #[test]
    fn checked_build_races_match_stream_races(case in arb_machine_case()) {
        let (tiles, pes, hw_idx, raw) = case;
        let geom = Geometry::new(tiles, pes);
        let hw = HwConfig::ALL[hw_idx];
        let ua = MicroArch::paper();

        let mut programs = ProgramSet::new(geom);
        for (w, (selector, ops)) in raw.iter().enumerate() {
            if *selector == 0 {
                continue;
            }
            let (tile, pe) = geom.locate(w);
            let decoded: Vec<Op> =
                ops.iter().map(|&(k, a, o, n)| decode_op(k, a, o, n)).collect();
            match pe {
                Some(pe) => programs.set_pe(tile, pe, decoded),
                None => programs.set_lcp(tile, decoded.into_iter().map(lcp_safe)),
            }
        }
        if verify::is_clean(&verify::lint(&programs, hw, &ua, None)) {
            assert_static_races_match_streams(&programs, hw);
        }
    }

    /// The same equality on congruent stream sets, which lint clean by
    /// construction and race often.
    #[test]
    fn congruent_checked_build_races_match_stream_races(case in arb_congruent_case()) {
        let (programs, hw) = congruent_programs(&case);
        prop_assert!(verify::is_clean(&verify::lint(&programs, hw, &MicroArch::paper(), None)));
        assert_static_races_match_streams(&programs, hw);
    }

    /// A single worker can never race with itself.
    #[test]
    fn single_worker_streams_never_race(
        ops in proptest::collection::vec((0usize..7, 0u64..64, 0u32..64, 1u32..4), 0..40),
    ) {
        let mut programs = ProgramSet::new(Geometry::new(1, 2));
        programs.set_pe(0, 0, ops.iter().map(|&(k, a, o, n)| decode_op(k, a, o, n)));
        for hw in HwConfig::ALL {
            let races = verify::detect_races(&programs, hw, &MicroArch::paper());
            prop_assert!(races.is_empty(), "{}: {:?}", hw, &races);
        }
    }

    /// Accesses in distinct global-barrier epochs never race, however
    /// many workers touch the same word.
    #[test]
    fn barrier_separated_accesses_never_race(
        word in 0u64..16,
        stores_per_worker in 1usize..4,
        workers in 2usize..6,
    ) {
        // Worker w performs its stores in epoch w: w global barriers
        // first, then the stores.
        let geom = Geometry::new(6, 1);
        let mut synced = ProgramSet::new(geom);
        let mut unsynced = ProgramSet::new(geom);
        for w in 0..workers {
            let stores = vec![Op::Store(word * 4); stores_per_worker];
            synced.set_pe(w, 0, vec![Op::GlobalBarrier; w]);
            for &op in &stores {
                synced.push(op);
            }
            unsynced.set_pe(w, 0, stores);
        }
        let races = verify::detect_races(&synced, HwConfig::Sc, &MicroArch::paper());
        prop_assert!(races.is_empty(), "{:?}", &races);

        // Sanity: removing the barriers makes every worker pair race.
        let races = verify::detect_races(&unsynced, HwConfig::Sc, &MicroArch::paper());
        prop_assert_eq!(races.len(), 1, "one report per word+epoch: {:?}", &races);
    }
}
