//! `CoSparse::step` and `CoSparse::execute` report alike.
//!
//! `step` decides and then times its decision through `execute`, so a
//! caller that decides for itself (Figure 9's pinned columns, the BC
//! engine's levels) must get the report `step` would have. Each case
//! drives two twin sessions, each built with `CoSparse::new` so each
//! pays its own one-time costs: one `step`s the frontier, the other
//! `execute`s `decide_exact`'s decision for the same frontier, and the
//! two `SimReport`s must be equal.

use cosparse::{CoSparse, FormatKind, GraphOp, HwConfig, Policy, SpmvOp, SwConfig};
use sparse::{CooMatrix, Idx};
use transmuter::{Geometry, Machine, MicroArch};

const N: usize = 1024;

/// Fig 9's five software/hardware pairs.
const PAIRS: [(SwConfig, HwConfig); 5] = [
    (SwConfig::InnerProduct, HwConfig::Sc),
    (SwConfig::InnerProduct, HwConfig::Scs),
    (SwConfig::OuterProduct, HwConfig::Sc),
    (SwConfig::OuterProduct, HwConfig::Pc),
    (SwConfig::OuterProduct, HwConfig::Ps),
];

/// Frontier strides: one vertex, the full frontier, 5%, 50%, six
/// vertices and the full frontier again — sparse and dense in turn, so
/// the decision tree switches dataflow.
const STRIDES: [usize; 6] = [N, 1, 20, 2, 200, 1];

fn frontier(stride: usize) -> Vec<(Idx, f32)> {
    (0..N as Idx)
        .step_by(stride)
        .map(|i| (i, 1.0 + i as f32 / N as f32))
        .collect()
}

/// Twin sessions over the same matrix, under the same policy.
fn twins(m: &CooMatrix, policy: Policy) -> (CoSparse, CoSparse) {
    let session = || {
        let mut rt = CoSparse::new(m, Machine::new(Geometry::new(2, 4), MicroArch::paper()));
        rt.set_policy(policy);
        rt
    };
    (session(), session())
}

/// Steps `stepped` and executes `executed` on the same frontier; the
/// reports and the decision must agree. Returns the dataflow run.
fn step_like_execute(
    stepped: &mut CoSparse,
    executed: &mut CoSparse,
    active: &[(Idx, f32)],
    label: &str,
) -> SwConfig {
    let profile = SpmvOp.profile();
    let state = vec![0.0f32; N];
    let decision = executed.decide_exact(active.len(), &profile);
    let indices: Vec<Idx> = active.iter().map(|&(i, _)| i).collect();
    let want = executed.execute(decision, &indices, &profile).unwrap();
    let got = stepped.step(&SpmvOp, active, &state).unwrap();
    assert_eq!(
        (got.software, got.hardware, got.format, got.reorder),
        (
            decision.software,
            decision.hardware,
            decision.format,
            decision.reorder
        ),
        "{label}: decision"
    );
    assert_eq!(got.report, want, "{label}: report");
    got.software
}

#[test]
fn pinned_pairs_step_like_execute() {
    let m = sparse::generate::uniform(N, N, 15_000, 21).unwrap();
    for (sw, hw) in PAIRS {
        let (mut stepped, mut executed) = twins(&m, Policy::Fixed(sw, hw));
        for stride in STRIDES {
            let label = format!("{sw}/{hw} stride {stride}");
            step_like_execute(&mut stepped, &mut executed, &frontier(stride), &label);
        }
        if sw == SwConfig::InnerProduct {
            // A cold Bitmap image: the first step packs it, the second
            // finds it warm.
            for rt in [&mut stepped, &mut executed] {
                rt.set_format_override(Some(FormatKind::Bitmap));
            }
            for round in ["cold", "warm"] {
                let label = format!("{sw}/{hw} bitmap {round}");
                step_like_execute(&mut stepped, &mut executed, &frontier(3), &label);
            }
            for rt in [&stepped, &executed] {
                assert_eq!(rt.shared().cache_stats().format_builds, 1, "{sw}/{hw}");
            }
        }
    }
}

#[test]
fn auto_steps_like_execute_across_conversions() {
    let m = sparse::generate::uniform(N, N, 15_000, 21).unwrap();
    let (mut stepped, mut executed) = twins(&m, Policy::Auto);
    let mut dataflows = Vec::new();
    for stride in STRIDES {
        let label = format!("auto stride {stride}");
        dataflows.push(step_like_execute(
            &mut stepped,
            &mut executed,
            &frontier(stride),
            &label,
        ));
    }
    let switches = dataflows.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(switches >= 2, "no conversion ran: {dataflows:?}");
    for rt in [&stepped, &executed] {
        assert_eq!(rt.cache_stats().conversion_builds, switches as u64);
    }
}
