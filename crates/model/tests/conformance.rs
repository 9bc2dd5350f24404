//! Model↔simulator conformance: checker-generated traces replayed through
//! a fresh concrete [`zerodev_core::System`] must land in the same
//! canonical state the exploration recorded for them, across all three
//! spill policies and all three LLC designs.
//!
//! This is the guard against the classic model-checking failure mode — a
//! hand-copied abstract model that drifts from the implementation. The
//! checker drives the real `System`, so the only thing that could diverge
//! is determinism of the transition function itself; this test pins that.

use zerodev_common::config::{LlcDesign, SpillPolicy};
use zerodev_model::config::tiny;
use zerodev_model::state::canonical_key;
use zerodev_model::trace::replay;
use zerodev_model::{explore, Limits};

const POLICIES: [SpillPolicy; 3] = [
    SpillPolicy::SpillAll,
    SpillPolicy::FusePrivateSpillShared,
    SpillPolicy::FuseAll,
];
const DESIGNS: [LlcDesign; 3] = [
    LlcDesign::NonInclusive,
    LlcDesign::Epd,
    LlcDesign::Inclusive,
];

#[test]
fn checker_traces_replay_to_identical_states_across_policies_and_designs() {
    for policy in POLICIES {
        for design in DESIGNS {
            let mc = tiny(policy, design, 2, 1, 1, 1);
            let ex = explore(&mc, &Limits::default());
            assert!(
                ex.clean() && !ex.truncated,
                "{}: exploration must be exhaustive and clean, got {:?} / {:?}",
                mc.name,
                ex.violation,
                ex.undrainable
            );
            assert!(
                !ex.sample_traces.is_empty(),
                "{}: exploration produced no sample traces",
                mc.name
            );
            for (trace, key) in &ex.sample_traces {
                let (h, failure) = replay(&mc, trace);
                assert_eq!(failure, None, "{}: replay violated", mc.name);
                assert_eq!(
                    &canonical_key(&h),
                    key,
                    "{}: replaying a checker trace through a fresh system \
                     reached a different canonical state",
                    mc.name
                );
            }
        }
    }
}
