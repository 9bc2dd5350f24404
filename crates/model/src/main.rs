//! ZeroDEV exhaustive model checker CLI.
//!
//! ```text
//! cargo run -p zerodev_model --release              # full matrix
//! ```
//!
//! Explores every policy × LLC-design combination on tiny machines,
//! reports reachable-state counts, then demonstrates checker sensitivity:
//! each seeded protocol-rule mutation must be caught with a printed
//! shortest counterexample trace. Exits non-zero on any unexpected
//! outcome (violation on the shipped protocol, or a mutation that goes
//! undetected).

use zerodev_common::config::{LlcDesign, SpillPolicy};
use zerodev_common::protocol::{set_mutation, Mutation, ALL_MUTATIONS};
use zerodev_model::config::tiny;
use zerodev_model::explore::{explore, Limits};

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

fn main() {
    let limits = Limits::default();
    let mut failed = false;

    println!("== ZeroDEV model checker: reachable-state exploration ==");

    // The core matrix: 3 policies x 3 LLC designs on the smallest machine
    // that still reaches spill refusal -> WB_DE and corrupted memory.
    let mut matrix = Vec::new();
    for policy in POLICIES {
        for design in DESIGNS {
            matrix.push(tiny(policy, design, 2, 1, 1, 1));
        }
    }
    // Richer machines: entry-vs-entry displacement with two addresses, a
    // third and a fourth core, two ways, and a second socket; last, four
    // cores on each of two sockets (70,055 states, the largest by far).
    for policy in POLICIES {
        matrix.push(tiny(policy, LlcDesign::NonInclusive, 2, 1, 2, 2));
        matrix.push(tiny(policy, LlcDesign::Epd, 2, 1, 2, 1));
    }
    matrix.push(tiny(
        SpillPolicy::FusePrivateSpillShared,
        LlcDesign::Inclusive,
        3,
        1,
        1,
        1,
    ));
    matrix.push(tiny(
        SpillPolicy::FusePrivateSpillShared,
        LlcDesign::NonInclusive,
        2,
        2,
        1,
        1,
    ));
    matrix.push(tiny(
        SpillPolicy::FusePrivateSpillShared,
        LlcDesign::NonInclusive,
        4,
        1,
        2,
        2,
    ));
    matrix.push(tiny(
        SpillPolicy::FusePrivateSpillShared,
        LlcDesign::NonInclusive,
        4,
        2,
        1,
        1,
    ));

    for mc in &matrix {
        let ex = explore(mc, &limits);
        let status = if let Some(v) = &ex.violation {
            failed = true;
            println!("{}", v.render());
            "VIOLATION"
        } else if let Some(v) = &ex.undrainable {
            failed = true;
            println!("{}", v.render());
            "LIVELOCK"
        } else if ex.truncated {
            "ok (bounded)"
        } else {
            "ok (exhaustive)"
        };
        println!(
            "  {:<55} {:>7} states {:>8} transitions  {status}",
            mc.name, ex.states, ex.transitions
        );
    }

    // Sensitivity: each seeded rule mutation must be caught.
    println!("\n== mutation sensitivity (each must yield a counterexample) ==");
    for &m in &ALL_MUTATIONS {
        set_mutation(m);
        let caught = ALL_MUTATIONS_CONFIGS
            .iter()
            .map(|&(p, d, a, w)| tiny(p, d, 2, 1, a, w))
            .find_map(|mc| {
                let ex = explore(&mc, &limits);
                ex.violation.map(|v| (mc.name.clone(), v))
            });
        set_mutation(Mutation::None);
        match caught {
            Some((name, v)) => {
                println!("  {m:?}: CAUGHT on {name}");
                for line in v.render().lines() {
                    println!("    {line}");
                }
            }
            None => {
                failed = true;
                println!("  {m:?}: NOT CAUGHT — checker is blind to this mutation");
            }
        }
    }

    if failed {
        println!("\nmodel check FAILED");
        std::process::exit(1);
    }
    println!("\nmodel check passed");
}

/// Configurations tried (in order) when hunting each mutation: the machine
/// that reaches the mutated rule fastest first.
const ALL_MUTATIONS_CONFIGS: [(SpillPolicy, LlcDesign, usize, usize); 3] = [
    (
        SpillPolicy::FusePrivateSpillShared,
        LlcDesign::NonInclusive,
        1,
        1,
    ),
    (SpillPolicy::SpillAll, LlcDesign::NonInclusive, 1, 1),
    (SpillPolicy::FuseAll, LlcDesign::Epd, 2, 1),
];
