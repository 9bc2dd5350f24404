//! Explores the checker's target machine — FPSS, non-inclusive LLC, 4 cores
//! × 2 sockets × 2 addresses per home, a 1-way LLC — bounded by the number
//! of enqueued states, and reports how far it got and what it cost.
//!
//! ```text
//! cargo run --release -p zerodev_model --example bounded_target -- [MAX_STATES]
//! ```
//!
//! `MAX_STATES` defaults to 200,000. Prints the states reached, the
//! transitions taken, whether the bound cut the search, the wall time and
//! the process's peak resident set (`VmHWM` from `/proc/self/status`, Linux
//! only; "unknown" elsewhere).

use std::time::Instant;
use zerodev_common::config::{LlcDesign, SpillPolicy};
use zerodev_model::config::tiny;
use zerodev_model::explore::{explore, Limits};

fn main() {
    let max_states = match std::env::args().nth(1) {
        None => 200_000,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("usage: bounded_target [MAX_STATES]   (got {arg:?})");
            std::process::exit(2);
        }),
    };
    let mc = tiny(
        SpillPolicy::FusePrivateSpillShared,
        LlcDesign::NonInclusive,
        4,
        2,
        2,
        1,
    );
    let limits = Limits {
        max_states,
        ..Limits::default()
    };
    let start = Instant::now();
    let ex = explore(&mc, &limits);
    let secs = start.elapsed().as_secs_f64();
    let hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:").map(|v| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string());
    println!("machine:     {}", mc.name);
    println!("max_states:  {max_states}");
    println!("states:      {}", ex.states);
    println!("transitions: {}", ex.transitions);
    println!("truncated:   {}", ex.truncated);
    println!("clean:       {}", ex.violation.is_none());
    println!("seconds:     {secs:.1}");
    println!("VmHWM:       {hwm}");
    if let Some(v) = &ex.violation {
        print!("{}", v.render());
        std::process::exit(1);
    }
}
