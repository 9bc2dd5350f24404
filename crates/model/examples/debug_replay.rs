//! Replays a trace fixture and dumps the harness's abstract view after
//! every event — the tool for dissecting a checker counterexample.
//!
//! ```text
//! cargo run -p zerodev_model --example debug_replay -- path/to/fixture.trace
//! ```

use zerodev_common::{BlockAddr, CoreId, SocketId};
use zerodev_core::step::ProtocolHarness;
use zerodev_model::parse_fixture;

fn dump(h: &ProtocolHarness) {
    for &block in h.blocks() {
        let sys = h.system();
        let tok = h.token(block);
        let mut shadows = String::new();
        for s in 0..h.sockets() {
            for c in 0..h.cores() {
                let st = h.shadow_state(SocketId(s as u8), CoreId(c as u16), block);
                shadows.push_str(&format!("s{s}c{c}:{st:?} "));
            }
        }
        println!("  {block:?}: {shadows}");
        println!(
            "    token cores={:#x} llc={:#x} mem={}  corrupted={}",
            tok.cores,
            tok.llc,
            tok.mem,
            sys.memory_corrupted(block)
        );
        for s in 0..h.sockets() {
            let sid = SocketId(s as u8);
            println!(
                "    s{s}: entry={:?} segment={:?}",
                sys.entry_of(sid, block),
                sys.memory().peek_entry(block, sid)
            );
        }
        let home = sys.config().home_socket(block);
        println!(
            "    socket dir: {:?}",
            sys.memory().socket_dir_peek(home, block)
        );
    }
    let sys = h.system();
    let mut seen: Vec<BlockAddr> = Vec::new();
    for &block in h.blocks() {
        if seen
            .iter()
            .any(|&b| sys.config().home_socket(b) == sys.config().home_socket(block))
        {
            continue;
        }
        seen.push(block);
        for s in 0..h.sockets() {
            println!(
                "    s{s} LLC set: {:?}",
                sys.llc_set_of(SocketId(s as u8), block).collect::<Vec<_>>()
            );
        }
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: debug_replay <fixture>");
    let text = std::fs::read_to_string(&path).expect("fixture readable");
    let fx = parse_fixture(&text).expect("fixture parses");
    let mut h = ProtocolHarness::new(fx.model.cfg.clone(), fx.model.blocks.clone(), true)
        .expect("config validates");
    println!("== initial ==");
    dump(&h);
    for (i, &ev) in fx.events.iter().enumerate() {
        println!("== [{i}] {ev} ==");
        match h.apply(ev) {
            Ok(()) => dump(&h),
            Err(v) => {
                dump(&h);
                println!("VIOLATION: {v}");
                std::process::exit(1);
            }
        }
    }
    println!("== clean ==");
}
