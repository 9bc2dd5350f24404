//! Counterexample-trace fixture format and deterministic replay.
//!
//! Fixtures under `tests/model_traces/` pin down interesting protocol
//! schedules (and known-bad schedules under seeded mutations) as plain
//! text, in the same vocabulary the explorer prints counterexamples in:
//!
//! ```text
//! # free-text comment
//! config policy=SpillAll design=NonInclusive cores=2 sockets=1 addrs=1 ways=1
//! expect clean
//! access  s0/c0 B0x0 ReadExclusive
//! write   s0/c0 B0x0 (silent E->M)
//! evict   s0/c0 B0x0 Dirty
//! ```
//!
//! `expect clean` requires the whole schedule to replay without any
//! invariant violation; `expect violation <substring>` requires a
//! [`zerodev_core::StepViolation`] or a caught machine panic (the audit
//! oracle's) whose text contains the substring. `<a> | <b>` accepts either
//! substring, for a bug whose first symptom is an engine `debug_assert!`
//! in debug builds and an oracle violation in release builds. An optional
//! `mutation <Name>` line activates one of the seeded protocol-rule
//! mutations for the replay (reset afterwards), so a checker-blindness
//! regression can be committed as a fixture too. Replay is
//! fully deterministic — the machine takes no random or timing-dependent
//! decisions at the protocol level — so fixtures double as regression
//! tests for every protocol bug the checker has caught.
//!
//! The one `config` line comes before the first event, and every event
//! names a socket, a core and a block of that machine. A fixture that
//! breaks either rule fails to parse with a `line N:` error, so a typo
//! cannot replay as a machine panic that an `expect violation` line would
//! match.

use crate::config::{try_tiny, ModelConfig};
use crate::explore::apply_caught;
use zerodev_common::config::{LlcDesign, SpillPolicy};
use zerodev_common::ids::{CoreId, SocketId};
use zerodev_common::protocol::{set_mutation, EvictKind, Mutation, Op};
use zerodev_common::BlockAddr;
use zerodev_core::step::{ProtocolEvent, ProtocolHarness};

/// What a fixture asserts about its schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expectation {
    /// Every event must apply without violation.
    Clean,
    /// Some event must fail with a violation whose rendering contains the
    /// given substring; events after the failing one are not replayed.
    Violation(String),
}

/// A parsed trace fixture: a machine, a schedule, and an expectation.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// The machine the schedule runs on.
    pub model: ModelConfig,
    /// The expected outcome.
    pub expect: Expectation,
    /// Seeded protocol-rule mutation active during the replay (a
    /// `mutation <Name>` line); [`Mutation::None`] by default. This is what
    /// lets known-bad schedules be committed as deterministic regressions.
    pub mutation: Mutation,
    /// The event schedule, in order.
    pub events: Vec<ProtocolEvent>,
}

fn parse_mutation(s: &str) -> Result<Mutation, String> {
    match s {
        "None" => Ok(Mutation::None),
        "KeepStaleSharer" => Ok(Mutation::KeepStaleSharer),
        "FuseShared" => Ok(Mutation::FuseShared),
        "ServeCorruptedMemory" => Ok(Mutation::ServeCorruptedMemory),
        other => Err(format!("unknown mutation {other:?}")),
    }
}

fn parse_policy(s: &str) -> Result<SpillPolicy, String> {
    match s {
        "SpillAll" => Ok(SpillPolicy::SpillAll),
        "FPSS" | "FusePrivateSpillShared" => Ok(SpillPolicy::FusePrivateSpillShared),
        "FuseAll" => Ok(SpillPolicy::FuseAll),
        other => Err(format!("unknown policy {other:?}")),
    }
}

fn parse_design(s: &str) -> Result<LlcDesign, String> {
    match s {
        "NonInclusive" => Ok(LlcDesign::NonInclusive),
        "Epd" => Ok(LlcDesign::Epd),
        "Inclusive" => Ok(LlcDesign::Inclusive),
        other => Err(format!("unknown design {other:?}")),
    }
}

fn parse_op(s: &str) -> Result<Op, String> {
    match s {
        "Read" => Ok(Op::Read),
        "CodeRead" => Ok(Op::CodeRead),
        "ReadExclusive" => Ok(Op::ReadExclusive),
        "Upgrade" => Ok(Op::Upgrade),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn parse_evict_kind(s: &str) -> Result<EvictKind, String> {
    match s {
        "CleanShared" => Ok(EvictKind::CleanShared),
        "CleanExclusive" => Ok(EvictKind::CleanExclusive),
        "Dirty" => Ok(EvictKind::Dirty),
        other => Err(format!("unknown evict kind {other:?}")),
    }
}

/// Parses `s{socket}/c{core}`.
fn parse_agent(s: &str) -> Result<(SocketId, CoreId), String> {
    let (sock, core) = s
        .split_once('/')
        .ok_or_else(|| format!("bad agent {s:?}, want s<n>/c<n>"))?;
    let sock = sock
        .strip_prefix('s')
        .and_then(|n| n.parse::<u8>().ok())
        .ok_or_else(|| format!("bad socket in {s:?}"))?;
    let core = core
        .strip_prefix('c')
        .and_then(|n| n.parse::<u16>().ok())
        .ok_or_else(|| format!("bad core in {s:?}"))?;
    Ok((SocketId(sock), CoreId(core)))
}

/// Parses `B0x{hex}` (the `BlockAddr` Debug form).
fn parse_block(s: &str) -> Result<BlockAddr, String> {
    s.strip_prefix("B0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .map(BlockAddr)
        .ok_or_else(|| format!("bad block {s:?}, want B0x<hex>"))
}

/// Parses one event line in the explorer's/oracle's vocabulary.
pub fn parse_event(line: &str) -> Result<ProtocolEvent, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.as_slice() {
        ["access", agent, block, op] => {
            let (socket, core) = parse_agent(agent)?;
            let (block, op) = (parse_block(block)?, parse_op(op)?);
            Ok(ProtocolEvent::access(socket, core, block, op))
        }
        ["write", agent, block, "(silent", "E->M)"] => {
            let (socket, core) = parse_agent(agent)?;
            let block = parse_block(block)?;
            Ok(ProtocolEvent::silent_write(socket, core, block))
        }
        ["evict", agent, block, kind] => {
            let (socket, core) = parse_agent(agent)?;
            let (block, kind) = (parse_block(block)?, parse_evict_kind(kind)?);
            Ok(ProtocolEvent::evict(socket, core, block, kind))
        }
        _ => Err(format!("unparseable event line {line:?}")),
    }
}

fn parse_config_line(line: &str) -> Result<ModelConfig, String> {
    let mut policy = None;
    let mut design = None;
    let mut cores = None;
    let mut sockets = None;
    let mut addrs = None;
    let mut ways = None;
    for kv in line.split_whitespace() {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad config token {kv:?}, want key=value"))?;
        match k {
            "policy" => policy = Some(parse_policy(v)?),
            "design" => design = Some(parse_design(v)?),
            "cores" => cores = Some(parse_count(k, v)?),
            "sockets" => sockets = Some(parse_count(k, v)?),
            "addrs" => addrs = Some(parse_count(k, v)?),
            "ways" => ways = Some(parse_count(k, v)?),
            other => return Err(format!("unknown config key {other:?}")),
        }
    }
    try_tiny(
        policy.ok_or("config line missing policy=")?,
        design.ok_or("config line missing design=")?,
        cores.ok_or("config line missing cores=")?,
        sockets.ok_or("config line missing sockets=")?,
        addrs.ok_or("config line missing addrs=")?,
        ways.ok_or("config line missing ways=")?,
    )
}

fn parse_count(key: &str, v: &str) -> Result<usize, String> {
    v.parse()
        .map_err(|_| format!("bad {key} value {v:?}, want a number"))
}

/// Checks that `ev` is issued by a core of `model`'s machine and touches one
/// of its tracked blocks.
fn check_in_machine(model: &ModelConfig, ev: &ProtocolEvent) -> Result<(), String> {
    let (socket, core) = ev.agent();
    let (sockets, cores) = (model.cfg.sockets, model.cfg.cores);
    if socket.0 as usize >= sockets {
        return Err(format!(
            "socket s{} is outside the machine's {sockets} socket(s)",
            socket.0
        ));
    }
    if core.0 as usize >= cores {
        return Err(format!(
            "core c{} is outside the machine's {cores} core(s) per socket",
            core.0
        ));
    }
    let block = ev.block();
    if !model.blocks.contains(&block) {
        return Err(format!(
            "block {block:?} is not one of the machine's tracked blocks {:?}",
            model.blocks
        ));
    }
    Ok(())
}

/// Parses a whole fixture. `# ...` lines and blank lines are ignored; the
/// one `config` line must precede the first event, and every event must
/// name a socket, core and block of its machine; `expect` defaults to
/// clean.
pub fn parse_fixture(text: &str) -> Result<Fixture, String> {
    let mut model = None;
    let mut expect = Expectation::Clean;
    let mut mutation = Mutation::None;
    let mut events = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let res = if let Some(rest) = line.strip_prefix("config ") {
            match model {
                Some(_) => Err("a second config line".to_string()),
                None => parse_config_line(rest).map(|m| model = Some(m)),
            }
        } else if let Some(rest) = line.strip_prefix("mutation ") {
            parse_mutation(rest.trim()).map(|m| mutation = m)
        } else if let Some(rest) = line.strip_prefix("expect ") {
            match rest.trim() {
                "clean" => {
                    expect = Expectation::Clean;
                    Ok(())
                }
                other => match other.strip_prefix("violation ") {
                    Some(sub) => {
                        expect = Expectation::Violation(sub.trim().to_string());
                        Ok(())
                    }
                    None => Err(format!("bad expect line {other:?}")),
                },
            }
        } else {
            match &model {
                None => Err("event before the config line".to_string()),
                Some(model) => parse_event(line)
                    .and_then(|ev| check_in_machine(model, &ev).map(|()| events.push(ev))),
            }
        };
        res.map_err(|e| format!("line {}: {e}", ln + 1))?;
    }
    let model = model.ok_or("fixture has no config line")?;
    Ok(Fixture {
        model,
        expect,
        mutation,
        events,
    })
}

/// Replays `events` through a fresh audited harness for `model`, stopping
/// at the first violation. Returns the machine and what (if anything)
/// failed: the event index and the violation's rendering, or the machine's
/// panic message, caught as [`explore`](crate::explore::explore) catches it.
///
/// # Panics
/// Panics when the fixture's machine configuration fails validation.
pub fn replay(
    model: &ModelConfig,
    events: &[ProtocolEvent],
) -> (ProtocolHarness, Option<(usize, String)>) {
    let mut h = ProtocolHarness::new(model.cfg.clone(), model.blocks.clone(), true)
        .expect("fixture configuration validates");
    for (i, &ev) in events.iter().enumerate() {
        if let Err(v) = apply_caught(&mut h, ev) {
            return (h, Some((i, v)));
        }
    }
    (h, None)
}

/// Resets the process-wide mutation even when a replay panics.
struct MutationGuard;

impl Drop for MutationGuard {
    fn drop(&mut self) {
        set_mutation(Mutation::None);
    }
}

/// Runs a parsed fixture against its expectation. `Ok(())` when the replay
/// matches; `Err` explains the divergence.
///
/// The fixture's seeded mutation (if any) is process-global while the
/// replay runs, so fixtures must not be run concurrently with other
/// explorations or replays in the same process.
pub fn run_fixture(fx: &Fixture) -> Result<(), String> {
    let _guard = MutationGuard;
    set_mutation(fx.mutation);
    let (_, outcome) = replay(&fx.model, &fx.events);
    match (&fx.expect, outcome) {
        (Expectation::Clean, None) => Ok(()),
        (Expectation::Clean, Some((i, v))) => Err(format!(
            "expected clean replay, but event {i} ({}) violated: {v}",
            fx.events.get(i).map_or("?".to_string(), |e| e.to_string())
        )),
        (Expectation::Violation(sub), Some((_, msg))) => {
            if sub.split(" | ").any(|alt| msg.contains(alt)) {
                Ok(())
            } else {
                Err(format!(
                    "violation {msg:?} does not contain expected {sub:?}"
                ))
            }
        }
        (Expectation::Violation(sub), None) => Err(format!(
            "expected a violation containing {sub:?}, but the replay was clean"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_round_trip() {
        let lines = [
            "access  s0/c1 B0x40 ReadExclusive",
            "write   s1/c0 B0x0 (silent E->M)",
            "evict   s0/c0 B0x1 Dirty",
        ];
        for line in lines {
            let ev = parse_event(line).expect("parses");
            assert_eq!(ev.to_string(), line);
        }
    }

    #[test]
    fn fixture_parses_config_expect_and_events() {
        let text = "\
# a comment
config policy=FPSS design=Epd cores=2 sockets=1 addrs=2 ways=1
expect violation stale sharer

access  s0/c0 B0x0 Read
access  s0/c1 B0x1 ReadExclusive
";
        let fx = parse_fixture(text).expect("parses");
        assert_eq!(fx.events.len(), 2);
        assert_eq!(fx.expect, Expectation::Violation("stale sharer".into()));
        assert!(fx.model.name.contains("FPSS"));
        assert_eq!(fx.model.blocks.len(), 2);
    }

    #[test]
    fn mutation_directive_parses_and_defaults_to_none() {
        let text = "\
config policy=FPSS design=NonInclusive cores=2 sockets=1 addrs=1 ways=1
mutation KeepStaleSharer
expect violation precision
access  s0/c0 B0x0 Read
";
        let fx = parse_fixture(text).expect("parses");
        assert_eq!(fx.mutation, Mutation::KeepStaleSharer);
        let fx = parse_fixture(
            "config policy=FPSS design=NonInclusive cores=2 sockets=1 addrs=1 ways=1",
        )
        .expect("parses");
        assert_eq!(fx.mutation, Mutation::None);
        let err = parse_fixture(
            "config policy=FPSS design=NonInclusive cores=2 sockets=1 addrs=1 ways=1\n\
             mutation Frobnicate",
        )
        .expect_err("bad mutation");
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn bad_lines_report_line_numbers() {
        let err = parse_fixture("config policy=Nope design=Epd cores=2 sockets=1 addrs=1 ways=1")
            .expect_err("bad policy");
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_fixture(
            "config policy=SpillAll design=Epd cores=2 sockets=1 addrs=1 ways=1\nfrobnicate",
        )
        .expect_err("bad event");
        assert!(err.starts_with("line 2:"), "{err}");
        for (shape, why) in [
            ("cores=9 sockets=1 addrs=1 ways=1", "cores=9"),
            ("cores=2 sockets=3 addrs=1 ways=1", "sockets=3"),
            ("cores=2 sockets=1 addrs=1 ways=0", "ways=0"),
            ("cores=two sockets=1 addrs=1 ways=1", "bad cores value"),
        ] {
            let err =
                parse_fixture(&format!("config policy=FPSS design=Epd {shape}")).expect_err(shape);
            assert!(err.starts_with("line 1:") && err.contains(why), "{err}");
        }
    }

    /// The error of a fixture on `config` whose only event is `event`.
    fn event_error(config: &str, event: &str) -> String {
        parse_fixture(&format!("config {config}\n# the event\n{event}\n")).expect_err(event)
    }

    const TWO_CORES_ONE_SOCKET: &str =
        "policy=FPSS design=NonInclusive cores=2 sockets=1 addrs=2 ways=1";
    const TWO_CORES_TWO_SOCKETS: &str =
        "policy=FPSS design=NonInclusive cores=2 sockets=2 addrs=1 ways=1";

    #[test]
    fn a_core_beyond_the_machine_is_rejected() {
        for config in [TWO_CORES_ONE_SOCKET, TWO_CORES_TWO_SOCKETS] {
            let err = event_error(config, "access  s0/c3 B0x0 Read");
            assert!(err.starts_with("line 3: core c3 is outside"), "{err}");
            let err = event_error(config, "evict   s0/c2 B0x0 Dirty");
            assert!(err.starts_with("line 3: core c2 is outside"), "{err}");
        }
    }

    #[test]
    fn a_socket_beyond_the_machine_is_rejected() {
        let err = event_error(TWO_CORES_ONE_SOCKET, "access  s3/c0 B0x0 Read");
        assert!(err.starts_with("line 3: socket s3 is outside"), "{err}");
        let err = event_error(TWO_CORES_TWO_SOCKETS, "write   s2/c0 B0x0 (silent E->M)");
        assert!(err.starts_with("line 3: socket s2 is outside"), "{err}");
    }

    #[test]
    fn an_untracked_block_is_rejected() {
        let err = event_error(TWO_CORES_ONE_SOCKET, "access  s0/c0 B0x5 Read");
        assert!(err.starts_with("line 3: block B0x5 is not one of"), "{err}");
        // Two sockets, one address per home: B0x0 and B0x40 only.
        let err = event_error(TWO_CORES_TWO_SOCKETS, "access  s1/c1 B0x1 Read");
        assert!(err.starts_with("line 3: block B0x1 is not one of"), "{err}");
        let ok = format!("config {TWO_CORES_TWO_SOCKETS}\naccess  s1/c1 B0x40 Read");
        assert_eq!(parse_fixture(&ok).expect("in the machine").events.len(), 1);
    }

    #[test]
    fn an_event_before_the_config_line_is_rejected() {
        let text = format!("expect clean\naccess  s0/c0 B0x0 Read\nconfig {TWO_CORES_ONE_SOCKET}");
        let err = parse_fixture(&text).expect_err("event first");
        assert!(
            err.starts_with("line 2: event before the config line"),
            "{err}"
        );
        let text = format!("config {TWO_CORES_ONE_SOCKET}\nconfig {TWO_CORES_TWO_SOCKETS}");
        let err = parse_fixture(&text).expect_err("two configs");
        assert!(err.starts_with("line 2: a second config line"), "{err}");
    }
}
