//! The coherence invariants, written once.
//!
//! Each per-block safety property is a non-panicking predicate over the
//! concrete [`System`] and a *holder view*: the cores holding the block, per
//! socket, and the one core (if any) holding it in M or E. The audit oracle
//! ([`crate::oracle`]) builds the view from the observed transaction stream
//! and panics on a violation; the model checker's
//! [`crate::step::ProtocolHarness`] builds it from its per-core MESI shadow
//! and returns the [`StepViolation`].
//!
//! [`check_block`] returns the first violation it finds. It checks
//! **SWMR** (§III-A); then, socket by socket, a **duplicate entry** (in
//! the socket and housed at home), a **dead entry**, **directory
//! precision** (every holder is tracked, §III-C) and, without region
//! entries, **directory exactness**, the **LLC
//! design** (inclusive holds every private block, EPD no line for an owned
//! one, §III-E/F), the **socket directory**'s coverage (§III-D5) and
//! **entry placement** ([`check_fused_entry`], §III-C2, which
//! [`System::check_invariants`] also applies to every fused line); then
//! socket-directory ownership and **corrupted-block safety** (a live copy
//! and live housed segments behind every corrupted home block, §III-D).

#![deny(clippy::unwrap_used, clippy::indexing_slicing)]

use crate::directory::DirEntry;
use crate::llc::LlcLine;
use crate::step::StepViolation;
use crate::system::System;
use zerodev_common::config::{DirectoryKind, LlcDesign, SpillPolicy, SystemConfig};
use zerodev_common::ids::SharerSet;
use zerodev_common::{BlockAddr, CoreId, DirState, SocketId};

/// True when sharer sets are exact: every directory except MgD tracks
/// single blocks (MgD region entries are supersets by design).
pub(crate) fn exact_tracking(cfg: &SystemConfig) -> bool {
    !matches!(cfg.directory, DirectoryKind::MultiGrain { .. })
}

/// Returns the `$invariant` violation with a `format!` detail.
macro_rules! bail {
    ($invariant:literal, $($detail:tt)+) => {
        return Err(StepViolation {
            invariant: $invariant,
            detail: format!($($detail)+),
        })
    };
}

/// [`bail!`]s unless `$ok` holds.
macro_rules! ensure {
    ($ok:expr, $($violation:tt)+) => {
        if !$ok {
            bail!($($violation)+);
        }
    };
}

/// §III-C2 placement of an entry fused with its block's LLC line in
/// `socket`: SpillAll never fuses, and FPSS fuses only M/E-owned entries —
/// a fused Shared entry would tie sharing-read latency to the block line's
/// residency. FuseAll, and machines without ZeroDEV, accept any.
///
/// # Errors
/// Returns the `entry placement` violation.
pub(crate) fn check_fused_entry(
    policy: Option<SpillPolicy>,
    socket: SocketId,
    block: BlockAddr,
    entry: &DirEntry,
) -> Result<(), StepViolation> {
    let ok = match policy {
        Some(SpillPolicy::SpillAll) => false,
        Some(SpillPolicy::FusePrivateSpillShared) => entry.state == DirState::OwnedME,
        Some(SpillPolicy::FuseAll) | None => true,
    };
    ensure!(
        ok,
        "entry placement",
        "s{} fused a {:?} entry for {block:?} under {}",
        socket.0,
        entry.state,
        policy.map_or(String::new(), |p| p.to_string())
    );
    Ok(())
}

/// Checks every per-block invariant of `block` against the holder view:
/// `holders[s]` is the set of cores of socket `s` holding a valid copy, and
/// `owner` the one core holding it in M or E. A socket missing from
/// `holders` holds no copy.
///
/// # Errors
/// Returns the first violated invariant, in the order of the module docs.
pub(crate) fn check_block(
    sys: &System,
    block: BlockAddr,
    holders: &[SharerSet],
    owner: Option<(SocketId, CoreId)>,
) -> Result<(), StepViolation> {
    let cfg = sys.config();
    let held = |s: usize| holders.get(s).copied().unwrap_or_default();
    let copies: u32 = holders.iter().map(|h| h.count()).sum();
    if let Some((os, oc)) = owner {
        let (s, c) = (os.0, oc.0);
        ensure!(
            copies == 1,
            "SWMR",
            "s{s}/c{c} owns the block but {copies} copies exist"
        );
        ensure!(
            held(s.into()).contains(oc),
            "SWMR",
            "owner lost its own copy"
        );
    }

    let exact = exact_tracking(cfg);
    let mem = sys.memory();
    let socket_dir = mem.socket_dir_peek(cfg.home_socket(block), block);
    let mut llc_data_somewhere = false;
    for s in 0..cfg.sockets {
        let sid = SocketId(s as u8);
        let holders = held(s);
        let entry = sys.entry_of(sid, block);
        let segment = mem.peek_entry(block, sid);
        let line = sys.llc_line_of(sid, block);
        let line_holds_block = line.as_ref().is_some_and(LlcLine::holds_block);
        llc_data_somewhere |= matches!(line, Some(LlcLine::Data { .. }));
        let owned_here = owner.filter(|&(os, _)| os == sid).map(|(_, oc)| oc);

        ensure!(
            entry.is_none() || segment.is_none(),
            "duplicate entry",
            "socket {s}: entry lives both in the socket and housed at home"
        );
        match entry.or(segment) {
            None => ensure!(
                holders.is_empty(),
                "directory precision",
                "socket {s}: private holders with no tracking entry anywhere"
            ),
            Some(e) => {
                ensure!(
                    !e.is_dead(),
                    "dead entry",
                    "socket {s}: dead entry kept live"
                );
                if let Some(c) = holders.iter().find(|&c| !e.sharers.contains(c)) {
                    bail!(
                        "directory precision",
                        "socket {s}: directory lost true holder c{} (precision ⊇ broken)",
                        c.0
                    );
                }
                if exact {
                    ensure!(
                        e.sharers == holders,
                        "directory exactness",
                        "socket {s}: sharer set not exact under a precise format"
                    );
                    match owned_here {
                        Some(oc) => ensure!(
                            e.owner() == Some(oc),
                            "directory exactness",
                            "socket {s}: directory owner differs from true owner c{}",
                            oc.0
                        ),
                        None => ensure!(
                            !e.state.is_owned(),
                            "directory exactness",
                            "socket {s}: directory claims M/E but no core owns the block"
                        ),
                    }
                }
            }
        }

        match cfg.llc_design {
            LlcDesign::Inclusive => ensure!(
                holders.is_empty() || line_holds_block,
                "LLC design",
                "socket {s}: inclusive LLC lost a privately held block"
            ),
            LlcDesign::Epd => ensure!(
                owned_here.is_none() || !line_holds_block,
                "LLC design",
                "socket {s}: EPD LLC holds an owner-tracked block"
            ),
            LlcDesign::NonInclusive => {}
        }

        let trace = !holders.is_empty() || entry.is_some() || segment.is_some() || line.is_some();
        ensure!(
            cfg.sockets == 1 || !trace || socket_dir.is_some_and(|e| e.sharers.contains(sid)),
            "socket directory",
            "socket-level directory lost sharing socket {s}"
        );

        if let Some(LlcLine::Fused { entry, .. }) = &line {
            check_fused_entry(cfg.zerodev.map(|z| z.policy), sid, block, entry)?;
        }
    }

    // Socket-level ownership must cover any core-level owner, and an owned
    // socket entry is exclusive by construction.
    if cfg.sockets > 1 {
        if let Some((os, _)) = owner {
            ensure!(
                socket_dir.is_some_and(|e| e.owned && e.owner() == Some(os)),
                "socket directory",
                "socket-level directory does not record owning socket s{}",
                os.0
            );
        }
        ensure!(
            !socket_dir.is_some_and(|e| e.owned && e.sharers.count() != 1),
            "socket directory",
            "socket-level entry is owned but lists multiple sharer sockets"
        );
    }

    // The data must live on somewhere while the home copy is corrupted.
    ensure!(
        !mem.is_corrupted(block) || copies > 0 || llc_data_somewhere,
        "corrupted-block safety",
        "home copy corrupted with no private holder and no LLC data line"
    );
    if let Some(cb) = mem.corrupted_block(block) {
        for sid in cb.sockets().iter() {
            ensure!(
                !cb.segment(sid).is_some_and(|seg| seg.is_dead()),
                "corrupted-block safety",
                "housed segment of socket {} tracks nobody",
                sid.0
            );
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::system::{Op, StateFault};
    use zerodev_common::config::{CacheGeometry, LlcReplacement, ZeroDevConfig};
    use zerodev_common::{Cycle, Prng};

    const S0: SocketId = SocketId(0);
    const C0: CoreId = CoreId(0);
    const B: BlockAddr = BlockAddr(0x40);

    /// A machine with a small LLC; `policy` makes it ZeroDEV without a
    /// dedicated directory.
    fn cfg(sockets: usize, design: LlcDesign, policy: Option<SpillPolicy>) -> SystemConfig {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.sockets = sockets;
        cfg.llc = CacheGeometry::new(64 << 10, 4);
        cfg.llc_design = design;
        let Some(policy) = policy else {
            return cfg;
        };
        let zd = ZeroDevConfig {
            policy,
            ..Default::default()
        };
        cfg.with_zerodev(zd, DirectoryKind::None)
    }

    /// A hand-made breach of machine state, applied after the set-up reads.
    #[derive(Clone, Copy, Debug)]
    enum Breach {
        Nothing,
        /// House an owned segment of s0/c0 at `B`'s home.
        HouseEntry,
        /// House that segment, then extract it: the home block stays
        /// corrupted with no segment.
        HouseThenExtract,
        /// Clear the sharers of `B`'s LLC-resident entry.
        ClearLlcEntry,
        DropLine,
        AddLine,
        DropSocketDirEntry,
        /// Fuse a Shared entry of s0/c0 into `B`'s LLC line.
        FuseShared,
    }

    fn breach(sys: &mut System, breach: Breach) {
        let home = sys.config().home_socket(B);
        let (bank, mem) = sys.parts_mut(S0, B);
        match breach {
            Breach::Nothing => {}
            Breach::HouseEntry => {
                mem.house_entry(B, S0, DirEntry::owned(C0));
            }
            Breach::HouseThenExtract => {
                mem.house_entry(B, S0, DirEntry::owned(C0));
                assert!(mem.extract_entry(B, S0).is_some());
            }
            Breach::ClearLlcEntry => {
                let fault =
                    sys.inject_state_fault(StateFault::LlcEntryCorrupt, &mut Prng::seeded(1));
                assert_eq!(fault.map(|(b, _)| b), Some(B));
            }
            Breach::DropLine => assert!(bank.remove_block(B).is_some()),
            Breach::AddLine => assert!(bank.fill_data(B, false, LlcReplacement::Lru).is_none()),
            Breach::DropSocketDirEntry => mem.socket_dir_remove(home, B),
            Breach::FuseShared => bank.fuse_entry(B, DirEntry::shared(C0)),
        }
    }

    #[test]
    fn each_invariant_class_flags_only_its_breach() {
        use Breach::*;
        use LlcDesign::{Epd, Inclusive, NonInclusive as Ni};
        use SpillPolicy::{FusePrivateSpillShared as Fpss, SpillAll};
        let base = cfg(1, Ni, None);
        let fpss = cfg(1, Ni, Some(Fpss));
        // (name, machine, (socket, core) reads of B, breach, holder view,
        // s0/c0 owns B, the invariant broken — None: machine and view agree)
        #[rustfmt::skip]
        let cases = [
            ("E grant", &base, &[(0, 0)][..], Nothing, &[(0, 0)][..], true, None),
            ("S sharers", &base, &[(0, 0), (0, 1)], Nothing, &[(0, 0), (0, 1)], false, None),
            ("two sockets share", &cfg(2, Ni, None), &[(0, 0), (1, 0)], Nothing, &[(0, 0), (1, 0)], false, None),
            ("housed entry, live owner", &fpss, &[], HouseEntry, &[(0, 0)], true, None),
            ("owner beside a sharer", &base, &[(0, 0)], Nothing, &[(0, 0), (0, 1)], true, Some("SWMR")),
            ("owner without its copy", &base, &[(0, 0)], Nothing, &[(0, 1)], true, Some("SWMR")),
            ("holder missing from the entry", &base, &[(0, 0)], Nothing, &[(0, 1)], false, Some("directory precision")),
            ("holder with no entry", &base, &[], Nothing, &[(0, 0)], false, Some("directory precision")),
            ("sharer set too wide", &base, &[(0, 0), (0, 1)], Nothing, &[(0, 0)], false, Some("directory exactness")),
            ("owned entry, no owner", &base, &[(0, 0)], Nothing, &[(0, 0)], false, Some("directory exactness")),
            ("housed entry, no copy", &fpss, &[], HouseThenExtract, &[], false, Some("corrupted-block safety")),
            ("entry in the socket and at home", &base, &[(0, 0)], HouseEntry, &[(0, 0)], true, Some("duplicate entry")),
            ("LLC entry tracks nobody", &cfg(1, Ni, Some(SpillAll)), &[(0, 0)], ClearLlcEntry, &[(0, 0)], true, Some("dead entry")),
            ("inclusive LLC without the line", &cfg(1, Inclusive, None), &[(0, 0)], DropLine, &[(0, 0)], true, Some("LLC design")),
            ("EPD line for an owned block", &cfg(1, Epd, None), &[(0, 0)], AddLine, &[(0, 0)], true, Some("LLC design")),
            ("socket directory lost the owner", &cfg(2, Ni, None), &[(0, 0)], DropSocketDirEntry, &[(0, 0)], true, Some("socket directory")),
            ("FPSS fused a Shared entry", &fpss, &[(0, 0)], FuseShared, &[(0, 0)], false, Some("entry placement")),
        ];
        for (name, cfg, reads, broken, view, owned, want) in cases {
            let mut sys = System::new(cfg.clone()).unwrap();
            for &(s, c) in reads {
                // Reads never dirty a copy: their only effects are clean
                // E→S downgrades, which need no reply from the cores.
                let r = sys.access(Cycle(0), SocketId(s), CoreId(c), B, Op::Read);
                assert!(r.invalidations.is_empty());
            }
            breach(&mut sys, broken);
            let mut holders = vec![SharerSet::default(); 2];
            for &(s, c) in view {
                holders[s as usize].insert(CoreId(c));
            }
            let got = check_block(&sys, B, &holders, owned.then_some((S0, C0)));
            assert_eq!(
                got.as_ref().err().map(|v| v.invariant),
                want,
                "{name}: {got:?}"
            );
        }
    }

    #[test]
    fn fused_entry_placement_follows_the_spill_policy() {
        let owned = DirEntry::owned(C0);
        let shared = DirEntry::shared(C0);
        for (policy, entry, ok) in [
            (Some(SpillPolicy::SpillAll), owned, false),
            (Some(SpillPolicy::FusePrivateSpillShared), owned, true),
            (Some(SpillPolicy::FusePrivateSpillShared), shared, false),
            (Some(SpillPolicy::FuseAll), shared, true),
            (None, shared, true),
        ] {
            let got = check_fused_entry(policy, S0, B, &entry);
            assert_eq!(got.is_ok(), ok, "{policy:?} {entry:?}: {got:?}");
        }
    }
}
