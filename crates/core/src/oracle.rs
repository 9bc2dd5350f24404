//! The coherence invariant oracle: a shadow reference model plus invariant
//! checker that runs alongside [`System`] when auditing is enabled.
//!
//! The paper's central claims are *safety* claims: directory-entry eviction
//! never invalidates a private copy (zero DEVs, §III-C), and overwriting a
//! home-memory block with directory segments is only sound because "at least
//! one private copy exists" whenever the block is corrupted (§III-D). The
//! protocol engine encodes those claims across ~2k lines of MESI transitions
//! with no transient states; this module re-derives the machine state from
//! the *observable* transaction stream — the same grants, invalidations,
//! downgrades, and eviction notices the private caches see — and asserts
//! after every uncore transaction that the engine's directory, LLC, and
//! home-memory bookkeeping agree with it.
//!
//! The shadow model is deliberately the dumbest possible structure: a flat
//! `BlockAddr → {per-socket holder set, owning core}` map with no capacity,
//! no banking, and no latency. Anything the real engine gets wrong — a lost
//! sharer, a stale owner, a corrupted block with no live copy — shows up as
//! a divergence from this map.
//!
//! Invariants checked:
//!
//! * **Per-block invariants** — SWMR, directory precision and exactness,
//!   dead and duplicate entries, LLC design structure, the socket-level
//!   directory, corrupted-block safety and entry placement — are written
//!   once in the crate's `invariants` module. The oracle feeds them its
//!   shadow view of every block a transaction touched, and of every block
//!   on a periodic sweep.
//! * **Event contract**: an upgrade comes from an S holder, an M/E
//!   eviction notice from the owner, and under precise formats an
//!   invalidation reaches a core holding a copy.
//! * **Zero DEV** (§III-C): a ZeroDEV configuration never emits an
//!   [`InvalReason::Dev`] invalidation.
//! * **Stats conservation**: per-transaction counter deltas, per-class
//!   message-byte totals and the spilled-lines gauge stay consistent.
//!
//! On violation the oracle panics with the offending block's full state and
//! the last 64 protocol events from a bounded ring, which the oracle's
//! image carries so a restored machine dumps the same events.

use std::fmt;
use std::fmt::Write as _;

use crate::system::{Downgrade, EvictKind, InvalReason, Invalidation, Op, System};
use zerodev_common::config::SystemConfig;
use zerodev_common::ids::SharerSet;
use zerodev_common::msg::ALL_CLASSES;
use zerodev_common::snap::{SnapError, SnapReader, SnapWriter};
use zerodev_common::FlatMap;
use zerodev_common::{BlockAddr, CoreId, MesiState, SocketId, Stats};

// ---------------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------------

/// One observable protocol event, as recorded by the oracle's ring buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AuditEvent {
    /// An uncore transaction completed with this grant.
    Access {
        /// Requesting socket.
        socket: SocketId,
        /// Requesting core.
        core: CoreId,
        /// The block.
        block: BlockAddr,
        /// The request kind.
        op: Op,
        /// The MESI state granted.
        grant: MesiState,
    },
    /// A private cache notified the uncore of an eviction.
    Evict {
        /// Evicting socket.
        socket: SocketId,
        /// Evicting core.
        core: CoreId,
        /// The block.
        block: BlockAddr,
        /// The notice kind.
        kind: EvictKind,
        /// True when the directory no longer tracked the evictor (the
        /// notice raced an invalidation and was dropped).
        stale: bool,
    },
    /// The uncore asked a private cache to invalidate a copy.
    Invalidate(Invalidation),
    /// The uncore asked a private cache to downgrade M/E → S.
    Downgrade(Downgrade),
    /// The caller reported dirty data for a downgraded copy.
    SharingWriteback {
        /// Socket of the downgraded owner.
        socket: SocketId,
        /// The block.
        block: BlockAddr,
    },
    /// The caller reported dirty data for a DEV-invalidated copy.
    DevRecall {
        /// Socket of the invalidated owner.
        socket: SocketId,
        /// The block.
        block: BlockAddr,
    },
    /// The caller reported dirty data for an inclusion-invalidated copy.
    InclusionWriteback {
        /// Socket of the invalidated owner.
        socket: SocketId,
        /// The block.
        block: BlockAddr,
    },
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::Access {
                socket,
                core,
                block,
                op,
                grant,
            } => write!(
                f,
                "access  s{}/c{} {:?} {:?} -> {:?}",
                socket.0, core.0, block, op, grant
            ),
            AuditEvent::Evict {
                socket,
                core,
                block,
                kind,
                stale,
            } => write!(
                f,
                "evict   s{}/c{} {:?} {:?}{}",
                socket.0,
                core.0,
                block,
                kind,
                if *stale { " (stale, dropped)" } else { "" }
            ),
            AuditEvent::Invalidate(i) => write!(
                f,
                "inval   s{}/c{} {:?} ({:?})",
                i.socket.0, i.core.0, i.block, i.reason
            ),
            AuditEvent::Downgrade(d) => {
                write!(f, "downgr  s{}/c{} {:?}", d.socket.0, d.core.0, d.block)
            }
            AuditEvent::SharingWriteback { socket, block } => {
                write!(f, "sh-wb   s{} {:?}", socket.0, block)
            }
            AuditEvent::DevRecall { socket, block } => {
                write!(f, "dev-wb  s{} {:?}", socket.0, block)
            }
            AuditEvent::InclusionWriteback { socket, block } => {
                write!(f, "inc-wb  s{} {:?}", socket.0, block)
            }
        }
    }
}

/// Every [`Op`], [`EvictKind`] and [`InvalReason`], in the order their
/// image bytes index.
const OPS: [Op; 4] = [Op::Read, Op::CodeRead, Op::ReadExclusive, Op::Upgrade];
const EVICT_KINDS: [EvictKind; 3] = [
    EvictKind::CleanShared,
    EvictKind::CleanExclusive,
    EvictKind::Dirty,
];
const INVAL_REASONS: [InvalReason; 3] = [
    InvalReason::Dev,
    InvalReason::Inclusion,
    InvalReason::Coherence,
];

impl AuditEvent {
    /// Writes the event: its variant tag, agent and block (core 0 for the
    /// socket-level writebacks), then the variant's other fields.
    fn snap(&self, w: &mut SnapWriter) {
        let (tag, socket, core, block) = match *self {
            AuditEvent::Access {
                socket,
                core,
                block,
                ..
            } => (0, socket, core, block),
            AuditEvent::Evict {
                socket,
                core,
                block,
                ..
            } => (1, socket, core, block),
            AuditEvent::Invalidate(i) => (2, i.socket, i.core, i.block),
            AuditEvent::Downgrade(d) => (3, d.socket, d.core, d.block),
            AuditEvent::SharingWriteback { socket, block } => (4, socket, CoreId(0), block),
            AuditEvent::DevRecall { socket, block } => (5, socket, CoreId(0), block),
            AuditEvent::InclusionWriteback { socket, block } => (6, socket, CoreId(0), block),
        };
        w.u8(tag);
        w.u8(socket.0);
        w.u16(core.0);
        w.u64(block.0);
        match *self {
            AuditEvent::Access { op, grant, .. } => {
                w.variant(&OPS, &op);
                w.variant(&MesiState::ALL, &grant);
            }
            AuditEvent::Evict { kind, stale, .. } => {
                w.variant(&EVICT_KINDS, &kind);
                w.bool(stale);
            }
            AuditEvent::Invalidate(i) => w.variant(&INVAL_REASONS, &i.reason),
            _ => {}
        }
    }

    /// Decodes an [`AuditEvent::snap`] image.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<AuditEvent, SnapError> {
        let tag = r.u8("audit event tag")?;
        let socket = SocketId(r.u8("audit event socket")?);
        let core = CoreId(r.u16("audit event core")?);
        let block = BlockAddr(r.u64("audit event block")?);
        Ok(match tag {
            0 => AuditEvent::Access {
                socket,
                core,
                block,
                op: r.variant(&OPS, "audit event op")?,
                grant: r.variant(&MesiState::ALL, "audit event grant")?,
            },
            1 => AuditEvent::Evict {
                socket,
                core,
                block,
                kind: r.variant(&EVICT_KINDS, "audit event evict kind")?,
                stale: r.bool("audit event stale")?,
            },
            2 => AuditEvent::Invalidate(Invalidation {
                socket,
                core,
                block,
                reason: r.variant(&INVAL_REASONS, "audit event reason")?,
            }),
            3 => AuditEvent::Downgrade(Downgrade {
                socket,
                core,
                block,
            }),
            4 => AuditEvent::SharingWriteback { socket, block },
            5 => AuditEvent::DevRecall { socket, block },
            6 => AuditEvent::InclusionWriteback { socket, block },
            _ => {
                return Err(SnapError::Corrupt {
                    context: "audit event tag",
                })
            }
        })
    }
}

/// A bounded ring buffer of the most recent protocol events, which the
/// oracle dumps on every violation.
#[derive(Debug)]
pub(crate) struct EventLog {
    buf: std::collections::VecDeque<AuditEvent>,
    cap: usize,
}

zerodev_common::fieldwise_clone!(EventLog { buf, cap });

impl EventLog {
    /// Creates a log keeping the most recent `cap` events.
    fn new(cap: usize) -> Self {
        EventLog {
            buf: std::collections::VecDeque::with_capacity(cap.max(1)),
            cap: cap.max(1),
        }
    }

    /// Records an event, dropping the oldest once full.
    fn push(&mut self, e: AuditEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(e);
    }

    /// Renders the retained events, oldest first, one per line.
    fn dump(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "last {} protocol events (oldest first):", self.buf.len());
        for e in &self.buf {
            let _ = writeln!(s, "  {e}");
        }
        s
    }

    /// Writes the retained events, oldest first.
    // lint:allow(snapshot_complete(cap), the depth is the oracle's constant; restore rejects an image holding more events)
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.buf.len());
        for e in &self.buf {
            e.snap(w);
        }
    }

    /// Restores an [`EventLog::snap`] image into this log.
    fn unsnap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize("oracle event count")?;
        if n > self.cap {
            return Err(SnapError::Corrupt {
                context: "oracle event count",
            });
        }
        self.buf.clear();
        for _ in 0..n {
            self.buf.push_back(AuditEvent::unsnap(r)?);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shadow model
// ---------------------------------------------------------------------------

/// The shadow view of one block: which cores hold it, per socket, and which
/// single core (if any) was granted E or M. A silent E→M upgrade is
/// invisible on the wire, so the owner slot means "E-or-M"; the eviction
/// notice kind reveals the final state and is cross-checked on the way out.
#[derive(PartialEq, Eq, Debug)]
struct ShadowBlock {
    holders: Vec<SharerSet>,
    owner: Option<(SocketId, CoreId)>,
}

zerodev_common::fieldwise_clone!(ShadowBlock { holders, owner });

impl ShadowBlock {
    fn new(sockets: usize) -> Self {
        ShadowBlock {
            holders: vec![SharerSet::default(); sockets],
            owner: None,
        }
    }
}

/// Per-transaction counter snapshot, taken at the top of `System::access`
/// so the delta checks survive the post-warmup stats reset.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StatsSnap {
    core_cache_misses: u64,
    upgrades: u64,
    llc_hits: u64,
    llc_misses: u64,
}

impl StatsSnap {
    pub(crate) fn of(stats: &Stats) -> Self {
        StatsSnap {
            core_cache_misses: stats.core_cache_misses,
            upgrades: stats.upgrades,
            llc_hits: stats.llc_hits,
            llc_misses: stats.llc_misses,
        }
    }
}

/// How many transactions pass between full shadow-map sweeps. Per-block
/// checks run on every transaction; the sweep re-verifies blocks the
/// transaction did not touch (e.g. victims of unrelated LLC churn).
const SWEEP_EVERY: u64 = 4096;

/// Default event-log depth.
const LOG_DEPTH: usize = 64;

/// The invariant checker. One instance lives inside [`System`] when
/// auditing is enabled (see [`System::enable_audit`]); it observes the
/// transaction stream through crate-internal hooks and panics on the first
/// violation. All of its reads go through recency-neutral peek accessors,
/// so an audited run produces byte-identical statistics to an unaudited
/// one.
#[derive(Debug)]
pub struct Oracle {
    sockets: usize,
    zerodev: bool,
    shadow: FlatMap<ShadowBlock>,
    log: EventLog,
    txns: u64,
}

zerodev_common::fieldwise_clone!(Oracle {
    sockets,
    zerodev,
    shadow,
    log,
    txns,
});

impl Oracle {
    /// Builds an oracle for the machine in `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        Oracle {
            sockets: cfg.sockets,
            zerodev: cfg.zerodev.is_some(),
            shadow: FlatMap::new(),
            log: EventLog::new(LOG_DEPTH),
            txns: 0,
        }
    }

    /// Serializes the audit state: the transaction count (sweep cadence),
    /// the shadow map lane-exact and the event ring, so a restored oracle
    /// equals its clone and dumps the same events on a violation.
    // lint:allow(snapshot_complete(sockets, zerodev), audit mode flags are config-derived; restore targets an oracle built from the same configuration)
    pub fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.txns);
        self.shadow.snapshot_with(w, |w, sb| {
            for h in &sb.holders {
                w.u128(h.0);
            }
            match sb.owner {
                Some((s, c)) => {
                    w.bool(true);
                    w.u8(s.0);
                    w.u16(c.0);
                }
                None => w.bool(false),
            }
        });
        self.log.snap(w);
    }

    /// Restores an [`Oracle::snap`] image into this oracle, which must have
    /// been built for the same configuration ([`Oracle::new`]).
    ///
    /// # Errors
    /// Fails with a structural [`SnapError`] on decode error or an owner
    /// outside the machine.
    // lint:allow(snapshot_complete(zerodev), an audit mode flag derived from the configuration; restore targets an oracle built from it)
    pub fn unsnap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.txns = r.u64("oracle txns")?;
        let sockets = self.sockets;
        self.shadow.restore_with(r, |r| {
            let holders = (0..sockets)
                .map(|_| r.u128("oracle holder set").map(SharerSet))
                .collect::<Result<_, _>>()?;
            let owner = if r.bool("oracle owner flag")? {
                let (s, c) = (r.u8("oracle owner socket")?, r.u16("oracle owner core")?);
                if usize::from(s) >= sockets || u32::from(c) >= u128::BITS {
                    return Err(SnapError::Corrupt {
                        context: "oracle owner",
                    });
                }
                Some((SocketId(s), CoreId(c)))
            } else {
                None
            };
            Ok(ShadowBlock { holders, owner })
        })?;
        self.log.unsnap(r)
    }

    // -- hooks ------------------------------------------------------------

    /// Called at the end of `System::access` with the transaction outcome
    /// and the counters `before` it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn after_access(
        &mut self,
        sys: &System,
        before: StatsSnap,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        op: Op,
        grant: MesiState,
        invals: &[Invalidation],
        downgrades: &[Downgrade],
    ) {
        self.txns += 1;
        // Apply the transaction to the shadow map in the same order the
        // engine's synchronous directory applied it: downgrades, then
        // invalidations, then the grant.
        for d in downgrades {
            self.log.push(AuditEvent::Downgrade(*d));
            let sb = self.entry(d.block);
            if sb.owner == Some((d.socket, d.core)) {
                sb.owner = None;
            }
        }
        for i in invals {
            self.apply_inval(sys, i);
        }
        if op == Op::Upgrade {
            let sb = self.entry(block);
            if !sb.holders[socket.0 as usize].contains(core) {
                self.fail(sys, block, "upgrade issued by a core that holds no S copy");
            }
        }
        let sb = self.entry(block);
        sb.holders[socket.0 as usize].insert(core);
        match grant {
            MesiState::Modified | MesiState::Exclusive => sb.owner = Some((socket, core)),
            MesiState::Shared => {}
            MesiState::Invalid => self.fail(sys, block, "access granted Invalid"),
        }
        self.log.push(AuditEvent::Access {
            socket,
            core,
            block,
            op,
            grant,
        });

        self.check_access_stat_deltas(sys, before, block, op);
        self.check_block(sys, block);
        for i in invals {
            if i.block != block {
                self.check_block(sys, i.block);
            }
        }
        if self.txns.is_multiple_of(SWEEP_EVERY) {
            self.full_sweep(sys);
        }
    }

    /// Called at the end of `System::evict` with the churn it caused.
    pub(crate) fn after_evict(
        &mut self,
        sys: &System,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        kind: EvictKind,
        invals: &[Invalidation],
    ) {
        let sb = self.entry(block);
        let held = sb.holders[socket.0 as usize].contains(core);
        let was_owner = sb.owner == Some((socket, core));
        self.log.push(AuditEvent::Evict {
            socket,
            core,
            block,
            kind,
            stale: !held,
        });
        if held {
            // The notice kind reveals the private state at eviction and
            // must agree with the grant history (silent E→M upgrades stay
            // within the owner slot).
            match kind {
                EvictKind::Dirty | EvictKind::CleanExclusive if !was_owner => {
                    self.fail(sys, block, "M/E eviction notice from a non-owner")
                }
                EvictKind::CleanShared if was_owner => {
                    self.fail(sys, block, "owner sent a shared-clean eviction notice")
                }
                _ => {}
            }
            let sb = self.entry(block);
            sb.holders[socket.0 as usize].remove(core);
            if was_owner {
                sb.owner = None;
            }
        }
        for i in invals {
            self.apply_inval(sys, i);
        }
        self.check_block(sys, block);
        for i in invals {
            if i.block != block {
                self.check_block(sys, i.block);
            }
        }
    }

    /// Called after `System::dev_dirty_recall` (baseline configurations).
    pub(crate) fn after_dev_recall(
        &mut self,
        sys: &System,
        socket: SocketId,
        block: BlockAddr,
        invals: &[Invalidation],
    ) {
        self.log.push(AuditEvent::DevRecall { socket, block });
        for i in invals {
            self.apply_inval(sys, i);
        }
        self.check_block(sys, block);
    }

    /// Called after `System::sharing_writeback`.
    pub(crate) fn after_sharing_writeback(
        &mut self,
        sys: &System,
        socket: SocketId,
        block: BlockAddr,
    ) {
        self.log
            .push(AuditEvent::SharingWriteback { socket, block });
        self.check_block(sys, block);
    }

    /// Called after `System::inclusion_dirty_writeback`.
    pub(crate) fn after_inclusion_writeback(
        &mut self,
        sys: &System,
        socket: SocketId,
        block: BlockAddr,
    ) {
        self.log
            .push(AuditEvent::InclusionWriteback { socket, block });
        self.check_block(sys, block);
    }

    // -- shadow updates ---------------------------------------------------

    fn entry(&mut self, block: BlockAddr) -> &mut ShadowBlock {
        let sockets = self.sockets;
        if !self.shadow.contains_key(block.0) {
            self.shadow.insert(block.0, ShadowBlock::new(sockets));
        }
        self.shadow.get_mut(block.0).expect("just inserted")
    }

    fn apply_inval(&mut self, sys: &System, i: &Invalidation) {
        self.log.push(AuditEvent::Invalidate(*i));
        if self.zerodev && i.reason == InvalReason::Dev {
            self.fail(
                sys,
                i.block,
                "a ZeroDEV configuration emitted a directory-eviction victim (DEV)",
            );
        }
        let exact = crate::invariants::exact_tracking(sys.config());
        let sb = self.entry(i.block);
        let s = i.socket.0 as usize;
        if !sb.holders[s].contains(i.core) {
            // MgD region entries legally over-invalidate; the spurious
            // message is acknowledged and ignored. Under precise tracking
            // it is a protocol bug.
            if exact {
                self.fail(sys, i.block, "invalidation sent to a core holding no copy");
            }
            return;
        }
        sb.holders[s].remove(i.core);
        if sb.owner == Some((i.socket, i.core)) {
            sb.owner = None;
        }
    }

    // -- checks -----------------------------------------------------------

    fn check_access_stat_deltas(&self, sys: &System, before: StatsSnap, block: BlockAddr, op: Op) {
        let stats = &sys.stats;
        let d_miss = stats.core_cache_misses - before.core_cache_misses;
        let d_upg = stats.upgrades - before.upgrades;
        if d_miss + d_upg != 1 {
            self.fail(
                sys,
                block,
                "one access must count exactly one core-cache miss or upgrade",
            );
        }
        if (op == Op::Upgrade) != (d_upg == 1) {
            self.fail(sys, block, "access counted under the wrong class");
        }
        let d_llc = (stats.llc_hits - before.llc_hits) + (stats.llc_misses - before.llc_misses);
        if d_llc > 1 {
            self.fail(sys, block, "one access counted more than one LLC hit/miss");
        }
        self.check_stats(sys, block);
    }

    /// Message-byte totals must equal per-class counts times the class
    /// size, and a ZeroDEV machine must never have counted a DEV.
    fn check_stats(&self, sys: &System, block: BlockAddr) {
        let stats = &sys.stats;
        for (i, c) in ALL_CLASSES.iter().enumerate() {
            if stats.msg_bytes[i] != stats.msg_counts[i] * c.bytes() {
                self.fail(
                    sys,
                    block,
                    &format!(
                        "message-byte conservation broken for {:?}: {} bytes from {} messages of {} bytes",
                        c, stats.msg_bytes[i], stats.msg_counts[i], c.bytes()
                    ),
                );
            }
        }
        if self.zerodev && stats.dev_invalidations != 0 {
            self.fail(sys, block, "ZeroDEV machine counted DEV invalidations");
        }
        if stats.dram_writes_dir != stats.dir_llc_evictions {
            self.fail(
                sys,
                block,
                "every directory LLC eviction must write home memory exactly once (WB_DE)",
            );
        }
    }

    /// Checks every per-block invariant ([`crate::invariants::check_block`])
    /// against the shadow view of `block`. Exposed within the crate so
    /// [`System::audit_check_block`] can verify a freshly fault-injected
    /// block without waiting for the next sweep.
    pub(crate) fn check_block(&self, sys: &System, block: BlockAddr) {
        // A block the shadow map never saw has no holders anywhere.
        let (holders, owner) = self
            .shadow
            .get(block.0)
            .map_or((&[][..], None), |sb| (&sb.holders[..], sb.owner));
        if let Err(v) = crate::invariants::check_block(sys, block, holders, owner) {
            self.fail(sys, block, &v.to_string());
        }
    }

    /// Walks the whole shadow map plus global counters. Called
    /// periodically from the access hook and once at the end of an audited
    /// run (see [`System::audit_sweep`]).
    pub fn full_sweep(&self, sys: &System) {
        let mut blocks: Vec<BlockAddr> = self.shadow.iter().map(|(k, _)| BlockAddr(k)).collect();
        blocks.sort_unstable_by_key(|b| b.0);
        for b in blocks {
            self.check_block(sys, b);
        }
        // Every corrupted home block must be known to the shadow map (it
        // became corrupted through an observed transaction).
        for (b, _) in sys.memory().corrupted_blocks() {
            if !self.shadow.contains_key(b.0) {
                self.fail(sys, b, "corrupted block never seen in the access stream");
            }
        }
        // Gauge conservation: the spilled-lines gauge tracks the real LLC.
        let actual: usize = (0..self.sockets)
            .map(|s| sys.spilled_lines(SocketId(s as u8)))
            .sum();
        if sys.stats.spilled_lines_current != actual as u64 {
            panic!(
                "coherence oracle violation: spilled-lines gauge ({}) diverged from the LLC ({})\n{}",
                sys.stats.spilled_lines_current,
                actual,
                self.log.dump()
            );
        }
        self.check_stats(sys, BlockAddr(0));
        // Structural walker shared with the property tests.
        sys.check_invariants();
    }

    // -- violation reporting ----------------------------------------------

    /// Renders everything known about `block` (shadow and engine state).
    fn describe_block(&self, sys: &System, block: BlockAddr) -> String {
        let mut out = String::new();
        let mem = sys.memory();
        match self.shadow.get(block.0) {
            Some(sb) => {
                let _ = writeln!(out, "  shadow owner: {:?}", sb.owner);
                for (s, h) in sb.holders.iter().enumerate() {
                    if !h.is_empty() {
                        let _ = writeln!(out, "  shadow holders s{s}: {h:?}");
                    }
                }
            }
            None => {
                let _ = writeln!(out, "  shadow: block never accessed");
            }
        }
        for s in 0..self.sockets {
            let sid = SocketId(s as u8);
            let _ = writeln!(
                out,
                "  s{s}: entry={:?} segment={:?} llc={:?}",
                sys.entry_of(sid, block),
                mem.peek_entry(block, sid),
                sys.llc_line_of(sid, block),
            );
        }
        if self.sockets > 1 {
            let _ = writeln!(
                out,
                "  socket dir: {:?}",
                mem.socket_dir_peek(sys.config().home_socket(block), block)
            );
        }
        let _ = writeln!(out, "  memory corrupted: {}", mem.is_corrupted(block));
        out
    }

    fn fail(&self, sys: &System, block: BlockAddr, why: &str) -> ! {
        panic!(
            "coherence oracle violation: {why}\nblock {:?} state after {} transactions:\n{}{}",
            block,
            self.txns,
            self.describe_block(sys, block),
            self.log.dump()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_is_bounded_and_ordered() {
        let mut log = EventLog::new(4);
        for i in 0..10u64 {
            log.push(AuditEvent::SharingWriteback {
                socket: SocketId(0),
                block: BlockAddr(i),
            });
        }
        let blocks: Vec<u64> = log
            .buf
            .iter()
            .map(|e| match e {
                AuditEvent::SharingWriteback { block, .. } => block.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(blocks, vec![6, 7, 8, 9]);
        assert!(log.dump().contains("sh-wb"));
    }

    #[test]
    fn event_display_is_compact() {
        let e = AuditEvent::Invalidate(Invalidation {
            socket: SocketId(1),
            core: CoreId(3),
            block: BlockAddr(0x40),
            reason: InvalReason::Coherence,
        });
        let s = format!("{e}");
        assert!(s.contains("s1/c3"), "{s}");
        assert!(s.contains("Coherence"), "{s}");
    }

    #[test]
    fn unsnap_rejects_a_shadow_capacity_the_image_cannot_hold() {
        let mut w = SnapWriter::image();
        w.u64(0); // transactions
        w.usize(1 << 62); // shadow slots, none of them present
        let mut oracle = Oracle::new(&SystemConfig::baseline_8core());
        assert_eq!(
            oracle.unsnap(&mut SnapReader::image(w.as_bytes())),
            Err(SnapError::Corrupt {
                context: "flatmap capacity"
            })
        );
    }

    #[test]
    fn every_event_kind_round_trips_through_the_ring_image() {
        let (socket, core, block) = (SocketId(1), CoreId(3), BlockAddr(0x40));
        let mut log = EventLog::new(LOG_DEPTH);
        for (op, grant) in OPS.into_iter().zip(MesiState::ALL) {
            log.push(AuditEvent::Access {
                socket,
                core,
                block,
                op,
                grant,
            });
        }
        for (kind, stale) in EVICT_KINDS.into_iter().zip([true, false, true]) {
            log.push(AuditEvent::Evict {
                socket,
                core,
                block,
                kind,
                stale,
            });
        }
        for reason in INVAL_REASONS {
            log.push(AuditEvent::Invalidate(Invalidation {
                socket,
                core,
                block,
                reason,
            }));
        }
        log.push(AuditEvent::Downgrade(Downgrade {
            socket,
            core,
            block,
        }));
        log.push(AuditEvent::SharingWriteback { socket, block });
        log.push(AuditEvent::DevRecall { socket, block });
        log.push(AuditEvent::InclusionWriteback { socket, block });
        let mut w = SnapWriter::image();
        log.snap(&mut w);
        let mut back = EventLog::new(LOG_DEPTH);
        back.push(AuditEvent::DevRecall { socket, block });
        let mut r = SnapReader::image(w.as_bytes());
        back.unsnap(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.buf, log.buf);
        // A ring deeper than the log's own is corrupt.
        let mut small = EventLog::new(4);
        assert_eq!(
            small.unsnap(&mut SnapReader::image(w.as_bytes())),
            Err(SnapError::Corrupt {
                context: "oracle event count"
            })
        );
    }
}
