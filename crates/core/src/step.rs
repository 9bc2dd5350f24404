//! The model checker's transition surface over the concrete [`System`].
//!
//! The exhaustive checker (`zerodev_model`) and the cycle-accurate simulator
//! (`zerodev-sim`) must exercise *one* set of protocol rules. The pure rules
//! live in [`zerodev_common::protocol`]; this module packages the concrete
//! [`System`] plus the engine's effect-application contract (downgrades
//! first, then the invalidation stack with dirty-data reporting — the exact
//! loop in `zerodev-sim`'s `apply_effects`) behind a deterministic
//! `(state, event) -> state'` interface with no timing, no workloads and no
//! private-cache geometry.
//!
//! Cores are abstracted to unbounded shadow caches: a core holds each block
//! in a MESI state and never self-evicts — evictions are explicit
//! [`ProtocolEvent::Evict`] transitions, so the checker enumerates every
//! interleaving of accesses and evictions the finite core caches could
//! produce.
//!
//! Data values are symbolic *write tokens*: the harness tracks, per block,
//! which locations (core copies, per-socket LLC lines, home memory) hold the
//! value of the most recent store. A protocol that serves a stale source,
//! loses a dirty writeback, or reads a corrupted home block trips a
//! [`StepViolation`] without the state space ever growing with the number of
//! writes.
//!
//! The structural invariants are the ones the audit oracle checks too:
//! [`ProtocolHarness::check`] feeds its shadow to the crate's `invariants`
//! module.

#![deny(clippy::unwrap_used, clippy::indexing_slicing)]

use crate::invariants;
use crate::llc::LlcLine;
use crate::system::System;
use std::fmt;
use zerodev_common::config::{ConfigError, SystemConfig};
use zerodev_common::ids::SharerSet;
use zerodev_common::protocol::{EvictKind, InvalReason, Op};
use zerodev_common::snap::{SnapError, SnapReader, SnapWriter};
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, SocketId};

/// One atomic transition of the abstracted system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolEvent {
    /// A private-hierarchy miss (or upgrade) reaching the uncore.
    Access {
        /// Requesting socket.
        socket: SocketId,
        /// Requesting core.
        core: CoreId,
        /// Requested block.
        block: BlockAddr,
        /// Request flavour.
        op: Op,
    },
    /// A silent E→M upgrade: no uncore traffic, the directory still sees an
    /// owned line (the store that makes "clean-exclusive" copies dirty).
    SilentWrite {
        /// Writing socket.
        socket: SocketId,
        /// Writing core.
        core: CoreId,
        /// Written block.
        block: BlockAddr,
    },
    /// A private-cache eviction notice.
    Evict {
        /// Evicting socket.
        socket: SocketId,
        /// Evicting core.
        core: CoreId,
        /// Evicted block.
        block: BlockAddr,
        /// Notice kind (must match the copy's MESI state).
        kind: EvictKind,
    },
}

impl ProtocolEvent {
    /// A miss or upgrade of `block` by `socket`/`core`.
    pub fn access(socket: SocketId, core: CoreId, block: BlockAddr, op: Op) -> Self {
        ProtocolEvent::Access {
            socket,
            core,
            block,
            op,
        }
    }

    /// A silent E→M store to `block` by `socket`/`core`.
    pub fn silent_write(socket: SocketId, core: CoreId, block: BlockAddr) -> Self {
        ProtocolEvent::SilentWrite {
            socket,
            core,
            block,
        }
    }

    /// An eviction notice for `block` from `socket`/`core`.
    pub fn evict(socket: SocketId, core: CoreId, block: BlockAddr, kind: EvictKind) -> Self {
        ProtocolEvent::Evict {
            socket,
            core,
            block,
            kind,
        }
    }

    /// The socket and core issuing the event.
    pub fn agent(&self) -> (SocketId, CoreId) {
        let (ProtocolEvent::Access { socket, core, .. }
        | ProtocolEvent::SilentWrite { socket, core, .. }
        | ProtocolEvent::Evict { socket, core, .. }) = *self;
        (socket, core)
    }

    /// The block the event touches.
    pub fn block(&self) -> BlockAddr {
        let (ProtocolEvent::Access { block, .. }
        | ProtocolEvent::SilentWrite { block, .. }
        | ProtocolEvent::Evict { block, .. }) = *self;
        block
    }
}

impl fmt::Display for ProtocolEvent {
    /// Same vocabulary as the audit oracle's event-log dump, so a checker
    /// counterexample reads like an oracle trace.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolEvent::Access {
                socket,
                core,
                block,
                op,
            } => write!(f, "access  s{}/c{} {block:?} {op:?}", socket.0, core.0),
            ProtocolEvent::SilentWrite {
                socket,
                core,
                block,
            } => write!(
                f,
                "write   s{}/c{} {block:?} (silent E->M)",
                socket.0, core.0
            ),
            ProtocolEvent::Evict {
                socket,
                core,
                block,
                kind,
            } => write!(f, "evict   s{}/c{} {block:?} {kind:?}", socket.0, core.0),
        }
    }
}

/// A violated invariant: returned by [`ProtocolHarness::apply`],
/// [`ProtocolHarness::transition`] and [`ProtocolHarness::check`], and by
/// the shared per-block predicates in the crate's `invariants` module. The
/// concrete [`System`] and the audit oracle panic instead; the explorer and
/// trace replay catch those panics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StepViolation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable detail in the oracle's describe vocabulary.
    pub detail: String,
}

impl fmt::Display for StepViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Where the symbolic latest value of one block currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct WriteToken {
    /// Global core indices (socket × cores + core) holding the latest value.
    pub cores: u128,
    /// Sockets whose LLC block line holds the latest value.
    pub llc: u32,
    /// Home memory holds the latest value (meaningful only while the home
    /// copy is not corrupted).
    pub mem: bool,
}

/// The pre-event snapshot `ProtocolHarness::observe` takes.
struct Observation {
    sockets: usize,
    /// `lines[block_index * sockets + socket]`: that socket's LLC line for
    /// the block.
    lines: Vec<Option<LlcLine>>,
    /// Per block: home memory was corrupted.
    corrupted: Vec<bool>,
}

impl Observation {
    fn line(&self, bi: usize, s: usize) -> Option<LlcLine> {
        self.lines.get(bi * self.sockets + s).copied().flatten()
    }

    fn corrupted(&self, bi: usize) -> bool {
        *self.corrupted.get(bi).expect("observation per block")
    }
}

/// The concrete machine plus the abstract per-core shadow states and the
/// symbolic value model — everything one reachable state consists of.
/// `clone_from` copies a state into the target's own buffers, so the
/// model checker builds every successor in one reused harness; `snap` and
/// `unsnap` turn a state into an image and back, so its frontier holds
/// bytes rather than machines.
#[derive(Debug)]
pub struct ProtocolHarness {
    sys: System,
    blocks: Vec<BlockAddr>,
    sockets: usize,
    cores: usize,
    /// `shadow[global_core * blocks + block_index]`.
    shadow: Vec<MesiState>,
    /// Per block: locations holding the symbolic latest value.
    tokens: Vec<WriteToken>,
}

zerodev_common::fieldwise_clone!(ProtocolHarness {
    sys,
    blocks,
    sockets,
    cores,
    shadow,
    tokens,
});

impl ProtocolHarness {
    /// Builds a quiescent machine over `blocks` (all shadow copies Invalid,
    /// home memory fresh). Every event must touch a block in `blocks`.
    /// `audit` attaches the coherence oracle: inside every `apply` it checks
    /// [`Self::check`]'s per-block predicates from its own stream-derived
    /// view, plus its event contract and stats conservation, and panics on
    /// a violation.
    ///
    /// # Errors
    /// Propagates configuration validation failures.
    pub fn new(
        cfg: SystemConfig,
        blocks: Vec<BlockAddr>,
        audit: bool,
    ) -> Result<Self, ConfigError> {
        let sockets = cfg.sockets;
        let cores = cfg.cores;
        let mut sys = System::new(cfg)?;
        if audit {
            sys.enable_audit();
        }
        let n = blocks.len();
        Ok(ProtocolHarness {
            sys,
            blocks,
            sockets,
            cores,
            shadow: vec![MesiState::Invalid; sockets * cores * n],
            tokens: vec![
                WriteToken {
                    cores: 0,
                    llc: 0,
                    mem: true,
                };
                n
            ],
        })
    }

    /// The concrete machine (canonical-state extraction, diagnostics).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// The tracked block set.
    pub fn blocks(&self) -> &[BlockAddr] {
        &self.blocks
    }

    /// Socket count.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Cores per socket.
    pub fn cores(&self) -> usize {
        self.cores
    }

    fn gidx(&self, socket: SocketId, core: CoreId) -> usize {
        socket.0 as usize * self.cores + core.0 as usize
    }

    fn bidx(&self, block: BlockAddr) -> usize {
        self.blocks
            .iter()
            .position(|b| *b == block)
            .expect("event references a tracked block")
    }

    /// Shadow MESI state of one core's copy.
    pub fn shadow_state(&self, socket: SocketId, core: CoreId, block: BlockAddr) -> MesiState {
        let i = self.gidx(socket, core) * self.blocks.len() + self.bidx(block);
        *self.shadow.get(i).expect("shadow index in range")
    }

    fn set_shadow(&mut self, socket: SocketId, core: CoreId, block: BlockAddr, s: MesiState) {
        let i = self.gidx(socket, core) * self.blocks.len() + self.bidx(block);
        *self.shadow.get_mut(i).expect("shadow index in range") = s;
    }

    /// The write token of one block (canonical-state extraction).
    pub fn token(&self, block: BlockAddr) -> WriteToken {
        *self.tokens.get(self.bidx(block)).expect("token in range")
    }

    /// Writes the state as an image: the machine ([`System::snap`]), then
    /// every shadow MESI state and every write token. Restoring it with
    /// [`Self::unsnap`] into a harness of the same configuration gives a
    /// harness equal to this one's clone.
    // lint:allow(snapshot_complete(blocks, sockets, cores), the machine's shape and block set, given at construction; the shadow and token lengths follow from them)
    pub fn snap(&self, w: &mut SnapWriter) {
        self.sys.snap(w);
        for st in &self.shadow {
            w.variant(&MesiState::ALL, st);
        }
        for t in &self.tokens {
            w.u128(t.cores);
            w.u32(t.llc);
            w.bool(t.mem);
        }
    }

    /// Restores a [`Self::snap`] image into this harness, which must have
    /// been built with the same configuration and blocks.
    ///
    /// # Errors
    /// Fails with a structural [`SnapError`] on a configuration mismatch or
    /// a corrupt or truncated image; the harness must then be discarded.
    // lint:allow(snapshot_complete(blocks, sockets, cores), the machine's shape and block set, given at construction; the shadow and token lengths follow from them)
    pub fn unsnap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sys.unsnap(r)?;
        for st in self.shadow.iter_mut() {
            *st = r.variant(&MesiState::ALL, "harness shadow state")?;
        }
        for t in self.tokens.iter_mut() {
            t.cores = r.u128("harness token cores")?;
            t.llc = r.u32("harness token llc")?;
            t.mem = r.bool("harness token mem")?;
        }
        Ok(())
    }

    /// True when every shadow copy is Invalid — the drain target for the
    /// livelock check.
    pub fn is_quiescent(&self) -> bool {
        self.shadow.iter().all(|s| *s == MesiState::Invalid)
    }

    /// Every transition enabled in the current state. Re-accesses of held
    /// blocks and repeated stores to an M copy are private-hierarchy hits
    /// that never reach the uncore, so they are not enumerated.
    pub fn enabled_events(&self) -> Vec<ProtocolEvent> {
        let mut evs = Vec::new();
        for s in 0..self.sockets {
            for c in 0..self.cores {
                let (socket, core) = (SocketId(s as u8), CoreId(c as u16));
                for &block in &self.blocks {
                    let st = self.shadow_state(socket, core, block);
                    let ops: &[Op] = match st {
                        MesiState::Invalid => &[Op::Read, Op::CodeRead, Op::ReadExclusive],
                        MesiState::Shared => &[Op::Upgrade],
                        MesiState::Exclusive | MesiState::Modified => &[],
                    };
                    for &op in ops {
                        evs.push(ProtocolEvent::access(socket, core, block, op));
                    }
                    if st == MesiState::Exclusive {
                        evs.push(ProtocolEvent::silent_write(socket, core, block));
                    }
                    if let Some(kind) = EvictKind::for_state(st) {
                        evs.push(ProtocolEvent::evict(socket, core, block, kind));
                    }
                }
            }
        }
        evs
    }

    fn token_mut(&mut self, block: BlockAddr) -> &mut WriteToken {
        let i = self.bidx(block);
        self.tokens.get_mut(i).expect("token in range")
    }

    /// Snapshot of every tracked block's per-socket LLC line and corruption
    /// flag, taken before an event so data movement can be attributed
    /// afterwards.
    fn observe(&self) -> Observation {
        let mut lines = Vec::with_capacity(self.blocks.len() * self.sockets);
        for &b in &self.blocks {
            lines.extend((0..self.sockets).map(|s| self.sys.llc_line_of(SocketId(s as u8), b)));
        }
        Observation {
            sockets: self.sockets,
            lines,
            corrupted: self
                .blocks
                .iter()
                .map(|&b| self.sys.memory_corrupted(b))
                .collect(),
        }
    }

    /// Post-event reconciliation of value locations against observable
    /// machine state: LLC lines that left a socket drop their latest bit
    /// (dirty departures restore home memory), and a freshly corrupted home
    /// copy loses its memory bit (WB_DE destroyed the data bits).
    fn reconcile(&mut self, before: &Observation) {
        for i in 0..self.blocks.len() {
            let block = *self.blocks.get(i).expect("block index in range");
            let corrupted_before = before.corrupted(i);
            let corrupted_after = self.sys.memory_corrupted(block);
            for s in 0..self.sockets {
                let was = before.line(i, s);
                let now = self.sys.llc_line_of(SocketId(s as u8), block);
                let was_dirty = matches!(
                    was,
                    Some(
                        LlcLine::Data { dirty: true }
                            | LlcLine::Fused {
                                block_dirty: true,
                                ..
                            }
                    )
                );
                match now {
                    None => {
                        if let Some(_line) = was {
                            let tok = self.token_mut(block);
                            if tok.llc & (1 << s) != 0 {
                                tok.llc &= !(1 << s);
                                if was_dirty {
                                    // The departing dirty line was written
                                    // home.
                                    tok.mem = true;
                                }
                            }
                        }
                    }
                    Some(
                        LlcLine::Data { dirty: false }
                        | LlcLine::Fused {
                            block_dirty: false, ..
                        },
                    ) if was_dirty => {
                        // The line was cleaned in place: the only flow that
                        // clears a dirty bit is a writeback to home (e.g. a
                        // remote-read downgrade), so home now holds what the
                        // line holds.
                        let tok = self.token_mut(block);
                        if tok.llc & (1 << s) != 0 {
                            tok.mem = true;
                        }
                    }
                    Some(_) => {}
                }
            }
            if corrupted_after {
                // Directory-entry bits live where the data bits were: a
                // corrupted home copy holds no value at all.
                self.token_mut(block).mem = false;
            } else if corrupted_before {
                // A restore always sources a live valid copy, which holds
                // the latest value by the value-coherence invariant, so an
                // uncorrupted home copy is a latest copy.
                self.token_mut(block).mem = true;
            }
        }
    }

    /// Applies the engine's effect contract: downgrades first (M owners
    /// report a sharing writeback), then the invalidation stack, where a
    /// Modified victim reports its dirty data per the invalidation reason
    /// and DEV recalls may push further invalidations. Mirrors
    /// `Simulation::apply_effects` exactly.
    ///
    /// # Errors
    /// A downgrade must reach an M/E copy (`event contract`).
    fn apply_effects(
        &mut self,
        downgrades: Vec<zerodev_common::protocol::Downgrade>,
        invalidations: Vec<zerodev_common::protocol::Invalidation>,
    ) -> Result<(), StepViolation> {
        for d in downgrades {
            let g = self.gidx(d.socket, d.core);
            let prior = self.shadow_state(d.socket, d.core, d.block);
            if !prior.is_owned() {
                return Err(StepViolation {
                    invariant: "event contract",
                    detail: format!(
                        "downgrade of {prior} {:?} at s{}/c{}",
                        d.block, d.socket.0, d.core.0
                    ),
                });
            }
            let was_m = prior == MesiState::Modified;
            self.set_shadow(d.socket, d.core, d.block, MesiState::Shared);
            if was_m {
                self.sys.sharing_writeback(Cycle::ZERO, d.socket, d.block);
                // Mirror where the writeback landed: the LLC line when one
                // survives the transaction's set churn, home memory when
                // none does (and always on multi-socket machines).
                let has_line = self
                    .sys
                    .llc_line_of(d.socket, d.block)
                    .is_some_and(|l| l.holds_block());
                let multisocket = self.sockets > 1;
                let tok = self.token_mut(d.block);
                if tok.cores & (1 << g) != 0 {
                    if has_line {
                        tok.llc |= 1 << d.socket.0;
                    }
                    if multisocket || !has_line {
                        tok.mem = true;
                    }
                }
            }
        }
        let mut stack = invalidations;
        while let Some(inv) = stack.pop() {
            let g = self.gidx(inv.socket, inv.core);
            let prior = self.shadow_state(inv.socket, inv.core, inv.block);
            self.set_shadow(inv.socket, inv.core, inv.block, MesiState::Invalid);
            let was_latest = {
                let tok = self.token_mut(inv.block);
                let was = tok.cores & (1 << g) != 0;
                tok.cores &= !(1 << g);
                was
            };
            if prior == MesiState::Modified {
                match inv.reason {
                    InvalReason::Dev => {
                        let more = self
                            .sys
                            .dev_dirty_recall(Cycle::ZERO, inv.socket, inv.block);
                        if was_latest {
                            self.token_mut(inv.block).llc |= 1 << inv.socket.0;
                        }
                        stack.extend(more);
                    }
                    InvalReason::Inclusion => {
                        self.sys
                            .inclusion_dirty_writeback(Cycle::ZERO, inv.socket, inv.block);
                        if was_latest {
                            self.token_mut(inv.block).mem = true;
                        }
                    }
                    InvalReason::Coherence => {
                        // Dirty data travelled with the ownership transfer;
                        // the requester's token was already set by the
                        // access rule.
                    }
                }
            }
        }
        Ok(())
    }

    /// The symbolic source the protocol is expected to serve a read from,
    /// in the protocol's own priority order: a private owner forward, the
    /// home-socket LLC line, a recalled sharer (corrupted home copy), then
    /// clean home memory. Returns whether that source held the latest value
    /// and a label for violation messages.
    fn read_source_latest(
        &self,
        requester: usize,
        block: BlockAddr,
        before: &Observation,
    ) -> (bool, &'static str) {
        let bi = self.bidx(block);
        let tok = *self.tokens.get(bi).expect("token in range");
        // A private owner (M or E) forwards the data three-hop.
        for s in 0..self.sockets {
            for c in 0..self.cores {
                let g = s * self.cores + c;
                if g == requester {
                    continue;
                }
                if matches!(
                    self.shadow
                        .get(g * self.blocks.len() + bi)
                        .copied()
                        .expect("shadow in range"),
                    MesiState::Modified | MesiState::Exclusive
                ) {
                    return (tok.cores & (1 << g) != 0, "owner forward");
                }
            }
        }
        // An LLC block line serves the data (home first, then any socket —
        // the remote-retrieve path).
        let home = self.sys.config().home_socket(block).0 as usize;
        if before.line(bi, home).is_some_and(|l| l.holds_block()) {
            return (tok.llc & (1 << home) != 0, "home LLC line");
        }
        for s in 0..self.sockets {
            if before.line(bi, s).is_some_and(|l| l.holds_block()) {
                return (tok.llc & (1 << s) != 0, "remote LLC line");
            }
        }
        if before.corrupted(bi) {
            // The home copy is corrupted: the data must come from a live
            // sharer after the housed entry is recalled via GET_DE. Serving
            // memory here is the corrupted-block-safety bug.
            for g in 0..self.sockets * self.cores {
                if g == requester {
                    continue;
                }
                if self
                    .shadow
                    .get(g * self.blocks.len() + bi)
                    .copied()
                    .expect("shadow in range")
                    .is_valid()
                {
                    return (tok.cores & (1 << g) != 0, "recalled sharer");
                }
            }
            return (false, "corrupted home memory with no live copy");
        }
        // A tracked sharer in the requester's socket forwards three-hop
        // (directory hit, LLC data miss).
        let rs = requester / self.cores;
        for c in 0..self.cores {
            let g = rs * self.cores + c;
            if g == requester {
                continue;
            }
            if self
                .shadow
                .get(g * self.blocks.len() + bi)
                .copied()
                .expect("shadow in range")
                .is_valid()
            {
                return (tok.cores & (1 << g) != 0, "sharer forward");
            }
        }
        // Remote sharers: socket-Shared blocks are served from clean home
        // memory; a socket-level owner forwards from one of its cores.
        // Either source must be latest under the shipped protocol.
        for g in 0..self.sockets * self.cores {
            if g == requester {
                continue;
            }
            if self
                .shadow
                .get(g * self.blocks.len() + bi)
                .copied()
                .expect("shadow in range")
                .is_valid()
            {
                return (
                    tok.cores & (1 << g) != 0 || tok.mem,
                    "remote sharer or clean home memory",
                );
            }
        }
        (tok.mem, "home memory")
    }

    /// Applies one transition and checks every per-state invariant of the
    /// state it reaches: [`Self::transition`], then [`Self::check`].
    ///
    /// # Errors
    /// Returns the first violated invariant. The concrete machine may
    /// additionally panic (its own `debug_assert`s, or the audit oracle);
    /// callers exploring mutated or buggy protocols should wrap the call in
    /// `catch_unwind` and discard the harness afterwards.
    pub fn apply(&mut self, ev: ProtocolEvent) -> Result<(), StepViolation> {
        self.transition(ev)?;
        self.check()
    }

    /// Applies one transition without the final [`Self::check`]: drives the
    /// concrete [`System`], replicates the engine's effect-application
    /// contract, and updates the shadow states and write tokens. The model
    /// checker runs `check` once per canonical state, when it first reaches
    /// it: every fact `check` reads is part of the canonical key.
    ///
    /// # Errors
    /// Returns a violation found while applying: an event the shadow state
    /// does not enable, a downgrade of a copy that is not M or E (`event
    /// contract`), or a read served stale data (`data-value coherence`).
    /// The concrete machine may panic as under [`Self::apply`].
    pub fn transition(&mut self, ev: ProtocolEvent) -> Result<(), StepViolation> {
        let before = self.observe();
        match ev {
            ProtocolEvent::Access {
                socket,
                core,
                block,
                op,
            } => {
                let g = self.gidx(socket, core);
                let prior = self.shadow_state(socket, core, block);
                let legal = match op {
                    Op::Read | Op::CodeRead | Op::ReadExclusive => prior == MesiState::Invalid,
                    Op::Upgrade => prior == MesiState::Shared,
                };
                if !legal {
                    return Err(StepViolation {
                        invariant: "event contract",
                        detail: format!("{ev} issued from shadow state {prior}"),
                    });
                }
                let is_write = matches!(op, Op::ReadExclusive | Op::Upgrade);
                let source = if is_write {
                    None
                } else {
                    Some(self.read_source_latest(g, block, &before))
                };
                let res = self.sys.access(Cycle::ZERO, socket, core, block, op);
                self.set_shadow(socket, core, block, res.grant);
                if is_write {
                    // A store mints a fresh token: the writer's copy is the
                    // unique latest value.
                    *self.token_mut(block) = WriteToken {
                        cores: 1 << g,
                        llc: 0,
                        mem: false,
                    };
                } else {
                    let (fresh, label) = source.expect("read computed a source");
                    if !fresh {
                        return Err(StepViolation {
                            invariant: "data-value coherence",
                            detail: format!("{ev} served stale data from {label}"),
                        });
                    }
                    let bi = self.bidx(block);
                    // Any LLC block line that appeared during this access
                    // (requester-socket fill, home-socket fill, EPD sharing
                    // allocation) was filled with the just-served latest
                    // data.
                    let mut appeared = 0u32;
                    for s in 0..self.sockets {
                        let had = before.line(bi, s).is_some_and(|l| l.holds_block());
                        let has = self
                            .sys
                            .llc_line_of(SocketId(s as u8), block)
                            .is_some_and(|l| l.holds_block());
                        if !had && has {
                            appeared |= 1 << s;
                        }
                    }
                    let tok = self.token_mut(block);
                    tok.cores |= 1 << g;
                    tok.llc |= appeared;
                }
                self.apply_effects(res.downgrades, res.invalidations)?;
            }
            ProtocolEvent::SilentWrite {
                socket,
                core,
                block,
            } => {
                let g = self.gidx(socket, core);
                if self.shadow_state(socket, core, block) != MesiState::Exclusive {
                    return Err(StepViolation {
                        invariant: "event contract",
                        detail: format!("{ev} without an E copy"),
                    });
                }
                self.set_shadow(socket, core, block, MesiState::Modified);
                *self.token_mut(block) = WriteToken {
                    cores: 1 << g,
                    llc: 0,
                    mem: false,
                };
            }
            ProtocolEvent::Evict {
                socket,
                core,
                block,
                kind,
            } => {
                let prior = self.shadow_state(socket, core, block);
                if EvictKind::for_state(prior) != Some(kind) {
                    return Err(StepViolation {
                        invariant: "event contract",
                        detail: format!("{ev} from shadow state {prior}"),
                    });
                }
                let g = self.gidx(socket, core);
                self.set_shadow(socket, core, block, MesiState::Invalid);
                let was_latest = {
                    let tok = self.token_mut(block);
                    let was = tok.cores & (1 << g) != 0;
                    tok.cores &= !(1 << g);
                    was
                };
                let dw_data_before = self.sys.stats.dram_writes - self.sys.stats.dram_writes_dir;
                let invals = self.sys.evict(Cycle::ZERO, socket, core, block, kind);
                if was_latest {
                    // Attribute where the departing copy's data landed.
                    let bi = self.bidx(block);
                    let had_line = before
                        .line(bi, socket.0 as usize)
                        .is_some_and(|l| l.holds_block());
                    let has_line = self
                        .sys
                        .llc_line_of(socket, block)
                        .is_some_and(|l| l.holds_block());
                    let dw_data_delta = (self.sys.stats.dram_writes
                        - self.sys.stats.dram_writes_dir)
                        .saturating_sub(dw_data_before);
                    if has_line && (kind != EvictKind::CleanShared || had_line) {
                        // Dirty writebacks and EPD victim transfers carry
                        // the data into the LLC.
                        if kind != EvictKind::CleanShared {
                            self.token_mut(block).llc |= 1 << socket.0;
                        }
                    } else if kind == EvictKind::Dirty && dw_data_delta > 0 {
                        self.token_mut(block).mem = true;
                    } else if dw_data_delta > 0
                        && before.corrupted(bi)
                        && !self.sys.memory_corrupted(block)
                    {
                        // Clean eviction of the last copy of a corrupted
                        // block: home retrieved the block from the evictor
                        // to overwrite the corrupted memory copy (§III-D4).
                        self.token_mut(block).mem = true;
                    }
                }
                self.apply_effects(Vec::new(), invals)?;
            }
        }
        self.reconcile(&before);
        Ok(())
    }

    /// Per-state invariants over every tracked block. The harness's own:
    /// value coherence (every valid copy holds the latest value) and
    /// recoverability of the latest value. Then the shared per-block
    /// predicates of `invariants::check_block` — SWMR, directory
    /// precision and exactness, LLC design, socket directory,
    /// corrupted-block safety, entry placement — against the view built
    /// from the per-core MESI shadow.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn check(&self) -> Result<(), StepViolation> {
        let n = self.blocks.len();
        let mut holders = vec![SharerSet::default(); self.sockets];
        for (bi, &block) in self.blocks.iter().enumerate() {
            let tok = self.tokens.get(bi).expect("token in range");
            holders.fill(SharerSet::default());
            let mut owner = None;
            for g in 0..self.sockets * self.cores {
                let st = self
                    .shadow
                    .get(g * n + bi)
                    .copied()
                    .expect("shadow in range");
                if !st.is_valid() {
                    continue;
                }
                let socket = SocketId((g / self.cores) as u8);
                let core = CoreId((g % self.cores) as u16);
                if tok.cores & (1 << g) == 0 {
                    return Err(StepViolation {
                        invariant: "data-value coherence",
                        detail: format!(
                            "s{}/c{} holds {block:?} in {st} with a stale value",
                            socket.0, core.0
                        ),
                    });
                }
                holders
                    .get_mut(socket.0 as usize)
                    .expect("socket in range")
                    .insert(core);
                if st.is_owned() {
                    owner = Some((socket, core));
                }
            }
            // The latest value must be recoverable from somewhere the
            // protocol can reach: a live core copy, a resident LLC line, or
            // clean home memory.
            let llc_live = (0..self.sockets).any(|s| {
                tok.llc & (1 << s) != 0
                    && self
                        .sys
                        .llc_line_of(SocketId(s as u8), block)
                        .is_some_and(|l| l.holds_block())
            });
            let mem_live = tok.mem && !self.sys.memory_corrupted(block);
            let core_live = tok.cores != 0;
            if !core_live && !llc_live && !mem_live {
                return Err(StepViolation {
                    invariant: "latest value recoverable",
                    detail: format!("the latest write to {block:?} is held nowhere"),
                });
            }
            invariants::check_block(&self.sys, block, &holders, owner)?;
        }
        Ok(())
    }
}
