//! The protocol engine: a home-serialised MESI write-invalidate directory
//! protocol with the complete ZeroDEV extension set.
//!
//! # Modelling approach
//!
//! Each request is resolved *atomically at the home bank* at its arrival
//! time: the full critical-path latency (NoC hops, tag/data array accesses,
//! bank port queueing, DRAM timing, forwarding hops, invalidation round
//! trips) is computed and charged before the response, and all coherence
//! state is updated synchronously. Every message the transaction puts on
//! the wire is recorded for traffic accounting. This avoids the transient-
//! state explosion of a message-level protocol while preserving the paper's
//! performance effects — extra hops, extra LLC data-array lookups,
//! DEV-induced misses, and DRAM traffic. The race-prone flow the paper
//! singles out (a racing directory-entry eviction in a forwarded socket,
//! §III-D6) depends on *stable* state — the entry having been written back
//! to home memory — so the `DENF_NACK` path is exercised faithfully.
//!
//! The private L1/L2 caches live in the `zerodev-sim` crate; they call
//! [`System::access`] on a private-hierarchy miss and [`System::evict`] on
//! every L2 victim (the paper's protocol notifies the directory of all
//! evictions, with clean notices carrying no data). Invalidations and
//! downgrades that the transaction produced are returned to the caller,
//! which hands them to [`apply_effects`] with its private caches (a
//! [`PrivateCaches`]). That loop applies them and reports each Modified
//! copy's dirty data back to the machine: a sharing writeback, a DEV
//! victim's recall into the LLC, or an inclusion victim's writeback (the
//! directory cannot distinguish M from E, so only the core knows whether
//! an invalidated or downgraded line carried dirty data).
//!
//! # Shared protocol steps
//!
//! A step that several flows take is one method, so its statistics and
//! timing are charged in one place: `invalidate_all` (an untimed
//! invalidation of every sharer — DEV victims, inclusion victims, a remote
//! socket's copies) beside `invalidate_sharers` (the timed form a requester
//! waits on), `read_llc_entry` (reading a spilled or fused entry),
//! `spill` (a new spilled line, its victim, or WB_DE when the set refuses
//! it), `reinstall_entry` (an entry recovered from home memory, which the
//! live-entry gauge does not count again), `untracked_access` (a request
//! with no entry in the socket) and `serve_from_private` (forwarding to a
//! core that holds the block).

use crate::directory::{AllocOutcome, DirEntry, DirStore, EvictedEntry};
use crate::llc::{LlcBank, LlcLine, SpillOutcome};
use crate::memdir::{MemorySide, SocketDirEntry};
use std::sync::OnceLock;
use zerodev_common::config::{
    ConfigError, LlcDesign, LlcReplacement, SpillPolicy, SystemConfig, ZeroDevConfig,
};
use zerodev_common::ids::{SharerSet, SocketSet};
use zerodev_common::protocol::{self, EntryPlacement};
use zerodev_common::{
    BlockAddr, CoreId, Cycle, DirState, Divisor, MesiState, MsgClass, Prng, SocketId, Stats,
};
use zerodev_noc::SocketTopology;

// The request/eviction/invalidation vocabulary is shared with the model
// checker and lives in `zerodev_common::protocol`; re-exported here so the
// engine's callers keep their historical import paths.
pub use zerodev_common::protocol::{Downgrade, EvictKind, InvalReason, Invalidation, Op};

/// The outcome of one uncore transaction.
#[derive(Clone, Debug)]
pub struct AccessResult {
    /// Critical-path latency in core cycles, from issue to response.
    pub latency: u64,
    /// The MESI state granted to the requester.
    pub grant: MesiState,
    /// Private copies to invalidate.
    pub invalidations: Vec<Invalidation>,
    /// Private copies to downgrade to S.
    pub downgrades: Vec<Downgrade>,
}

/// A state-corruption fault class injectable via
/// [`System::inject_state_fault`]. Each silently corrupts protocol
/// *state* and exists so the fault campaign can prove the coherence oracle
/// detects it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StateFault {
    /// Drops one sharer bit from a live directory entry with at least two
    /// sharers (a lost-invalidation bug), wherever the entry lives.
    SharerFlip,
    /// Clears the whole sharer set of an LLC-resident (spilled or fused)
    /// directory entry, leaving a dead entry occupying the line.
    LlcEntryCorrupt,
    /// Drops a sharer bit from a directory segment housed in the corrupted
    /// home-memory copy of a block (§III-D home-segment corruption).
    HomeSegmentFlip,
}

/// Where a directory entry currently lives within a socket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EntryLoc {
    /// In the dedicated directory structure.
    Dedicated,
    /// Spilled into a full LLC line.
    Spilled,
    /// Fused into the block's own LLC line.
    Fused,
}

/// Per-socket uncore state.
#[derive(Debug)]
struct Socket {
    banks: Vec<LlcBank>,
    dir: DirStore,
    topo: SocketTopology,
}

zerodev_common::fieldwise_clone!(Socket { banks, dir, topo });

/// The complete coherent machine: all sockets plus the memory side.
/// `Clone` deep-copies the entire machine state, and `clone_from` does so
/// into the buffers the target already has — the model checker builds
/// every successor state in one reused machine this way.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    /// `cfg.fingerprint()`, which every image carries, computed on the
    /// first `snap` or `unsnap`: formatting and hashing the configuration
    /// takes microseconds, and a machine that is never imaged skips it.
    fingerprint: OnceLock<u64>,
    /// `cfg.llc_banks`: a block's home bank is its address modulo this.
    home_banks: Divisor,
    sockets: Vec<Socket>,
    mem: MemorySide,
    /// All event counters.
    pub stats: Stats,
    /// Invariant checker, present only when auditing is enabled
    /// ([`Self::enable_audit`]); release sweeps pay one branch per hook.
    oracle: Option<Box<crate::oracle::Oracle>>,
}

zerodev_common::fieldwise_clone!(System {
    cfg,
    fingerprint,
    home_banks,
    sockets,
    mem,
    stats,
    oracle,
});

impl System {
    /// Builds the machine described by `cfg`.
    ///
    /// # Errors
    /// Returns the underlying [`ConfigError`] when `cfg` is inconsistent.
    pub fn new(cfg: SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let sets = cfg.llc_sets_per_bank();
        let sockets = (0..cfg.sockets)
            .map(|_| Socket {
                banks: (0..cfg.llc_banks)
                    .map(|b| LlcBank::new(sets, cfg.llc.ways, cfg.llc_banks, b))
                    .collect(),
                dir: DirStore::build(&cfg),
                topo: SocketTopology::new(cfg.cores, cfg.llc_banks, cfg.dram.channels, cfg.noc),
            })
            .collect();
        let mem = MemorySide::new(&cfg);
        Ok(System {
            home_banks: Divisor::new(cfg.llc_banks as u64),
            fingerprint: OnceLock::new(),
            cfg,
            sockets,
            mem,
            stats: Stats::new(),
            oracle: None,
        })
    }

    /// Attaches the coherence invariant oracle (shadow model + checker,
    /// [`crate::oracle`]). Must be enabled before the first transaction so
    /// the shadow map sees the whole stream; every subsequent transaction
    /// is checked and the first violation panics with an event-log dump.
    /// The oracle only reads through recency-neutral accessors, so stats
    /// stay byte-identical to an unaudited run.
    pub fn enable_audit(&mut self) {
        self.oracle = Some(Box::new(crate::oracle::Oracle::new(&self.cfg)));
    }

    /// True when the invariant oracle is attached.
    pub fn audit_enabled(&self) -> bool {
        self.oracle.is_some()
    }

    /// Runs a full shadow-map sweep now (no-op without [`Self::enable_audit`]).
    /// The engine calls this once at the end of an audited run.
    pub fn audit_sweep(&self) {
        if let Some(o) = &self.oracle {
            o.full_sweep(self);
        }
    }

    /// Serializes the complete machine state — stats, every socket's LLC
    /// banks and directory, the memory side, and the audit oracle when
    /// attached — into an image (the model checker's frontier keeps its
    /// states this way). Structure geometry (the mesh topology included)
    /// is not written; restore rebuilds it from the configuration (whose
    /// fingerprint is embedded and verified). All array contents are
    /// written lane-exact so deterministic state-fault victim selection
    /// ([`System::inject_state_fault`]) iterates identically after restore.
    // lint:allow(snapshot_complete(home_banks), derived from the configuration, whose fingerprint the image carries)
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        w.u64(self.fingerprint());
        self.stats.snap(w);
        w.usize(self.sockets.len());
        for s in &self.sockets {
            w.usize(s.banks.len());
            for b in &s.banks {
                b.snap(w);
            }
            s.dir.snap(w);
        }
        self.mem.snap(w);
        match &self.oracle {
            Some(o) => {
                w.bool(true);
                o.snap(w);
            }
            None => w.bool(false),
        }
    }

    /// The configuration's fingerprint ([`SystemConfig::fingerprint`]),
    /// computed once per machine.
    fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.cfg.fingerprint())
    }

    /// Restores a [`System::snap`] image into this machine, which must have
    /// been freshly built ([`System::new`]) from the same configuration.
    /// The audit oracle is attached or detached to match the image.
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] when the
    /// configuration fingerprint disagrees or the image is corrupt.
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        if r.u64("system config fingerprint")? != self.fingerprint() {
            return Err(SnapError::Corrupt {
                context: "system config fingerprint",
            });
        }
        self.stats = Stats::unsnap(r)?;
        if r.usize("system socket count")? != self.sockets.len() {
            return Err(SnapError::Corrupt {
                context: "system socket count",
            });
        }
        for s in self.sockets.iter_mut() {
            if r.usize("system bank count")? != s.banks.len() {
                return Err(SnapError::Corrupt {
                    context: "system bank count",
                });
            }
            for b in s.banks.iter_mut() {
                b.unsnap(r)?;
            }
            s.dir.unsnap(r)?;
        }
        self.mem.unsnap(r)?;
        if r.bool("system audit flag")? {
            if self.oracle.is_none() {
                self.enable_audit();
            }
            self.oracle
                .as_mut()
                .expect("audit just enabled")
                .unsnap(r)?;
        } else {
            self.oracle = None;
        }
        Ok(())
    }

    /// `block`'s home LLC bank in `socket`, and the memory side: unit tests
    /// hand-build broken machine states through them.
    #[cfg(test)]
    pub(crate) fn parts_mut(
        &mut self,
        socket: SocketId,
        block: BlockAddr,
    ) -> (&mut LlcBank, &mut MemorySide) {
        let bank = self.bank_of(block);
        (
            &mut self.sockets[socket.0 as usize].banks[bank],
            &mut self.mem,
        )
    }

    /// Writes a (possibly corrupted) entry back to wherever it lives,
    /// without charging latency or statistics — fault-injection plumbing.
    fn write_entry_back(&mut self, s: usize, block: BlockAddr, e: DirEntry, loc: EntryLoc) {
        let bank = self.bank_of(block);
        match loc {
            EntryLoc::Dedicated => {
                let _ = self.sockets[s].dir.update(block, e);
            }
            EntryLoc::Spilled => {
                let policy = self.policy();
                let _ = self.sockets[s].banks[bank].spill_entry(block, e, policy);
            }
            EntryLoc::Fused => {
                self.sockets[s].banks[bank].fuse_entry(block, e);
            }
        }
    }

    /// Every LLC-resident directory entry (spilled or fused) across all
    /// sockets, as `(socket, block, entry)` — the fault planner's victim
    /// candidate list. Recency-neutral.
    fn llc_resident_entries(&self) -> Vec<(usize, BlockAddr, DirEntry)> {
        let mut out = Vec::new();
        for (s, sk) in self.sockets.iter().enumerate() {
            for bank in &sk.banks {
                for (block, line) in bank.iter() {
                    if let Some(e) = line.entry() {
                        out.push((s, block, e));
                    }
                }
            }
        }
        out
    }

    /// Fault-injection hook: silently corrupts one piece of live directory
    /// state of class `kind`, choosing the victim deterministically with
    /// `rng`. Returns the corrupted block and a description of what was
    /// done, or `None` when no candidate state exists yet (the campaign
    /// re-arms and retries on a later access). The corruption itself makes
    /// no noise — [`Self::audit_check_block`] immediately afterwards is
    /// what must flag it.
    pub fn inject_state_fault(
        &mut self,
        kind: StateFault,
        rng: &mut Prng,
    ) -> Option<(BlockAddr, String)> {
        match kind {
            StateFault::SharerFlip => {
                let cands: Vec<(usize, BlockAddr, DirEntry)> = self
                    .llc_resident_entries()
                    .into_iter()
                    .filter(|(_, _, e)| e.sharers.count() >= 2)
                    .collect();
                if cands.is_empty() {
                    return None;
                }
                let (s, block, _) = cands[rng.below(cands.len() as u64) as usize];
                let (mut e, loc) = self.find_entry(s, block)?;
                let holders: Vec<CoreId> = e.sharers.iter().collect();
                let victim = holders[rng.below(holders.len() as u64) as usize];
                e.sharers.remove(victim);
                self.write_entry_back(s, block, e, loc);
                Some((
                    block,
                    format!("dropped sharer c{} of {block:?} in socket {s}", victim.0),
                ))
            }
            StateFault::LlcEntryCorrupt => {
                let cands = self.llc_resident_entries();
                if cands.is_empty() {
                    return None;
                }
                let (s, block, _) = cands[rng.below(cands.len() as u64) as usize];
                let (mut e, loc) = self.find_entry(s, block)?;
                e.sharers = SharerSet(0);
                self.write_entry_back(s, block, e, loc);
                Some((
                    block,
                    format!("cleared sharer set of LLC-resident entry for {block:?} (socket {s}, {loc:?})"),
                ))
            }
            StateFault::HomeSegmentFlip => {
                let cands: Vec<(BlockAddr, SocketId)> = self
                    .mem
                    .corrupted_blocks()
                    .flat_map(|(b, cb)| cb.sockets().iter().map(move |s| (b, s)))
                    .filter(|&(b, s)| {
                        self.mem
                            .peek_entry(b, s)
                            .is_some_and(|e| e.sharers.count() > 0)
                    })
                    .collect();
                if cands.is_empty() {
                    return None;
                }
                let (block, sid) = cands[rng.below(cands.len() as u64) as usize];
                let mut seg = self.mem.peek_entry(block, sid)?;
                let holders: Vec<CoreId> = seg.sharers.iter().collect();
                let victim = holders[rng.below(holders.len() as u64) as usize];
                seg.sharers.remove(victim);
                self.mem.rewrite_entry(block, sid, seg);
                Some((
                    block,
                    format!(
                        "dropped sharer c{} from the segment of socket {} housed at {block:?}",
                        victim.0, sid.0
                    ),
                ))
            }
        }
    }

    /// Runs the oracle's single-block invariant check over `block` now
    /// (no-op without [`Self::enable_audit`]). The fault campaign calls
    /// this right after [`Self::inject_state_fault`] so detection latency
    /// is zero rather than "whenever the next sweep happens".
    pub fn audit_check_block(&self, block: BlockAddr) {
        if let Some(o) = &self.oracle {
            o.check_block(self, block);
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memory side (diagnostics: corrupted blocks, DRAM counters).
    pub fn memory(&self) -> &MemorySide {
        &self.mem
    }

    fn zd(&self) -> Option<ZeroDevConfig> {
        self.cfg.zerodev
    }

    fn policy(&self) -> LlcReplacement {
        self.zd().map_or(LlcReplacement::Lru, |z| z.llc_replacement)
    }

    #[inline]
    fn bank_of(&self, block: BlockAddr) -> usize {
        self.home_banks.remainder(block.0) as usize
    }

    /// Finds the directory entry for `block` within socket `s`, wherever it
    /// lives (dedicated structure, spilled line, or fused line). The lookup
    /// itself costs no extra latency: the dedicated directory is probed in
    /// parallel with the LLC tags, and LLC-resident entries are discovered
    /// by the same tag lookup.
    fn find_entry(&self, s: usize, block: BlockAddr) -> Option<(DirEntry, EntryLoc)> {
        if let Some(e) = self.sockets[s].dir.peek(block) {
            return Some((e, EntryLoc::Dedicated));
        }
        match self.sockets[s].banks[self.bank_of(block)].lines_for(block) {
            (Some(LlcLine::Fused { entry, .. }), _) => Some((entry, EntryLoc::Fused)),
            (_, spilled) => spilled.map(|e| (e, EntryLoc::Spilled)),
        }
    }

    /// Charges bank-port occupancy: the transaction uses the port at `t` for
    /// `busy` cycles; returns the (possibly queued) service start time.
    fn bank_port(&mut self, s: usize, bank: usize, t: Cycle, busy: u64) -> Cycle {
        let port = &mut self.sockets[s].banks[bank].port_free;
        let start = t.max(*port);
        *port = start + busy;
        start
    }

    /// Recovers a directory entry housed in the home-memory copy of
    /// `block` (§III-D3 step 3): reads the corrupted block, extracts this
    /// socket's segment (one extra cycle), and reinstalls it in the socket.
    // lint:consumes(Request)
    fn recover_housed_entry(
        &mut self,
        t: &mut Cycle,
        s: usize,
        now: Cycle,
        block: BlockAddr,
        invals: &mut Vec<Invalidation>,
    ) -> Option<(DirEntry, Option<EntryLoc>)> {
        let home = self.cfg.home_socket(block);
        self.stats.msg(MsgClass::MemRead);
        if home.0 as usize != s {
            *t += SystemConfig::INTER_SOCKET_CYCLES;
            self.stats.msg(MsgClass::SocketCtrl);
        }
        // lint:context(MemRead)
        self.stats.dram_reads += 1;
        let tm = self.mem.dram_read(*t, home, block);
        self.stats.msg(MsgClass::MemReadData);
        *t = tm + 1;
        if home.0 as usize != s {
            *t += SystemConfig::INTER_SOCKET_CYCLES;
            self.stats.msg(MsgClass::SocketData);
        }
        let entry = self.mem.extract_entry(block, SocketId(s as u8))?;
        self.reinstall_entry(now, s, block, entry, invals);
        // A degenerate LLC can refuse the placement and bounce the entry
        // straight back home (WB_DE); `None` then means "still housed".
        Some((entry, self.relocate(s, block)))
    }

    // ---------------------------------------------------------------------
    // Entry placement and maintenance
    // ---------------------------------------------------------------------

    /// Places an entry recovered from its home-memory segment. It was live
    /// all along, so the live-entry gauge does not count it again.
    fn reinstall_entry(
        &mut self,
        now: Cycle,
        s: usize,
        block: BlockAddr,
        entry: DirEntry,
        invals: &mut Vec<Invalidation>,
    ) {
        self.install_entry(now, s, block, entry, invals);
        self.track_live(-1);
    }

    /// Places a brand-new entry: dedicated structure first, LLC on overflow.
    /// Baseline victims become DEV invalidations appended to `invals`.
    fn install_entry(
        &mut self,
        now: Cycle,
        s: usize,
        block: BlockAddr,
        entry: DirEntry,
        invals: &mut Vec<Invalidation>,
    ) {
        self.stats.dir_allocs += 1;
        let outcome = self.sockets[s].dir.allocate(block, entry);
        self.track_live(1);
        match outcome {
            AllocOutcome::Stored => {}
            AllocOutcome::Evicted(victims) => {
                self.track_live(-(victims.len() as i64));
                self.apply_dev_victims(s, &victims, invals);
            }
            AllocOutcome::Overflow => {
                self.accommodate_in_llc(now, s, block, entry, invals);
            }
        }
    }

    /// Gauge upkeep for Figure 5 (exact for Sparse/Unbounded/None stores).
    fn track_live(&mut self, delta: i64) {
        if delta < 0 && self.stats.dir_live_entries < (-delta) as u64 {
            // SecDir/MgD partial victims can make the simple gauge drift;
            // clamp rather than panic (the gauge is only read in
            // unbounded-directory experiments, where it is exact).
            self.stats.dir_live_entries = 0;
            return;
        }
        self.stats.adjust_dir_live(delta);
    }

    /// Baseline directory eviction: every tracked private copy becomes a
    /// DEV. Dirty owners are detected by the caller's caches (only the core
    /// knows) and recalled by [`apply_effects`].
    fn apply_dev_victims(
        &mut self,
        s: usize,
        victims: &[EvictedEntry],
        invals: &mut Vec<Invalidation>,
    ) {
        self.stats.dir_evictions += victims.len() as u64;
        for (vblock, ventry) in victims {
            self.invalidate_all(s, *vblock, ventry.sharers, InvalReason::Dev, invals);
        }
    }

    /// Invalidates every sharer in `sharers` of `block` in socket `s`, in
    /// set order, counting them under `reason`'s statistic. Off the
    /// requester's critical path, so no latency is charged (unlike
    /// [`Self::invalidate_sharers`]).
    // lint:consumes(Request, EvictNotice)
    fn invalidate_all(
        &mut self,
        s: usize,
        block: BlockAddr,
        sharers: SharerSet,
        reason: InvalReason,
        invals: &mut Vec<Invalidation>,
    ) {
        let n = sharers.count() as u64;
        *match reason {
            InvalReason::Dev => &mut self.stats.dev_invalidations,
            InvalReason::Inclusion => &mut self.stats.inclusion_invalidations,
            InvalReason::Coherence => &mut self.stats.coherence_invalidations,
        } += n;
        self.stats.msg_n(MsgClass::Invalidation, n);
        // lint:context(Invalidation)
        self.stats.msg_n(MsgClass::Ack, n);
        let socket = SocketId(s as u8);
        invals.extend(sharers.iter().map(|core| Invalidation {
            socket,
            core,
            block,
            reason,
        }));
    }

    /// Accommodates an overflowing entry in the LLC per the configured
    /// ZeroDEV policy (§III-C).
    fn accommodate_in_llc(
        &mut self,
        now: Cycle,
        s: usize,
        block: BlockAddr,
        entry: DirEntry,
        invals: &mut Vec<Invalidation>,
    ) {
        let zd = self.zd().expect("overflow only occurs under ZeroDEV");
        let bank = self.bank_of(block);
        let has_block = self.sockets[s].banks[bank].block_line(block).is_some();
        let placement = protocol::overflow_placement(zd.policy, has_block, entry.state.is_owned());
        self.stats.llc_dir_accesses += 1;
        if placement == EntryPlacement::Fuse {
            // Fusing rides along with the block's own fill/update — no
            // separate data-array access (the FPSS design point, §III-C2).
            self.stats.dir_fuses += 1;
            self.sockets[s].banks[bank].fuse_entry(block, entry);
        } else {
            self.spill(now, s, block, entry, invals);
        }
    }

    /// Spills `entry` into an LLC line of its own (one data-array write),
    /// handling the line it displaces. A degenerate set whose only
    /// displaceable line is the entry's own block data line refuses it: the
    /// entry then goes straight home (WB_DE) and GET_DE recalls it later.
    fn spill(
        &mut self,
        now: Cycle,
        s: usize,
        block: BlockAddr,
        entry: DirEntry,
        invals: &mut Vec<Invalidation>,
    ) {
        self.stats.dir_spills += 1;
        self.stats.llc_data_accesses += 1;
        let (bank, policy) = (self.bank_of(block), self.policy());
        match self.sockets[s].banks[bank].spill_entry(block, entry, policy) {
            SpillOutcome::Updated => {}
            SpillOutcome::Inserted(victim) => {
                self.stats.adjust_spilled_lines(1);
                if let Some(v) = victim {
                    self.handle_llc_victim(now, s, v, invals);
                }
            }
            SpillOutcome::Refused(e) => self.wbde(now, s, block, e),
        }
    }

    /// Rewrites a live entry in place, maintaining the FPSS invariants
    /// (fused ⇒ M/E when the block is resident; spilled ⇒ S), §III-C2.
    // lint:consumes(Request, EvictNotice)
    fn update_entry(
        &mut self,
        now: Cycle,
        s: usize,
        block: BlockAddr,
        entry: DirEntry,
        loc: EntryLoc,
        invals: &mut Vec<Invalidation>,
    ) {
        debug_assert!(!entry.is_dead());
        let bank = self.bank_of(block);
        let spill_policy = self.zd().map(|z| z.policy);
        match loc {
            EntryLoc::Dedicated => {
                let victims = self.sockets[s].dir.update(block, entry);
                self.apply_dev_victims(s, &victims, invals);
            }
            EntryLoc::Spilled => {
                self.stats.llc_dir_accesses += 1;
                self.stats.llc_data_accesses += 1;
                let has_block = self.sockets[s].banks[bank].block_line(block).is_some();
                if spill_policy.is_some_and(|p| {
                    protocol::refuse_on_update(p, entry.state.is_owned(), has_block)
                }) {
                    // S→M/E with the block resident: fuse, free the spill.
                    if self.sockets[s].banks[bank].remove_spilled(block).is_some() {
                        self.stats.adjust_spilled_lines(-1);
                    }
                    self.stats.dir_fuses += 1;
                    self.sockets[s].banks[bank].fuse_entry(block, entry);
                } else {
                    let policy = self.policy();
                    match self.sockets[s].banks[bank].spill_entry(block, entry, policy) {
                        SpillOutcome::Updated => {}
                        SpillOutcome::Inserted(victim) => {
                            // The spilled line vanished mid-transaction (a
                            // fill pushed it home via WB_DE); re-created
                            // here, so pull the housed segment back.
                            let _ = self.mem.extract_entry(block, SocketId(s as u8));
                            self.stats.adjust_spilled_lines(1);
                            if let Some(v) = victim {
                                self.handle_llc_victim(now, s, v, invals);
                            }
                        }
                        SpillOutcome::Refused(e) => {
                            // Vanished mid-transaction and the set cannot
                            // take it back: replace the housed segment with
                            // the updated entry.
                            let _ = self.mem.extract_entry(block, SocketId(s as u8));
                            self.wbde(now, s, block, e);
                        }
                    }
                }
            }
            EntryLoc::Fused => {
                self.stats.llc_dir_accesses += 1;
                if spill_policy
                    .is_some_and(|p| protocol::unfuse_on_update(p, entry.state.is_owned()))
                {
                    // M/E→S: spill the entry and reconstruct the block from
                    // the owner's low bits sent with the busy-clear message.
                    let _ = self.sockets[s].banks[bank].unfuse(block);
                    // lint:context(EvictNoticeBits)
                    self.stats.msg(MsgClass::EvictNoticeBits);
                    self.spill(now, s, block, entry, invals);
                } else {
                    self.sockets[s].banks[bank].fuse_entry(block, entry);
                }
            }
        }
    }

    /// Frees a live entry (all private copies gone). A fused line reverts to
    /// a plain data line, reconstructed from the bits carried by the final
    /// eviction notice (`retrieval` charges the FuseAll special-ack round
    /// trip when the notice did not carry them). Robust against the entry
    /// having left for home memory mid-transaction (WB_DE by an LLC fill of
    /// the same transaction): the housed segment is discarded instead.
    // lint:consumes(Request, EvictNotice)
    fn free_entry(&mut self, s: usize, block: BlockAddr, loc: EntryLoc, retrieval: bool) {
        let bank = self.bank_of(block);
        match loc {
            EntryLoc::Dedicated => {
                let _ = self.sockets[s].dir.remove(block);
            }
            EntryLoc::Spilled => {
                if self.sockets[s].banks[bank].remove_spilled(block).is_some() {
                    self.stats.adjust_spilled_lines(-1);
                }
                self.stats.llc_dir_accesses += 1;
                self.stats.llc_data_accesses += 1;
            }
            EntryLoc::Fused => {
                if retrieval {
                    // §III-C3: retrieve the corrupted low bits from the last
                    // sharer's eviction buffer with a special acknowledgement.
                    self.stats.msg(MsgClass::Ack);
                    // lint:context(EvictNoticeBits)
                    self.stats.msg(MsgClass::EvictNoticeBits);
                }
                if matches!(
                    self.sockets[s].banks[bank].block_line(block),
                    Some(LlcLine::Fused { .. })
                ) {
                    let _ = self.sockets[s].banks[bank].unfuse(block);
                }
                self.stats.llc_dir_accesses += 1;
            }
        }
        self.track_live(-1);
    }

    /// After the last trace of `block` left socket `s`, restore the home
    /// memory copy if it was corrupted: the departing data (from the
    /// evicting core or the LLC line) overwrites the housed segments
    /// (§III-D4, last paragraph). Charges the full-block retrieval.
    // lint:consumes(Request, EvictNotice)
    fn restore_if_last_copy(&mut self, now: Cycle, s: usize, block: BlockAddr) {
        if !self.mem.is_corrupted(block) {
            return;
        }
        let me = SocketId(s as u8);
        // Our own housed segment naming sharers is live tracking: those
        // cores' private copies remain data sources, so the last trace has
        // NOT left the socket (e.g. a clean LLC data line departing while
        // the entry sits at home after a WB_DE). The block stays corrupted.
        if self
            .mem
            .peek_entry(block, me)
            .is_some_and(|e| e.sharers.count() > 0)
        {
            return;
        }
        let _ = self.mem.extract_entry(block, me);
        // Another socket may still hold copies (its segment or entry lives
        // on); only the system-wide last copy restores.
        let others_have_segments = self
            .mem
            .corrupted_block(block)
            .is_some_and(|cb| !cb.sockets().is_empty());
        if others_have_segments {
            return;
        }
        if self.cfg.sockets > 1 {
            let home = self.cfg.home_socket(block);
            let lookup = self.mem.socket_dir_lookup(home, block);
            if let Some(se) = lookup.entry {
                let other_sockets = se.sharers.iter().any(|x| x != me);
                if other_sockets {
                    return;
                }
            }
        }
        let home = self.cfg.home_socket(block);
        self.stats.msg(MsgClass::Writeback);
        if home.0 as usize != s {
            self.stats.msg(MsgClass::SocketData);
        }
        self.mem.restore(block);
        self.mem.dram_write(now, home, block);
        self.stats.dram_writes += 1;
    }

    /// Rewrites a live entry wherever it now lives: in the socket (the
    /// common case) or — when an LLC fill earlier in this transaction pushed
    /// it home via WB_DE — in its home-memory segment.
    fn write_entry_anywhere(
        &mut self,
        now: Cycle,
        s: usize,
        block: BlockAddr,
        entry: DirEntry,
        invals: &mut Vec<Invalidation>,
    ) {
        match self.relocate(s, block) {
            Some(loc) => self.update_entry(now, s, block, entry, loc, invals),
            None => {
                let home = self.cfg.home_socket(block);
                self.mem.rewrite_entry(block, SocketId(s as u8), entry);
                self.mem.dram_write(now, home, block);
                self.stats.dram_writes += 1;
            }
        }
    }

    // ---------------------------------------------------------------------
    // LLC fills and victims
    // ---------------------------------------------------------------------

    /// Fills (or updates) the data line for `block` in socket `s`,
    /// processing any victim.
    fn fill_llc(
        &mut self,
        now: Cycle,
        s: usize,
        block: BlockAddr,
        dirty: bool,
        invals: &mut Vec<Invalidation>,
    ) {
        let bank = self.bank_of(block);
        let policy = self.policy();
        self.stats.llc_data_accesses += 1;
        let victim = self.sockets[s].banks[bank].fill_data(block, dirty, policy);
        if let Some(v) = victim {
            self.handle_llc_victim(now, s, v, invals);
        }
    }

    /// Processes a line evicted from an LLC set: dirty data goes to home
    /// memory, spilled/fused entries trigger the WB_DE flow (§III-D), and
    /// inclusive designs back-invalidate private copies.
    // lint:consumes(Request, EvictNotice)
    fn handle_llc_victim(
        &mut self,
        now: Cycle,
        s: usize,
        victim: (BlockAddr, LlcLine),
        invals: &mut Vec<Invalidation>,
    ) {
        let (vblock, line) = victim;
        match line {
            LlcLine::Data { dirty } => {
                if self.cfg.llc_design == LlcDesign::Inclusive {
                    // Back-invalidate every private copy; the freed entry is
                    // an inclusion casualty, not a DEV.
                    if let Some((entry, loc)) = self.find_entry(s, vblock) {
                        let reason = InvalReason::Inclusion;
                        self.invalidate_all(s, vblock, entry.sharers, reason, invals);
                        // The block line is gone already; a spilled entry in
                        // the same set is freed; `loc` cannot be Fused (the
                        // victim was a plain data line).
                        self.free_entry(s, vblock, loc, false);
                        if !dirty {
                            self.restore_if_last_copy(now, s, vblock);
                        }
                    }
                }
                if dirty {
                    self.writeback_to_memory(now, s, vblock);
                } else if self.mem.is_corrupted(vblock) && self.find_entry(s, vblock).is_none() {
                    // Clean data leaving the socket while home memory is
                    // corrupted and no private copies remain: this line was
                    // the last data source — restore memory from it.
                    self.restore_if_last_copy(now, s, vblock);
                }
                self.departure_check(s, vblock);
            }
            LlcLine::Spilled { entry } => {
                self.stats.adjust_spilled_lines(-1);
                self.wbde(now, s, vblock, entry);
            }
            LlcLine::Fused { entry, block_dirty } => {
                if self.cfg.llc_design == LlcDesign::Inclusive {
                    // Inclusion: evicting the line invalidates the private
                    // copies, which frees the entry — no directory entry is
                    // ever evicted from an inclusive LLC (§III-F).
                    self.invalidate_all(s, vblock, entry.sharers, InvalReason::Inclusion, invals);
                    self.track_live(-1);
                    if block_dirty {
                        self.writeback_to_memory(now, s, vblock);
                    } else {
                        self.restore_if_last_copy(now, s, vblock);
                    }
                } else {
                    // The entry goes home; the block bits need no writeback
                    // — the owner (FPSS) or the sharers (FuseAll) hold the
                    // block, and a last-copy eviction of a corrupted block
                    // retrieves it.
                    self.wbde(now, s, vblock, entry);
                }
                self.departure_check(s, vblock);
            }
        }
    }

    /// The WB_DE flow: a fused or spilled entry evicted from the LLC
    /// overwrites the home-memory copy of the block it tracks (Figure 14).
    // lint:consumes(Request, EvictNotice)
    fn wbde(&mut self, now: Cycle, s: usize, block: BlockAddr, entry: DirEntry) {
        self.stats.dir_llc_evictions += 1;
        let home = self.cfg.home_socket(block);
        self.stats.msg(MsgClass::WbDirEntry);
        if home.0 as usize != s {
            self.stats.msg(MsgClass::SocketData);
        }
        let rmw = self.mem.house_entry(block, SocketId(s as u8), entry);
        if rmw {
            // Another socket's segment is housed: read-modify-write.
            self.stats.dram_reads_dir += 1;
            self.stats.dram_reads += 1;
            let t = self.mem.dram_read(now, home, block);
            self.mem.dram_write(t, home, block);
        } else {
            self.mem.dram_write(now, home, block);
        }
        self.stats.dram_writes += 1;
        self.stats.dram_writes_dir += 1;
    }

    /// Writes dirty data back to home memory, restoring a corrupted block
    /// if necessary (the socket's own housed segment is pulled back in
    /// first so no tracking is lost).
    // lint:consumes(Writeback)
    fn writeback_to_memory(&mut self, now: Cycle, s: usize, block: BlockAddr) {
        let home = self.cfg.home_socket(block);
        self.stats.msg(MsgClass::MemWrite);
        if home.0 as usize != s {
            self.stats.msg(MsgClass::SocketData);
        }
        if self.mem.is_corrupted(block) {
            if let Some(entry) = self.mem.extract_entry(block, SocketId(s as u8)) {
                // Plain-LRU ZeroDEV corner: the data line outlived its
                // entry. Pull the entry back in before the data overwrite.
                let mut dummy = Vec::new();
                self.reinstall_entry(now, s, block, entry, &mut dummy);
                debug_assert!(dummy.is_empty(), "reinstall under ZeroDEV cannot DEV");
            }
            if self
                .mem
                .corrupted_block(block)
                .is_none_or(|cb| cb.sockets().is_empty())
            {
                self.mem.restore(block);
            }
        }
        self.mem.dram_write(now, home, block);
        self.stats.dram_writes += 1;
    }

    /// After a socket may have lost its last trace of `block`, update the
    /// socket-level directory (multi-socket machines only).
    // lint:consumes(Request, EvictNotice)
    fn departure_check(&mut self, s: usize, block: BlockAddr) {
        if self.cfg.sockets == 1 {
            return;
        }
        let has_entry = self.find_entry(s, block).is_some();
        let has_line = self.sockets[s].banks[self.bank_of(block)]
            .block_line(block)
            .is_some();
        let has_segment = self.mem.peek_entry(block, SocketId(s as u8)).is_some();
        if has_entry || has_line || has_segment {
            return;
        }
        let home = self.cfg.home_socket(block);
        let lookup = self.mem.socket_dir_lookup(home, block);
        if let Some(mut e) = lookup.entry {
            if e.sharers.contains(SocketId(s as u8)) {
                self.stats.msg(MsgClass::SocketCtrl);
                e.sharers.remove(SocketId(s as u8));
                if e.sharers.is_empty() {
                    self.mem.socket_dir_remove(home, block);
                } else {
                    if e.owner() == Some(SocketId(s as u8)) {
                        e.owned = false;
                    }
                    self.mem.socket_dir_update(home, block, e);
                }
            }
        }
    }

    // ---------------------------------------------------------------------
    // The request path
    // ---------------------------------------------------------------------

    /// Processes a private-hierarchy miss (or upgrade) from `core` in socket
    /// `socket` at time `now`.
    ///
    /// # Panics
    /// Panics (debug) when the caller violates the request contract, e.g.
    /// issues an `Upgrade` for an untracked block.
    pub fn access(
        &mut self,
        now: Cycle,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        op: Op,
    ) -> AccessResult {
        let mut invalidations = Vec::new();
        let mut downgrades = Vec::new();
        let (latency, grant) = self.access_into(
            now,
            socket,
            core,
            block,
            op,
            &mut invalidations,
            &mut downgrades,
        );
        AccessResult {
            latency,
            grant,
            invalidations,
            downgrades,
        }
    }

    /// Allocation-free form of [`Self::access`]: appends this transaction's
    /// invalidations and downgrades to caller-owned buffers (the sim engine
    /// reuses one pair of buffers across every reference) and returns
    /// `(latency, grant)`. The oracle hook sees exactly the entries this
    /// call appended.
    #[allow(clippy::too_many_arguments)]
    // lint:consumes(Request)
    pub fn access_into(
        &mut self,
        now: Cycle,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        op: Op,
        invals: &mut Vec<Invalidation>,
        downgrades: &mut Vec<Downgrade>,
    ) -> (u64, MesiState) {
        let s = socket.0 as usize;
        let bank = self.bank_of(block);
        let before = self
            .oracle
            .is_some()
            .then(|| crate::oracle::StatsSnap::of(&self.stats));
        if op == Op::Upgrade {
            self.stats.upgrades += 1;
        } else {
            self.stats.core_cache_misses += 1;
        }
        self.stats.msg(MsgClass::Request);
        let mut t = now
            + self.sockets[s].topo.core_bank_latency(
                core.0 as usize,
                bank,
                MsgClass::Request.bytes(),
            );
        // Tag array + dedicated directory probed in parallel.
        t = self.bank_port(s, bank, t, SystemConfig::LLC_TAG_CYCLES) + SystemConfig::LLC_TAG_CYCLES;
        self.stats.llc_tag_lookups += 1;
        self.stats.dir_lookups += 1;

        let inv_start = invals.len();
        let dg_start = downgrades.len();
        let found = self.find_entry(s, block);
        let grant = match (op, found) {
            (Op::Upgrade, found) => {
                // Under ZeroDEV the entry of an S block can be housed in
                // home memory while sharers still hold copies; recover it
                // first (read the corrupted block, extract, reinstall).
                let (entry, loc) = match found {
                    Some((e, l)) => (e, Some(l)),
                    None => self
                        .recover_housed_entry(&mut t, s, now, block, invals)
                        .expect("upgrade requires a tracked block"),
                };
                debug_assert!(entry.sharers.contains(core), "upgrader holds an S copy");
                debug_assert_eq!(entry.state, DirState::Shared);
                if loc != Some(EntryLoc::Dedicated) {
                    // The entry must be read from the LLC data array before
                    // the invalidation count can be returned.
                    t += self.read_llc_entry();
                }
                let inv_path = self.invalidate_sharers(
                    s,
                    bank,
                    block,
                    &entry,
                    Some(core),
                    InvalReason::Coherence,
                    invals,
                );
                // Dataless response with the expected-ack count.
                let resp = self.sockets[s].topo.bank_core_latency(
                    bank,
                    core.0 as usize,
                    MsgClass::Ack.bytes(),
                );
                self.stats.msg(MsgClass::Ack);
                t += resp.max(inv_path);
                self.epd_on_private_transition(now, s, block, invals);
                self.write_entry_anywhere(now, s, block, DirEntry::owned(core), invals);
                // Remote sockets sharing the block must be invalidated too.
                t += self.socket_level_invalidate(s, block, invals);
                MesiState::Modified
            }
            (_, None) => self.untracked_access(now, &mut t, s, core, block, op, invals, downgrades),
            (Op::Read | Op::CodeRead, Some((entry, loc))) if entry.state.is_owned() => {
                debug_assert_ne!(
                    entry.owner(),
                    Some(core),
                    "owner cannot miss on its own block"
                );
                if loc != EntryLoc::Dedicated {
                    t += self.read_llc_entry();
                }
                self.serve_from_private(
                    now, &mut t, s, core, block, entry, false, invals, downgrades,
                )
            }
            (Op::Read | Op::CodeRead, Some((entry, loc))) => {
                // Shared entry.
                if self.llc_has_data(s, block) {
                    // Served from the LLC.
                    let zd_policy = self.zd().map(|z| z.policy);
                    if zd_policy == Some(SpillPolicy::SpillAll) && loc == EntryLoc::Spilled {
                        // SpillAll reads the entry first (§III-C1).
                        t += self.read_llc_entry();
                    }
                    t = self.bank_port(s, bank, t, SystemConfig::LLC_DATA_CYCLES)
                        + SystemConfig::LLC_DATA_CYCLES;
                    self.stats.llc_data_accesses += 1;
                    t += self.sockets[s].topo.bank_core_latency(
                        bank,
                        core.0 as usize,
                        MsgClass::Data.bytes(),
                    );
                    self.stats.msg(MsgClass::Data);
                    self.stats.two_hop_reads += 1;
                    if loc == EntryLoc::Spilled {
                        // FPSS: entry updated off the critical path.
                        self.stats.llc_dir_accesses += 1;
                        self.stats.llc_data_accesses += 1;
                    }
                    let policy = self.policy();
                    self.sockets[s].banks[bank].touch_block(block, policy);
                } else {
                    // Directory hit, LLC data miss: forward to a sharer
                    // (baseline behaviour, §III-C2). Under FuseAll a fused
                    // line's data bits are corrupted, so the fused entry is
                    // read and an elected sharer serves (§III-C3).
                    if loc != EntryLoc::Dedicated {
                        t += self.read_llc_entry();
                    }
                    self.stats.fused_read_forwards += u64::from(loc == EntryLoc::Fused);
                    let sharer = entry.sharers.any().expect("live entry has sharers");
                    t += self.forward_to_core(s, bank, sharer, core);
                    self.stats.three_hop_reads += 1;
                }
                let mut e = entry;
                e.sharers.insert(core);
                self.update_entry(now, s, block, e, loc, invals);
                MesiState::Shared
            }
            (Op::ReadExclusive, Some((entry, loc))) if entry.state.is_owned() => {
                let owner = entry.owner().expect("owned entry has an owner");
                debug_assert_ne!(owner, core);
                if loc != EntryLoc::Dedicated {
                    t += self.read_llc_entry();
                }
                // Forward with ownership transfer: the old owner sends the
                // block and invalidates itself.
                t += self.forward_to_core(s, bank, owner, core);
                invals.push(Invalidation {
                    socket,
                    core: owner,
                    block,
                    reason: InvalReason::Coherence,
                });
                self.stats.coherence_invalidations += 1;
                self.epd_on_private_transition(now, s, block, invals);
                self.write_entry_anywhere(now, s, block, DirEntry::owned(core), invals);
                MesiState::Modified
            }
            (Op::ReadExclusive, Some((entry, loc))) => {
                // Shared: invalidate all sharers, source the data.
                let has_data = self.llc_has_data(s, block);
                if loc != EntryLoc::Dedicated {
                    t += self.read_llc_entry();
                }
                let inv_path = self.invalidate_sharers(
                    s,
                    bank,
                    block,
                    &entry,
                    Some(core),
                    InvalReason::Coherence,
                    invals,
                );
                let data_path = if has_data {
                    self.stats.llc_data_accesses += 1;
                    self.stats.msg(MsgClass::Data);
                    SystemConfig::LLC_DATA_CYCLES
                        + self.sockets[s].topo.bank_core_latency(
                            bank,
                            core.0 as usize,
                            MsgClass::Data.bytes(),
                        )
                } else {
                    // Forward to one sharer, combined with its invalidation
                    // (baseline critical path).
                    let sharer = entry
                        .sharers
                        .iter()
                        .find(|&c| c != core)
                        .expect("another sharer exists");
                    self.forward_to_core(s, bank, sharer, core)
                };
                t += data_path.max(inv_path);
                self.epd_on_private_transition(now, s, block, invals);
                self.write_entry_anywhere(now, s, block, DirEntry::owned(core), invals);
                t += self.socket_level_invalidate(s, block, invals);
                MesiState::Modified
            }
        };

        if let Some(before) = before {
            // Take/put-back so the oracle can read the whole system state.
            let mut o = self.oracle.take().expect("audit is on");
            o.after_access(
                self,
                before,
                socket,
                core,
                block,
                op,
                grant,
                &invals[inv_start..],
                &downgrades[dg_start..],
            );
            self.oracle = Some(o);
        }

        (t.since(now), grant)
    }

    /// Re-finds the location of a live entry after LLC churn.
    fn relocate(&self, s: usize, block: BlockAddr) -> Option<EntryLoc> {
        self.find_entry(s, block).map(|(_, loc)| loc)
    }

    /// Latency of forwarding a request from the home bank to `owner`, which
    /// responds directly to `requester` (three-hop path, §III-A), plus the
    /// off-critical-path busy-clear to the home.
    // lint:consumes(Request)
    fn forward_to_core(&mut self, s: usize, bank: usize, owner: CoreId, requester: CoreId) -> u64 {
        self.stats.msg(MsgClass::Forward);
        // lint:context(Forward)
        self.stats.msg(MsgClass::Data);
        self.stats.msg(MsgClass::Ack); // busy-clear
        self.sockets[s]
            .topo
            .bank_core_latency(bank, owner.0 as usize, MsgClass::Forward.bytes())
            + SystemConfig::L2_HIT_CYCLES
            + self.sockets[s].topo.core_core_latency(
                owner.0 as usize,
                requester.0 as usize,
                MsgClass::Data.bytes(),
            )
    }

    /// Sends invalidations to every sharer except `keep`; returns the
    /// worst-case invalidate→ack critical-path latency (acks are collected
    /// by the requester).
    #[allow(clippy::too_many_arguments)] // protocol context is irreducible
                                         // lint:consumes(Request)
    fn invalidate_sharers(
        &mut self,
        s: usize,
        bank: usize,
        block: BlockAddr,
        entry: &DirEntry,
        keep: Option<CoreId>,
        reason: InvalReason,
        invals: &mut Vec<Invalidation>,
    ) -> u64 {
        let mut worst = 0;
        for sharer in protocol::invalidation_targets(entry.sharers, keep) {
            self.stats.msg(MsgClass::Invalidation);
            // lint:context(Invalidation)
            self.stats.msg(MsgClass::Ack);
            self.stats.coherence_invalidations += u64::from(reason == InvalReason::Coherence);
            invals.push(Invalidation {
                socket: SocketId(s as u8),
                core: sharer,
                block,
                reason,
            });
            let path = self.sockets[s].topo.bank_core_latency(
                bank,
                sharer.0 as usize,
                MsgClass::Invalidation.bytes(),
            ) + match keep {
                Some(req) => self.sockets[s].topo.core_core_latency(
                    sharer.0 as usize,
                    req.0 as usize,
                    MsgClass::Ack.bytes(),
                ),
                None => self.sockets[s].topo.bank_core_latency(
                    bank,
                    sharer.0 as usize,
                    MsgClass::Ack.bytes(),
                ),
            };
            worst = worst.max(path);
        }
        worst
    }

    /// EPD design: a block that became privately owned (M/E) is deallocated
    /// from the LLC (§III-E). A fused line converts to a spilled entry (the
    /// block bits leave; fusion is impossible in an EPD LLC).
    fn epd_on_private_transition(
        &mut self,
        now: Cycle,
        s: usize,
        block: BlockAddr,
        invals: &mut Vec<Invalidation>,
    ) {
        if self.cfg.llc_design != LlcDesign::Epd {
            return;
        }
        let bank = self.bank_of(block);
        match self.sockets[s].banks[bank].block_line(block) {
            Some(LlcLine::Data { .. }) => {
                // The owner holds the latest data; dirty LLC bits are stale
                // relative to the owner's copy and can be dropped.
                let _ = self.sockets[s].banks[bank].remove_block(block);
            }
            Some(LlcLine::Fused { .. }) => {
                let entry = self.sockets[s].banks[bank].unfuse(block);
                let _ = self.sockets[s].banks[bank].remove_block(block);
                self.spill(now, s, block, entry, invals);
            }
            _ => {}
        }
    }

    /// Reads a spilled or fused entry from the LLC data array (one
    /// directory and one data access); returns the cycles it takes.
    fn read_llc_entry(&mut self) -> u64 {
        self.stats.llc_dir_accesses += 1;
        self.stats.llc_data_accesses += 1;
        SystemConfig::LLC_DATA_CYCLES
    }

    /// True when `block`'s own data line is in socket `s`'s LLC.
    fn llc_has_data(&self, s: usize, block: BlockAddr) -> bool {
        let line = self.sockets[s].banks[self.bank_of(block)].block_line(block);
        matches!(line, Some(LlcLine::Data { .. }))
    }

    // (continued in system_flows.rs: untracked accesses, the memory and
    //  multi-socket paths, evictions, and the caller-reported dirty-data
    //  hooks)
}

include!("system_flows.rs");
