// Continuation of the System protocol engine (included from system.rs):
// untracked reads/RFOs, the memory and multi-socket paths, evictions, the
// caller-reported dirty-data hooks, and the loop that applies a
// transaction's effects to the private caches.

impl System {
    /// A read, code read or read-exclusive of a block with no directory
    /// entry in the socket: served from an LLC data line when there is one,
    /// from memory otherwise.
    #[allow(clippy::too_many_arguments)]
    // lint:consumes(Request)
    fn untracked_access(
        &mut self,
        now: Cycle,
        t: &mut Cycle,
        s: usize,
        core: CoreId,
        block: BlockAddr,
        op: Op,
        invals: &mut Vec<Invalidation>,
        downgrades: &mut Vec<Downgrade>,
    ) -> MesiState {
        if !self.llc_has_data(s, block) {
            return self.memory_fetch(now, t, s, core, block, op, invals, downgrades);
        }
        let exclusive = op == Op::ReadExclusive;
        // The entry may be housed at home (WB_DE) while private copies and
        // this data line survive in the socket: retrieve it (GET_DE) and
        // conclude as a directory hit. An untracked grant would break SWMR
        // against those copies, and an RFO's fresh owned entry would
        // silently overwrite the sharers it must invalidate.
        if let Some(entry) = self.recall_housed_entry(t, s, block) {
            self.reinstall_entry(now, s, block, entry, invals);
            return self.serve_from_private(
                now, t, s, core, block, entry, exclusive, invals, downgrades,
            );
        }
        // Case (iii): LLC hit, no private copies anywhere in the socket
        // (guaranteed — §III-D2, housed segment ruled out above).
        let bank = self.bank_of(block);
        self.stats.llc_hits += 1;
        *t = self.bank_port(s, bank, *t, SystemConfig::LLC_DATA_CYCLES) + SystemConfig::LLC_DATA_CYCLES;
        self.stats.llc_data_accesses += 1;
        *t += self.sockets[s]
            .topo
            .bank_core_latency(bank, core.0 as usize, MsgClass::Data.bytes());
        self.stats.msg(MsgClass::Data);
        if exclusive {
            self.epd_on_private_transition(now, s, block, invals);
            self.install_entry(now, s, block, DirEntry::owned(core), invals);
            // Unlike a read, granting M here without first consulting the
            // socket-level directory is safe: the local data line rules out
            // a remote owner, and `socket_level_invalidate` invalidates
            // every remote S copy and claims socket-level ownership before
            // the write is granted.
            *t += self.socket_level_invalidate(s, block, invals);
            return MesiState::Modified;
        }
        self.stats.two_hop_reads += 1;
        let policy = self.policy();
        self.sockets[s].banks[bank].touch_block(block, policy);
        let grant = if op == Op::Read && self.cfg.sockets > 1 {
            // A local LLC data line rules out a remote *owner* (a remote
            // write would have invalidated it), but remote sockets may
            // still hold S copies: the home socket-level directory must be
            // consulted before granting E.
            self.untracked_read_socket_grant(t, s, block)
        } else {
            protocol::untracked_fill_grant(op, false)
        };
        let entry = if grant == MesiState::Exclusive {
            // EPD deallocates first so the new entry cannot fuse (fusion
            // is impossible in an EPD LLC, §III-E).
            self.epd_on_private_transition(now, s, block, invals);
            DirEntry::owned(core)
        } else {
            DirEntry::shared(core)
        };
        self.install_entry(now, s, block, entry, invals);
        grant
    }

    /// GET_DE retrieval for an access that found an LLC data line but no
    /// in-socket entry while the home block is corrupted: an earlier WB_DE
    /// may have housed this socket's segment at home while the cores it
    /// names still hold private copies, so §III-D2's "no private copies"
    /// guarantee only holds once a live housed segment is ruled out.
    /// Returns the retrieved entry (extracted from the home block) and
    /// charges the memory round-trip, or `None` when nothing is housed.
    // lint:consumes(Request)
    fn recall_housed_entry(
        &mut self,
        t: &mut Cycle,
        s: usize,
        block: BlockAddr,
    ) -> Option<DirEntry> {
        if !protocol::must_recall_housed(self.mem.is_corrupted(block)) {
            return None;
        }
        let me = SocketId(s as u8);
        if self.mem.peek_entry(block, me)?.sharers.count() == 0 {
            return None; // dead segment tracks nothing
        }
        let home = self.cfg.home_socket(block);
        let bank = self.bank_of(block);
        self.stats.msg(MsgClass::MemRead);
        *t += self.sockets[s]
            .topo
            .bank_mc_latency(bank, 0, MsgClass::MemRead.bytes());
        // lint:context(MemRead)
        self.stats.dram_reads += 1;
        let tm = self.mem.dram_read(*t, home, block);
        self.stats.msg(MsgClass::MemReadData);
        *t = tm
            + self.sockets[s]
                .topo
                .bank_mc_latency(bank, 0, MsgClass::MemReadData.bytes())
            + 1;
        self.mem.extract_entry(block, me)
    }

    /// Decides the grant for an untracked-read LLC data hit on a
    /// multi-socket machine: E only when no *other* socket shares the
    /// block, S otherwise. Keeps the socket-level directory in step with
    /// the decision.
    // lint:consumes(Request)
    fn untracked_read_socket_grant(&mut self, t: &mut Cycle, s: usize, block: BlockAddr) -> MesiState {
        let home = self.cfg.home_socket(block);
        let me = SocketId(s as u8);
        if home != me {
            // Query + response on the socket interconnect.
            *t += 2 * SystemConfig::INTER_SOCKET_CYCLES;
            self.stats.msg(MsgClass::SocketCtrl);
            self.stats.msg(MsgClass::SocketCtrl);
        }
        let lookup = self.mem.socket_dir_lookup(home, block);
        if !lookup.cached {
            self.stats.dram_reads += 1;
            *t = self.mem.dram_read(*t, home, block);
        }
        let remote_sharers = lookup
            .entry
            .is_some_and(|e| e.sharers.iter().any(|x| x != me));
        if remote_sharers {
            let mut se = lookup.entry.expect("checked above");
            se.owned = false;
            se.sharers.insert(me);
            self.mem.socket_dir_update(home, block, se);
            MesiState::Shared
        } else {
            self.mem
                .socket_dir_update(home, block, SocketDirEntry::owned_by(me));
            MesiState::Exclusive
        }
    }

    /// Case (iv): the block is neither in the LLC nor tracked in the socket
    /// — fetch through the home memory, handling corrupted blocks and (for
    /// multi-socket machines) the full Figure 15 flow.
    #[allow(clippy::too_many_arguments)]
    // lint:consumes(Request)
    fn memory_fetch(
        &mut self,
        now: Cycle,
        t: &mut Cycle,
        s: usize,
        core: CoreId,
        block: BlockAddr,
        op: Op,
        invals: &mut Vec<Invalidation>,
        downgrades: &mut Vec<Downgrade>,
    ) -> MesiState {
        self.stats.llc_misses += 1;
        let home = self.cfg.home_socket(block);
        if self.cfg.sockets > 1 {
            self.stats.socket_misses += 1;
            return self.socket_miss_flow(now, t, s, core, block, op, invals, downgrades);
        }
        let exclusive = op == Op::ReadExclusive;
        // Single socket: home memory is local.
        let bank = self.bank_of(block);
        self.stats.msg(MsgClass::MemRead);
        // lint:context(MemRead)
        *t += self.sockets[s]
            .topo
            .bank_mc_latency(bank, 0, MsgClass::MemRead.bytes());
        if protocol::must_recall_housed(self.mem.is_corrupted(block)) {
            // The socket's own entry is housed in the home block (§III-D3
            // step 3, degenerate single-socket form): read the corrupted
            // block, extract the entry (one extra cycle), then conclude as
            // a directory hit with the block absent from the LLC.
            if !exclusive {
                self.stats.llc_read_misses_corrupted += 1;
            }
            self.stats.dram_reads += 1;
            let tm = self.mem.dram_read(*t, home, block);
            self.stats.msg(MsgClass::MemReadData);
            *t = tm
                + self.sockets[s]
                    .topo
                    .bank_mc_latency(bank, 0, MsgClass::MemReadData.bytes())
                + 1;
            let entry = self
                .mem
                .extract_entry(block, SocketId(s as u8))
                .expect("corrupted single-socket block houses our segment");
            self.reinstall_entry(now, s, block, entry, invals);
            return self.serve_from_private(
                now, t, s, core, block, entry, exclusive, invals, downgrades,
            );
        }
        self.stats.dram_reads += 1;
        let tm = self.mem.dram_read(*t, home, block);
        self.stats.msg(MsgClass::MemReadData);
        *t = tm
            + self.sockets[s]
                .topo
                .bank_mc_latency(bank, 0, MsgClass::MemReadData.bytes());
        *t += self.sockets[s]
            .topo
            .bank_core_latency(bank, core.0 as usize, MsgClass::Data.bytes());
        self.stats.msg(MsgClass::Data);
        self.finish_memory_fill(now, s, core, block, op, false, invals)
    }

    /// Installs the entry and (per LLC design) the line for a block fetched
    /// from memory, returning the granted state; `shared_elsewhere` when
    /// another socket holds an S copy.
    #[allow(clippy::too_many_arguments)]
    fn finish_memory_fill(
        &mut self,
        now: Cycle,
        s: usize,
        core: CoreId,
        block: BlockAddr,
        op: Op,
        shared_elsewhere: bool,
        invals: &mut Vec<Invalidation>,
    ) -> MesiState {
        let grant = protocol::untracked_fill_grant(op, shared_elsewhere);
        // EPD does not allocate demand fills that land privately (M/E);
        // shared (code) fills do allocate. Other designs always fill.
        let fill = self.cfg.llc_design != LlcDesign::Epd || grant == MesiState::Shared;
        if fill {
            self.fill_llc(now, s, block, false, invals);
        }
        let entry = if grant == MesiState::Shared {
            DirEntry::shared(core)
        } else {
            DirEntry::owned(core)
        };
        self.install_entry(now, s, block, entry, invals);
        grant
    }

    /// Concludes a request by forwarding it to the owner or a sharer core
    /// within the socket: the entry was just recovered and the LLC holds
    /// no data for it, or the request is a read of an owned block, whose
    /// latest data only the owner has.
    #[allow(clippy::too_many_arguments)]
    fn serve_from_private(
        &mut self,
        now: Cycle,
        t: &mut Cycle,
        s: usize,
        core: CoreId,
        block: BlockAddr,
        entry: DirEntry,
        exclusive: bool,
        invals: &mut Vec<Invalidation>,
        downgrades: &mut Vec<Downgrade>,
    ) -> MesiState {
        let bank = self.bank_of(block);
        if exclusive {
            let inv_path = self.invalidate_sharers(
                s,
                bank,
                block,
                &entry,
                Some(core),
                InvalReason::Coherence,
                invals,
            );
            let source = entry
                .sharers
                .iter()
                .find(|&c| c != core)
                .expect("live entry has another holder");
            let data_path = self.forward_to_core(s, bank, source, core);
            *t += data_path.max(inv_path);
            self.epd_on_private_transition(now, s, block, invals);
            self.write_entry_anywhere(now, s, block, DirEntry::owned(core), invals);
            *t += self.socket_level_invalidate(s, block, invals);
            MesiState::Modified
        } else if entry.state.is_owned() {
            let owner = entry.owner().expect("owned entry has an owner");
            *t += self.forward_to_core(s, bank, owner, core);
            self.stats.three_hop_reads += 1;
            downgrades.push(Downgrade {
                socket: SocketId(s as u8),
                core: owner,
                block,
            });
            // Sharing writeback lands the block in the LLC (EPD allocates
            // shared blocks; the caller marks it dirty if the owner was in
            // M).
            self.fill_llc(now, s, block, false, invals);
            let mut e = entry;
            e.state = DirState::Shared;
            e.sharers.insert(core);
            // The fill may have moved or even evicted the entry (WB_DE)
            // within this transaction.
            self.write_entry_anywhere(now, s, block, e, invals);
            MesiState::Shared
        } else {
            let sharer = entry.sharers.any().expect("live entry has sharers");
            *t += self.forward_to_core(s, bank, sharer, core);
            self.stats.three_hop_reads += 1;
            let mut e = entry;
            e.sharers.insert(core);
            // The just-installed entry can already have bounced back home
            // (degenerate LLC refusing the spill), so relocate rather than
            // assuming an on-socket location.
            self.write_entry_anywhere(now, s, block, e, invals);
            MesiState::Shared
        }
    }

    // ---------------------------------------------------------------------
    // Multi-socket coherence (Figure 15)
    // ---------------------------------------------------------------------

    /// Handles a miss that leaves the socket: the home socket's directory
    /// decides among the baseline, corrupted-block, and forwarding flows.
    #[allow(clippy::too_many_arguments)]
    // lint:consumes(Request)
    fn socket_miss_flow(
        &mut self,
        now: Cycle,
        t: &mut Cycle,
        s: usize,
        core: CoreId,
        block: BlockAddr,
        op: Op,
        invals: &mut Vec<Invalidation>,
        downgrades: &mut Vec<Downgrade>,
    ) -> MesiState {
        let exclusive = op == Op::ReadExclusive;
        let home = self.cfg.home_socket(block);
        let h = home.0 as usize;
        if h != s {
            *t += SystemConfig::INTER_SOCKET_CYCLES;
            self.stats.msg(MsgClass::SocketCtrl);
        }
        // Everything below happens at (or is relayed through) the home
        // socket, serving the inter-socket control message above.
        // lint:context(SocketCtrl)
        let lookup = self.mem.socket_dir_lookup(home, block);
        if !lookup.cached {
            // Memory-backed socket directory: the entry read costs a DRAM
            // access (step 1 of Figure 15 on a directory-cache miss).
            self.stats.dram_reads += 1;
            *t = self.mem.dram_read(*t, home, block);
        }
        let corrupted = self.mem.is_corrupted(block);
        match lookup.entry {
            None => {
                // Invalid: exclusive grant from home memory (step 2).
                debug_assert!(!corrupted, "untracked blocks cannot be corrupted");
                self.stats.dram_reads += 1;
                let tm = self.mem.dram_read(*t, home, block);
                *t = tm;
                if h != s {
                    *t += SystemConfig::INTER_SOCKET_CYCLES;
                    self.stats.msg(MsgClass::SocketData);
                }
                self.stats.msg(MsgClass::Data);
                let grant = self.finish_memory_fill(now, s, core, block, op, false, invals);
                let e = SocketDirEntry {
                    owned: grant != MesiState::Shared,
                    sharers: SocketSet::only(SocketId(s as u8)),
                };
                self.mem.socket_dir_update(home, block, e);
                grant
            }
            Some(e) if corrupted && e.sharers.contains(SocketId(s as u8)) => {
                // Step 3: requester is a sharer/owner of a corrupted block;
                // baseline flow with a special (corrupted) response. One
                // extra cycle to extract the entry.
                if !exclusive {
                    self.stats.llc_read_misses_corrupted += 1;
                }
                self.stats.dram_reads += 1;
                let tm = self.mem.dram_read(*t, home, block);
                *t = tm + 1;
                if h != s {
                    *t += SystemConfig::INTER_SOCKET_CYCLES;
                    self.stats.msg(MsgClass::SocketData);
                }
                let entry = self
                    .mem
                    .extract_entry(block, SocketId(s as u8))
                    .expect("sharing socket without in-socket entry has a segment");
                self.reinstall_entry(now, s, block, entry, invals);
                self.serve_from_private(now, t, s, core, block, entry, exclusive, invals, downgrades)
            }
            Some(e) => {
                // Forward to a sharer or the owner socket (steps 2/4).
                let f_socket = e
                    .owner()
                    .or_else(|| e.sharers.iter().find(|&x| x != SocketId(s as u8)))
                    .expect("tracked block has a holder");
                if !corrupted && !e.owned && !exclusive {
                    // Socket-Shared, clean memory: serve from home DRAM.
                    self.stats.dram_reads += 1;
                    let tm = self.mem.dram_read(*t, home, block);
                    *t = tm;
                    if h != s {
                        *t += SystemConfig::INTER_SOCKET_CYCLES;
                        self.stats.msg(MsgClass::SocketData);
                    }
                    self.stats.msg(MsgClass::Data);
                    // E is only legal when no *other* socket shares the
                    // block; a remote S copy forces a Shared grant (SWMR).
                    let me = SocketId(s as u8);
                    let remote = e.sharers.iter().any(|x| x != me);
                    let grant = self.finish_memory_fill(now, s, core, block, op, remote, invals);
                    if grant == MesiState::Shared {
                        let mut se = e;
                        se.owned = false;
                        se.sharers.insert(me);
                        self.mem.socket_dir_update(home, block, se);
                    } else {
                        self.mem
                            .socket_dir_update(home, block, SocketDirEntry::owned_by(me));
                    }
                    return grant;
                }
                // Need data from socket F (owner, or corrupted sharer).
                debug_assert_ne!(f_socket, SocketId(s as u8), "requester lost in socket dir");
                *t += SystemConfig::INTER_SOCKET_CYCLES; // H → F forward
                self.stats.msg(MsgClass::SocketCtrl);
                *t += self.remote_retrieve(now, h, f_socket, block, exclusive, invals, downgrades);
                *t += SystemConfig::INTER_SOCKET_CYCLES; // F → S data
                self.stats.msg(MsgClass::SocketData);
                if exclusive {
                    // Invalidate every other sharer socket.
                    for other in e.sharers.iter() {
                        if other == SocketId(s as u8) || other == f_socket {
                            continue;
                        }
                        self.stats.msg(MsgClass::SocketCtrl);
                        self.invalidate_socket_copies(other.0 as usize, block, invals);
                    }
                    let entry = DirEntry::owned(core);
                    self.epd_on_private_transition(now, s, block, invals);
                    if self.cfg.llc_design == LlcDesign::Inclusive {
                        // Inclusion: a privately held block must keep an
                        // LLC line even when the data came from socket F.
                        self.fill_llc(now, s, block, false, invals);
                    }
                    self.install_entry(now, s, block, entry, invals);
                    // Claim socket-level ownership only after the fill and
                    // install settle: their victim churn can run a nested
                    // departure_check on this block, which must not see the
                    // requester in the socket directory while its entry is
                    // still in flight.
                    self.mem
                        .socket_dir_update(home, block, SocketDirEntry::owned_by(SocketId(s as u8)));
                    MesiState::Modified
                } else {
                    // Another socket holds the block too: S either way, and
                    // every LLC design allocates a shared fill.
                    self.fill_llc(now, s, block, false, invals);
                    self.install_entry(now, s, block, DirEntry::shared(core), invals);
                    // Publish sharing only now (see the exclusive arm), and
                    // from the *current* backing state — the churn above may
                    // have legitimately dropped other sockets.
                    let mut se = self
                        .mem
                        .socket_dir_peek(home, block)
                        .unwrap_or(SocketDirEntry {
                            owned: false,
                            sharers: SocketSet::default(),
                        });
                    se.owned = false;
                    se.sharers.insert(SocketId(s as u8));
                    self.mem.socket_dir_update(home, block, se);
                    MesiState::Shared
                }
            }
        }
    }

    /// Retrieves the block from socket `f` on behalf of a requester in
    /// another socket (steps 5–11 of Figure 15). Returns the latency spent
    /// inside (and re-reaching) socket `f`, including any DENF_NACK round
    /// trip.
    #[allow(clippy::too_many_arguments)]
    // lint:consumes(Request)
    fn remote_retrieve(
        &mut self,
        now: Cycle,
        h: usize,
        f_socket: SocketId,
        block: BlockAddr,
        exclusive: bool,
        invals: &mut Vec<Invalidation>,
        downgrades: &mut Vec<Downgrade>,
    ) -> u64 {
        let f = f_socket.0 as usize;
        let bank = self.bank_of(block);
        let mut lat = SystemConfig::LLC_TAG_CYCLES; // F looks up LLC + directory
        self.stats.llc_tag_lookups += 1;
        self.stats.dir_lookups += 1;

        let entry = match self.find_entry(f, block) {
            Some((entry, _)) => entry,
            None => {
                // A housed segment still naming sharers means F's cores hold
                // private copies (the entry went home via WB_DE) — possibly
                // an owner in M whose value the LLC line predates. That case
                // must take the DENF recovery below, not the LLC-only serve.
                let tracked_segment = self
                    .mem
                    .peek_entry(block, f_socket)
                    .is_some_and(|e| e.sharers.count() > 0);
                if !tracked_segment && self.sockets[f].banks[bank].block_line(block).is_some() {
                    // F serves from its LLC (socket-level owner with an
                    // LLC-only copy after its cores evicted).
                    lat += SystemConfig::LLC_DATA_CYCLES;
                    self.stats.llc_data_accesses += 1;
                    if exclusive {
                        self.invalidate_socket_copies(f, block, invals);
                    } else {
                        self.remote_downgrade_writeback(now, f, block);
                    }
                    return lat;
                }
                // Step 7: F has copies but its entry went home — DENF_NACK.
                self.stats.denf_nacks += 1;
                self.stats.msg(MsgClass::DenfNack);
                lat += SystemConfig::INTER_SOCKET_CYCLES; // F → H nack
                let Some(entry) = self.mem.extract_entry(block, f_socket) else {
                    // Synchronous model keeps the socket directory exact, so
                    // a forward without entry, line, or segment cannot
                    // happen; fall back to home memory defensively.
                    debug_assert!(false, "forwarded socket has no trace of {block:?}");
                    return lat;
                };
                // Steps 8–11: H reads the corrupted block, extracts F's
                // entry, and resends the request with it.
                self.stats.dram_reads += 1;
                let _ = self
                    .mem
                    .dram_read(Cycle(now.0 + lat), SocketId(h as u8), block);
                // H serving F's DENF_NACK: the resend is the protocol's own
                // recovery, a response-class message.
                // lint:context(DenfNack)
                self.stats.msg(MsgClass::SocketData); // resend with entry
                lat += SystemConfig::INTER_SOCKET_CYCLES;
                self.reinstall_entry(now, f, block, entry, invals);
                // The placement can bounce the entry straight back home
                // (degenerate LLC); only the entry contents are read below.
                self.find_entry(f, block).map_or(entry, |(e, _)| e)
            }
        };

        // Conclude within F (step 6): pull the block from an owner/sharer
        // core of F.
        let source = entry.sharers.any().expect("live entry has holders");
        lat += self.sockets[f]
            .topo
            .bank_core_latency(bank, source.0 as usize, MsgClass::Forward.bytes())
            + SystemConfig::L2_HIT_CYCLES;
        self.stats.msg(MsgClass::Forward);
        self.stats.msg(MsgClass::Data);
        if exclusive {
            self.invalidate_socket_copies(f, block, invals);
        } else {
            // Downgrade F's owner (if any) and write dirty data back to
            // home so that socket-Shared implies clean memory.
            if entry.state.is_owned() {
                downgrades.push(Downgrade {
                    socket: f_socket,
                    core: source,
                    block,
                });
                let mut e = entry;
                e.state = DirState::Shared;
                // The DENF recovery above may have re-installed the entry
                // into a degenerate LLC that bounced it straight back home;
                // write it wherever it now lives.
                self.write_entry_anywhere(now, f, block, e, invals);
                self.remote_downgrade_writeback(now, f, block);
            }
        }
        lat
    }

    /// On an inter-socket downgrade the owning socket writes the block back
    /// to home memory so that a socket-Shared block always has clean memory
    /// (conservative: charged whether or not the owner was dirty; the E
    /// case would only have sent an acknowledgement).
    // lint:consumes(Request)
    fn remote_downgrade_writeback(&mut self, now: Cycle, f: usize, block: BlockAddr) {
        self.stats.msg(MsgClass::SocketData);
        // Restores a corrupted home block if needed (pulling F's own housed
        // segment back in first).
        self.writeback_to_memory(now, f, block);
        // F's LLC copy (if any) is now clean.
        let bank = self.bank_of(block);
        if let Some(LlcLine::Data { dirty: true }) = self.sockets[f].banks[bank].block_line(block)
        {
            let _ = self.sockets[f].banks[bank].remove_block(block);
            let policy = self.policy();
            let _ = self.sockets[f].banks[bank].fill_data(block, false, policy);
        }
    }

    /// Invalidates every trace of `block` in socket `f` (a remote write is
    /// claiming exclusivity). Private copies go to the caller's
    /// invalidation list; the LLC line and any housed segment are dropped.
    fn invalidate_socket_copies(&mut self, f: usize, block: BlockAddr, invals: &mut Vec<Invalidation>) {
        let reason = InvalReason::Coherence;
        if let Some((entry, loc)) = self.find_entry(f, block) {
            self.invalidate_all(f, block, entry.sharers, reason, invals);
            self.free_entry(f, block, loc, false);
        }
        if let Some(entry) = self.mem.extract_entry(block, SocketId(f as u8)) {
            self.track_live(-1);
            // The housed segment still tracks this socket's private copies
            // (the entry went home via WB_DE); they must be invalidated
            // too, or a stale sharer survives the remote write.
            self.invalidate_all(f, block, entry.sharers, reason, invals);
        }
        let bank = self.bank_of(block);
        let _ = self.sockets[f].banks[bank].remove_block(block);
    }

    /// On an upgrade/RFO that concluded within socket `s`, other sockets
    /// may still share the block: invalidate them through the home socket.
    /// Returns the added critical-path latency.
    // lint:consumes(Request)
    fn socket_level_invalidate(
        &mut self,
        s: usize,
        block: BlockAddr,
        invals: &mut Vec<Invalidation>,
    ) -> u64 {
        if self.cfg.sockets == 1 {
            return 0;
        }
        let home = self.cfg.home_socket(block);
        let lookup = self.mem.socket_dir_lookup(home, block);
        let Some(e) = lookup.entry else {
            return 0;
        };
        let me = SocketId(s as u8);
        // `e` is a copied entry, so the sharer set can be walked directly —
        // no scratch list of "other" sockets is materialised.
        if !e.sharers.iter().any(|x| x != me) {
            if e.owner() != Some(me) {
                self.mem
                    .socket_dir_update(home, block, SocketDirEntry::owned_by(me));
            }
            return 0;
        }
        let mut lat = if home.0 as usize == s {
            0
        } else {
            SystemConfig::INTER_SOCKET_CYCLES
        };
        self.stats.msg(MsgClass::SocketCtrl);
        for other in e.sharers.iter().filter(|&x| x != me) {
            self.stats.msg(MsgClass::SocketCtrl); // invalidation
            self.stats.msg(MsgClass::SocketCtrl); // acknowledgement
            self.invalidate_socket_copies(other.0 as usize, block, invals);
        }
        lat += 2 * SystemConfig::INTER_SOCKET_CYCLES; // worst-case inv + ack
        self.mem
            .socket_dir_update(home, block, SocketDirEntry::owned_by(me));
        lat
    }

    // ---------------------------------------------------------------------
    // Private-cache evictions (Figure 16)
    // ---------------------------------------------------------------------

    /// Notifies the uncore that `core` evicted its copy of `block`.
    /// Evictions are off the critical path, so no latency is returned; any
    /// back-invalidations produced by LLC churn are returned for the caller
    /// to apply.
    pub fn evict(
        &mut self,
        now: Cycle,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        kind: EvictKind,
    ) -> Vec<Invalidation> {
        let mut invals = Vec::new();
        self.evict_into(now, socket, core, block, kind, &mut invals);
        invals
    }

    /// Allocation-free form of [`Self::evict`]: any back-invalidations are
    /// appended to the caller-owned buffer (the sim engine reuses one buffer
    /// across every eviction). The oracle hook sees exactly the entries this
    /// call appended.
    // lint:consumes(EvictNotice)
    pub fn evict_into(
        &mut self,
        now: Cycle,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        kind: EvictKind,
        invals: &mut Vec<Invalidation>,
    ) {
        let s = socket.0 as usize;
        let bank = self.bank_of(block);
        let inv_start = invals.len();
        // EPD moves every owner-evicted block into the LLC (the victim
        // transfer carries data even when clean, §III-E).
        let epd_victim_transfer =
            self.cfg.llc_design == LlcDesign::Epd && kind == EvictKind::CleanExclusive;
        // Dirty writebacks and EPD victim transfers carry the data block;
        // every other notice is control-sized.
        let notice = if kind == EvictKind::Dirty || epd_victim_transfer {
            MsgClass::Writeback
        } else {
            MsgClass::EvictNotice
        };
        let t = now
            + self.sockets[s]
                .topo
                .core_bank_latency(core.0 as usize, bank, notice.bytes());
        let _ = self.bank_port(s, bank, t, SystemConfig::LLC_TAG_CYCLES);
        self.stats.llc_tag_lookups += 1;
        self.stats.dir_lookups += 1;

        match self.find_entry(s, block) {
            Some((entry, _)) if !entry.sharers.contains(core) => {
                // Stale notice: the line was concurrently invalidated (e.g.
                // a DEV raced this eviction) and the entry re-allocated by
                // other cores. Real protocols NACK this; drop it. The notice
                // message itself was still sent and must be accounted.
                self.stats.msg(notice); // lint:emits(Writeback, EvictNotice)
            }
            Some((entry, loc)) => {
                if notice == MsgClass::EvictNotice
                    && kind == EvictKind::CleanExclusive
                    && loc == EntryLoc::Fused
                {
                    // Carries the low reconstruction bits (§III-C2).
                    self.stats.msg(MsgClass::EvictNoticeBits);
                } else {
                    self.stats.msg(notice); // lint:emits(Writeback, EvictNotice)
                }
                // The writeback allocates/updates the LLC line (this is also
                // EPD's allocation-on-owner-eviction rule). A fill can move
                // or evict the entry, so only then is it looked up again.
                let filled = kind == EvictKind::Dirty || epd_victim_transfer;
                let cur_loc = if filled {
                    self.fill_llc(now, s, block, kind == EvictKind::Dirty, invals);
                    self.relocate(s, block)
                } else {
                    Some(loc)
                };
                let mut e = entry;
                e.sharers.remove(core);
                match cur_loc {
                    Some(cur_loc) => {
                        if e.is_dead() {
                            // FuseAll's last S sharer did not carry the bits
                            // in its notice; the home retrieves them with a
                            // special acknowledgement.
                            let retrieval =
                                loc == EntryLoc::Fused && kind == EvictKind::CleanShared;
                            self.free_entry(s, block, cur_loc, retrieval);
                            if self.sockets[s].banks[bank].block_line(block).is_none() {
                                // The evicting core held the last in-socket
                                // copy; if home memory is corrupted it must
                                // be restored from this copy.
                                self.restore_if_last_copy(now, s, block);
                            }
                            self.departure_check(s, block);
                        } else {
                            self.update_entry(now, s, block, e, cur_loc, invals);
                        }
                    }
                    None => {
                        // The dirty-writeback fill above pushed this block's
                        // own entry home (WB_DE); conclude via Figure 16.
                        self.evict_with_entry_at_home(now, s, core, block, kind);
                    }
                }
            }
            None => {
                // ZeroDEV: the entry lives in home memory (corrupted block).
                // The notice reaching the home bank is accounted here; the
                // GET_DE / writeback traffic inside.
                self.stats.msg(notice); // lint:emits(Writeback, EvictNotice)
                if kind == EvictKind::Dirty {
                    // The evictor held the block in M, so any LLC data line
                    // predates that write and is stale. Drop it before the
                    // writeback concludes at home (Figure 16 step 2), or a
                    // later untracked read would hit the stale line.
                    let _ = self.sockets[s].banks[bank].remove_block(block);
                }
                self.evict_with_entry_at_home(now, s, core, block, kind);
            }
        }
        if self.oracle.is_some() {
            let mut o = self.oracle.take().expect("checked above");
            o.after_evict(self, socket, core, block, kind, &invals[inv_start..]);
            self.oracle = Some(o);
        }
    }

    /// Figure 16: the eviction could not find the sparse directory entry
    /// within the socket.
    // lint:consumes(EvictNotice)
    fn evict_with_entry_at_home(
        &mut self,
        now: Cycle,
        s: usize,
        core: CoreId,
        block: BlockAddr,
        kind: EvictKind,
    ) {
        let home = self.cfg.home_socket(block);
        let me = SocketId(s as u8);
        if kind == EvictKind::Dirty {
            // Step 2: a full-block writeback means the evictor was the
            // system-wide owner; forward to home as a normal writeback (the
            // notice/writeback message itself was recorded by the caller).
            debug_assert!(
                self.mem
                    .corrupted_block(block)
                    .is_none_or(|cb| cb.sockets().count() <= 1),
                "sole owner implies at most our own segment"
            );
            let _ = self.mem.extract_entry(block, me);
            self.track_live(-1);
            self.mem.restore(block);
            self.stats.msg(MsgClass::MemWrite);
            if home != me {
                self.stats.msg(MsgClass::SocketData);
            }
            self.mem.dram_write(now, home, block);
            self.stats.dram_writes += 1;
            self.departure_check(s, block);
            return;
        }
        // Steps 3–6: GET_DE — read the corrupted block from home, extract
        // our entry, update it, and write it back (or conclude the block).
        self.stats.get_de_requests += 1;
        self.stats.msg(MsgClass::GetDirEntry);
        if home != me {
            self.stats.msg(MsgClass::SocketCtrl);
        }
        // lint:context(GetDirEntry)
        self.stats.dram_reads += 1;
        let tr = self.mem.dram_read(now, home, block);
        self.stats.msg(MsgClass::MemReadData);
        // lint:context(end)
        let Some(entry) = self.mem.peek_entry(block, me) else {
            // Stale notice: the line was invalidated concurrently and no
            // entry survives anywhere. Drop it.
            return;
        };
        if !entry.sharers.contains(core) {
            return; // stale notice raced an invalidation
        }
        let mut e = entry;
        e.sharers.remove(core);
        if e.is_dead() {
            let _ = self.mem.extract_entry(block, me);
            self.track_live(-1);
            let bank = self.bank_of(block);
            let llc_has = self.sockets[s].banks[bank].block_line(block).is_some();
            // Is this the system-wide last copy?
            let lookup = self.mem.socket_dir_lookup(home, block);
            let sys_last = lookup
                .entry
                .is_none_or(|se| se.sharers.count() == 1 && se.sharers.contains(me));
            if !llc_has && sys_last {
                // Retrieve the block from the evicting core to overwrite
                // the corrupted memory block (§III-D4, last paragraph).
                self.stats.msg(MsgClass::Writeback);
                if home != me {
                    self.stats.msg(MsgClass::SocketData);
                }
                self.mem.restore(block);
                self.mem.dram_write(tr, home, block);
                self.stats.dram_writes += 1;
            }
            self.departure_check(s, block);
        } else {
            // Step 6: send the updated entry back for writing.
            self.mem.rewrite_entry(block, me, e);
            self.mem.dram_write(tr, home, block);
            self.stats.dram_writes += 1;
        }
    }

    // ---------------------------------------------------------------------
    // Caller-reported dirty data
    // ---------------------------------------------------------------------

    /// The owner downgraded by a read held the block in M: its sharing
    /// writeback carries the dirty data to the home LLC (and, on
    /// multi-socket machines, home memory). It neither adds nor removes
    /// the block's LLC line.
    // lint:consumes(Request)
    pub(crate) fn sharing_writeback(&mut self, now: Cycle, socket: SocketId, block: BlockAddr) {
        let s = socket.0 as usize;
        self.stats.msg(MsgClass::Writeback);
        let bank = self.bank_of(block);
        let had_line = self.sockets[s].banks[bank].block_line(block);
        if let Some(line) = had_line {
            match line {
                LlcLine::Data { .. } => {
                    let policy = self.policy();
                    let _ = self.sockets[s].banks[bank].fill_data(block, true, policy);
                }
                LlcLine::Fused { .. } => {
                    // Keep the fused entry; remember the dirty block bits.
                    let entry = self.sockets[s].banks[bank].unfuse(block);
                    let policy = self.policy();
                    let _ = self.sockets[s].banks[bank].fill_data(block, true, policy);
                    self.sockets[s].banks[bank].fuse_entry(block, entry);
                }
                LlcLine::Spilled { .. } => unreachable!("block_line excludes spilled"),
            }
        } else if self.cfg.sockets == 1 {
            // No line survived this transaction's set churn (e.g. an FPSS
            // M→S un-fuse whose spill victimized the block's own data
            // line): the dirty data falls through to home memory.
            self.writeback_to_memory(now, s, block);
        }
        if self.cfg.sockets > 1 {
            self.writeback_to_memory(now, s, block);
        }
        debug_assert_eq!(
            had_line.is_some(),
            self.sockets[s].banks[bank].block_line(block).is_some(),
            "a sharing writeback added or removed the LLC line of {block:?}"
        );
        if self.oracle.is_some() {
            let mut o = self.oracle.take().expect("checked above");
            o.after_sharing_writeback(self, socket, block);
            self.oracle = Some(o);
        }
    }

    /// A DEV-invalidated owner held the block in M: the dirty block is
    /// retrieved into the LLC (the paper's observation explaining
    /// freqmine's behaviour, §I-A1). Back-invalidations caused by the fill
    /// are appended to `invals`.
    // The recall is triggered by a DEV while the directory allocates on
    // behalf of a request; the synchronous model folds it into that
    // transaction, so the dirty writeback is request-caused (rank 0 -> 0).
    // lint:consumes(Request)
    pub(crate) fn dev_dirty_recall(
        &mut self,
        now: Cycle,
        socket: SocketId,
        block: BlockAddr,
        invals: &mut Vec<Invalidation>,
    ) {
        let s = socket.0 as usize;
        self.stats.dev_dirty_recalls += 1;
        self.stats.msg(MsgClass::Writeback);
        let inv_start = invals.len();
        self.fill_llc(now, s, block, true, invals);
        if self.oracle.is_some() {
            let mut o = self.oracle.take().expect("checked above");
            o.after_dev_recall(self, socket, block, &invals[inv_start..]);
            self.oracle = Some(o);
        }
    }

    /// An inclusion-invalidated owner held the block in M: the dirty data
    /// goes to home memory (its LLC line is being evicted).
    // lint:consumes(Request, EvictNotice)
    pub(crate) fn inclusion_dirty_writeback(&mut self, now: Cycle, socket: SocketId, block: BlockAddr) {
        let s = socket.0 as usize;
        self.stats.msg(MsgClass::Writeback);
        self.writeback_to_memory(now, s, block);
        if self.oracle.is_some() {
            let mut o = self.oracle.take().expect("checked above");
            o.after_inclusion_writeback(self, socket, block);
            self.oracle = Some(o);
        }
    }

    // ---------------------------------------------------------------------
    // Diagnostics
    // ---------------------------------------------------------------------

    /// Total LLC lines currently occupied by spilled directory entries
    /// across one socket (Figure 5 / §III-B occupancy measurements).
    pub fn spilled_lines(&self, socket: SocketId) -> usize {
        self.sockets[socket.0 as usize]
            .banks
            .iter()
            .map(LlcBank::spilled_line_count)
            .sum()
    }

    /// The directory entry currently tracking `block` in `socket`, wherever
    /// it lives (tests and invariant checks).
    pub fn entry_of(&self, socket: SocketId, block: BlockAddr) -> Option<DirEntry> {
        self.find_entry(socket.0 as usize, block).map(|(e, _)| e)
    }

    /// The LLC line for `block` in `socket` (tests and invariant checks).
    pub fn llc_line_of(&self, socket: SocketId, block: BlockAddr) -> Option<LlcLine> {
        self.sockets[socket.0 as usize].banks[self.bank_of(block)].block_line(block)
    }

    /// True when the home-memory copy of `block` is corrupted.
    pub fn memory_corrupted(&self, block: BlockAddr) -> bool {
        self.mem.is_corrupted(block)
    }

    /// The entry for `block` in `socket`'s *dedicated* directory structure
    /// only — recency-neutral (model-checker canonicalisation).
    pub fn dedicated_entry_of(&self, socket: SocketId, block: BlockAddr) -> Option<DirEntry> {
        self.sockets[socket.0 as usize].dir.peek(block)
    }

    /// The full contents of the LLC set `block` maps to in `socket`,
    /// MRU→LRU — replacement order is protocol-visible state, so the model
    /// checker folds it into its canonical state encoding.
    pub fn llc_set_of(
        &self,
        socket: SocketId,
        block: BlockAddr,
    ) -> impl Iterator<Item = (BlockAddr, LlcLine)> + '_ {
        self.sockets[socket.0 as usize].banks[self.bank_of(block)].set_contents_mru(block)
    }

    /// Walks every LLC line of every socket and checks the structural
    /// invariants of LLC-resident entries: live, not duplicated in the
    /// dedicated directory, fused only where the policy allows
    /// (`invariants::check_fused_entry`, §III-C2), and under FPSS
    /// spilled M/E only while the block is absent. Panics on violation
    /// (tests, and the audit oracle's periodic sweep).
    pub fn check_invariants(&self) {
        let policy = self.zd().map(|z| z.policy);
        let fpss = policy == Some(SpillPolicy::FusePrivateSpillShared);
        for (s, socket) in self.sockets.iter().enumerate() {
            for bank in &socket.banks {
                for (block, line) in bank.iter() {
                    match line {
                        LlcLine::Fused { entry, .. } => {
                            assert!(!entry.is_dead(), "live fused entry at {block:?}");
                            if let Err(v) = crate::invariants::check_fused_entry(
                                policy,
                                SocketId(s as u8),
                                block,
                                &entry,
                            ) {
                                panic!("{v}");
                            }
                            assert!(
                                socket.dir.peek(block).is_none(),
                                "entry duplicated in dedicated dir at {block:?}"
                            );
                        }
                        LlcLine::Spilled { entry } => {
                            assert!(!entry.is_dead(), "live spilled entry at {block:?}");
                            if fpss {
                                // A spilled M/E entry is only legal when the
                                // block is absent from the LLC.
                                if entry.state.is_owned() {
                                    assert!(
                                        bank.block_line(block).is_none(),
                                        "FPSS invariant: spilled M/E with resident block at {block:?}"
                                    );
                                }
                            }
                            assert!(
                                socket.dir.peek(block).is_none(),
                                "entry duplicated in dedicated dir at {block:?}"
                            );
                        }
                        LlcLine::Data { .. } => {}
                    }
                }
            }
        }
    }
}

/// The private caches a transaction's effects land in: the simulator's
/// per-core hierarchies, or the model checker's per-core shadow states.
/// Only a cache knows whether the copy it gives up was dirty (the directory
/// cannot tell M from E), so [`apply_effects`] asks it.
pub trait PrivateCaches {
    /// The machine the effects came from, which dirty data is reported to.
    fn system(&mut self) -> &mut System;

    /// Downgrades one core's copy to Shared; returns the state it held.
    fn downgrade(&mut self, d: Downgrade) -> MesiState;

    /// Drops one core's copy; returns the state it held.
    fn invalidate(&mut self, inv: Invalidation) -> MesiState;
}

/// Applies one transaction's downgrades and invalidations to `caches`,
/// reporting each Modified copy's dirty data back to the machine, and
/// leaves both vectors empty for reuse.
///
/// Downgrades come first; a Modified owner reports a sharing writeback.
/// Invalidations are then popped LIFO off the tail of `invals`. A Modified
/// DEV victim's recall fills the LLC and appends the fill's
/// back-invalidations to `invals`, so they are applied before the older
/// entries; a Modified inclusion victim writes back to home memory; a
/// coherence victim's dirty data travelled with the ownership transfer.
/// This pop/append order decides LLC victim selection (DESIGN.md §7).
// Responses terminate at the requesting core: delivering them generates
// no further traffic, which is what makes vnet 3 the drain of the order.
// lint:consumes(Data, Ack, MemReadData, SocketData)
// Inline, so each caller's codegen unit gets its own copy and can inline
// its cache methods into it: the simulator runs this on every reference.
#[inline]
pub fn apply_effects<C: PrivateCaches>(
    caches: &mut C,
    now: Cycle,
    downgrades: &mut Vec<Downgrade>,
    invals: &mut Vec<Invalidation>,
) {
    for d in downgrades.drain(..) {
        if caches.downgrade(d) == MesiState::Modified {
            caches.system().sharing_writeback(now, d.socket, d.block);
        }
    }
    while let Some(inv) = invals.pop() {
        if caches.invalidate(inv) != MesiState::Modified {
            continue;
        }
        let sys = caches.system();
        match inv.reason {
            InvalReason::Dev => sys.dev_dirty_recall(now, inv.socket, inv.block, invals),
            InvalReason::Inclusion => sys.inclusion_dirty_writeback(now, inv.socket, inv.block),
            InvalReason::Coherence => {}
        }
    }
}

#[cfg(test)]
mod effect_tests {
    use super::*;
    use zerodev_common::config::CacheGeometry;
    use InvalReason::{Coherence, Dev, Inclusion};

    /// Fake private caches over a real machine: a copy of a block listed in
    /// `held` reports that state, any other copy Invalid. `log` records each
    /// effect's block and invalidation reason (`None` for a downgrade).
    struct Recorder {
        sys: System,
        held: Vec<(u64, MesiState)>,
        log: Vec<(u64, Option<InvalReason>)>,
    }

    impl PrivateCaches for Recorder {
        fn system(&mut self) -> &mut System {
            &mut self.sys
        }

        fn downgrade(&mut self, d: Downgrade) -> MesiState {
            self.log.push((d.block.0, None));
            self.state(d.block)
        }

        fn invalidate(&mut self, inv: Invalidation) -> MesiState {
            self.log.push((inv.block.0, Some(inv.reason)));
            self.state(inv.block)
        }
    }

    impl Recorder {
        /// Two cores over one inclusive 4-set × 2-way LLC bank, so a fill
        /// into a full set back-invalidates the copies of its victim.
        fn new(held: &[(u64, MesiState)]) -> Self {
            let mut cfg = SystemConfig::baseline_8core();
            cfg.cores = 2;
            cfg.llc = CacheGeometry::new(512, 2);
            cfg.llc_banks = 1;
            cfg.llc_design = LlcDesign::Inclusive;
            let sys = System::new(cfg).expect("valid machine");
            let (held, log) = (held.to_vec(), Vec::new());
            Recorder { sys, held, log }
        }

        fn state(&self, block: BlockAddr) -> MesiState {
            let held = self.held.iter().find(|h| h.0 == block.0);
            held.map_or(MesiState::Invalid, |h| h.1)
        }

        /// Applies core 0's downgrades and core 1's invalidations; returns
        /// the Writeback messages and the DEV recalls they reported.
        fn apply(&mut self, downs: &[u64], invals: &[(u64, InvalReason)]) -> (u64, u64) {
            let reports = |st: &Stats| (st.count(MsgClass::Writeback), st.dev_dirty_recalls);
            let before = reports(&self.sys.stats);
            let mut downs: Vec<_> = downs
                .iter()
                .map(|&b| Downgrade {
                    socket: SocketId(0),
                    core: CoreId(0),
                    block: BlockAddr(b),
                })
                .collect();
            let mut invals: Vec<_> = invals
                .iter()
                .map(|&(b, reason)| Invalidation {
                    socket: SocketId(0),
                    core: CoreId(1),
                    block: BlockAddr(b),
                    reason,
                })
                .collect();
            apply_effects(self, Cycle::ZERO, &mut downs, &mut invals);
            assert!(downs.is_empty() && invals.is_empty(), "buffers drained");
            let after = reports(&self.sys.stats);
            (after.0 - before.0, after.1 - before.1)
        }
    }

    #[test]
    fn downgrades_come_first_then_invalidations_lifo() {
        let mut r = Recorder::new(&[(1, MesiState::Exclusive), (2, MesiState::Shared)]);
        let (c, coh) = (Coherence, Some(Coherence));
        assert_eq!(r.apply(&[1, 2], &[(3, c), (4, c), (5, c)]), (0, 0));
        assert_eq!(r.log, [(1, None), (2, None), (5, coh), (4, coh), (3, coh)]);
    }

    #[test]
    fn only_modified_copies_report_once_each() {
        for st in [MesiState::Modified, MesiState::Exclusive, MesiState::Shared] {
            let m = u64::from(st == MesiState::Modified);
            let apply = |downs: &[u64], invals| Recorder::new(&[(1, st)]).apply(downs, invals);
            assert_eq!(apply(&[1], &[]), (m, 0), "downgrade of {st}");
            assert_eq!(apply(&[], &[(1, Inclusion)]), (m, 0), "inclusion {st}");
            assert_eq!(apply(&[], &[(1, Dev)]), (m, m), "DEV {st}");
            assert_eq!(apply(&[], &[(1, Coherence)]), (0, 0), "coherence {st}");
        }
    }

    #[test]
    fn a_dev_recalls_back_invalidations_go_before_older_entries() {
        // Core 0 reads blocks 4 and 8, filling block 0's LLC set.
        let mut r = Recorder::new(&[(0, MesiState::Modified)]);
        let sys = &mut r.sys;
        for b in [4, 8] {
            sys.access(Cycle::ZERO, SocketId(0), CoreId(0), BlockAddr(b), Op::Read);
        }
        // Block 0's recall fills the set and evicts block 4, the LRU line.
        assert_eq!(r.apply(&[], &[(3, Coherence), (0, Dev)]), (1, 1));
        let log = [(0, Some(Dev)), (4, Some(Inclusion)), (3, Some(Coherence))];
        assert_eq!(r.log, log);
    }
}
