//! Canonical state encoding with core-ID symmetry reduction.
//!
//! A state is everything protocol-visible: per-core shadow MESI states, the
//! symbolic write tokens, directory entries wherever they live (dedicated
//! structure, spilled/fused LLC lines, housed home-memory segments), LLC set
//! contents in MRU→LRU order (replacement order steers future spills and
//! victims, so it is state), home-block corruption, and the socket-level
//! directory. Timing (cycles, port busy-times, DRAM state) and statistics
//! are excluded: they never influence a protocol decision.
//!
//! Cores within a socket are interchangeable: relabelling them yields a
//! behaviourally identical machine (every protocol rule is covariant under
//! the relabelling, and only timing — which we exclude — distinguishes core
//! indices). The canonical key is therefore the encoding under a labelling
//! that depends on the state alone, which shrinks the explored graph by up
//! to `cores!^sockets` (24 relabellings at 4 cores on one socket, 576 at 4
//! cores on each of 2 sockets). That labelling sorts each socket's cores by
//! their *signature*: every per-core fact (shadow bytes, write-token bits,
//! sharer bits) in encoding order. Two cores that tie on the signature
//! appear alike everywhere in the encoding, so the order between them
//! changes nothing, and a relabelled state has the same signatures, hence
//! the same key.
//!
//! On every state that passes [`ProtocolHarness::check`], each per-core
//! fact follows from that core's shadow state: every valid copy and only
//! those hold the latest value, and full-map sharer sets are exact. The
//! sort then orders cores by their shadow bytes, block by block, which is
//! what the smallest encoding over every relabelling does, since each
//! block's section opens with its shadow bytes. So on those states the key
//! is byte for byte that minimum (the tests keep the minimum over every
//! relabelling as the reference).
//!
//! Computing a key reads the machine once: `View::gather` copies every
//! protocol-visible fact into a relabelling-independent view. One walk over
//! the view collects the signatures and a second writes the encoding under
//! the sorted labelling. A `KeyEncoder` keeps all of these buffers from
//! one key to the next, and the signatures of the state it keyed last say
//! which of its cores are interchangeable
//! (`KeyEncoder::representatives`): the explorer expands each class of
//! them once.

use std::cell::RefCell;
use std::cmp::Ordering;
use zerodev_common::{BlockAddr, CoreId, MesiState, SocketId};
use zerodev_core::llc::LlcLine;
use zerodev_core::memdir::SocketDirEntry;
use zerodev_core::step::{ProtocolHarness, WriteToken};
use zerodev_core::DirEntry;

fn mesi_byte(s: MesiState) -> u8 {
    match s {
        MesiState::Invalid => 0,
        MesiState::Shared => 1,
        MesiState::Exclusive => 2,
        MesiState::Modified => 3,
    }
}

/// One state's protocol-visible facts under its own core labels. Per-block
/// vectors follow the harness's block order; `[block * sockets + socket]`
/// indexes the per-socket ones.
#[derive(Debug, Default)]
struct View {
    sockets: usize,
    cores: usize,
    /// Shadow MESI byte of each global core (`socket * cores + core`), per
    /// block.
    shadow: Vec<u8>,
    tokens: Vec<WriteToken>,
    /// Entry in each socket's dedicated directory.
    dedicated: Vec<Option<DirEntry>>,
    /// Home-memory corruption flag.
    corrupted: Vec<bool>,
    /// Segment housed in home memory for each socket.
    housed: Vec<Option<DirEntry>>,
    /// The home socket's socket-directory entry.
    socket_dir: Vec<Option<SocketDirEntry>>,
    /// Per socket, each distinct LLC set the blocks map to, in block order:
    /// `(socket, line count)`.
    llc_sets: Vec<(usize, usize)>,
    /// The lines of the sets in `llc_sets`, set after set, each MRU→LRU.
    llc_lines: Vec<(BlockAddr, LlcLine)>,
}

impl View {
    /// Reads everything the encoding covers from the harness and its
    /// machine, once, into this view's buffers.
    fn gather(&mut self, h: &ProtocolHarness) {
        let View {
            sockets,
            cores,
            shadow,
            tokens,
            dedicated,
            corrupted,
            housed,
            socket_dir,
            llc_sets,
            llc_lines,
        } = self;
        (*sockets, *cores) = (h.sockets(), h.cores());
        shadow.clear();
        tokens.clear();
        dedicated.clear();
        corrupted.clear();
        housed.clear();
        socket_dir.clear();
        llc_sets.clear();
        llc_lines.clear();
        let sys = h.system();
        let cfg = sys.config();
        for &block in h.blocks() {
            for s in 0..*sockets {
                let socket = SocketId(s as u8);
                for c in 0..*cores {
                    shadow.push(mesi_byte(h.shadow_state(socket, CoreId(c as u16), block)));
                }
                dedicated.push(sys.dedicated_entry_of(socket, block));
                housed.push(sys.memory().peek_entry(block, socket));
            }
            tokens.push(h.token(block));
            corrupted.push(sys.memory_corrupted(block));
            socket_dir.push(sys.memory().socket_dir_peek(cfg.home_socket(block), block));
        }
        // LLC set contents, once per distinct (bank, set), in the order the
        // blocks first map to them.
        let banks = cfg.llc_banks as u64;
        let sets = cfg.llc_sets_per_bank() as u64;
        let set_of = |b: &BlockAddr| (b.0 % banks, (b.0 / banks) % sets);
        let blocks = h.blocks();
        for s in 0..*sockets {
            for (i, b) in blocks.iter().enumerate() {
                if blocks[..i].iter().any(|f| set_of(f) == set_of(b)) {
                    continue;
                }
                let first = llc_lines.len();
                llc_lines.extend(sys.llc_set_of(SocketId(s as u8), *b));
                llc_sets.push((s, llc_lines.len() - first));
            }
        }
    }
}

/// Receives one walk over a [`View`], fact by fact, in encoding order.
trait Sink {
    /// Bytes that no relabelling changes.
    fn fixed(&mut self, bytes: &[u8]);
    /// One byte per core of socket `s`, in core order.
    fn row(&mut self, s: usize, row: &[u8]);
    /// A set of cores as a bit mask: socket `s`'s cores for `Some(s)`,
    /// global cores (`socket * cores + core`) for `None`.
    fn cores(&mut self, s: Option<usize>, bits: u128);
}

/// Walks every fact of `v` in encoding order. The encoding and the core
/// signatures both come from this one walk, so they cannot disagree on
/// which facts exist or in which order.
fn walk(v: &View, sink: &mut impl Sink) {
    let (sockets, cores) = (v.sockets, v.cores);
    for (bi, tok) in v.tokens.iter().enumerate() {
        // Shadow states.
        let shadow = &v.shadow[bi * sockets * cores..(bi + 1) * sockets * cores];
        for (s, row) in shadow.chunks_exact(cores).enumerate() {
            sink.row(s, row);
        }
        // Symbolic write token.
        sink.cores(None, tok.cores);
        sink.fixed(&tok.llc.to_le_bytes());
        sink.fixed(&[u8::from(tok.mem)]);
        // Directory entries in the dedicated structure.
        let per_socket = bi * sockets..(bi + 1) * sockets;
        for (s, &e) in v.dedicated[per_socket.clone()].iter().enumerate() {
            entry(sink, s, e);
        }
        // Home-memory corruption + housed segments.
        sink.fixed(&[u8::from(v.corrupted[bi])]);
        for (s, &e) in v.housed[per_socket].iter().enumerate() {
            entry(sink, s, e);
        }
        // Socket-level directory (socket IDs are not permuted: homes are
        // address-determined).
        match v.socket_dir[bi] {
            None => sink.fixed(&[0]),
            Some(e) => {
                sink.fixed(&[1, u8::from(e.owned)]);
                sink.fixed(&e.sharers.0.to_le_bytes());
            }
        }
    }
    // LLC set contents, MRU→LRU.
    let mut lines = v.llc_lines.iter();
    for &(s, n) in &v.llc_sets {
        sink.fixed(&[n as u8]);
        for (block, line) in lines.by_ref().take(n) {
            sink.fixed(&block.0.to_le_bytes());
            match *line {
                LlcLine::Data { dirty } => sink.fixed(&[1, u8::from(dirty)]),
                LlcLine::Spilled { entry: e } => {
                    sink.fixed(&[2]);
                    entry(sink, s, Some(e));
                }
                LlcLine::Fused {
                    entry: e,
                    block_dirty,
                } => {
                    sink.fixed(&[3, u8::from(block_dirty)]);
                    entry(sink, s, Some(e));
                }
            }
        }
    }
}

/// One directory entry (or its absence) of socket `s`.
fn entry(sink: &mut impl Sink, s: usize, e: Option<DirEntry>) {
    match e {
        None => sink.fixed(&[0]),
        Some(e) => {
            sink.fixed(&[1, if e.state.is_owned() { 1 } else { 2 }]);
            sink.cores(Some(s), e.sharers.0);
        }
    }
}

/// Collects the core signatures as columns: every per-core fact is one
/// column of `width` bytes, one per global core. A socket's fact leaves the
/// other sockets' bytes 0; cores are only ever compared within a socket.
struct Signatures<'a> {
    cols: &'a mut Vec<u8>,
    cores: usize,
    width: usize,
}

impl Sink for Signatures<'_> {
    fn fixed(&mut self, _: &[u8]) {}

    fn row(&mut self, s: usize, row: &[u8]) {
        let start = self.cols.len() + s * self.cores;
        self.cols.resize(self.cols.len() + self.width, 0);
        self.cols[start..start + self.cores].copy_from_slice(row);
    }

    fn cores(&mut self, s: Option<usize>, bits: u128) {
        let bits = s.map_or(bits, |s| bits << (s * self.cores));
        self.cols
            .extend((0..self.width).map(|g| u8::from(bits >> g & 1 != 0)));
    }
}

/// Orders global cores `a` and `b` (of one socket) by their signatures in
/// `cols`: the first column where they differ decides.
fn by_signature(cols: &[u8], width: usize, a: usize, b: usize) -> Ordering {
    cols.chunks_exact(width)
        .map(|col| col[a].cmp(&col[b]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Writes the encoding under a labelling: `slot[g]` is global core `g`'s
/// index within its socket after relabelling, and
/// `core_at[socket * cores + slot]` the core that slot holds.
struct Encode<'a> {
    out: &'a mut Vec<u8>,
    cores: usize,
    slot: &'a [u16],
    core_at: &'a [u16],
}

impl Sink for Encode<'_> {
    fn fixed(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn row(&mut self, s: usize, row: &[u8]) {
        let core_at = &self.core_at[s * self.cores..(s + 1) * self.cores];
        self.out.extend(core_at.iter().map(|&c| row[c as usize]));
    }

    fn cores(&mut self, s: Option<usize>, mut bits: u128) {
        let mut out = 0u128;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out |= match s {
                // Bit `b` is core `b` of socket `s`.
                Some(s) => 1 << self.slot[s * self.cores + b],
                // Bit `b` is global core `b`: it stays in its socket.
                None => 1 << (b - b % self.cores + self.slot[b] as usize),
            };
        }
        self.out.extend_from_slice(&out.to_le_bytes());
    }
}

/// Computes canonical keys into buffers kept from one call to the next, so
/// that once they have grown to a machine's size a key allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct KeyEncoder {
    view: View,
    /// Signature columns (see `Signatures`).
    cols: Vec<u8>,
    /// Per global core: its slot within its socket, signatures sorted.
    slot: Vec<u16>,
    /// Per socket and slot: the core sorted into that slot.
    core_at: Vec<u16>,
    key: Vec<u8>,
}

impl KeyEncoder {
    /// The canonical key of `h`, valid until the next call.
    pub(crate) fn key(&mut self, h: &ProtocolHarness) -> &[u8] {
        self.view.gather(h);
        self.encode()
    }

    /// Sorts each socket's cores by signature and encodes the view under
    /// that labelling.
    fn encode(&mut self) -> &[u8] {
        let KeyEncoder {
            view,
            cols,
            slot,
            core_at,
            key,
        } = self;
        let (sockets, cores) = (view.sockets, view.cores);
        let width = sockets * cores;
        cols.clear();
        walk(view, &mut Signatures { cols, cores, width });
        core_at.clear();
        core_at.extend((0..sockets).flat_map(|_| 0..cores as u16));
        slot.clear();
        slot.resize(width, 0);
        for (s, order) in core_at.chunks_exact_mut(cores).enumerate() {
            let g = |c: u16| s * cores + c as usize;
            order.sort_unstable_by(|&a, &b| by_signature(cols, width, g(a), g(b)));
            for (i, &c) in order.iter().enumerate() {
                slot[g(c)] = i as u16;
            }
        }
        key.clear();
        walk(
            view,
            &mut Encode {
                out: key,
                cores,
                slot,
                core_at,
            },
        );
        key
    }

    /// Writes into `reps` each global core's *representative* in the state
    /// keyed last: the lowest-indexed core of its socket with an equal
    /// signature. Swapping two such cores changes no byte of the encoding,
    /// so an event of a core reaches the canonical successor of the same
    /// event (same block, same op or evict kind) of its representative.
    pub(crate) fn representatives(&self, reps: &mut Vec<u8>) {
        let (cores, width) = (self.view.cores, self.slot.len());
        reps.clear();
        reps.resize(width, 0);
        for (s, order) in self.core_at.chunks_exact(cores).enumerate() {
            let g = |c: u16| s * cores + c as usize;
            // The sort put equal signatures next to each other.
            let ties = |&a: &u16, &b: &u16| by_signature(&self.cols, width, g(a), g(b)).is_eq();
            for class in order.chunk_by(ties) {
                let rep = class
                    .iter()
                    .map(|&c| g(c))
                    .min()
                    .expect("classes are not empty");
                for &c in class {
                    reps[g(c)] = rep as u8;
                }
            }
        }
    }
}

/// The canonical (symmetry-reduced) encoding of a harness state: its
/// encoding with each socket's cores sorted by signature, which on checked
/// states is the minimum byte encoding over every per-socket core
/// relabelling. Computed in one `KeyEncoder` per thread, so only the
/// returned copy is allocated: a fresh encoder per call grows its dozen
/// buffers anew, which more than doubles the time per key. The explorer
/// keeps its own encoder for a whole search.
pub fn canonical_key(h: &ProtocolHarness) -> Vec<u8> {
    thread_local! {
        static KEYS: RefCell<KeyEncoder> = RefCell::default();
    }
    KEYS.with_borrow_mut(|keys| keys.key(h).to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{tiny, ModelConfig};
    use crate::trace::replay;
    use std::collections::{HashSet, VecDeque};
    use zerodev_common::config::{LlcDesign, SpillPolicy};
    use zerodev_common::ids::SharerSet;
    use zerodev_common::protocol::Op;
    use zerodev_core::step::ProtocolEvent;

    /// The straightforward definition the fast path must reproduce byte for
    /// byte: re-read the machine for every relabelling and keep the
    /// smallest encoding.
    mod reference {
        use zerodev_common::ids::SharerSet;
        use zerodev_common::{BlockAddr, CoreId, MesiState, SocketId};
        use zerodev_core::llc::LlcLine;
        use zerodev_core::step::ProtocolHarness;
        use zerodev_core::DirEntry;

        fn mesi_byte(s: MesiState) -> u8 {
            match s {
                MesiState::Invalid => 0,
                MesiState::Shared => 1,
                MesiState::Exclusive => 2,
                MesiState::Modified => 3,
            }
        }

        /// All permutations of `0..n` (n ≤ 4 in practice).
        fn permutations(n: usize) -> Vec<Vec<u16>> {
            if n == 0 {
                return vec![Vec::new()];
            }
            let mut out = Vec::new();
            let mut items: Vec<u16> = (0..n as u16).collect();
            heap_permute(&mut items, n, &mut out);
            out
        }

        fn heap_permute(items: &mut Vec<u16>, k: usize, out: &mut Vec<Vec<u16>>) {
            if k == 1 {
                out.push(items.clone());
                return;
            }
            for i in 0..k {
                heap_permute(items, k - 1, out);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }

        /// One relabelling: `perm[socket][core] = new core index`.
        pub type Perm = Vec<Vec<u16>>;

        /// The product of per-socket core permutations.
        pub fn all_perms(sockets: usize, cores: usize) -> Vec<Perm> {
            let per_socket = permutations(cores);
            let mut combos: Vec<Perm> = vec![Vec::new()];
            for _ in 0..sockets {
                let mut next = Vec::with_capacity(combos.len() * per_socket.len());
                for c in &combos {
                    for p in &per_socket {
                        let mut c2 = c.clone();
                        c2.push(p.clone());
                        next.push(c2);
                    }
                }
                combos = next;
            }
            combos
        }

        fn remap_sharers(set: SharerSet, perm_s: &[u16]) -> u128 {
            let mut out = 0u128;
            for c in set.iter() {
                let new = *perm_s.get(c.0 as usize).expect("core id within socket");
                out |= 1 << new;
            }
            out
        }

        fn remap_global_cores(bits: u128, perm: &Perm, cores: usize) -> u128 {
            let mut out = 0u128;
            let mut g = 0usize;
            while g < 128 {
                if bits & (1 << g) != 0 {
                    let s = g / cores;
                    let c = g % cores;
                    let new = s * cores
                        + *perm
                            .get(s)
                            .and_then(|p| p.get(c))
                            .expect("global core within machine")
                            as usize;
                    out |= 1 << new;
                }
                g += 1;
            }
            out
        }

        fn push_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }

        fn push_u128(out: &mut Vec<u8>, v: u128) {
            out.extend_from_slice(&v.to_le_bytes());
        }

        fn push_entry(out: &mut Vec<u8>, e: Option<DirEntry>, perm_s: &[u16]) {
            match e {
                None => out.push(0),
                Some(e) => {
                    out.push(1);
                    out.push(if e.state.is_owned() { 1 } else { 2 });
                    push_u128(out, remap_sharers(e.sharers, perm_s));
                }
            }
        }

        fn push_line(out: &mut Vec<u8>, block: BlockAddr, line: &LlcLine, perm_s: &[u16]) {
            push_u64(out, block.0);
            match line {
                LlcLine::Data { dirty } => {
                    out.push(1);
                    out.push(u8::from(*dirty));
                }
                LlcLine::Spilled { entry } => {
                    out.push(2);
                    push_entry(out, Some(*entry), perm_s);
                }
                LlcLine::Fused { entry, block_dirty } => {
                    out.push(3);
                    out.push(u8::from(*block_dirty));
                    push_entry(out, Some(*entry), perm_s);
                }
            }
        }

        pub fn encode(h: &ProtocolHarness, perm: &Perm) -> Vec<u8> {
            let sockets = h.sockets();
            let cores = h.cores();
            let sys = h.system();
            let cfg = sys.config();
            let mut out = Vec::with_capacity(256);
            // Inverse permutation per socket: slot -> original core.
            let inv: Vec<Vec<u16>> = perm
                .iter()
                .map(|p| {
                    let mut inv = vec![0u16; p.len()];
                    for (orig, &new) in p.iter().enumerate() {
                        *inv.get_mut(new as usize).expect("permutation in range") = orig as u16;
                    }
                    inv
                })
                .collect();
            for &block in h.blocks() {
                // Shadow states, emitted in relabelled core order.
                for s in 0..sockets {
                    for slot in 0..cores {
                        let orig = *inv
                            .get(s)
                            .and_then(|i| i.get(slot))
                            .expect("slot within socket");
                        out.push(mesi_byte(h.shadow_state(
                            SocketId(s as u8),
                            CoreId(orig),
                            block,
                        )));
                    }
                }
                // Symbolic write token.
                let tok = h.token(block);
                push_u128(&mut out, remap_global_cores(tok.cores, perm, cores));
                out.extend_from_slice(&tok.llc.to_le_bytes());
                out.push(u8::from(tok.mem));
                // Directory entries in the dedicated structure.
                for s in 0..sockets {
                    push_entry(
                        &mut out,
                        sys.dedicated_entry_of(SocketId(s as u8), block),
                        perm.get(s).expect("socket in range"),
                    );
                }
                // Home-memory corruption + housed segments.
                out.push(u8::from(sys.memory_corrupted(block)));
                for s in 0..sockets {
                    push_entry(
                        &mut out,
                        sys.memory().peek_entry(block, SocketId(s as u8)),
                        perm.get(s).expect("socket in range"),
                    );
                }
                // Socket-level directory (socket IDs are not permuted: homes are
                // address-determined).
                let home = cfg.home_socket(block);
                match sys.memory().socket_dir_peek(home, block) {
                    None => out.push(0),
                    Some(e) => {
                        out.push(1);
                        out.push(u8::from(e.owned));
                        out.extend_from_slice(&e.sharers.0.to_le_bytes());
                    }
                }
            }
            // LLC set contents, MRU→LRU, once per distinct (socket, bank, set).
            let banks = cfg.llc_banks as u64;
            let sets = cfg.llc_sets_per_bank() as u64;
            for s in 0..sockets {
                let mut seen: Vec<(u64, u64)> = Vec::new();
                for &block in h.blocks() {
                    let bank = block.0 % banks;
                    let set = (block.0 / banks) % sets;
                    if seen.contains(&(bank, set)) {
                        continue;
                    }
                    seen.push((bank, set));
                    let lines: Vec<_> = sys.llc_set_of(SocketId(s as u8), block).collect();
                    out.push(lines.len() as u8);
                    for (b, line) in &lines {
                        push_line(&mut out, *b, line, perm.get(s).expect("socket in range"));
                    }
                }
            }
            out
        }

        /// The canonical (symmetry-reduced) encoding of a harness state: the
        /// minimum byte encoding over every per-socket core relabelling.
        pub fn canonical_key(h: &ProtocolHarness) -> Vec<u8> {
            all_perms(h.sockets(), h.cores())
                .iter()
                .map(|p| encode(h, p))
                .min()
                .expect("at least the identity permutation")
        }
    }

    /// `v` with core `c` of socket `s` renamed `perm[s][c]` in every fact.
    fn relabel_view(v: &View, perm: &reference::Perm) -> View {
        let (sockets, cores) = (v.sockets, v.cores);
        let local = |s: usize, bits: u128| {
            (0..cores)
                .filter(|&c| bits >> c & 1 != 0)
                .fold(0u128, |out, c| out | 1 << perm[s][c])
        };
        let global = |bits: u128| {
            (0..sockets).fold(0u128, |out, s| {
                out | local(s, bits >> (s * cores) & ((1 << cores) - 1)) << (s * cores)
            })
        };
        let entry = |s: usize, e: Option<DirEntry>| {
            e.map(|e| DirEntry {
                sharers: SharerSet(local(s, e.sharers.0)),
                ..e
            })
        };
        let mut shadow = v.shadow.clone();
        // Row `i` is block `i / sockets`, socket `i % sockets`.
        for (i, row) in v.shadow.chunks_exact(cores).enumerate() {
            for (c, &byte) in row.iter().enumerate() {
                shadow[i * cores + perm[i % sockets][c] as usize] = byte;
            }
        }
        let mut lines = v.llc_lines.clone();
        let mut rest = lines.iter_mut();
        for &(s, n) in &v.llc_sets {
            for (_, line) in rest.by_ref().take(n) {
                *line = match *line {
                    LlcLine::Data { dirty } => LlcLine::Data { dirty },
                    LlcLine::Spilled { entry: e } => LlcLine::Spilled {
                        entry: entry(s, Some(e)).expect("an entry"),
                    },
                    LlcLine::Fused {
                        entry: e,
                        block_dirty,
                    } => LlcLine::Fused {
                        entry: entry(s, Some(e)).expect("an entry"),
                        block_dirty,
                    },
                };
            }
        }
        let per_socket = |es: &[Option<DirEntry>]| -> Vec<Option<DirEntry>> {
            es.iter()
                .enumerate()
                .map(|(i, &e)| entry(i % sockets, e))
                .collect()
        };
        View {
            sockets,
            cores,
            shadow,
            tokens: v
                .tokens
                .iter()
                .map(|t| WriteToken {
                    cores: global(t.cores),
                    ..*t
                })
                .collect(),
            dedicated: per_socket(&v.dedicated),
            corrupted: v.corrupted.clone(),
            housed: per_socket(&v.housed),
            socket_dir: v.socket_dir.clone(),
            llc_sets: v.llc_sets.clone(),
            llc_lines: lines,
        }
    }

    /// `v` encoded under its own core labels.
    fn labelled(v: &View) -> Vec<u8> {
        let identity: Vec<u16> = (0..v.sockets).flat_map(|_| 0..v.cores as u16).collect();
        let mut out = Vec::new();
        walk(
            v,
            &mut Encode {
                out: &mut out,
                cores: v.cores,
                slot: &identity,
                core_at: &identity,
            },
        );
        out
    }

    #[test]
    fn labelled_masks_move_bits_within_their_socket() {
        // 2 sockets x 3 cores: socket 0 rotates c0 -> c2 -> c1 -> c0,
        // socket 1 swaps c0 and c1.
        let slot = [2, 0, 1, 1, 0, 2];
        let core_at = [1, 2, 0, 1, 0, 2];
        let mask = |s: Option<usize>, bits: u128| {
            let mut out = Vec::new();
            Encode {
                out: &mut out,
                cores: 3,
                slot: &slot,
                core_at: &core_at,
            }
            .cores(s, bits);
            u128::from_le_bytes(out.try_into().expect("16 bytes"))
        };
        assert_eq!(mask(Some(0), 0b001), 0b100);
        assert_eq!(mask(Some(0), 0b011), 0b101);
        assert_eq!(mask(Some(1), 0b001), 0b010);
        assert_eq!(mask(Some(1), 0b100), 0b100);
        assert_eq!(mask(None, 0b001_001), 0b010_100);
        assert_eq!(mask(None, 0b110_000), 0b101_000);
        let mut row = Vec::new();
        Encode {
            out: &mut row,
            cores: 3,
            slot: &slot,
            core_at: &core_at,
        }
        .row(1, &[7, 8, 9]);
        assert_eq!(row, [8, 7, 9]);
    }

    /// A hand-built view of 2 sockets x 3 cores and 2 blocks, and two
    /// variants in which two cores of a socket tie on every shadow byte but
    /// not on one fact: a write-token bit in the first, a stale sharer bit
    /// (dedicated directory and spilled LLC entry) in the second. The
    /// harness checks reject such states, so the sorted labelling need not
    /// give the minimum encoding there, but the key must still be the same
    /// under every relabelling.
    #[test]
    fn keys_of_views_with_tied_shadows_are_canonical() {
        let shared = |sharers: u128| DirEntry {
            state: zerodev_common::DirState::Shared,
            sharers: SharerSet(sharers),
        };
        let token = |cores: u128| WriteToken {
            cores,
            llc: 0,
            mem: true,
        };
        let base = View {
            sockets: 2,
            cores: 3,
            // Block 0: s0 = [S, I, I], s1 = [I, I, I]; block 1: s0 = [I, I,
            // I], s1 = [I, S, I].
            shadow: vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
            tokens: vec![token(0b000_001), token(0b010_000)],
            dedicated: vec![Some(shared(0b001)), None, None, Some(shared(0b010))],
            corrupted: vec![false, false],
            housed: vec![None; 4],
            socket_dir: vec![None; 2],
            llc_sets: vec![(0, 1), (1, 0)],
            llc_lines: vec![(BlockAddr(0), LlcLine::Data { dirty: false })],
        };
        let identity = vec![vec![0, 1, 2]; 2];
        // s0/c2 ties with s0/c1 on shadow bytes but holds a token bit.
        let mut stale_token = relabel_view(&base, &identity);
        stale_token.tokens[0].cores |= 0b100;
        // s1/c0 ties with s1/c2 but is a sharer in the dedicated entry and
        // in a spilled entry.
        let mut stale_sharer = relabel_view(&base, &identity);
        stale_sharer.dedicated[3] = Some(shared(0b011));
        stale_sharer.llc_sets[1].1 = 1;
        stale_sharer.llc_lines.push((
            BlockAddr(64),
            LlcLine::Spilled {
                entry: shared(0b011),
            },
        ));

        let mut enc = KeyEncoder::default();
        for view in [base, stale_token, stale_sharer] {
            enc.view = relabel_view(&view, &identity);
            let key = enc.encode().to_vec();
            let mut raw = HashSet::new();
            for perm in reference::all_perms(2, 3) {
                enc.view = relabel_view(&view, &perm);
                raw.insert(labelled(&enc.view));
                assert_eq!(enc.encode(), key.as_slice(), "relabelled by {perm:?}");
            }
            assert!(raw.len() > 1, "the relabellings must differ");
        }
    }

    /// 2 sockets × 3 cores, one block. Socket 0: c0 and c2 share the block,
    /// c1 does not hold it; socket 1: c1 shares it, c0 and c2 do not. The
    /// classes are {c1}, {c0, c2} and {c0, c2}, {c1}; clearing c2's token
    /// bit splits socket 0's pair, though their shadow bytes still tie.
    #[test]
    fn representatives_are_the_lowest_core_of_each_signature_class() {
        let shared = |sharers: u128| DirEntry {
            state: zerodev_common::DirState::Shared,
            sharers: SharerSet(sharers),
        };
        let token = |cores: u128| WriteToken {
            cores,
            llc: 0,
            mem: true,
        };
        let view = |token_cores: u128| View {
            sockets: 2,
            cores: 3,
            shadow: vec![1, 0, 1, 0, 1, 0],
            tokens: vec![token(token_cores)],
            dedicated: vec![Some(shared(0b101)), Some(shared(0b010))],
            corrupted: vec![false],
            housed: vec![None; 2],
            socket_dir: vec![None],
            llc_sets: vec![(0, 0), (1, 0)],
            llc_lines: Vec::new(),
        };
        let mut enc = KeyEncoder::default();
        let mut reps = Vec::new();
        for (token_cores, expected) in [
            (0b010_101, [0, 1, 0, 3, 4, 3]),
            (0b010_001, [0, 1, 2, 3, 4, 3]),
        ] {
            enc.view = view(token_cores);
            enc.encode();
            enc.representatives(&mut reps);
            assert_eq!(reps, expected, "token cores {token_cores:#b}");
        }
    }

    /// The 19 machines of simbench's `mc` workload (`simbench/src/suite.rs`)
    /// and the 4-core machine of the full matrix, each with its state cap,
    /// plus a bounded look at 3 cores on each of 2 sockets.
    fn key_test_machines() -> Vec<(ModelConfig, usize)> {
        let mut machines = Vec::new();
        for (cores, ways) in [(2, 3), (3, 2), (3, 1)] {
            for policy in [
                SpillPolicy::SpillAll,
                SpillPolicy::FusePrivateSpillShared,
                SpillPolicy::FuseAll,
            ] {
                for design in [LlcDesign::NonInclusive, LlcDesign::Epd] {
                    machines.push((tiny(policy, design, cores, 1, 2, ways), 3_000));
                }
            }
        }
        let fpss = SpillPolicy::FusePrivateSpillShared;
        machines.push((
            tiny(SpillPolicy::FuseAll, LlcDesign::Inclusive, 2, 2, 1, 1),
            3_000,
        ));
        machines.push((tiny(fpss, LlcDesign::NonInclusive, 4, 1, 2, 2), 3_000));
        machines.push((tiny(fpss, LlcDesign::NonInclusive, 3, 2, 1, 1), 300));
        machines
    }

    /// Breadth-first over `mc`'s reachable graph (at most `cap` distinct
    /// states), checking the key of every successor — every concrete
    /// representative reached, not only the first of each class — against
    /// the reference. Returns the states visited.
    fn check_keys_against_reference(mc: &ModelConfig, cap: usize) -> usize {
        let h0 = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), false)
            .expect("tiny machines validate");
        let k0 = canonical_key(&h0);
        assert_eq!(
            k0,
            reference::canonical_key(&h0),
            "{}: initial state",
            mc.name
        );
        let mut visited = HashSet::from([k0]);
        let mut queue = VecDeque::from([h0]);
        while let Some(h) = queue.pop_front() {
            for ev in h.enabled_events() {
                let mut next = h.clone();
                next.apply(ev)
                    .unwrap_or_else(|v| panic!("{}: {ev}: {v}", mc.name));
                let key = canonical_key(&next);
                assert_eq!(
                    key,
                    reference::canonical_key(&next),
                    "{}: key differs from the reference after {ev}",
                    mc.name
                );
                if visited.len() < cap && visited.insert(key) {
                    queue.push_back(next);
                }
            }
        }
        visited.len()
    }

    #[test]
    fn keys_equal_the_min_over_every_relabelling() {
        for (mc, cap) in key_test_machines() {
            let states = check_keys_against_reference(&mc, cap);
            assert!(states > 100, "{}: only {states} states", mc.name);
        }
    }

    /// One scratch harness, refilled by `clone_from` before every successor
    /// of every key-test machine (the oracle attached on every other
    /// machine, so the scratch also moves between machines with and
    /// without it), reads the same as a fresh clone each time; and one
    /// `KeyEncoder` reused across all of them computes the same keys as a
    /// fresh encoder.
    #[test]
    fn a_reused_scratch_harness_equals_a_fresh_clone() {
        let mut scratch: Option<ProtocolHarness> = None;
        let mut keys = KeyEncoder::default();
        for (i, (mc, _)) in key_test_machines().into_iter().enumerate() {
            let h0 = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), i % 2 == 0)
                .expect("tiny machines validate");
            let mut visited = HashSet::from([canonical_key(&h0)]);
            let mut queue = VecDeque::from([h0]);
            while let Some(h) = queue.pop_front() {
                for ev in h.enabled_events() {
                    let next = scratch.get_or_insert_with(|| h.clone());
                    next.clone_from(&h);
                    assert_eq!(
                        format!("{next:?}"),
                        format!("{:?}", h.clone()),
                        "{}: refilled before {ev}",
                        mc.name
                    );
                    next.apply(ev)
                        .unwrap_or_else(|v| panic!("{}: {ev}: {v}", mc.name));
                    let key = keys.key(next);
                    let fresh = KeyEncoder::default().key(next).to_vec();
                    assert_eq!(key, fresh, "{}: after {ev}", mc.name);
                    if visited.len() < 100 && visited.insert(key.to_vec()) {
                        queue.push_back(next.clone());
                    }
                }
            }
        }
    }

    /// `ev` with socket `socket`'s cores relabelled by `perm`.
    fn relabel(ev: ProtocolEvent, socket: u8, perm: &[u16]) -> ProtocolEvent {
        let map = |s: SocketId, c: CoreId| {
            if s.0 == socket {
                CoreId(perm[c.0 as usize])
            } else {
                c
            }
        };
        match ev {
            ProtocolEvent::Access {
                socket: s,
                core,
                block,
                op,
            } => ProtocolEvent::access(s, map(s, core), block, op),
            ProtocolEvent::SilentWrite {
                socket: s,
                core,
                block,
            } => ProtocolEvent::silent_write(s, map(s, core), block),
            ProtocolEvent::Evict {
                socket: s,
                core,
                block,
                kind,
            } => ProtocolEvent::evict(s, map(s, core), block, kind),
        }
    }

    fn acc(s: u8, c: u16, b: u64, op: Op) -> ProtocolEvent {
        ProtocolEvent::access(SocketId(s), CoreId(c), BlockAddr(b), op)
    }

    /// Replays `trace` clean and returns the final harness.
    fn reach(mc: &ModelConfig, trace: &[ProtocolEvent]) -> ProtocolHarness {
        let (h, failure) = replay(mc, trace);
        assert_eq!(failure, None, "{}: replay failed", mc.name);
        h
    }

    /// The state's encoding under its own core labels.
    fn raw(h: &ProtocolHarness) -> Vec<u8> {
        let identity = reference::all_perms(h.sockets(), h.cores()).swap_remove(0);
        reference::encode(h, &identity)
    }

    #[test]
    fn relabelled_traces_reach_one_key() {
        let cases = [
            // Three cores on one socket: rotate c0 -> c1 -> c2 -> c0.
            (
                tiny(
                    SpillPolicy::FusePrivateSpillShared,
                    LlcDesign::Inclusive,
                    3,
                    1,
                    1,
                    1,
                ),
                0,
                vec![1, 2, 0],
                vec![
                    acc(0, 0, 0, Op::Read),
                    ProtocolEvent::silent_write(SocketId(0), CoreId(0), BlockAddr(0)),
                    acc(0, 1, 0, Op::Read),
                ],
            ),
            // Two cores on each of two sockets: swap socket 1's cores only.
            (
                tiny(SpillPolicy::FuseAll, LlcDesign::Inclusive, 2, 2, 1, 1),
                1,
                vec![1, 0],
                vec![
                    acc(1, 0, 0, Op::ReadExclusive),
                    acc(0, 1, 64, Op::Read),
                    acc(1, 0, 64, Op::CodeRead),
                    acc(0, 0, 0, Op::Read),
                ],
            ),
        ];
        for (mc, socket, perm, trace) in cases {
            let mirror: Vec<ProtocolEvent> =
                trace.iter().map(|&ev| relabel(ev, socket, &perm)).collect();
            let (a, b) = (reach(&mc, &trace), reach(&mc, &mirror));
            assert_ne!(raw(&a), raw(&b), "{}: the mirror must differ", mc.name);
            assert_eq!(canonical_key(&a), canonical_key(&b), "{}", mc.name);
        }
    }

    #[test]
    fn one_protocol_visible_fact_splits_the_key() {
        // A lone reader is granted E by Read and S by CodeRead.
        let mc = tiny(
            SpillPolicy::FusePrivateSpillShared,
            LlcDesign::Inclusive,
            3,
            1,
            1,
            1,
        );
        let e = reach(&mc, &[acc(0, 1, 0, Op::Read)]);
        let s = reach(&mc, &[acc(0, 1, 0, Op::CodeRead)]);
        let b0 = BlockAddr(0);
        assert_eq!(
            e.shadow_state(SocketId(0), CoreId(1), b0),
            MesiState::Exclusive
        );
        assert_eq!(
            s.shadow_state(SocketId(0), CoreId(1), b0),
            MesiState::Shared
        );
        assert_ne!(canonical_key(&e), canonical_key(&s));

        // The same two blocks filled in the opposite order: only the LLC
        // set's MRU order differs.
        let mc = tiny(SpillPolicy::FuseAll, LlcDesign::Inclusive, 2, 1, 2, 2);
        let ab = reach(&mc, &[acc(0, 0, 0, Op::Read), acc(0, 0, 1, Op::Read)]);
        let ba = reach(&mc, &[acc(0, 0, 1, Op::Read), acc(0, 0, 0, Op::Read)]);
        let set = |h: &ProtocolHarness| h.system().llc_set_of(SocketId(0), b0).collect::<Vec<_>>();
        let mut sorted = set(&ab);
        sorted.reverse();
        assert_eq!(sorted, set(&ba), "same lines, opposite MRU order");
        assert_ne!(set(&ab), set(&ba));
        for &b in mc.blocks.iter() {
            for c in 0..2 {
                let st = |h: &ProtocolHarness| h.shadow_state(SocketId(0), CoreId(c), b);
                assert_eq!(st(&ab), st(&ba));
            }
            assert_eq!(ab.token(b), ba.token(b));
        }
        assert_ne!(canonical_key(&ab), canonical_key(&ba));
    }
}
