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
//! indices). The canonical key is therefore the minimum encoding over the
//! product of per-socket core permutations, which shrinks the explored
//! graph by up to `cores!^sockets` (24 relabellings at 4 cores on one
//! socket, 576 at 4 cores on each of 2 sockets).
//!
//! Computing the key reads the machine once: `gather` copies every
//! protocol-visible fact into a relabelling-independent `View`, and each
//! relabelling is encoded from that view into a reused buffer. Every
//! encoding opens with the first block's shadow bytes, so only relabellings
//! that sort each socket's row there can be the minimum and only those are
//! encoded; an encoding is abandoned as soon as a section (a block's shadow
//! bytes, the rest of the block, an LLC set) leaves its prefix above the
//! smallest encoding so far. The result is byte for byte the minimum over
//! every relabelling.

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

/// Every permutation of one socket's `cores` core indices, each with its
/// inverse, stored flat (`cores` entries apiece), the identity first.
struct Perms {
    cores: usize,
    /// Core → new slot.
    fwd: Vec<u16>,
    /// Slot → original core.
    inv: Vec<u16>,
}

impl Perms {
    fn new(cores: usize) -> Self {
        let mut fwd = Vec::new();
        let mut items: Vec<u16> = (0..cores as u16).collect();
        heap_permute(&mut items, cores, &mut fwd);
        let mut inv = vec![0; fwd.len()];
        for (p, q) in fwd.chunks_exact(cores).zip(inv.chunks_exact_mut(cores)) {
            for (orig, &new) in p.iter().enumerate() {
                q[new as usize] = orig as u16;
            }
        }
        Perms { cores, fwd, inv }
    }

    fn len(&self) -> usize {
        self.fwd.len() / self.cores
    }

    fn fwd(&self, i: usize) -> &[u16] {
        &self.fwd[i * self.cores..(i + 1) * self.cores]
    }

    fn inv(&self, i: usize) -> &[u16] {
        &self.inv[i * self.cores..(i + 1) * self.cores]
    }
}

/// Heap's algorithm: appends every arrangement of `items[..k]` to `out`,
/// the initial arrangement first.
fn heap_permute(items: &mut [u16], k: usize, out: &mut Vec<u16>) {
    if k <= 1 {
        out.extend_from_slice(items);
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

/// True when relabelling by `inv` (slot → core) puts `row` (one socket's
/// shadow bytes for one block, by core) in ascending order.
fn sorts(inv: &[u16], row: &[u8]) -> bool {
    inv.windows(2)
        .all(|w| row[w[0] as usize] <= row[w[1] as usize])
}

/// Steps `sel` (one permutation index per socket) to the next relabelling
/// whose permutations are all allowed (`allowed[s * radix + p]`): an
/// odometer, socket 0 the fastest digit. False once every one has been
/// seen.
fn next_relabelling(sel: &mut [usize], allowed: &[bool]) -> bool {
    let radix = allowed.len() / sel.len();
    for (d, ok) in sel.iter_mut().zip(allowed.chunks_exact(radix)) {
        if let Some(p) = (*d + 1..radix).find(|&p| ok[p]) {
            *d = p;
            return true;
        }
        *d = first_allowed(ok);
    }
    false
}

fn first_allowed(ok: &[bool]) -> usize {
    ok.iter()
        .position(|&a| a)
        .expect("some permutation sorts every row")
}

/// Moves each set bit `c` of a socket-local core mask to bit `perm_s[c]`.
fn remap_bits(mut bits: u128, perm_s: &[u16]) -> u128 {
    let mut out = 0u128;
    while bits != 0 {
        let c = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        out |= 1 << perm_s[c];
    }
    out
}

/// Relabels a mask of global core indices (`socket * cores + core`),
/// applying permutation `sel[s]` to socket `s`'s cores.
fn remap_global_cores(mut bits: u128, perms: &Perms, sel: &[usize]) -> u128 {
    let cores = perms.cores;
    let mut out = 0u128;
    while bits != 0 {
        let g = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let s = g / cores;
        out |= 1 << (s * cores + perms.fwd(sel[s])[g % cores] as usize);
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
            push_u128(out, remap_bits(e.sharers.0, perm_s));
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

/// One state's protocol-visible facts under its own core labels. Per-block
/// vectors follow the harness's block order; `[block * sockets + socket]`
/// indexes the per-socket ones.
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
    /// `(socket, contents MRU→LRU)`.
    llc: Vec<(usize, Vec<(BlockAddr, LlcLine)>)>,
}

/// Reads everything the encoding covers from the harness and its machine,
/// once.
fn gather(h: &ProtocolHarness) -> View {
    let (sockets, cores) = (h.sockets(), h.cores());
    let sys = h.system();
    let cfg = sys.config();
    let n = h.blocks().len();
    let mut v = View {
        sockets,
        cores,
        shadow: Vec::with_capacity(n * sockets * cores),
        tokens: Vec::with_capacity(n),
        dedicated: Vec::with_capacity(n * sockets),
        corrupted: Vec::with_capacity(n),
        housed: Vec::with_capacity(n * sockets),
        socket_dir: Vec::with_capacity(n),
        llc: Vec::new(),
    };
    for &block in h.blocks() {
        for s in 0..sockets {
            let socket = SocketId(s as u8);
            for c in 0..cores {
                v.shadow
                    .push(mesi_byte(h.shadow_state(socket, CoreId(c as u16), block)));
            }
            v.dedicated.push(sys.dedicated_entry_of(socket, block));
            v.housed.push(sys.memory().peek_entry(block, socket));
        }
        v.tokens.push(h.token(block));
        v.corrupted.push(sys.memory_corrupted(block));
        v.socket_dir
            .push(sys.memory().socket_dir_peek(cfg.home_socket(block), block));
    }
    // LLC set contents, once per distinct (bank, set), in the order the
    // blocks first map to them.
    let banks = cfg.llc_banks as u64;
    let sets = cfg.llc_sets_per_bank() as u64;
    let set_of = |b: &BlockAddr| (b.0 % banks, (b.0 / banks) % sets);
    let mut firsts: Vec<BlockAddr> = Vec::new();
    for b in h.blocks() {
        if !firsts.iter().any(|f| set_of(f) == set_of(b)) {
            firsts.push(*b);
        }
    }
    for s in 0..sockets {
        for &b in &firsts {
            v.llc.push((s, sys.llc_set_of(SocketId(s as u8), b)));
        }
    }
    v
}

/// Encodes `v` with permutation `sel[s]` of `perms` applied to socket `s`'s
/// cores, into `out` (cleared first). Returns true when the encoding is
/// complete and below `best`, or when there is no `best`. Gives up and
/// returns false as soon as a section (a block's shadow bytes, the rest of
/// the block, an LLC set) leaves the prefix above `best`'s, or when it ends
/// equal to `best`.
fn encode(v: &View, perms: &Perms, sel: &[usize], out: &mut Vec<u8>, best: Option<&[u8]>) -> bool {
    out.clear();
    // `best` while the prefix so far equals its own; `None` once below it
    // (every longer prefix is below too) or when there is no bound.
    let mut tied = best;
    let mut still_min = |out: &[u8]| {
        if let Some(b) = tied {
            match out.cmp(&b[..out.len()]) {
                Ordering::Greater => return false,
                Ordering::Less => tied = None,
                Ordering::Equal => {}
            }
        }
        true
    };
    let (sockets, cores) = (v.sockets, v.cores);
    for (bi, tok) in v.tokens.iter().enumerate() {
        // Shadow states, emitted in relabelled core order.
        let shadow = &v.shadow[bi * sockets * cores..(bi + 1) * sockets * cores];
        for (s, &p) in sel.iter().enumerate() {
            let row = &shadow[s * cores..(s + 1) * cores];
            out.extend(perms.inv(p).iter().map(|&orig| row[orig as usize]));
        }
        if !still_min(out) {
            return false;
        }
        // Symbolic write token.
        push_u128(out, remap_global_cores(tok.cores, perms, sel));
        out.extend_from_slice(&tok.llc.to_le_bytes());
        out.push(u8::from(tok.mem));
        // Directory entries in the dedicated structure.
        let per_socket = bi * sockets..(bi + 1) * sockets;
        for (&e, &p) in v.dedicated[per_socket.clone()].iter().zip(sel) {
            push_entry(out, e, perms.fwd(p));
        }
        // Home-memory corruption + housed segments.
        out.push(u8::from(v.corrupted[bi]));
        for (&e, &p) in v.housed[per_socket].iter().zip(sel) {
            push_entry(out, e, perms.fwd(p));
        }
        // Socket-level directory (socket IDs are not permuted: homes are
        // address-determined).
        match v.socket_dir[bi] {
            None => out.push(0),
            Some(e) => {
                out.push(1);
                out.push(u8::from(e.owned));
                out.extend_from_slice(&e.sharers.0.to_le_bytes());
            }
        }
        if !still_min(out) {
            return false;
        }
    }
    // LLC set contents, MRU→LRU.
    for (s, lines) in &v.llc {
        let perm_s = perms.fwd(sel[*s]);
        out.push(lines.len() as u8);
        for (b, line) in lines {
            push_line(out, *b, line, perm_s);
        }
        if !still_min(out) {
            return false;
        }
    }
    tied.is_none()
}

/// The canonical (symmetry-reduced) encoding of a harness state: the
/// minimum byte encoding over every per-socket core relabelling.
pub fn canonical_key(h: &ProtocolHarness) -> Vec<u8> {
    let view = gather(h);
    let (sockets, cores) = (view.sockets, view.cores);
    let perms = Perms::new(cores);
    // Every encoding opens with the first block's shadow bytes, socket by
    // socket, so only relabellings that sort each socket's row there can be
    // the minimum. Without blocks, every relabelling encodes alike.
    let mut allowed = Vec::with_capacity(sockets * perms.len());
    for s in 0..sockets {
        let row = view.shadow.get(s * cores..(s + 1) * cores);
        allowed.extend((0..perms.len()).map(|p| row.is_none_or(|row| sorts(perms.inv(p), row))));
    }
    let mut sel: Vec<usize> = allowed
        .chunks_exact(perms.len())
        .map(first_allowed)
        .collect();
    let mut best = Vec::with_capacity(256);
    encode(&view, &perms, &sel, &mut best, None);
    let mut cand = Vec::with_capacity(best.len());
    while next_relabelling(&mut sel, &allowed) {
        if encode(&view, &perms, &sel, &mut cand, Some(&best)) {
            std::mem::swap(&mut best, &mut cand);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{tiny, ModelConfig};
    use crate::trace::replay;
    use std::collections::{HashSet, VecDeque};
    use zerodev_common::config::{LlcDesign, SpillPolicy};
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
                    let lines = sys.llc_set_of(SocketId(s as u8), block);
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

    #[test]
    fn permutation_tables() {
        for (cores, count) in [(1, 1), (2, 2), (3, 6), (4, 24)] {
            let perms = Perms::new(cores);
            assert_eq!(perms.len(), count);
            let identity: Vec<u16> = (0..cores as u16).collect();
            assert_eq!(perms.fwd(0), identity.as_slice());
            let distinct: HashSet<&[u16]> = (0..count).map(|i| perms.fwd(i)).collect();
            assert_eq!(distinct.len(), count);
            for i in 0..count {
                for (c, &slot) in perms.fwd(i).iter().enumerate() {
                    assert_eq!(perms.inv(i)[slot as usize] as usize, c);
                }
            }
        }
    }

    #[test]
    fn odometer_visits_every_allowed_relabelling_once() {
        // Two sockets of 3 cores: socket 0 allows permutations 0, 2 and 5,
        // socket 1 allows 1 and 4.
        let allowed: Vec<bool> = [&[0, 2, 5][..], &[1, 4]]
            .iter()
            .flat_map(|ps| (0..6).map(|p| ps.contains(&p)))
            .collect();
        let mut sel = vec![0, 1];
        let mut seen = vec![sel.clone()];
        while next_relabelling(&mut sel, &allowed) {
            seen.push(sel.clone());
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen.iter().collect::<HashSet<_>>().len(), 6);
        assert!(seen
            .iter()
            .all(|s| [0, 2, 5].contains(&s[0]) && [1, 4].contains(&s[1])));
        assert_eq!(sel, [0, 1]);
    }

    #[test]
    fn only_ascending_relabelled_rows_are_sorted() {
        let perms = Perms::new(3);
        for row in [[0u8, 0, 0], [2, 0, 1], [1, 0, 1], [3, 3, 0]] {
            let mut ascending = row;
            ascending.sort_unstable();
            for p in 0..perms.len() {
                let relabelled: Vec<u8> = perms.inv(p).iter().map(|&c| row[c as usize]).collect();
                assert_eq!(sorts(perms.inv(p), &row), relabelled == ascending);
            }
        }
        let count = |row: &[u8]| (0..6).filter(|&p| sorts(perms.inv(p), row)).count();
        assert_eq!(count(&[0, 0, 0]), 6);
        assert_eq!(count(&[1, 0, 1]), 2);
        assert_eq!(count(&[2, 0, 1]), 1);
    }

    #[test]
    fn sharer_remap_moves_bits() {
        // Swap cores 0 and 1.
        assert_eq!(remap_bits(0b01, &[1, 0]), 0b10);
        assert_eq!(remap_bits(0b11, &[1, 0]), 0b11);
        assert_eq!(remap_bits(0b001, &[2, 0, 1]), 0b100);
    }

    #[test]
    fn global_remap_respects_socket_blocks() {
        // 2 sockets x 2 cores; swap only socket 1's cores.
        let perms = Perms::new(2);
        assert_eq!(perms.fwd(1), &[1, 0]);
        let sel = [0, 1];
        // Core g=2 (socket 1, core 0) -> g=3.
        assert_eq!(remap_global_cores(0b0100, &perms, &sel), 0b1000);
        // Socket 0 untouched.
        assert_eq!(remap_global_cores(0b0001, &perms, &sel), 0b0001);
        assert_eq!(remap_global_cores(0b0111, &perms, &sel), 0b1011);
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
        let set = |h: &ProtocolHarness| h.system().llc_set_of(SocketId(0), b0);
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
