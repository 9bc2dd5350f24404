//! 2D-mesh on-chip interconnect model.
//!
//! Table I of the paper specifies a 2D mesh with 1-cycle routing delay and
//! 1-cycle link latency per hop. The model computes message latency from the
//! XY-routed Manhattan hop count plus flit serialisation, and tracks
//! byte-hop load for diagnostics. Inter-socket links are modelled by the
//! fixed 20 ns routing delay in `SystemConfig::inter_socket_cycles`.
//!
//! # Example
//!
//! ```
//! use zerodev_noc::{Mesh, SocketTopology};
//! use zerodev_common::config::NocConfig;
//!
//! let topo = SocketTopology::new(8, 8, 2, NocConfig::default());
//! let lat = topo.core_bank_latency(0, 7, 72);
//! assert!(lat > 0);
//! ```

use zerodev_common::config::NocConfig;

/// A node position in the mesh.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeId(pub usize);

/// The mesh fabric of one socket.
#[derive(Debug)]
pub struct Mesh {
    cols: usize,
    rows: usize,
    /// Each node's `(x, y)` position, so hop counts need no division.
    xy: Vec<(u32, u32)>,
    cfg: NocConfig,
    /// Total byte-hops injected (load diagnostic).
    byte_hops: u64,
    /// Total messages routed.
    messages: u64,
}

zerodev_common::fieldwise_clone!(Mesh {
    cols,
    rows,
    xy,
    cfg,
    byte_hops,
    messages,
});

impl Mesh {
    /// Creates a mesh with the given dimensions.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(cols: usize, rows: usize, cfg: NocConfig) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        Mesh {
            cols,
            rows,
            xy: (0..rows)
                .flat_map(|y| (0..cols).map(move |x| (x as u32, y as u32)))
                .collect(),
            cfg,
            byte_hops: 0,
            messages: 0,
        }
    }

    /// Picks near-square dimensions for `n` tiles (columns ≥ rows).
    pub fn square_for(n: usize) -> (usize, usize) {
        assert!(n > 0, "need at least one tile");
        let mut rows = (n as f64).sqrt() as usize;
        while rows > 1 && !n.is_multiple_of(rows) {
            rows -= 1;
        }
        (n / rows.max(1), rows.max(1))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// XY-routing hop count between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = self.xy[a.0];
        let (bx, by) = self.xy[b.0];
        u64::from(ax.abs_diff(bx) + ay.abs_diff(by))
    }

    /// One-way latency for a message of `bytes` from `a` to `b`, in core
    /// cycles: per-hop router+link delay plus flit serialisation. A
    /// same-node message still pays one router traversal.
    pub fn latency(&self, a: NodeId, b: NodeId, bytes: u64) -> u64 {
        let hops = self.hops(a, b).max(1);
        let flits = bytes.div_ceil(self.cfg.flit_bytes).max(1);
        hops * self.cfg.hop_cycles + (flits - 1)
    }

    /// Records a routed message for load accounting and returns its latency.
    /// The load counters saturate instead of wrapping: they are diagnostics,
    /// and long fault campaigns routing phantom traffic must never corrupt
    /// them into small-looking values.
    pub fn route(&mut self, a: NodeId, b: NodeId, bytes: u64) -> u64 {
        self.byte_hops = self
            .byte_hops
            .saturating_add(bytes.saturating_mul(self.hops(a, b).max(1)));
        self.messages = self.messages.saturating_add(1);
        self.latency(a, b, bytes)
    }

    /// Total byte-hops injected so far.
    pub fn byte_hops(&self) -> u64 {
        self.byte_hops
    }

    /// Total messages routed so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Serializes the mutable mesh state (the load counters — geometry and
    /// timing are rebuilt from configuration) for checkpointing.
    // lint:allow(snapshot_complete(cols, rows, xy, cfg), mesh geometry, its node-position table, and link timing are configuration; only the load counters are mutable)
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        w.u64(self.byte_hops);
        w.u64(self.messages);
    }

    /// Restores a [`Mesh::snap`] image into this mesh.
    ///
    /// # Errors
    /// Propagates decode errors from the snapshot reader.
    // lint:allow(snapshot_complete(cols, rows, xy, cfg), mesh geometry, its node-position table, and link timing are configuration; only the load counters are mutable)
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        self.byte_hops = r.u64("mesh byte_hops")?;
        self.messages = r.u64("mesh messages")?;
        Ok(())
    }
}

/// Placement of cores, LLC banks, and memory controllers on one socket's
/// mesh, with convenience latency queries.
///
/// Cores occupy tiles round-robin; bank *i* sits with core *i·cores/banks*
/// (co-located tiles, the common tiled-CMP arrangement); memory controllers
/// sit at mesh corners.
#[derive(Debug)]
pub struct SocketTopology {
    mesh: Mesh,
    cores: Vec<NodeId>,
    banks: Vec<NodeId>,
    mcs: Vec<NodeId>,
}

zerodev_common::fieldwise_clone!(SocketTopology {
    mesh,
    cores,
    banks,
    mcs,
});

impl SocketTopology {
    /// Builds the topology for `cores` cores, `banks` LLC banks and
    /// `channels` memory controllers.
    ///
    /// # Panics
    /// Panics if any count is zero.
    pub fn new(cores: usize, banks: usize, channels: usize, cfg: NocConfig) -> Self {
        assert!(
            cores > 0 && banks > 0 && channels > 0,
            "counts must be positive"
        );
        let (cols, rows) = Mesh::square_for(cores.max(banks));
        let mesh = Mesh::new(cols, rows, cfg);
        let n = mesh.nodes();
        let core_nodes: Vec<NodeId> = (0..cores).map(|i| NodeId(i % n)).collect();
        let bank_nodes: Vec<NodeId> = (0..banks).map(|i| NodeId(i * n / banks)).collect();
        let corner_like: Vec<usize> = vec![
            0,
            cols - 1,
            n - cols,
            n - 1,
            cols / 2,
            n - cols + cols / 2,
            (rows / 2) * cols,
            (rows / 2) * cols + cols - 1,
        ];
        let mc_nodes: Vec<NodeId> = (0..channels)
            .map(|i| NodeId(corner_like[i % corner_like.len()] % n))
            .collect();
        SocketTopology {
            mesh,
            cores: core_nodes,
            banks: bank_nodes,
            mcs: mc_nodes,
        }
    }

    /// The underlying mesh (mutable, for load accounting).
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// One-way latency core → LLC bank.
    pub fn core_bank_latency(&self, core: usize, bank: usize, bytes: u64) -> u64 {
        self.mesh.latency(self.cores[core], self.banks[bank], bytes)
    }

    /// One-way latency core → core (three-hop forwarding).
    pub fn core_core_latency(&self, a: usize, b: usize, bytes: u64) -> u64 {
        self.mesh.latency(self.cores[a], self.cores[b], bytes)
    }

    /// One-way latency bank → core.
    pub fn bank_core_latency(&self, bank: usize, core: usize, bytes: u64) -> u64 {
        self.mesh.latency(self.banks[bank], self.cores[core], bytes)
    }

    /// One-way latency LLC bank → memory controller for `channel`.
    pub fn bank_mc_latency(&self, bank: usize, channel: usize, bytes: u64) -> u64 {
        self.mesh
            .latency(self.banks[bank], self.mcs[channel % self.mcs.len()], bytes)
    }

    /// Routes a phantom core→bank message through the mesh, accumulating
    /// load diagnostics, and returns its one-way latency. Fault-injection
    /// hook: NACK storms and duplicated completions re-traverse the fabric
    /// without touching protocol state or statistics.
    pub fn route_core_bank(&mut self, core: usize, bank: usize, bytes: u64) -> u64 {
        let (a, b) = (self.cores[core], self.banks[bank]);
        self.mesh.route(a, b, bytes)
    }

    /// Average core→bank hop distance (used by tests and for sanity checks).
    pub fn mean_core_bank_hops(&self) -> f64 {
        let mut total = 0u64;
        let mut n = 0u64;
        for &c in &self.cores {
            for &b in &self.banks {
                total += self.mesh.hops(c, b);
                n += 1;
            }
        }
        total as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::default()
    }

    #[test]
    fn square_dims() {
        assert_eq!(Mesh::square_for(8), (4, 2));
        assert_eq!(Mesh::square_for(16), (4, 4));
        assert_eq!(Mesh::square_for(128), (16, 8));
        assert_eq!(Mesh::square_for(1), (1, 1));
        assert_eq!(Mesh::square_for(7), (7, 1));
    }

    #[test]
    fn hops_are_manhattan() {
        let m = Mesh::new(4, 2, cfg());
        assert_eq!(m.hops(NodeId(0), NodeId(3)), 3);
        assert_eq!(m.hops(NodeId(0), NodeId(4)), 1);
        assert_eq!(m.hops(NodeId(0), NodeId(7)), 4);
        assert_eq!(m.hops(NodeId(5), NodeId(5)), 0);
    }

    #[test]
    fn hops_match_reference_division_on_odd_mesh() {
        let m = Mesh::new(3, 2, cfg());
        for a in 0..m.nodes() {
            for b in 0..m.nodes() {
                let want = (a % 3).abs_diff(b % 3) + (a / 3).abs_diff(b / 3);
                assert_eq!(m.hops(NodeId(a), NodeId(b)), want as u64, "{a}->{b}");
            }
        }
    }

    #[test]
    fn latency_includes_serialisation() {
        let m = Mesh::new(4, 2, cfg());
        // 1 hop, 8-byte msg: 2 cycles, single flit.
        assert_eq!(m.latency(NodeId(0), NodeId(1), 8), 2);
        // 72-byte msg = 5 flits of 16B: +4 serialisation cycles.
        assert_eq!(m.latency(NodeId(0), NodeId(1), 72), 6);
        // same node still pays one router traversal
        assert_eq!(m.latency(NodeId(2), NodeId(2), 8), 2);
    }

    #[test]
    fn route_accumulates_load() {
        let mut m = Mesh::new(4, 2, cfg());
        let l = m.route(NodeId(0), NodeId(3), 72);
        assert_eq!(l, m.latency(NodeId(0), NodeId(3), 72));
        assert_eq!(m.byte_hops(), 72 * 3);
        assert_eq!(m.messages(), 1);
    }

    #[test]
    fn route_counters_saturate_instead_of_wrapping() {
        let mut m = Mesh::new(4, 2, cfg());
        // Each injection would overflow `bytes * hops` and then the running
        // sum; the counters must pin at the ceiling, not wrap to garbage.
        for _ in 0..3 {
            let l = m.route(NodeId(0), NodeId(7), u64::MAX);
            assert_eq!(l, m.latency(NodeId(0), NodeId(7), u64::MAX));
        }
        assert_eq!(m.byte_hops(), u64::MAX);
        assert_eq!(m.messages(), 3);
    }

    #[test]
    fn phantom_core_bank_route_accumulates_load() {
        let mut t = SocketTopology::new(8, 8, 2, cfg());
        let lat = t.route_core_bank(0, 7, 16);
        assert_eq!(lat, t.core_bank_latency(0, 7, 16));
        assert_eq!(t.mesh().messages(), 1);
        assert!(t.mesh().byte_hops() >= 16);
    }

    #[test]
    fn topology_eight_core() {
        let t = SocketTopology::new(8, 8, 2, cfg());
        assert_eq!(t.mesh().nodes(), 8);
        // co-located core/bank pairs: zero-distance access still costs a hop.
        assert_eq!(t.core_bank_latency(0, 0, 8), 2);
        assert!(t.core_bank_latency(0, 7, 8) >= t.core_bank_latency(0, 0, 8));
        assert!(t.mean_core_bank_hops() > 0.0);
    }

    #[test]
    fn topology_server() {
        let t = SocketTopology::new(128, 32, 8, cfg());
        assert_eq!(t.mesh().nodes(), 128);
        // far corner is many hops away
        assert!(t.core_core_latency(0, 127, 8) > 10);
    }

    #[test]
    fn bank_mc_paths_exist() {
        let t = SocketTopology::new(8, 8, 2, cfg());
        assert!(t.bank_mc_latency(3, 0, 72) > 0);
        assert!(t.bank_mc_latency(3, 1, 72) > 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_panics() {
        let _ = Mesh::new(0, 1, NocConfig::default());
    }
}
