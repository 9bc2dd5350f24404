//! 2D-mesh on-chip interconnect model.
//!
//! Table I of the paper specifies a 2D mesh with 1-cycle routing delay and
//! 1-cycle link latency per hop. The model computes message latency from the
//! XY-routed Manhattan hop count plus flit serialisation; it has no link
//! contention and keeps no state beyond its geometry, so every query is a
//! pure function of the endpoints and the message size. Traffic per message
//! class is counted by the protocol engine (`Stats::msg_counts`), not here.
//! Inter-socket links are modelled by the fixed 20 ns routing delay of
//! Table I, `SystemConfig::INTER_SOCKET_CYCLES`.
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
}

zerodev_common::fieldwise_clone!(Mesh {
    cols,
    rows,
    xy,
    cfg,
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
    fn topology_eight_core() {
        let t = SocketTopology::new(8, 8, 2, cfg());
        assert_eq!(t.mesh().nodes(), 8);
        // co-located core/bank pairs: zero-distance access still costs a hop.
        assert_eq!(t.core_bank_latency(0, 0, 8), 2);
        assert!(t.core_bank_latency(0, 7, 8) >= t.core_bank_latency(0, 0, 8));
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
