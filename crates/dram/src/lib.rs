//! DDR3-style main-memory timing model (the DRAMSim2 stand-in).
//!
//! Models what the evaluation actually depends on: row-buffer hits versus
//! misses versus conflicts, per-bank occupancy, and per-channel data-bus
//! bandwidth. The timings and geometry are the Table I constants of
//! [`zerodev_common::config::DramConfig`] (DDR3-2133, 14-14-14-35, 2 ranks ×
//! 8 banks, 1 KB rows, BL=8), converted to 4 GHz core cycles; only the
//! channel count is configured.
//!
//! # Example
//!
//! ```
//! use zerodev_dram::DramModel;
//! use zerodev_common::{BlockAddr, Cycle, config::DramConfig};
//!
//! let mut dram = DramModel::new(DramConfig::default());
//! let first = dram.read(Cycle(0), BlockAddr(0));
//! let second = dram.read(first, BlockAddr(2)); // same open row: faster
//! assert!(second.since(first) < first.since(Cycle(0)));
//! ```

use zerodev_common::config::DramConfig;
use zerodev_common::{BlockAddr, Cycle, Divisor};

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus_free: Cycle,
}

zerodev_common::fieldwise_clone!(Channel { banks, bus_free });

/// The memory system of one socket: independent single-channel controllers,
/// each with `RANKS × BANKS` banks and an open-page row-buffer policy.
#[derive(Debug)]
pub struct DramModel {
    /// The channel count, as the divisor of the block interleaving.
    interleave: Divisor,
    channels: Vec<Channel>,
    reads: u64,
    writes: u64,
}

zerodev_common::fieldwise_clone!(DramModel {
    interleave,
    channels,
    reads,
    writes,
});

/// Banks per channel.
const BANKS_PER_CHANNEL: u64 = (DramConfig::RANKS * DramConfig::BANKS) as u64;
/// Blocks per row buffer.
const BLOCKS_PER_ROW: u64 = (DramConfig::ROW_BYTES / 64) as u64;

/// Where a block lands in the DRAM system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DramCoords {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel (rank-major).
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

impl DramModel {
    /// Creates the memory system.
    ///
    /// # Panics
    /// Panics when the configuration has zero channels.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels > 0, "DRAM needs at least one channel");
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); BANKS_PER_CHANNEL as usize],
                bus_free: Cycle::ZERO,
            })
            .collect();
        DramModel {
            interleave: Divisor::new(cfg.channels as u64),
            channels,
            reads: 0,
            writes: 0,
        }
    }

    /// Address mapping: channel-interleaved at block granularity, then
    /// column, bank, row (open-page friendly).
    pub fn coords(&self, block: BlockAddr) -> DramCoords {
        let row_seq = self.interleave.quotient(block.0) / BLOCKS_PER_ROW;
        DramCoords {
            channel: self.interleave.remainder(block.0) as usize,
            bank: (row_seq % BANKS_PER_CHANNEL) as usize,
            row: row_seq / BANKS_PER_CHANNEL,
        }
    }

    fn access(&mut self, now: Cycle, block: BlockAddr) -> Cycle {
        let c = self.coords(block);
        let chan = &mut self.channels[c.channel];
        let cmd_dram_cycles = match chan.banks[c.bank].open_row {
            Some(r) if r == c.row => DramConfig::T_CAS,
            Some(_) => DramConfig::T_RP + DramConfig::T_RCD + DramConfig::T_CAS,
            None => DramConfig::T_RCD + DramConfig::T_CAS,
        };
        // BL=8 → 4 command-clock cycles of data bus.
        const BURST_CORE: u64 = DramConfig::to_core_cycles(DramConfig::BURST_LEN / 2);
        let cmd = DramConfig::to_core_cycles(cmd_dram_cycles);
        let bank = &mut chan.banks[c.bank];
        let t0 = now.max(bank.busy_until);
        let data_start = Cycle(t0.0 + cmd).max(chan.bus_free);
        let finish = data_start + BURST_CORE;
        chan.bus_free = finish;
        bank.busy_until = finish;
        bank.open_row = Some(c.row);
        finish
    }

    /// Performs a read; returns the completion time (data available at the
    /// memory controller).
    pub fn read(&mut self, now: Cycle, block: BlockAddr) -> Cycle {
        self.reads += 1;
        self.access(now, block)
    }

    /// Performs a write; returns the completion time. Callers normally do
    /// not wait on writes — the return value matters only for bus/bank
    /// occupancy, which this call has already charged.
    pub fn write(&mut self, now: Cycle, block: BlockAddr) -> Cycle {
        self.writes += 1;
        self.access(now, block)
    }

    /// (reads, writes) so far.
    pub fn rw_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Serializes the mutable memory-system state — open rows, bank/bus
    /// occupancy horizons, and the read/write counts — for checkpointing.
    /// The channel interleaving is rebuilt from configuration on restore.
    // lint:allow(snapshot_complete(interleave), the channel interleaving is derived from the configuration, not mutable state; restore targets a model built from the same config)
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        w.usize(self.channels.len());
        for ch in &self.channels {
            w.u64(ch.bus_free.0);
            w.usize(ch.banks.len());
            for b in &ch.banks {
                match b.open_row {
                    Some(row) => {
                        w.bool(true);
                        w.u64(row);
                    }
                    None => w.bool(false),
                }
                w.u64(b.busy_until.0);
            }
        }
        w.u64(self.reads);
        w.u64(self.writes);
    }

    /// Restores a [`DramModel::snap`] image into this model, which must have
    /// the same channel/bank geometry.
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] on
    /// geometry mismatch or decode error.
    // lint:allow(snapshot_complete(interleave), the channel interleaving is derived from the configuration, not mutable state; restore targets a model built from the same config)
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        if r.usize("dram channel count")? != self.channels.len() {
            return Err(SnapError::Corrupt {
                context: "dram channel count",
            });
        }
        for ch in self.channels.iter_mut() {
            ch.bus_free = Cycle(r.u64("dram bus_free")?);
            if r.usize("dram bank count")? != ch.banks.len() {
                return Err(SnapError::Corrupt {
                    context: "dram bank count",
                });
            }
            for b in ch.banks.iter_mut() {
                b.open_row = if r.bool("dram open_row flag")? {
                    Some(r.u64("dram open_row")?)
                } else {
                    None
                };
                b.busy_until = Cycle(r.u64("dram busy_until")?);
            }
        }
        self.reads = r.u64("dram reads")?;
        self.writes = r.u64("dram writes")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(DramConfig::default())
    }

    #[test]
    fn coords_cover_structures() {
        let m = model();
        let mut chans = [false; 2];
        let mut banks = [false; 16];
        for b in 0..1024u64 {
            let c = m.coords(BlockAddr(b));
            chans[c.channel] = true;
            banks[c.bank] = true;
        }
        assert!(chans.iter().all(|&x| x));
        assert!(banks.iter().all(|&x| x));
    }

    #[test]
    fn same_row_blocks_share_bank_and_row() {
        let m = model();
        // Blocks 0 and 2 are consecutive in channel 0 (block 1 goes to ch 1).
        let a = m.coords(BlockAddr(0));
        let b = m.coords(BlockAddr(2));
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let mut m = model();
        let t1 = m.read(Cycle(0), BlockAddr(0));
        let first = t1.since(Cycle(0));
        // Same row again, long after contention cleared.
        let t2 = m.read(Cycle(10_000), BlockAddr(2));
        let hit = t2.since(Cycle(10_000));
        assert!(hit < first, "row hit {hit} should beat empty-row {first}");
        // Now hit a different row in the same bank: conflict.
        let blocks_per_row = 16u64;
        let banks = 16u64;
        let same_bank_other_row = BlockAddr(blocks_per_row * banks * 2); // ch0, bank0, row 1
        let c = m.coords(same_bank_other_row);
        assert_eq!((c.channel, c.bank), (0, 0));
        assert_eq!(c.row, 1);
        let t3 = m.read(Cycle(20_000), same_bank_other_row);
        let conflict = t3.since(Cycle(20_000));
        assert!(conflict > hit);
    }

    #[test]
    fn bank_contention_queues() {
        let mut m = model();
        let t1 = m.read(Cycle(0), BlockAddr(0));
        // Immediately issue to the same bank: must wait for the first.
        let t2 = m.read(Cycle(0), BlockAddr(2));
        assert!(t2 > t1);
    }

    #[test]
    fn independent_channels_do_not_queue() {
        let mut m = model();
        let t1 = m.read(Cycle(0), BlockAddr(0)); // channel 0
        let t2 = m.read(Cycle(0), BlockAddr(1)); // channel 1
                                                 // Channel 1 unaffected by channel 0 (same latency from time 0).
        assert_eq!(t2.since(Cycle(0)), t1.since(Cycle(0)));
    }

    #[test]
    fn write_counts() {
        let mut m = model();
        m.write(Cycle(0), BlockAddr(5));
        m.read(Cycle(0), BlockAddr(6));
        assert_eq!(m.rw_counts(), (1, 1));
    }

    #[test]
    fn expected_latency_magnitudes() {
        let mut m = model();
        // Empty row: tRCD+tCAS+burst = (14+14+4)*15/4 = 120 core cycles.
        let lat = m.read(Cycle(0), BlockAddr(0)).since(Cycle(0));
        assert_eq!(lat, 120);
        // Row hit: tCAS+burst = (14+4)*15/4 = 67 core cycles (integer math).
        let lat2 = m.read(Cycle(1000), BlockAddr(2)).since(Cycle(1000));
        assert_eq!(lat2, (14 * 15 / 4) + (4 * 15 / 4));
    }

    #[test]
    fn coords_match_reference_division_on_odd_geometry() {
        // 3 channels take the general (non-power-of-two) divisor path; the
        // 16 banks per channel and 16 blocks per row are Table I's.
        let m = DramModel::new(DramConfig { channels: 3 });
        for b in (0..2000u64).chain([1 << 40, u64::MAX - 1, u64::MAX]) {
            let in_channel = b / 3;
            let want = DramCoords {
                channel: (b % 3) as usize,
                bank: ((in_channel / 16) % 16) as usize,
                row: in_channel / 16 / 16,
            };
            assert_eq!(m.coords(BlockAddr(b)), want, "block {b}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_channels_panic() {
        let _ = DramModel::new(DramConfig { channels: 0 });
    }
}
