//! The five benchmark workloads: which machines and reference streams each
//! runs, and how long.

use zerodev_bench::{baseline, zerodev_default_nodir, zerodev_sparse};
use zerodev_common::config::{DirectoryKind, LlcDesign, SpillPolicy, ZeroDevConfig};
use zerodev_common::SystemConfig;
use zerodev_model::config::{tiny, ModelConfig};
use zerodev_workloads::{multithreaded, server, Workload};

/// One simulated machine running one generated reference stream.
#[derive(Clone, Debug)]
pub struct Point {
    /// `config/app`, e.g. `ZD+NoDir/canneal`.
    pub label: String,
    pub cfg: SystemConfig,
    pub app: &'static str,
    /// Measured references per core.
    pub refs: u64,
    /// Warm-up references per core, not measured.
    pub warmup: u64,
}

impl Point {
    /// The point's workload, generated from `seed` alone.
    pub fn workload(&self, seed: u64) -> Workload {
        let threads = self.cfg.cores * self.cfg.sockets;
        if threads == 128 {
            server(self.app, threads, seed)
        } else {
            multithreaded(self.app, threads, seed)
        }
        .expect("suite apps are in the workload catalog")
    }

    /// ZeroDEV machines must never produce a directory eviction victim —
    /// the paper's guarantee, checked on every run at every seed.
    pub fn is_zerodev(&self) -> bool {
        self.cfg.zerodev.is_some()
    }
}

/// What a workload runs.
#[derive(Clone, Debug)]
pub enum Body {
    /// Simulator points, run one after another.
    Sim(Vec<Point>),
    /// Exhaustive model-checker explorations, run one after another.
    Mc(Vec<McMachine>),
}

#[derive(Clone, Debug)]
pub struct Suite {
    pub name: &'static str,
    pub body: Body,
}

pub const NAMES: [&str; 5] = ["mt8", "torture8", "socket4", "server128", "mc"];

fn grid(
    configs: &[(&str, SystemConfig)],
    apps: &[&'static str],
    refs: u64,
    warmup: u64,
) -> Vec<Point> {
    configs
        .iter()
        .flat_map(|(cname, cfg)| {
            apps.iter().map(move |&app| Point {
                label: format!("{cname}/{app}"),
                cfg: cfg.clone(),
                app,
                refs,
                warmup,
            })
        })
        .collect()
}

fn nodir(base: SystemConfig) -> SystemConfig {
    base.with_zerodev(ZeroDevConfig::default(), DirectoryKind::None)
}

/// One abstract machine for the model checker (the arguments of
/// `zerodev_model::config::tiny`).
#[derive(Clone, Copy, Debug)]
pub struct McMachine {
    pub policy: SpillPolicy,
    pub design: LlcDesign,
    pub cores: usize,
    pub sockets: usize,
    pub addrs: usize,
    pub llc_ways: usize,
}

impl McMachine {
    pub fn config(&self) -> ModelConfig {
        tiny(
            self.policy,
            self.design,
            self.cores,
            self.sockets,
            self.addrs,
            self.llc_ways,
        )
    }
}

/// The machines of `mc`: every spill policy with a non-inclusive and an EPD
/// LLC on three single-socket shapes with two addresses (entries displace
/// each other, spills are refused and go home via WB_DE, GET_DE recalls
/// them), plus one two-socket machine for the inter-socket flows. Each
/// explores in well under a second, so the calibration kernel timed between
/// them tracks the host's speed during each one.
fn mc_machines() -> Vec<McMachine> {
    let policies = [
        SpillPolicy::SpillAll,
        SpillPolicy::FusePrivateSpillShared,
        SpillPolicy::FuseAll,
    ];
    let mut machines = Vec::new();
    for (cores, llc_ways) in [(2, 3), (3, 2), (3, 1)] {
        for policy in policies {
            for design in [LlcDesign::NonInclusive, LlcDesign::Epd] {
                machines.push(McMachine {
                    policy,
                    design,
                    cores,
                    sockets: 1,
                    addrs: 2,
                    llc_ways,
                });
            }
        }
    }
    machines.push(McMachine {
        policy: SpillPolicy::FuseAll,
        design: LlcDesign::Inclusive,
        cores: 2,
        sockets: 2,
        addrs: 1,
        llc_ways: 1,
    });
    machines
}

/// The machine the model-checker probes run on: the largest `mc` machine
/// under the paper's FPSS policy.
pub fn probe_machine() -> ModelConfig {
    mc_machines()[2].config()
}

/// Looks a workload up by name.
pub fn suite(name: &str) -> Option<Suite> {
    // Run lengths keep one rep of every workload near 4 s on one core, so
    // a timed run holds several reps to take the median of.
    let body = match name {
        "mt8" => Body::Sim(grid(
            &[
                ("Base", baseline()),
                ("ZD+1/8x", zerodev_sparse(1, 8)),
                ("ZD+NoDir", zerodev_default_nodir()),
            ],
            &["canneal", "ferret", "ocean_cp", "streamcluster"],
            80_000,
            20_000,
        )),
        "torture8" => Body::Sim(grid(
            &[("Base", baseline()), ("ZD+NoDir", zerodev_default_nodir())],
            &[
                "torture.false_sharing",
                "torture.ping_pong",
                "torture.entry_thrash",
                "torture.phase_mix",
            ],
            80_000,
            20_000,
        )),
        "socket4" => Body::Sim(grid(
            &[
                ("Base", SystemConfig::four_socket()),
                ("ZD+NoDir", nodir(SystemConfig::four_socket())),
            ],
            &["ocean_cp", "canneal"],
            30_000,
            7_500,
        )),
        "server128" => Body::Sim(grid(
            &[
                ("Base", SystemConfig::server_128core()),
                ("ZD+NoDir", nodir(SystemConfig::server_128core())),
            ],
            &["SPECjbb", "TPC-C"],
            6_000,
            1_500,
        )),
        "mc" => Body::Mc(mc_machines()),
        _ => return None,
    };
    let name = NAMES.iter().find(|n| **n == name)?;
    Some(Suite { name, body })
}

/// Fixed simulator points (`mt8`'s Base row) for measuring the simulator's
/// layers in a workload that does not run them (`mc`), so every per-layer
/// metric is a real measurement in every traced run.
pub fn reference_points() -> Vec<Point> {
    match suite("mt8").map(|s| s.body) {
        Some(Body::Sim(points)) => points.into_iter().take(4).collect(),
        _ => unreachable!("mt8 is a simulator workload"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_machines_validate() {
        for name in NAMES {
            let s = suite(name).expect("listed");
            assert_eq!(s.name, name);
            if let Body::Mc(machines) = &s.body {
                assert_eq!(crate::goldens::MC.len(), machines.len());
            }
            if let Body::Sim(points) = &s.body {
                assert_eq!(crate::goldens::sim(name).len(), points.len());
                for p in points {
                    p.cfg.validate().expect("valid machine");
                    assert_eq!(p.workload(1).threads.len(), p.cfg.cores * p.cfg.sockets);
                }
            }
        }
        assert!(suite("nope").is_none());
    }
}
