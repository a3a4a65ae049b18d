//! # allscale-bench — the experiment harness
//!
//! Regenerates the paper's evaluation artifacts on the simulated cluster:
//!
//! - `table1`: the application inventory (paper Table 1);
//! - `fig7`: throughput scaling of stencil / iPiC3D / TPC, AllScale vs.
//!   MPI vs. linear, over 1-64 nodes (paper Fig. 7), plus the A1-A3
//!   ablations from DESIGN.md.
//!
//! Criterion microbenches for the runtime's building blocks live under
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod calib;

use allscale_apps::{ipic3d, stencil, tpc};
use allscale_core::RtConfig;
use allscale_net::ClusterSpec;

/// Which application to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// 2D stencil (GFLOPS).
    Stencil,
    /// Particle-in-cell (particle updates/s).
    Ipic3d,
    /// Two-point correlation (queries/s).
    Tpc,
}

impl App {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<App> {
        match s {
            "stencil" => Some(App::Stencil),
            "ipic3d" => Some(App::Ipic3d),
            "tpc" => Some(App::Tpc),
            _ => None,
        }
    }

    /// The metric's unit label.
    pub fn unit(&self) -> &'static str {
        match self {
            App::Stencil => "GFLOPS",
            App::Ipic3d => "particles/s",
            App::Tpc => "queries/s",
        }
    }
}

/// Which system runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The AllScale runtime (this repository's core contribution).
    AllScale,
    /// The MPI reference port.
    Mpi,
    /// AllScale with batched TPC queries (ablation A3).
    AllScaleBatched,
    /// AllScale with the central-directory index (ablation A1).
    AllScaleCentralIndex,
    /// AllScale with round-robin placement (ablation A2).
    AllScaleRoundRobin,
}

impl System {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            System::AllScale => "AllScale",
            System::Mpi => "MPI",
            System::AllScaleBatched => "AllScale(batched)",
            System::AllScaleCentralIndex => "AllScale(central-idx)",
            System::AllScaleRoundRobin => "AllScale(round-robin)",
        }
    }
}

/// One measurement: throughput in the app's metric at a node count.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Node count.
    pub nodes: usize,
    /// Throughput in the app's unit.
    pub throughput: f64,
    /// Remote messages during the run.
    pub remote_msgs: u64,
    /// Remote bytes during the run.
    pub remote_bytes: u64,
}

fn rt_config(system: System, nodes: usize) -> RtConfig {
    let mut cfg = RtConfig::meggie(nodes);
    match system {
        System::AllScaleCentralIndex => cfg.central_index = true,
        System::AllScaleRoundRobin => {
            cfg.policy = Box::new(allscale_core::RoundRobinPolicy::default())
        }
        _ => {}
    }
    cfg
}

/// Run one (app, system, nodes) cell of the sweep at paper-scaled size.
fn measure(app: App, system: System, nodes: usize) -> Sample {
    match app {
        App::Stencil => {
            let cfg = stencil::StencilConfig::paper_scaled(nodes);
            let r = match system {
                System::Mpi => stencil::mpi_version::run_with(&cfg, &ClusterSpec::meggie(nodes)),
                s => stencil::allscale_version::run_with(&cfg, rt_config(s, nodes)),
            };
            Sample {
                nodes,
                throughput: r.gflops * 1e9, // report raw FLOPS; scaled later
                remote_msgs: r.remote_msgs,
                remote_bytes: r.remote_bytes,
            }
        }
        App::Ipic3d => {
            let cfg = ipic3d::PicConfig::paper_scaled(nodes);
            let r = match system {
                System::Mpi => ipic3d::mpi_version::run_with(&cfg, &ClusterSpec::meggie(nodes)),
                s => ipic3d::allscale_version::run_with(&cfg, rt_config(s, nodes)),
            };
            Sample {
                nodes,
                throughput: r.updates_per_sec,
                remote_msgs: r.remote_msgs,
                remote_bytes: r.remote_bytes,
            }
        }
        App::Tpc => {
            let mut cfg = tpc::TpcConfig::paper_scaled(nodes);
            if system == System::AllScaleBatched {
                cfg.batch = 32;
            }
            let r = match system {
                System::Mpi => tpc::mpi_version::run_with(&cfg, &ClusterSpec::meggie(nodes)),
                s => tpc::allscale_version::run_with(&cfg, rt_config(s, nodes)),
            };
            Sample {
                nodes,
                throughput: r.queries_per_sec,
                remote_msgs: r.remote_msgs,
                remote_bytes: r.remote_bytes,
            }
        }
    }
}

/// The node counts of the paper's Fig. 7.
pub const NODE_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Run a full scaling sweep.
pub fn sweep(app: App, system: System, nodes: &[usize]) -> Vec<Sample> {
    nodes.iter().map(|&n| measure(app, system, n)).collect()
}

/// Format a throughput with engineering suffixes.
pub fn fmt_throughput(v: f64) -> String {
    if v >= 1e9 {
        format!("{:8.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:8.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:8.2}k", v / 1e3)
    } else {
        format!("{v:8.2} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_parsing() {
        assert_eq!(App::parse("stencil"), Some(App::Stencil));
        assert_eq!(App::parse("tpc"), Some(App::Tpc));
        assert_eq!(App::parse("nope"), None);
    }

    #[test]
    fn throughput_formatting() {
        assert!(fmt_throughput(2.5e9).contains('G'));
        assert!(fmt_throughput(2.5e6).contains('M'));
        assert!(fmt_throughput(999.0).trim().starts_with("999"));
    }
}
