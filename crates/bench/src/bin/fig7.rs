//! Regenerates the paper's Figure 7: throughput scaling of the three
//! evaluation applications, AllScale vs. MPI vs. linear.
//!
//! ```text
//! cargo run --release -p allscale-bench --bin fig7            # all apps
//! cargo run --release -p allscale-bench --bin fig7 -- --app tpc
//! cargo run --release -p allscale-bench --bin fig7 -- --ablations
//! cargo run --release -p allscale-bench --bin fig7 -- --max-nodes 16
//! ```

use allscale_bench::{fmt_throughput, sweep, App, Sample, System, NODE_COUNTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut apps = vec![App::Stencil, App::Ipic3d, App::Tpc];
    let mut extra_systems: Vec<System> = Vec::new();
    let mut max_nodes = 64usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--app" => {
                i += 1;
                let app = App::parse(&args[i]).unwrap_or_else(|| {
                    eprintln!("unknown app {:?} (stencil|ipic3d|tpc)", args[i]);
                    std::process::exit(2);
                });
                apps = vec![app];
            }
            "--ablations" => {
                extra_systems.push(System::AllScaleCentralIndex);
                extra_systems.push(System::AllScaleRoundRobin);
                extra_systems.push(System::AllScaleBatched);
            }
            "--max-nodes" => {
                i += 1;
                max_nodes = args[i].parse().expect("numeric --max-nodes");
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let nodes: Vec<usize> = NODE_COUNTS
        .iter()
        .copied()
        .filter(|&n| n <= max_nodes)
        .collect();

    println!("# Figure 7 reproduction — throughput scaling (simulated Meggie cluster)");
    println!("# shapes to compare with the paper: stencil & iPiC3D: AllScale ≈ MPI,");
    println!("# near-linear; TPC: MPI scales, AllScale saturates beyond ~8 nodes.");
    for app in apps {
        println!();
        println!("## {:?} [{}]", app, app.unit());
        let mut systems = vec![System::AllScale, System::Mpi];
        for &s in &extra_systems {
            // The batched variant only differs for TPC.
            if s == System::AllScaleBatched && app != App::Tpc {
                continue;
            }
            systems.push(s);
        }
        let sweeps: Vec<(System, Vec<Sample>)> = systems
            .iter()
            .map(|&s| (s, sweep(app, s, &nodes)))
            .collect();
        // Linear reference anchored at the 1-node AllScale throughput.
        let base = sweeps[0].1[0].throughput;

        print!("{:>8}", "nodes");
        for (s, _) in &sweeps {
            print!(" {:>21}", s.label());
        }
        println!(" {:>12}", "linear");
        for (row, &n) in nodes.iter().enumerate() {
            print!("{n:>8}");
            for (_, samples) in &sweeps {
                print!(" {:>21}", fmt_throughput(samples[row].throughput));
            }
            println!(" {:>12}", fmt_throughput(base * n as f64));
        }
        // CSV block for plotting.
        println!("csv,app,nodes,{}", {
            let mut names: Vec<&str> = sweeps.iter().map(|(s, _)| s.label()).collect();
            names.push("linear");
            names.join(",")
        });
        for (row, &n) in nodes.iter().enumerate() {
            print!("csv,{app:?},{n}");
            for (_, samples) in &sweeps {
                print!(",{:.3e}", samples[row].throughput);
            }
            println!(",{:.3e}", base * n as f64);
        }
    }
}
