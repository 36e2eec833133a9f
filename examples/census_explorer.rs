//! Explore the Figure 2 census interactively: which method covers which
//! meshes, at any domain size.
//!
//! ```text
//! cargo run --release --example census_explorer -- 5      # census for li <= 2^5
//! cargo run --release --example census_explorer -- 21 9 5 # classify one mesh
//! ```

use cubemesh::census::census_3d;
use cubemesh::core::{classify3, plan_shape, Planner};
use cubemesh::obs::cli::{self, Args, Cli, Report};
use cubemesh::topology::Shape;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli {
        bin: "census_explorer",
        usage: "usage: census_explorer [n | l1 l2 l3]",
        report: Report::Off,
    };
    cli.run(|words| {
        let args: Vec<usize> = Args::parse(words, &[], &[])?.numbers()?;
        match args[..] {
            [] => census(5),
            [n] => census(cli::within("n", n, 1..=9)?),
            [a, b, c] => {
                Shape::check(&args).map_err(|e| e.to_string())?;
                classify(a, b, c);
            }
            _ => return Err("give n or three extents".to_owned()),
        }
        Ok(ExitCode::SUCCESS)
    })
}

fn census(n: usize) {
    let c = census_3d(n as u32);
    let s = c.cumulative_percent();
    println!("census over all l1 x l2 x l3 with li <= {}:", 1 << n);
    println!("  S1 (Gray)              {:>6.2}%", s[0]);
    println!("  S2 (+pair via 2-D)     {:>6.2}%", s[1]);
    println!("  S3 (+3x3x3 / 3x3x7)    {:>6.2}%", s[2]);
    println!("  S4 (+axis splitting)   {:>6.2}%", s[3]);
    println!(
        "  constructive (planner) {:>6.2}%",
        c.constructive_percent()
    );
    println!(
        "  open meshes            {:>6.2}%",
        100.0 * c.uncovered as f64 / c.total as f64
    );
}

fn classify(a: usize, b: usize, c: usize) {
    println!("mesh {}x{}x{}:", a, b, c);
    match classify3(a as u64, b as u64, c as u64) {
        Some(m) => println!("  paper classification: covered by method {:?}", m),
        None => println!("  paper classification: OPEN (fails methods 1-4)"),
    }
    let shape = Shape::new(&[a, b, c]);
    match plan_shape(&mut Planner::new(), &shape) {
        Some(hit) => println!("  constructive plan:    {} ({})", hit.plan, hit.strategy),
        None => println!("  constructive plan:    none"),
    }
}
