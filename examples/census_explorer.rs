//! Explore the Figure 2 census interactively: which method covers which
//! meshes, at any domain size.
//!
//! ```text
//! cargo run --release --example census_explorer -- 5      # census for li <= 2^5
//! cargo run --release --example census_explorer -- 21 9 5 # classify one mesh
//! ```

use cubemesh::census::census_3d;
use cubemesh::core::{classify3, plan_shape, Planner};
use cubemesh::topology::Shape;

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("integer arguments"))
        .collect();
    match args.len() {
        0 | 1 => {
            let n = args.first().copied().unwrap_or(5) as u32;
            let c = census_3d(n);
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
        3 => {
            let (a, b, c) = (args[0], args[1], args[2]);
            println!("mesh {}x{}x{}:", a, b, c);
            match classify3(a, b, c) {
                Some(m) => println!("  paper classification: covered by method {:?}", m),
                None => println!("  paper classification: OPEN (fails methods 1-4)"),
            }
            let shape = Shape::new(&[a as usize, b as usize, c as usize]);
            match plan_shape(&mut Planner::new(), &shape) {
                Some(hit) => println!("  constructive plan:    {} ({})", hit.plan, hit.strategy),
                None => println!("  constructive plan:    none"),
            }
        }
        _ => eprintln!("usage: census_explorer [n | l1 l2 l3]"),
    }
}
