//! Walk the sphere-decoding search tree of a small system, step by step —
//! the worked example of the paper's Fig. 2/3 (three transmitters, BPSK,
//! fixed initial radius r = 10).
//!
//! ```text
//! cargo run --release --example tree_trace
//! ```

use mimo_sd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::pd::{eval_children, sorted_children, EvalStrategy, PdScratch};
use sd_core::preprocess::preprocess;

fn main() {
    let constellation = Constellation::new(Modulation::Bpsk);
    let mut rng = StdRng::seed_from_u64(20);
    let sigma2 = noise_variance(6.0, 3);
    let frame = FrameData::generate(3, 3, &constellation, sigma2, &mut rng);
    let prep = preprocess::<f64>(&frame, &constellation);

    println!("== Sphere decoder tree walk: 3 Tx, BPSK, r = 10 (Fig. 2/3) ==\n");
    println!(
        "transmitted symbols (antenna order): {:?}",
        frame.tx.indices
    );
    println!("initial squared radius r^2 = 100\n");

    let mut scratch = PdScratch::new(2);
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut radius_sqr = 100.0f64;
    let mut visited = 0usize;
    let mut pruned = 0usize;

    // Explicit sorted-DFS with narration.
    let mut stack: Vec<(f64, Vec<usize>)> = vec![(0.0, vec![])];
    while let Some((pd, path)) = stack.pop() {
        let indent = "  ".repeat(path.len());
        if pd >= radius_sqr {
            println!("{indent}prune  node s={path:?} (PD {pd:.2} >= r^2 {radius_sqr:.2})");
            pruned += 1;
            continue;
        }
        visited += 1;
        if path.len() == 3 {
            println!("{indent}LEAF   s={path:?}  PD {pd:.2}  -> radius update {radius_sqr:.2} -> {pd:.2}");
            radius_sqr = pd;
            best = Some((pd, path));
            continue;
        }
        eval_children(&prep, &path, EvalStrategy::Gemm, &mut scratch);
        let children = sorted_children(&scratch.increments);
        println!(
            "{indent}expand s={path:?}  PD {pd:.2}  children PDs: {:?}",
            children
                .iter()
                .map(|&(inc, c)| format!("s{}={}:{:.2}", 2 - path.len(), c, pd + inc))
                .collect::<Vec<_>>()
        );
        // Push worst-first so the best child pops first (LIFO, Fig. 3).
        for &(inc, c) in children.iter().rev() {
            let mut child = path.clone();
            child.push(c);
            stack.push((pd + inc, child));
        }
    }

    let (best_pd, best_path) = best.expect("radius 10 always captures a leaf here");
    let mut indices = vec![0usize; 3];
    for (d, &c) in best_path.iter().enumerate() {
        indices[2 - d] = c;
    }
    println!("\nvisited {visited} nodes, pruned {pruned} list entries");
    println!("decoded (antenna order): {indices:?}  metric {best_pd:.3}");
    println!("ground truth:            {:?}", frame.tx.indices);

    // Cross-check against the library decoder with the same fixed radius.
    let reference: SphereDecoder<f64> =
        SphereDecoder::new(constellation.clone()).with_initial_radius(InitialRadius::Fixed(100.0));
    let d = reference.detect(&frame);
    assert_eq!(d.indices, indices, "trace must match the library decoder");
    println!("\nlibrary decoder agrees ✓");
}
