//! Explore the offline stage: characterize the full 65-combination suite,
//! print the kernel clusters (which benchmarks land where, and what
//! behavioral archetype each cluster's medoid represents), the cluster
//! regression quality, and the classification tree.
//!
//! Run with: `cargo run --release --example cluster_explorer`

use acs::prelude::*;

fn main() {
    let machine = Machine::new(42);
    let kernels = acs::kernels::all_kernel_instances();

    println!("characterizing {} kernel/input combinations ...", kernels.len());
    let profiles = acs::core::collect_suite(&machine, &kernels);

    let model = train(&profiles, TrainingParams::default()).expect("training");

    println!(
        "\nPAM clustering with k = {} (silhouette {:.3}):\n",
        model.clusters.len(),
        model.silhouette
    );

    for c in 0..model.clustering.k() {
        let members = model.clustering.members(c);
        let medoid = model.clustering.medoids[c];
        println!("cluster {c} — {} kernels, medoid: {}", members.len(), model.kernel_ids[medoid]);

        // Describe the archetype by the medoid's best device and
        // memory-boundedness (reading the simulator's ground truth, which
        // the *model* never sees — this is for human interpretation only).
        let medoid_kernel = &profiles[medoid].kernel;
        let best = profiles[medoid].best_run();
        println!(
            "    archetype: best device {}, memory-boundedness {:.2}, GPU speedup {:.1}x",
            best.config.device,
            medoid_kernel.memory_boundedness(),
            medoid_kernel.gpu_speedup
        );

        // Which benchmark/input combinations contribute?
        let mut combos: Vec<String> = members
            .iter()
            .map(|&i| {
                let parts: Vec<&str> = model.kernel_ids[i].split('/').collect();
                format!("{} {}", parts[0], parts[1])
            })
            .collect();
        combos.sort();
        combos.dedup();
        println!("    drawn from: {}", combos.join(", "));

        let r2 = &model.clusters[c];
        println!(
            "    regression r²: perf cpu {:.2} / gpu {:.2}, power cpu {:.2} / gpu {:.2}",
            r2.perf_cpu.r_squared,
            r2.perf_gpu.r_squared,
            r2.power_cpu.r_squared,
            r2.power_gpu.r_squared
        );
    }

    println!("\nclassification tree (Figure 3 analogue):\n");
    print!("{}", model.render_tree());
    println!(
        "\ntree training accuracy: {:.0}%  |  depth {}  |  {} nodes",
        model.tree_training_accuracy(&profiles) * 100.0,
        model.tree.depth(),
        model.tree.node_count()
    );
}
