//! Property-based tests for the APU simulator: physical invariants that
//! must hold for *every* valid kernel, not just the shipped suite.

use acs_sim::{
    Configuration, CpuPState, Device, FamilyId, GpuPState, KernelCharacteristics, Machine,
    NoiseSource, PowerBreakdown, PowerTrace,
};
use proptest::prelude::*;

/// Strategy drawing one of the four machine families.
fn family_strategy() -> impl Strategy<Value = FamilyId> {
    (0usize..FamilyId::ALL.len()).prop_map(|i| FamilyId::ALL[i])
}

/// The sibling `.proptest-regressions` file must resolve from the test
/// harness's working directory and parse both entry formats — otherwise
/// persisted seeds would silently stop replaying in CI.
#[test]
fn persisted_regressions_resolve_and_parse() {
    let seeds = proptest::persisted_seeds(file!());
    assert_eq!(seeds.len(), 2, "expected both regression entries, got {seeds:?}");
    assert!(seeds.contains(&0x134), "native 16-hex entry must parse: {seeds:?}");
}

/// Strategy producing arbitrary valid kernels across the latent space.
fn kernel_strategy() -> impl Strategy<Value = KernelCharacteristics> {
    (
        0.0005..0.2f64, // compute_time_s
        0.0..0.05f64,   // memory_time_s
        0.3..1.0f64,    // parallel_fraction
        1.0..4.0f64,    // bw_saturation_threads
        0.0..0.5f64,    // module_sharing_penalty
        0.0..0.1f64,    // sync_overhead
        0.1..50.0f64,   // gpu_speedup
        0.0..1.0f64,    // branch_divergence
        (0.5..3.0f64, 0.0..0.002f64, 0.0..1.0f64, 1.0..100.0f64, 0.1..0.6f64, 0.1..0.9f64),
    )
        .prop_map(|(ct, mt, pf, bw, msp, sync, gs, bd, (gbw, lo, vf, ws, ca, ga))| {
            KernelCharacteristics {
                name: "prop".into(),
                benchmark: "Prop".into(),
                input: "P".into(),
                compute_time_s: ct,
                memory_time_s: mt,
                parallel_fraction: pf,
                bw_saturation_threads: bw,
                module_sharing_penalty: msp,
                sync_overhead: sync,
                gpu_speedup: gs,
                branch_divergence: bd,
                gpu_bw_advantage: gbw,
                launch_overhead_s: lo,
                vector_fraction: vf,
                working_set_mb: ws,
                cpu_activity: ca,
                gpu_activity: ga,
                weight: 1.0,
            }
        })
}

proptest! {
    // `PROPTEST_CASES` (CI) overrides the local 64-case budget.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn generated_kernels_validate(k in kernel_strategy()) {
        prop_assert!(k.validate().is_empty(), "{:?}", k.validate());
    }

    #[test]
    fn every_run_is_physical(k in kernel_strategy(), seed in 0u64..100) {
        let m = Machine::new(seed);
        for cfg in Configuration::all() {
            let r = m.run(&k, cfg);
            prop_assert!(r.time_s > 0.0 && r.time_s.is_finite());
            prop_assert!(r.power_w() > 0.0 && r.power_w() < 200.0, "{}", r.power_w());
            prop_assert!(r.true_power.cpu_plane_w > 0.0);
            prop_assert!(r.true_power.gpu_nb_plane_w > 0.0);
        }
    }

    #[test]
    fn cpu_time_monotone_in_frequency(k in kernel_strategy(), threads in 1u8..=4) {
        let m = Machine::noiseless(0);
        let mut prev = f64::INFINITY;
        for p in CpuPState::all() {
            let t = m.run(&k, &Configuration::cpu(threads, p)).time_s;
            prop_assert!(t <= prev + 1e-15, "time must not rise with frequency");
            prev = t;
        }
    }

    #[test]
    fn cpu_thread_speedup_is_bounded(k in kernel_strategy(), ps in 0u8..6) {
        // Threads are NOT guaranteed to help: a high module-sharing
        // penalty can make a second FP-heavy thread a net loss, exactly
        // as on real shared-FPU modules. What must hold: speedup never
        // exceeds the thread count, and the slowdown never exceeds what
        // the sharing penalty + sync overhead can explain (~10%).
        let m = Machine::noiseless(0);
        let t1 = m.run(&k, &Configuration::cpu(1, CpuPState(ps))).time_s;
        for threads in 2..=4u8 {
            let t = m.run(&k, &Configuration::cpu(threads, CpuPState(ps))).time_s;
            let speedup = t1 / t;
            prop_assert!(speedup <= f64::from(threads) + 1e-9, "superlinear speedup {speedup}");
            prop_assert!(speedup >= 0.85, "threads {threads} slowdown too deep: {speedup}");
        }
    }

    #[test]
    fn cpu_power_monotone_in_frequency_and_threads(k in kernel_strategy()) {
        let m = Machine::noiseless(0);
        for threads in 1..=4u8 {
            let mut prev = 0.0;
            for p in CpuPState::all() {
                let w = m.run(&k, &Configuration::cpu(threads, p)).true_power_w();
                prop_assert!(w >= prev, "power must not fall with frequency");
                prev = w;
            }
        }
        for p in CpuPState::all() {
            let mut prev = 0.0;
            for threads in 1..=4u8 {
                let w = m.run(&k, &Configuration::cpu(threads, p)).true_power_w();
                prop_assert!(w >= prev, "power must not fall with threads");
                prev = w;
            }
        }
    }

    #[test]
    fn gpu_time_monotone_in_gpu_frequency(k in kernel_strategy(), cps in 0u8..6) {
        let m = Machine::noiseless(0);
        let mut prev = f64::INFINITY;
        for gp in GpuPState::all() {
            let t = m.run(&k, &Configuration::gpu(gp, CpuPState(cps))).time_s;
            prop_assert!(t <= prev + 1e-15);
            prev = t;
        }
    }

    #[test]
    fn energy_is_power_times_time(k in kernel_strategy(), seed in 0u64..50) {
        let m = Machine::new(seed);
        let cfg = Configuration::gpu(GpuPState::MAX, CpuPState::MAX);
        let r = m.run(&k, &cfg);
        let e = r.power_w() * r.time_s;
        prop_assert!(e > 0.0 && e.is_finite());
    }

    #[test]
    fn determinism_across_sweep_order(k in kernel_strategy(), seed in 0u64..50) {
        let m = Machine::new(seed);
        let forward = m.sweep(&k);
        // Re-run in reverse order; every observation must be identical.
        for cfg in Configuration::all().iter().rev() {
            let r = m.run(&k, cfg);
            prop_assert_eq!(&r, &forward[cfg.index()]);
        }
    }

    #[test]
    fn counters_scale_with_work(k in kernel_strategy()) {
        let m = Machine::noiseless(0);
        let mut big = k.clone();
        big.compute_time_s *= 8.0;
        big.memory_time_s *= 8.0;
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let small_run = m.run(&k, &cfg);
        let big_run = m.run(&big, &cfg);
        prop_assert!(big_run.counters.instructions > small_run.counters.instructions);
        prop_assert!(big_run.counters.core_cycles > small_run.counters.core_cycles);
    }

    #[test]
    fn sensor_error_shrinks_with_duration(power in 5.0..60.0f64, seed in 0u64..100) {
        let sensor = acs_sim::PowerSensor::default();
        let noise = NoiseSource::new(seed, "sensor-prop", 0, 0);
        let error = |duration_s: f64| {
            let held = PowerBreakdown { cpu_plane_w: power, gpu_nb_plane_w: 0.0 };
            let trace = PowerTrace::constant(duration_s, held);
            (sensor.estimate_trace(&trace, &noise, &noise).cpu_plane_w - power).abs()
        };
        let (short, long) = (error(0.002), error(2.0));
        // The long estimate averages 2000 samples; allow a generous
        // margin but require it not be wildly worse than the short one.
        prop_assert!(long <= short.max(power * 0.02) + 0.2);
        prop_assert!(long < power * 0.05, "long-kernel sensor error {long}");
    }

    #[test]
    fn normalized_counter_features_are_finite(k in kernel_strategy(), seed in 0u64..50) {
        let m = Machine::new(seed);
        for cfg in [Configuration::cpu(4, CpuPState::MAX), Configuration::gpu(GpuPState::MAX, CpuPState::MAX)] {
            let r = m.run(&k, &cfg);
            for v in r.counters.normalized_features() {
                prop_assert!(v.is_finite() && v >= 0.0);
            }
        }
    }

    #[test]
    fn device_dispatch_matches_config(k in kernel_strategy()) {
        let m = Machine::noiseless(0);
        for cfg in Configuration::all() {
            let r = m.run(&k, cfg);
            match cfg.device {
                Device::Cpu => prop_assert_eq!(r.config.device, Device::Cpu),
                Device::Gpu => prop_assert_eq!(r.config.device, Device::Gpu),
            }
        }
    }

    #[test]
    fn family_instantiation_is_seed_deterministic(
        k in kernel_strategy(),
        family in family_strategy(),
        seed in 0u64..100,
    ) {
        let a = Machine::from_family(family, seed);
        let b = Machine::from_family(family, seed);
        prop_assert_eq!(&a, &b);
        for cfg in Configuration::all() {
            prop_assert_eq!(a.run(&k, cfg), b.run(&k, cfg));
        }
    }

    #[test]
    fn every_family_run_is_physical(
        k in kernel_strategy(),
        family in family_strategy(),
        seed in 0u64..50,
    ) {
        let m = Machine::from_family(family, seed);
        for cfg in Configuration::all() {
            let r = m.run(&k, cfg);
            prop_assert!(r.time_s > 0.0 && r.time_s.is_finite(), "{family} time {}", r.time_s);
            prop_assert!(
                r.power_w() > 0.0 && r.power_w() < 400.0,
                "{family} power {}", r.power_w()
            );
            prop_assert!(r.true_power.cpu_plane_w > 0.0);
            prop_assert!(r.true_power.gpu_nb_plane_w > 0.0);
        }
    }

    #[test]
    fn trinity_family_is_bit_identical_to_legacy_machine(
        k in kernel_strategy(),
        seed in 0u64..50,
    ) {
        // The family layer must be a pure generalization: routing Trinity
        // through the descriptor reproduces the pre-family machine
        // bit-for-bit (goldens depend on this).
        let legacy = Machine::new(seed);
        let fam = Machine::from_family(FamilyId::Trinity, seed);
        for cfg in Configuration::all() {
            let a = legacy.run(&k, cfg);
            let b = fam.run(&k, cfg);
            prop_assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            prop_assert_eq!(
                a.true_power.cpu_plane_w.to_bits(),
                b.true_power.cpu_plane_w.to_bits()
            );
            prop_assert_eq!(
                a.true_power.gpu_nb_plane_w.to_bits(),
                b.true_power.gpu_nb_plane_w.to_bits()
            );
        }
    }

    #[test]
    fn family_cpu_time_monotone_in_frequency(
        k in kernel_strategy(),
        family in family_strategy(),
        threads in 1u8..=4,
    ) {
        let m = Machine::noiseless_from_family(family, 0);
        let mut prev = f64::INFINITY;
        for p in CpuPState::all() {
            let t = m.run(&k, &Configuration::cpu(threads, p)).time_s;
            prop_assert!(t <= prev + 1e-15, "{family}: time must not rise with frequency");
            prev = t;
        }
    }
}
