//! Randomized property tests for the multigrid-preconditioned CG through
//! the public solver API: agreement with the plain Jacobi-CG reference,
//! the bitwise parallel-equivalence guarantee inherited from the stencil
//! engine, and the iteration savings over Jacobi.
//!
//! Meshes here are more heterogeneous than the plain-solver property
//! suite: per-layer conductivity contrast, random sink strength, and a
//! handful of scattered sources. They stay below the default coarse
//! limit, so the hierarchy is a single dense level; the unit tests in
//! `src/multigrid.rs` cover the same properties on multilevel
//! hierarchies.

use tsc_rng::Rng64;
use tsc_thermal::{CgSolver, Heatsink, Preconditioner, Problem};
use tsc_units::{HeatTransferCoefficient, Length, Power, Temperature, ThermalConductivity};

/// A random heterogeneous stack: every layer gets its own conductivity
/// (up to ~300x contrast), the sink strength spans two decades, and a
/// few point sources land anywhere in the volume.
#[derive(Debug, Clone)]
struct HeteroCase {
    nx: usize,
    ny: usize,
    nz: usize,
    layer_k: Vec<f64>,
    h: f64,
    ambient_c: f64,
    sources: Vec<(usize, usize, usize, f64)>,
}

impl HeteroCase {
    fn sample(rng: &mut Rng64) -> Self {
        let nx = rng.gen_range(3..10);
        let ny = rng.gen_range(3..10);
        let nz = rng.gen_range(4..9);
        let layer_k = (0..nz).map(|_| rng.gen_range_f64(0.5..150.0)).collect();
        let sources = (0..4)
            .map(|_| {
                (
                    rng.gen_range(0..nx),
                    rng.gen_range(0..ny),
                    rng.gen_range(0..nz),
                    rng.gen_range_f64(0.05..3.0),
                )
            })
            .collect();
        Self {
            nx,
            ny,
            nz,
            layer_k,
            h: rng.gen_range_f64(1e4..1e6),
            ambient_c: rng.gen_range_f64(20.0..110.0),
            sources,
        }
    }
}

fn build(case: &HeteroCase) -> Problem {
    let mut p = Problem::uniform_block(
        case.nx,
        case.ny,
        case.nz,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(50.0),
        ThermalConductivity::new(case.layer_k[0]),
    );
    for (layer, &k) in case.layer_k.iter().enumerate() {
        p.set_layer_conductivity(
            layer,
            ThermalConductivity::new(k),
            ThermalConductivity::new(k),
        );
    }
    p.set_bottom_heatsink(Heatsink::new(
        HeatTransferCoefficient::new(case.h),
        Temperature::from_celsius(case.ambient_c),
    ));
    for &(i, j, k, w) in &case.sources {
        p.add_power(i, j, k, Power::from_watts(w));
    }
    p
}

fn max_dev_kelvin(a: &tsc_thermal::Solution, b: &tsc_thermal::Solution) -> f64 {
    a.temperatures
        .iter_kelvin()
        .zip(b.temperatures.iter_kelvin())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max)
}

/// MG-preconditioned CG must land on the same temperature field as the
/// plain Jacobi-CG reference.
#[test]
fn mg_pcg_agrees_with_plain_cg() {
    let mut rng = Rng64::seed_from_u64(0x7001);
    for _ in 0..10 {
        let case = HeteroCase::sample(&mut rng);
        let p = build(&case);
        let reference = CgSolver::new().solve(&p).expect("jacobi cg");
        let pcg = CgSolver::new()
            .with_preconditioner(Preconditioner::Multigrid)
            .solve(&p)
            .expect("mg-pcg");
        let dev_pcg = max_dev_kelvin(&pcg, &reference);
        assert!(dev_pcg < 1e-6, "MG-PCG deviates by {dev_pcg} K");
        assert_eq!(pcg.stats.preconditioner, Preconditioner::Multigrid);
        assert!(pcg.stats.cycles > 0, "MG-PCG must report V-cycle count");
        assert!(
            !pcg.stats.level_residuals.is_empty(),
            "per-level residuals must be recorded"
        );
    }
}

/// Forced-parallel (threads > 1, crossover 0 so even tiny meshes band)
/// and serial MG-PCG must produce *bitwise identical* results — the
/// ordered-reduction guarantee extends through smoothing, transfers and
/// the preconditioned CG loop.
#[test]
fn forced_parallel_mg_pcg_is_bitwise_identical_to_serial() {
    let mut rng = Rng64::seed_from_u64(0x7004);
    for _ in 0..8 {
        let case = HeteroCase::sample(&mut rng);
        let p = build(&case);
        for threads in [3, 4] {
            let serial = CgSolver::new()
                .with_preconditioner(Preconditioner::Multigrid)
                .with_threads(1)
                .solve(&p)
                .expect("serial mg-pcg");
            let parallel = CgSolver::new()
                .with_preconditioner(Preconditioner::Multigrid)
                .with_threads(threads)
                .with_parallel_crossover(0)
                .solve(&p)
                .expect("parallel mg-pcg");
            let identical = serial
                .temperatures
                .iter_kelvin()
                .zip(parallel.temperatures.iter_kelvin())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                identical,
                "MG-PCG not bitwise thread-independent at {threads} threads"
            );
            assert_eq!(serial.stats.iterations, parallel.stats.iterations);
            assert_eq!(serial.stats.cycles, parallel.stats.cycles);
        }
    }
}

/// The preconditioner actually earns its keep: on these heterogeneous
/// meshes MG-PCG must never need more fine-grid iterations than plain
/// Jacobi CG, and must win clearly on aggregate.
#[test]
fn mg_pcg_needs_fewer_iterations_than_jacobi() {
    let mut rng = Rng64::seed_from_u64(0x7005);
    let (mut total_jacobi, mut total_mg) = (0usize, 0usize);
    for _ in 0..10 {
        let case = HeteroCase::sample(&mut rng);
        let p = build(&case);
        let jacobi = CgSolver::new().solve(&p).expect("jacobi");
        let mg = CgSolver::new()
            .with_preconditioner(Preconditioner::Multigrid)
            .solve(&p)
            .expect("mg-pcg");
        assert!(
            mg.stats.iterations <= jacobi.stats.iterations,
            "MG-PCG took {} iterations vs Jacobi's {} (case {case:?})",
            mg.stats.iterations,
            jacobi.stats.iterations
        );
        total_jacobi += jacobi.stats.iterations;
        total_mg += mg.stats.iterations;
    }
    assert!(
        2 * total_mg <= total_jacobi,
        "MG-PCG must at least halve aggregate iterations: {total_mg} vs {total_jacobi}"
    );
}
