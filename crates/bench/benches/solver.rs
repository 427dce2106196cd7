//! Benches of the finite-volume thermal solver — the kernel behind
//! every figure — including the serial-vs-parallel comparison on the
//! paper's Gemmini 12-tier stack.
//!
//! Run with `cargo bench -p tsc-bench --bench solver`; set
//! `BENCH_FAST=1` for a 3-sample smoke pass. Results are recorded in
//! `EXPERIMENTS.md` and `BENCH_SOLVER.json`.

use tsc_bench::json::Json;
use tsc_bench::timing::Bench;
use tsc_bench::timing::Measurement;
use tsc_core::beol::BeolProperties;
use tsc_core::stack::{build, hot_loop_solver, StackConfig};
use tsc_designs::gemmini;
use tsc_thermal::{
    CgSolver, Heatsink, Precision, Preconditioner, Problem, Solution, SolveContext, SorSolver,
};
use tsc_units::{Length, Power, ThermalConductivity};

fn slab(n: usize, nz: usize) -> Problem {
    let mut p = Problem::uniform_block(
        n,
        n,
        nz,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(100.0),
        ThermalConductivity::new(10.0),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    p.add_power(n / 2, n / 2, nz - 1, Power::from_watts(1.0));
    p
}

/// The paper's end-to-end fixture: the Gemmini accelerator stacked 12
/// tiers high on a two-phase heatsink, scaffolded BEOL. `lateral` cells
/// per die edge; the mesh has `1 + 12·4 = 49` z-slabs.
fn gemmini_12_tier(lateral: usize) -> Problem {
    let cfg = StackConfig::uniform(12, BeolProperties::scaffolded(), Heatsink::two_phase())
        .with_lateral_cells(lateral);
    build(&gemmini::design(), &cfg).problem
}

fn bench_cg_scaling(b: &Bench) {
    for n in [8usize, 16, 24] {
        let p = slab(n, 16);
        b.run(&format!("lateral_cells/{n}"), 10, || {
            CgSolver::new().solve(&p).expect("converges")
        });
    }
}

fn bench_cg_vs_sor(b: &Bench) {
    let p = slab(12, 12);
    b.run("cg", 10, || CgSolver::new().solve(&p).expect("converges"));
    b.run("sor", 10, || {
        SorSolver::new()
            .with_tolerance(1e-8)
            .solve(&p)
            .expect("converges")
    });
}

fn bench_high_contrast(b: &Bench) {
    // The hard case: ultra-low-k layers against silicon (3 orders of
    // magnitude contrast) — what the 3D-IC stacks actually look like.
    let mut p = slab(16, 24);
    for k in (0..24).step_by(4) {
        p.set_layer_conductivity(
            k,
            ThermalConductivity::new(0.31),
            ThermalConductivity::new(5.47),
        );
    }
    b.run("cg_high_contrast_stack", 10, || {
        CgSolver::new().solve(&p).expect("converges")
    });
}

/// Serial vs parallel on the Gemmini 12-tier mesh: the tentpole
/// comparison. Also cross-checks that the parallel CG and the red-black
/// SOR land on the same temperature field (≤ 1e-3 K) and that parallel
/// CG reproduces serial CG exactly.
fn bench_parallel_gemmini(b: &Bench) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fast = std::env::var_os("BENCH_FAST").is_some();
    let lateral = if fast { 32 } else { 64 };
    let p = gemmini_12_tier(lateral);
    let cells = lateral * lateral * 49;
    println!(
        "  gemmini 12-tier mesh: {lateral}x{lateral}x49 = {cells} cells, host threads: {threads}"
    );

    let serial_solver = CgSolver::new().with_tolerance(1e-8).with_threads(1);
    let parallel_solver = CgSolver::new()
        .with_tolerance(1e-8)
        .with_threads(threads)
        .with_parallel_crossover(0);

    let serial = b.run("cg_serial", 5, || serial_solver.solve(&p).expect("serial"));
    let parallel = b.run("cg_parallel", 5, || {
        parallel_solver.solve(&p).expect("parallel")
    });
    println!(
        "  cg speedup: {:.2}x on {} threads",
        serial.seconds() / parallel.seconds(),
        threads
    );

    // Correctness cross-checks ride along with the timing run.
    let s = serial_solver.solve(&p).expect("serial");
    let q = parallel_solver.solve(&p).expect("parallel");
    let max_diff = s
        .temperatures
        .iter_kelvin()
        .zip(q.temperatures.iter_kelvin())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(
        max_diff <= 1e-9,
        "parallel CG deviates from serial by {max_diff} K"
    );
    println!(
        "  parallel vs serial CG: max |dT| = {max_diff:.3e} K, \
         {} iterations, {} matvecs, solve {:.3}s (assembly {:.3}s)",
        q.stats.iterations, q.stats.matvecs, q.stats.solve_seconds, q.stats.assembly_seconds
    );

    // SOR cross-check on a smaller mesh (SOR converges far slower on the
    // full fixture; the cross-check is about agreement, not speed).
    let p_small = gemmini_12_tier(16);
    let cg = CgSolver::new()
        .with_tolerance(1e-10)
        .solve(&p_small)
        .expect("cg");
    let sor = SorSolver::new()
        .with_tolerance(1e-9)
        .with_threads(threads)
        .with_parallel_crossover(0)
        .solve(&p_small)
        .expect("sor");
    let tj_cg = cg.temperatures.max_temperature().kelvin();
    let tj_sor = sor.temperatures.max_temperature().kelvin();
    assert!(
        (tj_cg - tj_sor).abs() <= 1e-3,
        "CG/SOR cross-check failed: {tj_cg} vs {tj_sor}"
    );
    println!(
        "  cg/sor cross-check (16x16x49): |dTj| = {:.3e} K",
        (tj_cg - tj_sor).abs()
    );
}

fn max_dev_kelvin(a: &Solution, b: &Solution) -> f64 {
    a.temperatures
        .iter_kelvin()
        .zip(b.temperatures.iter_kelvin())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max)
}

fn record(mesh: &str, cells: usize, solver: &str, tol: f64, sol: &Solution, seconds: f64) -> Json {
    Json::object()
        .field("mesh", mesh)
        .field("cells", cells)
        .field("solver", solver)
        .field("preconditioner", sol.stats.preconditioner.to_string())
        .field("precision", sol.stats.precision.to_string())
        .field("tolerance", tol)
        .field("iterations", sol.stats.iterations)
        .field("refinements", sol.stats.refinements)
        .field("matvecs", sol.stats.matvecs)
        .field("cycles", sol.stats.cycles)
        .field("wall_seconds_median", seconds)
}

/// Cold solves at the sizes production runs, at the hot loops' 1e-8:
/// the serving fixture (`gemmini-memory`, 4 tiers × 16 cells =
/// 16×16×17), the 8-tier 12×12×33 background stack and a 12-tier
/// 32×32×49 stack. Each sample solves through a fresh [`SolveContext`],
/// so it pays assembly, hierarchy set-up and iterations — the cost one
/// cold evaluation has in a sweep. Returns one record per mesh and
/// solver with median, IQR and sample count.
fn bench_production_meshes(b: &Bench) -> Vec<Json> {
    let design = gemmini::memory_tier();
    let tol = 1e-8;
    let f64_mg = CgSolver::new()
        .with_tolerance(tol)
        .with_preconditioner(Preconditioner::Multigrid);
    let jacobi = CgSolver::new().with_tolerance(tol);
    let mut entries = Vec::new();
    for (tiers, lateral, samples) in [(4, 16, 21), (8, 12, 21), (12, 32, 11)] {
        let cfg = StackConfig::uniform(tiers, BeolProperties::scaffolded(), Heatsink::two_phase())
            .with_lateral_cells(lateral);
        let p = build(&design, &cfg).problem;
        let d = p.dim();
        let mesh = format!("{}x{}x{}", d.nx, d.ny, d.nz);
        for (name, solver) in [
            ("hot_loop", hot_loop_solver()),
            ("f64_mg_pcg", f64_mg),
            ("jacobi_cg", jacobi),
        ] {
            let cold = || SolveContext::new().solve(&p, &solver).expect("cold solve");
            let t = b.run(&format!("{mesh}/{name}"), samples, cold);
            entries.push(production_record(&mesh, d.len(), name, tol, &cold(), &t));
        }
    }
    entries
}

fn production_record(
    mesh: &str,
    cells: usize,
    solver: &str,
    tol: f64,
    sol: &Solution,
    t: &Measurement,
) -> Json {
    Json::object()
        .field("id", format!("{mesh}/{solver}"))
        .field("mesh", mesh)
        .field("cells", cells)
        .field("solver", solver)
        .field("preconditioner", sol.stats.preconditioner.to_string())
        .field("precision", sol.stats.precision.to_string())
        .field("tolerance", tol)
        .field("iterations", sol.stats.iterations)
        .field("refinements", sol.stats.refinements)
        .field("assembly_seconds", sol.stats.assembly_seconds)
        .field("setup_seconds", sol.stats.setup_seconds)
        .field("solve_seconds", sol.stats.solve_seconds)
        .field("wall_seconds_median", t.seconds())
        .field("wall_seconds_iqr", t.iqr.as_secs_f64())
        .field("n", t.samples)
}

/// Jacobi-CG vs MG-PCG vs mixed-precision MG-PCG on the Gemmini 12-tier
/// mesh. Emits `BENCH_SOLVER.json` at the repo root with one
/// machine-readable entry per solver, plus the `production_cold`
/// records of [`bench_production_meshes`].
fn bench_multigrid_gemmini(b: &Bench, production_cold: Vec<Json>) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fast = std::env::var_os("BENCH_FAST").is_some();
    let lateral = if fast { 32 } else { 64 };
    let p = gemmini_12_tier(lateral);
    let cells = lateral * lateral * 49;
    let mesh = format!("gemmini_12_tier/{lateral}x{lateral}x49");
    let tol = 1e-11;
    println!("  mesh: {mesh} = {cells} cells");

    let jacobi = CgSolver::new().with_tolerance(tol).with_threads(threads);
    let mg_pcg = jacobi.with_preconditioner(Preconditioner::Multigrid);

    let samples = 5;
    let t_jacobi = b.run("cg_jacobi", samples, || jacobi.solve(&p).expect("jacobi"));
    let t_mg_pcg = b.run("cg_mg_pcg", samples, || mg_pcg.solve(&p).expect("mg-pcg"));

    let s_jacobi = jacobi.solve(&p).expect("jacobi");
    let s_mg_pcg = mg_pcg.solve(&p).expect("mg-pcg");

    let dev_pcg = max_dev_kelvin(&s_jacobi, &s_mg_pcg);
    assert!(
        dev_pcg <= 1e-6,
        "MG-PCG deviates from Jacobi-CG by {dev_pcg} K"
    );
    let reduction = s_jacobi.stats.iterations as f64 / s_mg_pcg.stats.iterations as f64;
    assert!(
        reduction >= 3.0,
        "MG-PCG iteration reduction below 3x: jacobi {} vs mg-pcg {}",
        s_jacobi.stats.iterations,
        s_mg_pcg.stats.iterations
    );
    println!(
        "  jacobi-cg: {} iterations, {} matvecs; mg-pcg: {} iterations \
         ({} V-cycles, {} matvecs)",
        s_jacobi.stats.iterations,
        s_jacobi.stats.matvecs,
        s_mg_pcg.stats.iterations,
        s_mg_pcg.stats.cycles,
        s_mg_pcg.stats.matvecs,
    );
    println!("  mg-pcg iteration reduction: {reduction:.1}x, max |dT| = {dev_pcg:.3e} K");

    // The mixed-precision path: f32 inner MG-CG under f64 iterative
    // refinement, to the same 1e-11 tolerance.
    let mixed = mg_pcg.with_precision(Precision::Mixed);
    let t_mixed = b.run("cg_mixed", samples, || mixed.solve(&p).expect("mixed"));
    let s_mixed = mixed.solve(&p).expect("mixed");
    let dev_mixed = max_dev_kelvin(&s_jacobi, &s_mixed);
    assert!(
        dev_mixed <= 1e-6,
        "mixed-precision CG deviates from Jacobi-CG by {dev_mixed} K"
    );
    let speedup = t_mg_pcg.seconds() / t_mixed.seconds();
    println!(
        "  mixed (f32 inner): {} refinements, {} inner iterations, \
         {} V-cycles; {speedup:.2}x vs f64 mg-pcg, max |dT| = {dev_mixed:.3e} K",
        s_mixed.stats.refinements, s_mixed.stats.iterations, s_mixed.stats.cycles,
    );

    let doc = Json::object()
        .field("bench", "solver")
        .field("fast_mode", fast)
        .field("threads", threads)
        .field(
            "entries",
            vec![
                record(&mesh, cells, "cg", tol, &s_jacobi, t_jacobi.seconds()),
                record(&mesh, cells, "cg", tol, &s_mg_pcg, t_mg_pcg.seconds()),
                record(&mesh, cells, "cg", tol, &s_mixed, t_mixed.seconds()),
            ],
        )
        .field(
            "mg_vs_jacobi",
            Json::object()
                .field("iteration_reduction", reduction)
                .field("max_abs_dt_kelvin", dev_pcg),
        )
        .field(
            "mixed_vs_f64",
            Json::object()
                .field("wall_clock_speedup", speedup)
                .field("max_abs_dt_kelvin", dev_mixed),
        )
        .field("production_cold", production_cold);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SOLVER.json");
    std::fs::write(path, doc.pretty()).expect("write BENCH_SOLVER.json");
    println!("  wrote {path}");
}

fn main() {
    let b = Bench::group("cg_solver");
    bench_cg_scaling(&b);
    let b = Bench::group("cg_vs_sor");
    bench_cg_vs_sor(&b);
    let b = Bench::group("high_contrast");
    bench_high_contrast(&b);
    let b = Bench::group("parallel_gemmini");
    bench_parallel_gemmini(&b);
    let b = Bench::group("production_cold");
    let production_cold = bench_production_meshes(&b);
    let b = Bench::group("multigrid_gemmini");
    bench_multigrid_gemmini(&b, production_cold);
}
