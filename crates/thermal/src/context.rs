//! Cross-solve reuse cache for repeated solves on one geometry — and
//! the one steady-state solve driver: [`CgSolver::solve`] is a cold
//! context solve, and the electrothermal loop keeps one context across
//! its fixed-point iterations, so a context is the only place that
//! builds a multigrid hierarchy and picks a CG kernel for a steady
//! solve.
//!
//! The placement and codesign flows re-solve the same mesh dozens of
//! times in a row (pillar-density bisection, placement verification,
//! dielectric sweeps), usually changing *only* the power map or only
//! the conductivity field between solves. A [`SolveContext`] keeps the
//! expensive per-geometry state alive across those solves:
//!
//! * the assembled operator (face-conductance arrays + diagonal),
//! * the multigrid hierarchy and its factored coarsest level,
//! * the previous temperature field, used to warm-start the next solve.
//!
//! # Invalidation rules
//!
//! Before each solve the context compares the incoming [`Problem`]
//! against a snapshot of the cached operator's inputs:
//!
//! | change between solves            | action                                  |
//! |----------------------------------|-----------------------------------------|
//! | power map only                   | full reuse: new RHS, warm-started field |
//! | conductivity / heatsink / mesh   | re-assemble operator + hierarchy; the   |
//! |                                  | warm field survives if the cell count   |
//! |                                  | is unchanged (a nearby design's field   |
//! |                                  | is still an excellent initial guess)    |
//! | cell count                       | cold start                              |
//! | solver configuration (tolerance, | warm field dropped: a field converged   |
//! | preconditioner, precision)       | under looser arithmetic (f32 inner) or  |
//! |                                  | a looser tolerance must never seed a    |
//! |                                  | stricter solve                          |
//! | any failed solve                 | warm field dropped (never seed from a   |
//! |                                  | possibly-poisoned iterate)              |
//!
//! The snapshot covers everything [`crate::Problem`]'s conductance
//! assembly reads — mesh dimensions, cell pitches, layer thicknesses,
//! both heatsinks and both conductivity grids — so a cached operator can
//! never be silently stale.

use crate::kernels::{HierarchyF32, WorkspaceF32};
use crate::multigrid::{MgHierarchy, MgWorkspace};
use crate::problem::Problem;
use crate::solver::{Assembled, CgSolver, Precision, Preconditioner, Solution, SolveError};
use std::time::Instant;
use tsc_geometry::Dim3;
use tsc_units::Length;

use crate::heatsink::Heatsink;

/// Snapshot of every [`Problem`] input the assembled operator depends
/// on; the cached operator is valid exactly while these match.
#[derive(Debug, Clone, PartialEq)]
struct OperatorKey {
    dim: Dim3,
    dx: Length,
    dy: Length,
    dz: Vec<Length>,
    bottom: Option<Heatsink>,
    top: Option<Heatsink>,
    /// Per-column ambient overrides (the cached `rhs_boundary` bakes
    /// them in, so a changed map must invalidate the operator).
    bottom_ambient: Option<Vec<f64>>,
    top_ambient: Option<Vec<f64>>,
    kz: Vec<f64>,
    kxy: Vec<f64>,
}

impl OperatorKey {
    fn snapshot(p: &Problem) -> Self {
        Self {
            dim: p.dim(),
            dx: p.dx(),
            dy: p.dy(),
            dz: p.dz().to_vec(),
            bottom: p.bottom_heatsink(),
            top: p.top_heatsink(),
            bottom_ambient: p.bottom_ambient_map().map(|m| m.as_slice().to_vec()),
            top_ambient: p.top_ambient_map().map(|m| m.as_slice().to_vec()),
            kz: p.kz_flat().to_vec(),
            kxy: p.kxy_flat().to_vec(),
        }
    }

    /// Allocation-free validity check against an incoming problem.
    fn matches(&self, p: &Problem) -> bool {
        self.dim == p.dim()
            && self.dx == p.dx()
            && self.dy == p.dy()
            && self.dz.as_slice() == p.dz()
            && self.bottom == p.bottom_heatsink()
            && self.top == p.top_heatsink()
            && self.bottom_ambient.as_deref() == p.bottom_ambient_map().map(|m| m.as_slice())
            && self.top_ambient.as_deref() == p.top_ambient_map().map(|m| m.as_slice())
            && self.kz.as_slice() == p.kz_flat()
            && self.kxy.as_slice() == p.kxy_flat()
    }
}

/// A 64-bit fingerprint of every [`Problem`] input the assembled
/// operator depends on — exactly the fields of the [`SolveContext`]
/// invalidation snapshot (mesh dimensions, cell pitches, layer
/// thicknesses, heatsinks, per-column ambient maps, both conductivity
/// grids). Two problems with equal fingerprints *usually* share
/// operator geometry, so the fingerprint is the natural **routing hint**
/// for pooling [`SolveContext`]s across repeated solves. It is a hash,
/// not an identity: a colliding pair of distinct operators would alias
/// under the bare `u64`, so any cache keyed on it must store the full
/// [`OperatorSignature`] beside each entry and compare it on every hit
/// (a mismatch is a miss). The context itself always re-validates
/// against the full snapshot before reusing anything.
///
/// The power map deliberately does **not** contribute: power-only
/// deltas are the cheap path the cache exists for.
#[must_use]
pub fn operator_fingerprint(p: &Problem) -> u64 {
    // FNV-1a over the raw bit patterns: deterministic across platforms
    // and runs (unlike `DefaultHasher`, which is randomly seeded).
    let mut h = Fnv::new();
    let dim = p.dim();
    h.write_usize(dim.nx);
    h.write_usize(dim.ny);
    h.write_usize(dim.nz);
    h.write_f64(p.dx().meters());
    h.write_f64(p.dy().meters());
    for dz in p.dz() {
        h.write_f64(dz.meters());
    }
    for hs in [p.bottom_heatsink(), p.top_heatsink()] {
        match hs {
            Some(hs) => {
                h.write_f64(hs.h.get());
                h.write_f64(hs.ambient.kelvin());
            }
            None => h.write_u64(0xA5A5_A5A5),
        }
    }
    for map in [p.bottom_ambient_map(), p.top_ambient_map()] {
        match map {
            Some(map) => {
                for &t in map.as_slice() {
                    h.write_f64(t);
                }
            }
            None => h.write_u64(0x5A5A_5A5A),
        }
    }
    for &k in p.kz_flat() {
        h.write_f64(k);
    }
    for &k in p.kxy_flat() {
        h.write_f64(k);
    }
    h.finish()
}

/// The full operator-identity snapshot behind [`operator_fingerprint`],
/// as an opaque comparable value. Caches that route on the 64-bit
/// fingerprint store one of these beside each entry and equality-check
/// it on every hit, so a fingerprint collision degrades to a cache miss
/// instead of silently reusing another stack's operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSignature(OperatorKey);

impl OperatorSignature {
    /// Snapshots the operator identity of `p`.
    #[must_use]
    pub fn of(p: &Problem) -> Self {
        Self(OperatorKey::snapshot(p))
    }

    /// Allocation-free check that `p` still has this operator identity.
    #[must_use]
    pub fn matches(&self, p: &Problem) -> bool {
        self.0.matches(p)
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Work counters accumulated across every solve through one context —
/// the observability record behind the cache-effectiveness tests and
/// the `BENCH_SOLVER.json` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextStats {
    /// Solves requested through the context.
    pub solves: usize,
    /// Operator (re-)assemblies actually performed.
    pub assemblies: usize,
    /// Multigrid hierarchy constructions actually performed.
    pub hierarchy_builds: usize,
    /// Solves that reused the cached operator as-is.
    pub operator_reuses: usize,
    /// Solves warm-started from a previous temperature field.
    pub warm_starts: usize,
    /// Total solver iterations across all solves.
    pub total_iterations: usize,
    /// Total fine-grid matrix-vector products across all solves.
    pub total_matvecs: usize,
    /// Total multigrid V-cycles across all solves.
    pub total_cycles: usize,
}

/// Reuse cache for repeated [`CgSolver`] solves over one geometry (see
/// the module docs for the invalidation rules).
///
/// ```
/// use tsc_thermal::{CgSolver, Heatsink, Preconditioner, Problem, SolveContext};
/// use tsc_units::{Length, Power, ThermalConductivity};
///
/// let mut p = Problem::uniform_block(
///     8, 8, 6,
///     Length::from_millimeters(1.0), Length::from_millimeters(1.0),
///     Length::from_micrometers(60.0),
///     ThermalConductivity::new(120.0),
/// );
/// p.set_bottom_heatsink(Heatsink::two_phase());
/// p.add_power(4, 4, 5, Power::from_watts(1.0));
///
/// let solver = CgSolver::new().with_preconditioner(Preconditioner::Multigrid);
/// let mut ctx = SolveContext::new();
/// let first = ctx.solve(&p, &solver)?;
/// p.add_power(2, 2, 5, Power::from_watts(0.5)); // power-only delta
/// let second = ctx.solve(&p, &solver)?;
/// assert!(second.temperatures.max_temperature() > first.temperatures.max_temperature());
/// assert_eq!(ctx.stats().assemblies, 1); // operator reused
/// # Ok::<(), tsc_thermal::SolveError>(())
/// ```
#[derive(Debug, Default)]
pub struct SolveContext {
    key: Option<OperatorKey>,
    asm: Option<Assembled>,
    hierarchy: Option<MgHierarchy>,
    workspace: Option<MgWorkspace>,
    /// f32 shadow hierarchy + scratch for mixed-precision solves (built
    /// lazily, invalidated with the f64 hierarchy).
    h32: Option<HierarchyF32>,
    ws32: Option<WorkspaceF32>,
    warm: Option<(WarmKey, Vec<f64>)>,
    warm_start: bool,
    stats: ContextStats,
}

/// Validity key of the cached warm-start field: the solver
/// configuration the field was converged under. A field from a looser
/// tolerance, a different preconditioner, or the f32-inner
/// mixed path must never silently seed a solve with stricter (or merely
/// different) convergence semantics — reusing it across configurations
/// would make the second solve's iteration count, trajectory, and
/// (for golden flows) bit pattern depend on unrelated earlier solves.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WarmKey {
    tol: f64,
    precon: Preconditioner,
    precision: Precision,
}

impl WarmKey {
    fn of(solver: &CgSolver) -> Self {
        Self {
            tol: solver.tolerance(),
            precon: solver.preconditioner(),
            precision: solver.precision(),
        }
    }
}

impl SolveContext {
    /// An empty context with warm-starting enabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            warm_start: true,
            ..Self::default()
        }
    }

    /// Builder: enables/disables warm-starting from the previous solve's
    /// temperature field (enabled by default; disabling is mainly for
    /// A/B measurements of the warm-start benefit).
    #[must_use]
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        if !enabled {
            self.warm = None;
        }
        self
    }

    /// Accumulated work counters.
    #[must_use]
    pub fn stats(&self) -> ContextStats {
        self.stats
    }

    /// Drops every cached artifact (operator, hierarchy, warm field).
    /// The next solve pays full assembly cost; counters are kept.
    pub fn invalidate(&mut self) {
        self.key = None;
        self.asm = None;
        self.hierarchy = None;
        self.workspace = None;
        self.h32 = None;
        self.ws32 = None;
        self.warm = None;
    }

    /// Solves `p` with `solver`'s tolerances and preconditioner, reusing
    /// whatever cached state is still valid (see the module docs).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CgSolver::solve`]. A failed solve drops
    /// the warm-start field but keeps the cached operator (it is not
    /// implicated by an RHS-driven divergence).
    pub fn solve(&mut self, p: &Problem, solver: &CgSolver) -> Result<Solution, SolveError> {
        self.solve_with_power(p, p.power_flat(), solver)
    }

    /// [`SolveContext::solve`] with `power` (watts per cell) staged in
    /// place of `p`'s own power map: the electrothermal loop's rescaled
    /// power over an unchanged operator, which takes the power-only
    /// reuse path.
    pub(crate) fn solve_with_power(
        &mut self,
        p: &Problem,
        power: &[f64],
        solver: &CgSolver,
    ) -> Result<Solution, SolveError> {
        self.stats.solves += 1;
        let reuse = match (&self.key, &self.asm) {
            (Some(key), Some(_)) => key.matches(p),
            _ => false,
        };
        if reuse {
            self.stats.operator_reuses += 1;
        } else {
            let asm = Assembled::build(p)?;
            self.key = Some(OperatorKey::snapshot(p));
            self.asm = Some(asm);
            self.hierarchy = None;
            self.workspace = None;
            self.h32 = None;
            self.ws32 = None;
            self.stats.assemblies += 1;
        }

        let params = solver.params();
        let warm_key = WarmKey::of(solver);
        let needs_mg = solver.precision() == Precision::Mixed
            || solver.preconditioner() == Preconditioner::Multigrid;
        let Self {
            asm,
            hierarchy,
            workspace,
            h32,
            ws32,
            warm,
            warm_start,
            stats,
            ..
        } = self;
        // tsc-analyze: allow(no-unwrap): the caller populated the cache
        // in the branch directly above; None is unreachable here.
        let asm = asm.as_ref().expect("operator cached above");
        let rhs = asm.rhs_with_power(power);
        let n = asm.dim.len();
        let mut x = match warm {
            Some((key, w)) if *warm_start && *key == warm_key && w.len() == n => {
                stats.warm_starts += 1;
                w.clone()
            }
            _ => vec![asm.initial_guess; n],
        };

        let mixed = solver.precision() == Precision::Mixed;
        let cold = (needs_mg && hierarchy.is_none()) || (mixed && h32.is_none());
        // tsc-analyze: allow(no-wallclock-numeric): feeds SolverStats wall-time only, never the numerics
        let t_setup = Instant::now();
        if needs_mg && hierarchy.is_none() {
            let mg = MgHierarchy::build(asm, &solver.mg_params())?;
            *workspace = Some(mg.workspace());
            *hierarchy = Some(mg);
            stats.hierarchy_builds += 1;
        }
        if mixed && h32.is_none() {
            // tsc-analyze: allow(no-unwrap): populated in the branch above
            let mg = hierarchy.as_ref().expect("hierarchy cached above");
            let shadow = HierarchyF32::build(asm, mg);
            *ws32 = Some(shadow.workspace());
            *h32 = Some(shadow);
        }
        let setup_seconds = if cold {
            t_setup.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let result = if mixed {
            // tsc-analyze: allow(no-unwrap): populated in the branch above
            let mg = hierarchy.as_ref().expect("hierarchy cached above");
            // tsc-analyze: allow(no-unwrap): populated in the branch above
            let ws = workspace.as_mut().expect("workspace cached above");
            // tsc-analyze: allow(no-unwrap): populated in the branch above
            let shadow = h32.as_ref().expect("f32 hierarchy cached above");
            // tsc-analyze: allow(no-unwrap): populated in the branch above
            let scratch = ws32.as_mut().expect("f32 workspace cached above");
            asm.cg_core_mixed(&rhs, &mut x, &params, mg, ws, shadow, scratch)
        } else if solver.preconditioner() == Preconditioner::Multigrid {
            // tsc-analyze: allow(no-unwrap): populated in the branch above
            let mg = hierarchy.as_ref().expect("hierarchy cached above");
            // tsc-analyze: allow(no-unwrap): populated in the branch above
            let ws = workspace.as_mut().expect("workspace cached above");
            asm.cg_core_mg(&rhs, &mut x, &params, mg, ws)
        } else {
            asm.cg_core(&rhs, &mut x, &params)
        };

        match result {
            Ok(mut solver_stats) => {
                // The cached operator's build time belongs to the solve
                // that assembled it, not to every solve that reuses it.
                if reuse {
                    solver_stats.assembly_seconds = 0.0;
                }
                solver_stats.setup_seconds = setup_seconds;
                stats.total_iterations += solver_stats.iterations;
                stats.total_matvecs += solver_stats.matvecs;
                stats.total_cycles += solver_stats.cycles;
                if *warm_start {
                    *warm = Some((warm_key, x.clone()));
                }
                Ok(asm.solution(&x, solver_stats, power.iter().sum()))
            }
            Err(e) => {
                // Never seed a later solve from a possibly-poisoned field.
                *warm = None;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use tsc_units::{Power, ThermalConductivity};

    fn problem() -> Problem {
        let mut p = Problem::uniform_block(
            8,
            8,
            8,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(80.0),
            ThermalConductivity::new(60.0),
        );
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(4, 4, 7, Power::from_watts(1.0));
        p
    }

    fn mg_solver() -> CgSolver {
        CgSolver::new()
            .with_tolerance(1e-9)
            .with_preconditioner(Preconditioner::Multigrid)
    }

    #[test]
    fn power_only_delta_reuses_operator_and_hierarchy() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver();
        ctx.solve(&p, &solver).expect("first");
        p.add_power(2, 2, 7, Power::from_watts(0.5));
        ctx.solve(&p, &solver).expect("second");
        let s = ctx.stats();
        assert_eq!(s.solves, 2);
        assert_eq!(s.assemblies, 1);
        assert_eq!(s.hierarchy_builds, 1);
        assert_eq!(s.operator_reuses, 1);
        assert_eq!(s.warm_starts, 1);
    }

    #[test]
    fn conductivity_delta_reassembles() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver();
        ctx.solve(&p, &solver).expect("first");
        p.set_layer_conductivity(
            3,
            ThermalConductivity::new(5.0),
            ThermalConductivity::new(5.0),
        );
        ctx.solve(&p, &solver).expect("second");
        let s = ctx.stats();
        assert_eq!(s.assemblies, 2);
        assert_eq!(s.hierarchy_builds, 2);
        assert_eq!(s.operator_reuses, 0);
        // Same cell count: the previous field still warm-starts.
        assert_eq!(s.warm_starts, 1);
    }

    #[test]
    fn context_matches_direct_solve() {
        let p = problem();
        let mut ctx = SolveContext::new();
        let via_ctx = ctx.solve(&p, &mg_solver()).expect("ctx");
        let direct = mg_solver().solve(&p).expect("direct");
        let max_diff = via_ctx
            .temperatures
            .iter_kelvin()
            .zip(direct.temperatures.iter_kelvin())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert_eq!(max_diff, 0.0, "first context solve must be identical");
    }

    #[test]
    fn warm_start_cuts_iterations_on_repeat_solves() {
        let p = problem();
        let solver = mg_solver();
        let mut warm = SolveContext::new();
        let mut cold = SolveContext::new().with_warm_start(false);
        for ctx in [&mut warm, &mut cold] {
            for _ in 0..3 {
                ctx.solve(&p, &solver).expect("converges");
            }
        }
        assert_eq!(cold.stats().warm_starts, 0);
        assert_eq!(warm.stats().warm_starts, 2);
        assert!(
            warm.stats().total_iterations < cold.stats().total_iterations,
            "warm {} vs cold {}",
            warm.stats().total_iterations,
            cold.stats().total_iterations
        );
    }

    #[test]
    fn failed_solve_drops_warm_field_but_recovers() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver();
        ctx.solve(&p, &solver).expect("clean solve");
        p.add_power(1, 1, 1, Power::from_watts(f64::NAN));
        assert!(ctx.solve(&p, &solver).is_err());
        // Rebuild a clean problem: the poisoned warm field must be gone
        // and the context must still produce a correct solution.
        let clean = problem();
        let sol = ctx.solve(&clean, &solver).expect("recovered");
        assert!(sol.stats.residual.is_finite());
        assert!(sol.temperatures.iter_kelvin().all(f64::is_finite));
    }

    #[test]
    fn fingerprint_tracks_exactly_the_operator_key() {
        let p = problem();
        let base = operator_fingerprint(&p);
        assert_eq!(base, operator_fingerprint(&p), "deterministic");

        // Power-only deltas keep the fingerprint (the reuse fast path).
        let mut powered = problem();
        powered.add_power(1, 1, 7, Power::from_watts(3.0));
        assert_eq!(base, operator_fingerprint(&powered));

        // Conductivity, heatsink, and mesh changes all move it.
        let mut k = problem();
        k.set_layer_conductivity(
            2,
            ThermalConductivity::new(5.0),
            ThermalConductivity::new(5.0),
        );
        assert_ne!(base, operator_fingerprint(&k));
        let mut hs = problem();
        hs.set_top_heatsink(Heatsink::forced_air());
        assert_ne!(base, operator_fingerprint(&hs));
        let other = Problem::uniform_block(
            8,
            8,
            9,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(80.0),
            ThermalConductivity::new(60.0),
        );
        assert_ne!(base, operator_fingerprint(&other));
    }

    #[test]
    fn solver_config_switch_invalidates_warm_field() {
        // Regression (stale warm-start field): the warm field used to
        // survive *any* solve with a matching cell count, so an
        // f32-converged mixed solve could seed a subsequent strict-f64
        // solve. The warm key now pins tolerance, preconditioner,
        // and precision.
        let p = problem();
        let mut ctx = SolveContext::new();
        let f64_solver = mg_solver();
        let mixed_solver = mg_solver().with_precision(Precision::Mixed);

        ctx.solve(&p, &mixed_solver).expect("mixed cold");
        ctx.solve(&p, &f64_solver).expect("f64 after mixed");
        assert_eq!(
            ctx.stats().warm_starts,
            0,
            "precision switch must not warm-start"
        );
        ctx.solve(&p, &f64_solver).expect("f64 repeat");
        assert_eq!(ctx.stats().warm_starts, 1, "same config warm-starts");

        let loose = mg_solver().with_tolerance(1e-6);
        ctx.solve(&p, &loose).expect("loose");
        assert_eq!(
            ctx.stats().warm_starts,
            1,
            "tolerance switch must not warm-start"
        );
        ctx.solve(&p, &CgSolver::new().with_tolerance(1e-9))
            .expect("jacobi");
        assert_eq!(
            ctx.stats().warm_starts,
            1,
            "preconditioner switch must not warm-start"
        );
    }

    #[test]
    fn mixed_solves_reuse_cached_f32_hierarchy() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver().with_precision(Precision::Mixed);
        let first = ctx.solve(&p, &solver).expect("first mixed");
        assert_eq!(first.stats.precision, Precision::Mixed);
        p.add_power(2, 2, 7, Power::from_watts(0.5));
        let second = ctx.solve(&p, &solver).expect("second mixed");
        assert_eq!(second.stats.precision, Precision::Mixed);
        let s = ctx.stats();
        assert_eq!(s.assemblies, 1, "operator reused across power delta");
        assert_eq!(s.hierarchy_builds, 1, "hierarchy reused");
        assert_eq!(s.warm_starts, 1, "same mixed config warm-starts");
        // The context path must agree with the direct solver.
        let direct = solver.solve(&p).expect("direct mixed");
        let max_diff = second
            .temperatures
            .iter_kelvin()
            .zip(direct.temperatures.iter_kelvin())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max)
            / direct.temperatures.max_temperature().kelvin();
        assert!(max_diff < 1e-9, "relative deviation {max_diff}");
    }

    #[test]
    fn only_the_assembling_solve_reports_assembly_time() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        for solver in [mg_solver(), mg_solver().with_precision(Precision::Mixed)] {
            ctx.invalidate();
            let first = ctx.solve(&p, &solver).expect("first");
            assert!(first.stats.assembly_seconds > 0.0, "{solver:?}");
            p.add_power(2, 2, 7, Power::from_watts(0.5));
            let reused = ctx.solve(&p, &solver).expect("power-only delta");
            assert_eq!(reused.stats.assembly_seconds, 0.0, "{solver:?}");
        }
        p.set_layer_conductivity(
            3,
            ThermalConductivity::new(5.0),
            ThermalConductivity::new(5.0),
        );
        let reassembled = ctx.solve(&p, &mg_solver()).expect("conductivity delta");
        assert!(reassembled.stats.assembly_seconds > 0.0);
        assert_eq!(ctx.stats().operator_reuses, 2);
    }

    #[test]
    fn only_the_building_solve_reports_setup_time() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        for solver in [mg_solver(), mg_solver().with_precision(Precision::Mixed)] {
            ctx.invalidate();
            let t0 = Instant::now();
            let cold = ctx.solve(&p, &solver).expect("cold");
            let wall = t0.elapsed().as_secs_f64();
            let s = &cold.stats;
            assert!(s.setup_seconds > 0.0, "{solver:?}");
            assert!(
                s.assembly_seconds + s.setup_seconds + s.solve_seconds <= wall,
                "{solver:?}: stages {} + {} + {} exceed the wall time {wall}",
                s.assembly_seconds,
                s.setup_seconds,
                s.solve_seconds
            );
            p.add_power(2, 2, 7, Power::from_watts(0.5));
            let reused = ctx.solve(&p, &solver).expect("power-only delta");
            assert_eq!(reused.stats.setup_seconds, 0.0, "{solver:?}");
            assert!(solver.solve(&p).expect("direct").stats.setup_seconds > 0.0);
        }
        let jacobi = CgSolver::new().with_tolerance(1e-9);
        assert_eq!(
            ctx.solve(&p, &jacobi).expect("jacobi").stats.setup_seconds,
            0.0
        );
    }

    #[test]
    fn jacobi_solves_work_through_the_context_too() {
        let p = problem();
        let mut ctx = SolveContext::new();
        let solver = CgSolver::new().with_tolerance(1e-9);
        ctx.solve(&p, &solver).expect("first");
        ctx.solve(&p, &solver).expect("second");
        let s = ctx.stats();
        assert_eq!(s.assemblies, 1);
        assert_eq!(s.hierarchy_builds, 0, "no hierarchy for Jacobi");
        assert!(s.total_cycles == 0);
    }
}
