//! Geometric multigrid for the finite-volume thermal system.
//!
//! The hot loops of the flow (pillar-density bisection, placement
//! verification, dielectric sweeps) re-solve `A·T = b` on the same mesh
//! dozens of times, and Jacobi-CG iteration counts grow with mesh size
//! and with the extreme vertical/lateral anisotropy of a thinned 3D tier
//! stack. This module builds a grid hierarchy once and then solves in a
//! handful of V-cycles:
//!
//! * **Semicoarsening-aware aggregation.** Each level halves only the
//!   directions whose mean face conductance is within a factor of the
//!   strongest — on a tier stack where `g_z / g_x ~ 10³…10⁵`, that means
//!   z-only coarsening until the vertical coupling is resolved, then
//!   lateral coarsening of the remaining quasi-2D problem. This is the
//!   classic rule for point smoothers: relaxation only smooths error
//!   along strongly coupled directions, so only those directions may be
//!   coarsened.
//! * **Galerkin coarse operators in stencil form.** Restriction is
//!   aggregate summation and prolongation is piecewise-constant
//!   injection (`R = Pᵀ`), so `Pᵀ·A·P` of a face-conductance Laplacian
//!   is again a face-conductance Laplacian: a coarse face conductance is
//!   the sum of the fine interface conductances between the two
//!   aggregates (intra-aggregate faces cancel), and boundary
//!   conductances sum laterally. Every level is therefore a plain
//!   [`Assembled`] operator and reuses the gather-form matvec, the
//!   red-black sweep and the [`ExecPlan`] engine unchanged.
//! * **Symmetric red-black Gauss-Seidel smoothing.** Pre-smoothing runs
//!   the colours `[0, 1]`, post-smoothing `[1, 0]`, with equal sweep
//!   counts — the V-cycle is then a symmetric positive-definite
//!   operator, i.e. a valid CG preconditioner.
//! * **Dense Cholesky at the coarsest level** (≤ a few hundred cells):
//!   exact, dependency-free, factored once per hierarchy.
//!
//! Determinism: smoothing passes have colour-disjoint writes, matvecs
//! are gather-form over slab bands, transfers and the direct solve are
//! serial, and all inner products are serial or per-slab ordered sums —
//! so MG-preconditioned CG results are **bitwise identical for every
//! thread count**, like the Jacobi-CG and SOR solvers.

use crate::engine::ExecPlan;
use crate::solver::{
    dot, norm, ordered_sum, slab_dot_parts, Assembled, CgParams, Precision, Preconditioner,
    SolveError, SolverStats,
};
use std::time::Instant;
use tsc_geometry::Dim3;

/// A direction is coarsened when its mean face conductance is at least
/// this fraction of the strongest coarsenable direction's mean.
const SEMI_THRESHOLD: f64 = 0.25;

/// Red-black sweeps per level before the coarse correction (colours
/// `[0, 1]`) and again after it (colours `[1, 0]`). Equal counts keep
/// the V-cycle a symmetric operator — a valid CG preconditioner.
pub(crate) const SWEEPS: usize = 1;

/// Relaxation factor of the smoothing sweeps (1.0 = Gauss-Seidel;
/// over-relaxation would break the symmetric-preconditioner property
/// unless mirrored exactly).
pub(crate) const OMEGA: f64 = 1.0;

/// Hierarchy construction knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MgParams {
    /// Coarsening stops at or below this many cells; the coarsest level
    /// is solved directly (dense Cholesky).
    pub(crate) coarse_max: usize,
    pub(crate) threads: usize,
    pub(crate) crossover: usize,
}

impl MgParams {
    /// Default hierarchy parameters bound to an execution configuration.
    pub(crate) fn with_exec(threads: usize, crossover: usize) -> Self {
        Self {
            coarse_max: 512,
            threads,
            crossover,
        }
    }
}

/// Per-direction coarsening factors for one level transition (1 = keep,
/// 2 = aggregate pairs; ceil sizing, so odd extents leave a lone
/// trailing aggregate).
pub(crate) type Factors = [usize; 3];

/// Chooses which directions to coarsen based on the mean face
/// conductance per direction: only directions within
/// [`SEMI_THRESHOLD`] of the strongest coarsenable direction coarsen
/// (semicoarsening), and `None` means no direction can coarsen (all
/// extents are already 1).
fn coarsen_factors(op: &Assembled) -> Option<Factors> {
    coarsen_factors_with(op, SEMI_THRESHOLD)
}

/// [`coarsen_factors`] with an explicit lateral-join threshold — the
/// f32 shadow hierarchy coarsens more aggressively than the f64 one
/// (see [`crate::kernels::HierarchyF32::build`]).
pub(crate) fn coarsen_factors_with(op: &Assembled, threshold: f64) -> Option<Factors> {
    let d = op.dim;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let means = [mean(&op.gx), mean(&op.gy), mean(&op.gz)];
    let ns = [d.nx, d.ny, d.nz];
    if ns.iter().all(|&n| n < 2) {
        return None;
    }
    let max_mean = (0..3)
        .filter(|&a| ns[a] >= 2)
        .map(|a| means[a])
        .fold(0.0_f64, f64::max);
    let mut f = [1_usize; 3];
    for a in 0..3 {
        if ns[a] >= 2 && means[a] >= threshold * max_mean {
            f[a] = 2;
        }
    }
    if f == [1, 1, 1] {
        // Degenerate conductances (zero/NaN means) — coarsen everything
        // coarsenable so hierarchy construction always terminates.
        for a in 0..3 {
            if ns[a] >= 2 {
                f[a] = 2;
            }
        }
    }
    Some(f)
}

/// Coarse extent under ceil aggregation: pairs, plus a lone trailing
/// cell when the extent is odd.
fn coarse_extent(n: usize, f: usize) -> usize {
    if f == 2 {
        n.div_ceil(2)
    } else {
        n
    }
}

/// Galerkin coarsening of a face-conductance operator under pairwise
/// aggregation: inter-aggregate fine face conductances sum into the
/// coarse face between the owning aggregates, intra-aggregate faces
/// vanish, and boundary conductances sum over each aggregate's footprint
/// on the boundary slab. With piecewise-constant transfer operators this
/// reproduces `Pᵀ·A·P` exactly (verified by the unit tests below).
pub(crate) fn coarsen(op: &Assembled, f: Factors) -> Assembled {
    let (nx, ny, nz) = (op.dim.nx, op.dim.ny, op.dim.nz);
    let (ncx, ncy, ncz) = (
        coarse_extent(nx, f[0]),
        coarse_extent(ny, f[1]),
        coarse_extent(nz, f[2]),
    );
    let cdim = Dim3::new(ncx, ncy, ncz);
    let mut gx = vec![0.0; ncx.saturating_sub(1) * ncy * ncz];
    let mut gy = vec![0.0; ncx * ncy.saturating_sub(1) * ncz];
    let mut gz = vec![0.0; ncx * ncy * ncz.saturating_sub(1)];
    for k in 0..nz {
        let ck = k / f[2];
        for j in 0..ny {
            let cj = j / f[1];
            for i in 0..nx {
                let ci = i / f[0];
                if i + 1 < nx && (i + 1) / f[0] != ci {
                    gx[(ck * ncy + cj) * (ncx - 1) + ci] += op.gx[(k * ny + j) * (nx - 1) + i];
                }
                if j + 1 < ny && (j + 1) / f[1] != cj {
                    gy[(ck * (ncy - 1) + cj) * ncx + ci] += op.gy[(k * (ny - 1) + j) * nx + i];
                }
                if k + 1 < nz && (k + 1) / f[2] != ck {
                    gz[(ck * ncy + cj) * ncx + ci] += op.gz[(k * ny + j) * nx + i];
                }
            }
        }
    }
    let mut g_bottom = vec![0.0; ncx * ncy];
    let mut g_top = vec![0.0; ncx * ncy];
    for j in 0..ny {
        let cj = j / f[1];
        for i in 0..nx {
            let ci = i / f[0];
            // The fine bottom (k = 0) and top (k = nz-1) slabs always land
            // in the coarse bottom and top aggregates respectively, so the
            // boundary conductance aggregates laterally.
            g_bottom[cj * ncx + ci] += op.g_bottom[j * nx + i];
            g_top[cj * ncx + ci] += op.g_top[j * nx + i];
        }
    }
    Assembled::from_parts(cdim, gx, gy, gz, g_bottom, g_top)
}

/// Restriction `b_c = Pᵀ·r`: sums each aggregate's fine values (serial —
/// transfer cost is negligible next to smoothing and must stay
/// deterministic). Generic over the scalar so the f32 hierarchy in
/// `crate::kernels` reuses the same transfer.
pub(crate) fn restrict<T>(fd: Dim3, cd: Dim3, f: Factors, fine: &[T], coarse: &mut [T])
where
    T: Copy + Default + core::ops::AddAssign,
{
    coarse.fill(T::default());
    for k in 0..fd.nz {
        let ck = k / f[2];
        for j in 0..fd.ny {
            let cj = j / f[1];
            for i in 0..fd.nx {
                let ci = i / f[0];
                coarse[(ck * cd.ny + cj) * cd.nx + ci] += fine[(k * fd.ny + j) * fd.nx + i];
            }
        }
    }
}

/// Prolongation `x += P·x_c`: piecewise-constant injection of each
/// aggregate's correction into its fine cells.
pub(crate) fn prolong_add<T>(fd: Dim3, cd: Dim3, f: Factors, coarse: &[T], fine: &mut [T])
where
    T: Copy + core::ops::AddAssign,
{
    for k in 0..fd.nz {
        let ck = k / f[2];
        for j in 0..fd.ny {
            let cj = j / f[1];
            for i in 0..fd.nx {
                let ci = i / f[0];
                fine[(k * fd.ny + j) * fd.nx + i] += coarse[(ck * cd.ny + cj) * cd.nx + ci];
            }
        }
    }
}

/// Dense Cholesky factorization of the coarsest-level operator — exact,
/// dependency-free, and tiny (≤ [`MgParams::coarse_max`] unknowns).
#[derive(Debug, Clone)]
pub(crate) struct DenseCholesky {
    n: usize,
    /// Row-major lower-triangular factor (upper triangle unused).
    l: Vec<f64>,
}

impl DenseCholesky {
    /// Expands the stencil operator into a dense matrix and factors it.
    ///
    /// # Errors
    ///
    /// [`SolveError::Diverged`] when a pivot is non-positive or
    /// non-finite — the operator is not SPD (poisoned conductances).
    pub(crate) fn factor(op: &Assembled) -> Result<Self, SolveError> {
        let n = op.dim.len();
        let (nx, ny, nz) = (op.dim.nx, op.dim.ny, op.dim.nz);
        let slab = nx * ny;
        let mut a = vec![0.0; n * n];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = (k * ny + j) * nx + i;
                    a[c * n + c] = op.diag[c];
                    if i + 1 < nx {
                        a[(c + 1) * n + c] = -op.gx[(k * ny + j) * (nx - 1) + i];
                    }
                    if j + 1 < ny {
                        a[(c + nx) * n + c] = -op.gy[(k * (ny - 1) + j) * nx + i];
                    }
                    if k + 1 < nz {
                        a[(c + slab) * n + c] = -op.gz[(k * ny + j) * nx + i];
                    }
                }
            }
        }
        // In-place Cholesky on the lower triangle: A = L·Lᵀ.
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(SolveError::Diverged {
                            iterations: 0,
                            residual: f64::NAN,
                        });
                    }
                    a[i * n + i] = s.sqrt();
                } else {
                    a[i * n + j] = s / a[j * n + j];
                }
            }
        }
        Ok(Self { n, l: a })
    }

    /// Solves `A·x = b` by forward/backward substitution.
    pub(crate) fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        debug_assert_eq!(x.len(), n);
        for i in 0..n {
            let mut s = b[i];
            for (k, xv) in x.iter().enumerate().take(i) {
                s -= self.l[i * n + k] * xv;
            }
            x[i] = s / self.l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (k, xv) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[k * n + i] * xv;
            }
            x[i] = s / self.l[i * n + i];
        }
    }
}

/// Per-level scratch vectors of one V-cycle.
#[derive(Debug, Clone)]
struct LevelBufs {
    x: Vec<f64>,
    b: Vec<f64>,
    r: Vec<f64>,
}

/// Reusable scratch space for V-cycles over one [`MgHierarchy`] — kept
/// separate from the (immutable, cacheable) hierarchy so a cached
/// hierarchy can serve many solves.
#[derive(Debug, Clone)]
pub(crate) struct MgWorkspace {
    /// Finest-level residual buffer.
    r0: Vec<f64>,
    /// Buffers for levels `1..L` (the finest level's `x`/`b` are the
    /// caller's slices).
    tail: Vec<LevelBufs>,
}

/// The immutable grid hierarchy: coarse operators, transfer factors,
/// per-level execution plans and the factored coarsest level. Built once
/// per operator (geometry + conductivity) and reused across every solve
/// on it — see [`crate::SolveContext`].
#[derive(Debug)]
pub(crate) struct MgHierarchy {
    /// Mesh dimensions per level, finest first.
    dims: Vec<Dim3>,
    /// `factors[l]` maps level `l` to level `l + 1`.
    factors: Vec<Factors>,
    /// Operators for levels `1..L` (level 0 is the caller's fine
    /// operator, passed by reference to every cycle).
    coarse_ops: Vec<Assembled>,
    plans: Vec<ExecPlan>,
    chol: DenseCholesky,
}

impl MgHierarchy {
    /// Builds the hierarchy for `fine`: repeatedly choose semicoarsening
    /// factors, Galerkin-coarsen, and stop once the level fits the
    /// direct solver.
    ///
    /// # Errors
    ///
    /// [`SolveError::Diverged`] when the coarsest operator fails the
    /// Cholesky SPD check (non-finite or non-positive pivots).
    pub(crate) fn build(fine: &Assembled, params: &MgParams) -> Result<Self, SolveError> {
        let mut dims = vec![fine.dim];
        let mut factors = Vec::new();
        let mut coarse_ops: Vec<Assembled> = Vec::new();
        loop {
            let cur = coarse_ops.last().unwrap_or(fine);
            if cur.dim.len() <= params.coarse_max {
                break;
            }
            let Some(f) = coarsen_factors(cur) else {
                break;
            };
            let coarse = coarsen(cur, f);
            dims.push(coarse.dim);
            factors.push(f);
            coarse_ops.push(coarse);
        }
        let chol = DenseCholesky::factor(coarse_ops.last().unwrap_or(fine))?;
        let plans = dims
            .iter()
            .map(|&d| ExecPlan::new(d, params.threads, params.crossover))
            .collect();
        Ok(Self {
            dims,
            factors,
            coarse_ops,
            plans,
            chol,
        })
    }

    /// Number of levels including the finest.
    pub(crate) fn levels(&self) -> usize {
        self.dims.len()
    }

    /// Mesh dimensions per level, finest first.
    pub(crate) fn dims(&self) -> &[Dim3] {
        &self.dims
    }

    /// Level-to-level coarsening factors (`factors[l]`: level `l` →
    /// level `l + 1`).
    pub(crate) fn factors(&self) -> &[Factors] {
        &self.factors
    }

    /// Per-level execution plans, finest first.
    pub(crate) fn plans(&self) -> &[ExecPlan] {
        &self.plans
    }

    /// The factored coarsest-level direct solver.
    pub(crate) fn chol(&self) -> &DenseCholesky {
        &self.chol
    }

    /// Fresh scratch space sized for this hierarchy.
    pub(crate) fn workspace(&self) -> MgWorkspace {
        MgWorkspace {
            r0: vec![0.0; self.dims[0].len()],
            tail: self.dims[1..]
                .iter()
                .map(|d| LevelBufs {
                    x: vec![0.0; d.len()],
                    b: vec![0.0; d.len()],
                    r: vec![0.0; d.len()],
                })
                .collect(),
        }
    }

    pub(crate) fn op<'a>(&'a self, fine: &'a Assembled, level: usize) -> &'a Assembled {
        if level == 0 {
            fine
        } else {
            &self.coarse_ops[level - 1]
        }
    }

    /// One V-cycle on `A·x = b` at the finest level: `x` is improved in
    /// place (pass zeros to apply the cycle as a preconditioner). The
    /// cycle is a fixed symmetric linear operator — safe inside CG.
    pub(crate) fn v_cycle(&self, fine: &Assembled, ws: &mut MgWorkspace, b: &[f64], x: &mut [f64]) {
        let MgWorkspace { r0, tail } = ws;
        self.cycle(fine, 0, b, x, r0, tail);
    }

    fn cycle(
        &self,
        fine: &Assembled,
        level: usize,
        b: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        tail: &mut [LevelBufs],
    ) {
        let op = self.op(fine, level);
        if level + 1 == self.levels() {
            self.chol.solve(b, x);
            return;
        }
        let plan = &self.plans[level];
        for _ in 0..SWEEPS {
            op.rb_sweep(plan, x, b, OMEGA, [0, 1]);
        }
        plan.map_mut(r, |range, chunk| {
            op.matvec_range(x, chunk, range.clone(), None);
            for (o, bv) in chunk.iter_mut().zip(&b[range]) {
                *o = bv - *o;
            }
        });
        // The workspace is built with one buffer per hierarchy level, so
        // the tail cannot run out while recursing within the depth.
        let (next, rest) = tail
            .split_first_mut()
            .expect("workspace depth matches hierarchy"); // tsc-analyze: allow(no-unwrap): one buffer per level
        restrict(
            self.dims[level],
            self.dims[level + 1],
            self.factors[level],
            r,
            &mut next.b,
        );
        next.x.fill(0.0);
        let LevelBufs {
            x: cx,
            b: cb,
            r: cr,
        } = next;
        self.cycle(fine, level + 1, cb, cx, cr, rest);
        prolong_add(
            self.dims[level],
            self.dims[level + 1],
            self.factors[level],
            cx,
            x,
        );
        for _ in 0..SWEEPS {
            op.rb_sweep(plan, x, b, OMEGA, [1, 0]);
        }
    }

    /// 2-norm of the residual restricted to each level, finest first —
    /// the [`SolverStats::level_residuals`] diagnostic.
    pub(crate) fn level_norms(&self, r: &[f64], ws: &mut MgWorkspace) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.levels());
        out.push(norm(r));
        for l in 0..self.levels() - 1 {
            let (done, rest) = ws.tail.split_at_mut(l);
            let src: &[f64] = if l == 0 { r } else { &done[l - 1].r };
            restrict(
                self.dims[l],
                self.dims[l + 1],
                self.factors[l],
                src,
                &mut rest[0].r,
            );
            out.push(norm(&rest[0].r));
        }
        out
    }
}

impl Assembled {
    /// Multigrid-preconditioned CG on `A·x = rhs`, warm-started from
    /// `x`: the twin of [`Assembled::cg_core`] with one V-cycle in place
    /// of the diagonal scaling. `⟨r, z⟩` products are serial (the cost
    /// is negligible next to a V-cycle) and everything else reuses the
    /// per-slab ordered reductions, so results stay bitwise identical
    /// across thread counts.
    pub(crate) fn cg_core_mg(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        params: &CgParams,
        mg: &MgHierarchy,
        ws: &mut MgWorkspace,
    ) -> Result<SolverStats, SolveError> {
        // tsc-analyze: allow(no-wallclock-numeric): feeds SolverStats wall-time only, never the numerics
        let t0 = Instant::now();
        let n = self.dim.len();
        let slab = self.dim.nx * self.dim.ny;
        debug_assert_eq!(rhs.len(), n);
        debug_assert_eq!(x.len(), n);
        #[cfg(feature = "fault-inject")]
        let max_iter = {
            crate::fault::begin_solve();
            crate::fault::poison_field(x);
            crate::fault::truncated_budget(params.max_iter)
        };
        #[cfg(not(feature = "fault-inject"))]
        let max_iter = params.max_iter;
        let plan = ExecPlan::new(self.dim, params.threads, params.crossover);
        let b_norm = norm(rhs).max(f64::MIN_POSITIVE);

        let mut r = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut pv = vec![0.0; n];
        let mut ap = vec![0.0; n];
        let mut matvecs = 0_usize;
        let mut cycles = 0_usize;

        plan.map_mut(&mut ap, |range, chunk| {
            self.matvec_range(x, chunk, range, None);
        });
        matvecs += 1;
        for ((rv, bv), av) in r.iter_mut().zip(rhs).zip(&ap) {
            *rv = bv - av;
        }
        let mut residual = norm(&r) / b_norm;
        let mut iterations = 0_usize;
        let mut trajectory = vec![(0, residual)];
        let mut rz = 0.0;
        if residual > params.tol && residual.is_finite() {
            mg.v_cycle(self, ws, &r, &mut z);
            cycles += 1;
            pv.copy_from_slice(&z);
            rz = dot(&r, &z);
        }

        while residual > params.tol && residual.is_finite() && iterations < max_iter {
            // Region 1: ap = A·pv, then ⟨pv, ap⟩ as a streaming slab dot
            // (same per-slab accumulation order as the historical fused
            // closure — bitwise identical).
            let parts = plan.map_mut(&mut ap, |range, chunk| {
                self.matvec_range(&pv, chunk, range.clone(), None);
                slab_dot_parts(&pv[range], chunk, slab)
            });
            matvecs += 1;
            let p_ap = ordered_sum(parts.into_iter().flatten());
            let alpha = rz / p_ap;

            // Region 2: x += α·pv, r -= α·ap as zips, then ⟨r, r⟩.
            let parts = plan.map2_mut(x, &mut r, |range, xs, rs| {
                for (xv, p) in xs.iter_mut().zip(&pv[range.clone()]) {
                    *xv += alpha * p;
                }
                for (rv, av) in rs.iter_mut().zip(&ap[range]) {
                    *rv -= alpha * av;
                }
                slab_dot_parts(rs, rs, slab)
            });
            let rr = ordered_sum(parts.into_iter().flatten());
            residual = rr.sqrt() / b_norm;
            iterations += 1;
            #[cfg(feature = "fault-inject")]
            {
                residual = crate::fault::corrupt_residual(iterations, residual);
            }
            if iterations.is_multiple_of(params.traj_stride) {
                trajectory.push((iterations, residual));
            }
            if residual <= params.tol || !residual.is_finite() || iterations >= max_iter {
                break;
            }

            // z = M⁻¹·r (one V-cycle from zero), then the direction update.
            z.fill(0.0);
            mg.v_cycle(self, ws, &r, &mut z);
            cycles += 1;
            let rz_next = dot(&r, &z);
            let beta = rz_next / rz;
            rz = rz_next;
            plan.map_mut(&mut pv, |range, chunk| {
                for (o, zv) in chunk.iter_mut().zip(&z[range]) {
                    *o = zv + beta * *o;
                }
            });
        }

        if trajectory.last().map(|&(it, _)| it) != Some(iterations) {
            trajectory.push((iterations, residual));
        }
        if !residual.is_finite() || !x.iter().all(|v| v.is_finite()) {
            return Err(SolveError::Diverged {
                iterations,
                residual,
            });
        }
        if residual > params.tol {
            return Err(SolveError::NotConverged {
                iterations,
                residual,
            });
        }
        let level_residuals = mg.level_norms(&r, ws);
        Ok(SolverStats {
            iterations,
            residual,
            matvecs,
            cycles,
            level_residuals,
            preconditioner: Preconditioner::Multigrid,
            precision: Precision::F64,
            refinements: 0,
            assembly_seconds: self.assembly_seconds,
            solve_seconds: t0.elapsed().as_secs_f64(),
            threads: plan.threads(),
            trajectory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use crate::problem::Problem;
    use crate::CgSolver;
    use tsc_rng::Rng64;
    use tsc_units::{HeatTransferCoefficient, Length, Power, Temperature, ThermalConductivity};

    /// A heterogeneous problem with a bottom sink and scattered sources.
    fn hetero(nx: usize, ny: usize, nz: usize, seed: u64) -> Problem {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut p = Problem::uniform_block(
            nx,
            ny,
            nz,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(50.0),
            ThermalConductivity::new(30.0),
        );
        for k in 0..nz {
            p.set_layer_conductivity(
                k,
                ThermalConductivity::new(rng.gen_range_f64(0.5..150.0)),
                ThermalConductivity::new(rng.gen_range_f64(0.5..150.0)),
            );
        }
        p.set_bottom_heatsink(Heatsink::new(
            HeatTransferCoefficient::new(rng.gen_range_f64(1e4..1e6)),
            Temperature::from_celsius(25.0),
        ));
        for _ in 0..4 {
            p.add_power(
                rng.gen_range(0..nx),
                rng.gen_range(0..ny),
                rng.gen_range(0..nz),
                Power::from_watts(rng.gen_range_f64(0.05..2.0)),
            );
        }
        p
    }

    /// `Pᵀ·A·P` exactness: applying the coarsened stencil to a coarse
    /// vector must equal restrict(A(prolong(v))) on the fine grid.
    #[test]
    fn coarse_operator_is_exactly_galerkin() {
        let p = hetero(7, 5, 6, 0x11);
        let asm = Assembled::build(&p).expect("well-posed");
        let mut rng = Rng64::seed_from_u64(0x12);
        for f in [[2, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 2], [2, 1, 2]] {
            let coarse = coarsen(&asm, f);
            let nc = coarse.dim.len();
            let v: Vec<f64> = (0..nc).map(|_| rng.gen_range_f64(-1.0..1.0)).collect();
            // Direct application of the coarse stencil.
            let mut direct = vec![0.0; nc];
            coarse.matvec_range(&v, &mut direct, 0..nc, None);
            // R·A·P applied on the fine grid.
            let nf = asm.dim.len();
            let mut pv = vec![0.0; nf];
            prolong_add(asm.dim, coarse.dim, f, &v, &mut pv);
            let mut apv = vec![0.0; nf];
            asm.matvec_range(&pv, &mut apv, 0..nf, None);
            let mut rap = vec![0.0; nc];
            restrict(asm.dim, coarse.dim, f, &apv, &mut rap);
            for (a, b) in direct.iter().zip(&rap) {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12),
                    "Galerkin mismatch for factors {f:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn semicoarsening_picks_the_strong_direction() {
        // 50 µm layers vs 1 mm lateral pitch: g_z/g_x ≈ 400, so only z
        // may coarsen.
        let p = hetero(6, 6, 6, 0x21);
        let asm = Assembled::build(&p).expect("well-posed");
        assert_eq!(coarsen_factors(&asm), Some([1, 1, 2]));
        // An isotropic cube coarsens every direction.
        let mut iso = Problem::uniform_block(
            4,
            4,
            4,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            ThermalConductivity::new(10.0),
        );
        iso.set_bottom_heatsink(Heatsink::two_phase());
        let asm = Assembled::build(&iso).expect("well-posed");
        assert_eq!(coarsen_factors(&asm), Some([2, 2, 2]));
    }

    #[test]
    fn hierarchy_terminates_at_the_coarse_limit() {
        let p = hetero(8, 8, 12, 0x31);
        let asm = Assembled::build(&p).expect("well-posed");
        let params = MgParams {
            coarse_max: 32,
            ..MgParams::with_exec(1, usize::MAX)
        };
        let mg = MgHierarchy::build(&asm, &params).expect("SPD");
        assert!(mg.levels() > 2, "expected a real multilevel hierarchy");
        let dims = mg.dims();
        for w in dims.windows(2) {
            assert!(w[1].len() < w[0].len(), "levels must strictly shrink");
        }
        assert!(dims.last().expect("nonempty").len() <= 32);
    }

    #[test]
    fn dense_cholesky_matches_cg() {
        let p = hetero(4, 3, 5, 0x41);
        let asm = Assembled::build(&p).expect("well-posed");
        let chol = DenseCholesky::factor(&asm).expect("SPD");
        let n = asm.dim.len();
        let mut direct = vec![0.0; n];
        chol.solve(&asm.rhs, &mut direct);
        let cg = CgSolver::new().with_tolerance(1e-12).solve(&p).expect("cg");
        for (a, b) in direct.iter().zip(cg.temperatures.iter_kelvin()) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs cg {b}");
        }
    }

    #[test]
    fn mg_pcg_matches_jacobi_cg_closely() {
        let p = hetero(10, 8, 9, 0x61);
        let jacobi = CgSolver::new().with_tolerance(1e-10).solve(&p).expect("cg");
        let mg = CgSolver::new()
            .with_tolerance(1e-10)
            .with_preconditioner(Preconditioner::Multigrid)
            .solve(&p)
            .expect("mg-pcg");
        let max_diff = jacobi
            .temperatures
            .iter_kelvin()
            .zip(mg.temperatures.iter_kelvin())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_diff <= 1e-6, "solutions deviate by {max_diff} K");
        assert_eq!(mg.stats.preconditioner, Preconditioner::Multigrid);
        assert!(mg.stats.cycles > 0);
    }

    #[test]
    fn poisoned_rhs_diverges_not_nan() {
        let mut p = hetero(4, 4, 4, 0x71);
        p.add_power(1, 1, 1, Power::from_watts(f64::NAN));
        // NaN power only poisons the RHS; the operator stays SPD, so the
        // failure must surface as Diverged from the iteration, not Ok.
        let result = CgSolver::new()
            .with_preconditioner(Preconditioner::Multigrid)
            .solve(&p);
        match result.unwrap_err() {
            SolveError::Diverged { residual, .. } => assert!(!residual.is_finite()),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    /// Random small heterogeneous stacks (36 to 648 cells). At the
    /// production coarse limit they would all be a single dense level;
    /// [`deep_hierarchy`] forces several.
    fn random_cases(seed: u64, count: usize) -> Vec<Problem> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let (nx, ny, nz) = (
                    rng.gen_range(3..10),
                    rng.gen_range(3..10),
                    rng.gen_range(4..9),
                );
                hetero(nx, ny, nz, rng.next_u64())
            })
            .collect()
    }

    /// A hierarchy that coarsens down to 24 cells, so every random case
    /// cycles through at least two levels.
    fn deep_hierarchy(asm: &Assembled, threads: usize, crossover: usize) -> MgHierarchy {
        let params = MgParams {
            coarse_max: 24,
            ..MgParams::with_exec(threads, crossover)
        };
        MgHierarchy::build(asm, &params).expect("SPD")
    }

    /// MG-PCG over [`deep_hierarchy`] from the assembled initial guess.
    fn deep_mg_pcg(asm: &Assembled, threads: usize, crossover: usize) -> (Vec<f64>, SolverStats) {
        let mg = deep_hierarchy(asm, threads, crossover);
        let mut ws = mg.workspace();
        let params = CgParams {
            tol: 1e-10,
            max_iter: 50_000,
            threads,
            crossover,
            traj_stride: 1,
        };
        let mut x = vec![asm.initial_guess; asm.dim.len()];
        let stats = asm
            .cg_core_mg(&asm.rhs, &mut x, &params, &mg, &mut ws)
            .expect("mg-pcg converges");
        assert!(
            stats.level_residuals.len() >= 2,
            "expected a multilevel hierarchy, got {:?}",
            stats.level_residuals
        );
        (x, stats)
    }

    #[test]
    fn deep_mg_pcg_agrees_with_jacobi_cg() {
        for p in random_cases(0x7001, 10) {
            let asm = Assembled::build(&p).expect("well-posed");
            let reference = CgSolver::new().with_tolerance(1e-10).solve(&p).expect("cg");
            let (x, stats) = deep_mg_pcg(&asm, 1, usize::MAX);
            let dev = x
                .iter()
                .zip(reference.temperatures.iter_kelvin())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            assert!(dev < 1e-6, "MG-PCG deviates from Jacobi-CG by {dev} K");
            assert_eq!(stats.preconditioner, Preconditioner::Multigrid);
            assert!(stats.cycles > 0, "MG-PCG must report its V-cycles");
        }
    }

    /// Every V-cycle, iterated on its own, contracts the residual.
    #[test]
    fn every_v_cycle_contracts_the_residual() {
        for p in random_cases(0x7002, 10) {
            let asm = Assembled::build(&p).expect("well-posed");
            let mg = deep_hierarchy(&asm, 1, usize::MAX);
            let mut ws = mg.workspace();
            let n = asm.dim.len();
            let plan = ExecPlan::new(asm.dim, 1, usize::MAX);
            let b_norm = norm(&asm.rhs);
            let mut x = vec![asm.initial_guess; n];
            let mut ax = vec![0.0; n];
            let mut before = asm.residual_norm(&plan, &x, &asm.rhs, b_norm, &mut ax);
            for cycle in 0..6 {
                mg.v_cycle(&asm, &mut ws, &asm.rhs, &mut x);
                let after = asm.residual_norm(&plan, &x, &asm.rhs, b_norm, &mut ax);
                assert!(
                    after < before,
                    "V-cycle {cycle} failed to contract: {before} -> {after} ({:?})",
                    asm.dim
                );
                before = after;
            }
            let r: Vec<f64> = asm.rhs.iter().zip(&ax).map(|(b, a)| b - a).collect();
            assert!(mg.level_norms(&r, &mut ws).len() >= 2);
        }
    }

    /// Forced-parallel (crossover 0, so even tiny meshes band) and serial
    /// MG-PCG must agree bit for bit through smoothing on every level,
    /// the transfers and the preconditioned CG loop.
    #[test]
    fn forced_parallel_deep_mg_pcg_is_bitwise_identical_to_serial() {
        for p in random_cases(0x7003, 8) {
            let asm = Assembled::build(&p).expect("well-posed");
            let (serial, s_stats) = deep_mg_pcg(&asm, 1, usize::MAX);
            for threads in [3, 4] {
                let (parallel, p_stats) = deep_mg_pcg(&asm, threads, 0);
                assert!(
                    serial
                        .iter()
                        .zip(&parallel)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "MG-PCG not bitwise thread-independent at {threads} threads ({:?})",
                    asm.dim
                );
                assert_eq!(s_stats.iterations, p_stats.iterations);
                assert_eq!(s_stats.cycles, p_stats.cycles);
            }
        }
    }
}
