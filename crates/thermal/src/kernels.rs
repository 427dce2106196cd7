//! Mixed-precision solver kernels: an f32 multigrid-preconditioned CG
//! wrapped in f64 iterative refinement.
//!
//! The stencil solvers are memory-bandwidth-bound, so halving the bytes
//! per cell roughly halves the wall clock — but a raw f32 solve cannot
//! reach the 1e-11 relative tolerance the golden flows pin. The classic
//! fix is iterative refinement: the **outer** loop computes the true
//! residual `r = b − A·x` in f64, normalises it to unit norm (so the
//! inner problem always sits in the well-scaled centre of the f32
//! range), solves the correction equation `A·d ≈ r/‖r‖` entirely in f32
//! with MG-PCG to a loose inner tolerance, and accumulates
//! `x += ‖r‖·d` back in f64. Every convergence decision is made on the
//! f64 residual, so the reported tolerance is honest; each pass
//! contracts the residual by roughly the inner tolerance, so a handful
//! of passes reach 1e-11. If a pass fails to contract (f32 has hit its
//! accuracy floor on a pathological operator) the solve falls back to
//! the pure-f64 multigrid path *continuing from the current iterate*,
//! so the mixed path is never less robust than f64 — only faster.
//!
//! The f32 operator is stored structure-of-arrays ([`OpF32`]) and its
//! matvec is written as branch-free per-row passes the autovectorizer
//! handles well, cache-blocked into j-stripes sized so three slabs of a
//! stripe's working set fit in L2 (the stripe is swept through all z
//! before moving on, so each slab's rows are reused from cache as the
//! `k−1`/`k`/`k+1` neighbour of three consecutive sweeps).
//!
//! Determinism: the inner f32 kernels use the same per-slab ordered
//! reductions and colour-disjoint writes as the f64 path, so the mixed
//! path is also bitwise independent of the thread count — verified by
//! the race-check harness.

use crate::engine::ExecPlan;
use crate::multigrid::{
    coarsen, coarsen_factors_with, prolong_add, restrict, BandedCholesky, Factors, MgHierarchy,
    MgWorkspace, OMEGA, SWEEPS,
};
use crate::solver::{
    norm, ordered_sum, slab_dot_wide_parts, Assembled, CgParams, Precision, Preconditioner,
    SolveError, SolverStats,
};
use std::time::Instant;
use tsc_geometry::Dim3;

/// Outer refinement passes before the solve gives up with
/// [`SolveError::NotConverged`]. Each pass contracts the residual by
/// roughly [`INNER_TOL`], so a healthy solve needs ~3; the budget only
/// exists to bound pathological cases (which stall and fall back to f64
/// long before exhausting it).
const MAX_REFINE: usize = 60;

/// Relative tolerance of the inner f32 correction solve. The *outer*
/// contraction an f32 correction can deliver is floored at roughly
/// `κ(A)·ε_f32` (≈ 1e-2 on the high-contrast production stacks)
/// regardless of how far the inner residual is pushed below it, so the
/// inner solve stops at that floor — solving deeper burns iterations
/// without improving the outer trajectory. The refinement loop simply
/// runs more cheap passes; total inner iterations stay close to what
/// one f64 solve would need.
const INNER_TOL: f64 = 1e-2;

/// Iteration budget of one inner f32 MG-PCG solve. MG-PCG reaches 1e-5
/// in well under 20 iterations on every mesh in the test fleet; the cap
/// converts an inner stall into a prompt f64 fallback.
const INNER_MAX_ITER: usize = 200;

/// An outer pass must contract the f64 residual to at most this factor,
/// or the mixed path is declared stalled and falls back to f64.
const STALL_FACTOR: f64 = 0.25;

/// L2 budget per j-stripe of the blocked matvec, in bytes. Set below
/// typical per-core L2 (512 KiB – 1.25 MiB) to leave room for the
/// neighbouring slabs' stripes that the z-sweep reuses.
const L2_TARGET_BYTES: usize = 256 * 1024;

/// f32 streams touched per cell of the blocked matvec (x and its six
/// neighbour rows alias into three slab stripes: out, x×3, diag, gx,
/// gy×2, gz×2 ≈ 9 rows of 4 bytes).
const STREAM_BYTES_PER_CELL: usize = 9 * 4;

/// Lateral-join threshold of the shadow hierarchy's coarsening rule
/// (the f64 hierarchy uses 0.25). The strict rule semicoarsens z-only
/// through every tier of a 3D stack — grid complexity ≈ 2× the fine
/// mesh. The shadow hierarchy instead coarsens **all** directions at
/// every level (threshold 0), which cuts grid complexity to ≈ 1.15× —
/// affordable only because its smoother is a z-line solve
/// ([`LineZ`]): point smoothers cannot damp the laterally-oscillatory
/// z-smooth modes that full coarsening stops representing, but a line
/// smoother annihilates the entire z-coupled block exactly.
const F32_SEMI_THRESHOLD: f64 = 0.0;

/// Coarsening of the shadow hierarchy stops at or below this many
/// cells (the banded f64 Cholesky takes over).
const F32_COARSE_MAX: usize = 512;

/// Damping of the z-line Jacobi smoother. The line solve absorbs the
/// dominant z coupling exactly, leaving a weakly coupled lateral
/// Jacobi iteration, which is well damped just under 1.
const LINE_OMEGA: f32 = 0.9;

/// Structure-of-arrays f32 copy of one [`Assembled`] operator level.
///
/// Same face-conductance indexing as [`Assembled`] (`gx` is
/// `(nx−1)·ny·nz`, x-major; `gy` is `nx·(ny−1)·nz`; `gz` is
/// `nx·ny·(nz−1)`), plus the precomputed reciprocal diagonal the
/// smoothers multiply by instead of dividing.
#[derive(Debug, Clone)]
pub(crate) struct OpF32 {
    dim: Dim3,
    gx: Vec<f32>,
    gy: Vec<f32>,
    gz: Vec<f32>,
    diag: Vec<f32>,
    inv_diag: Vec<f32>,
    /// j-stripe height of the cache-blocked matvec.
    tile_j: usize,
}

fn narrow(v: &[f64]) -> Vec<f32> {
    v.iter().map(|&x| x as f32).collect()
}

impl OpF32 {
    pub(crate) fn from_assembled(op: &Assembled) -> Self {
        let dim = op.dim;
        let row_bytes = dim.nx * STREAM_BYTES_PER_CELL;
        let tile_j = (L2_TARGET_BYTES / row_bytes.max(1))
            .max(8)
            .min(dim.ny.max(1));
        Self {
            dim,
            gx: narrow(&op.gx),
            gy: narrow(&op.gy),
            gz: narrow(&op.gz),
            diag: narrow(&op.diag),
            inv_diag: op.diag.iter().map(|&d| (1.0 / d) as f32).collect(),
            tile_j,
        }
    }

    /// `out[c − range.start] = (A·x)[c]` for `c` in the slab-aligned
    /// `range`, as stripe-blocked branch-free row passes: for each
    /// j-stripe the sweep runs through all z before the next stripe, so
    /// the three slab-stripes a row reads stay resident in L2, and each
    /// pass is a straight-line zip over `nx` the autovectorizer turns
    /// into packed f32 arithmetic. Each output element is accumulated in
    /// a fixed pass order — deterministic regardless of banding.
    pub(crate) fn matvec_range(&self, x: &[f32], out: &mut [f32], range: std::ops::Range<usize>) {
        let (nx, ny, nz) = (self.dim.nx, self.dim.ny, self.dim.nz);
        let slab = nx * ny;
        debug_assert_eq!(range.start % slab, 0, "bands must be slab-aligned");
        debug_assert_eq!(range.end % slab, 0, "bands must be slab-aligned");
        let (k_lo, k_hi) = (range.start / slab, range.end / slab);
        for jt in (0..ny).step_by(self.tile_j) {
            let j_end = (jt + self.tile_j).min(ny);
            for k in k_lo..k_hi {
                for j in jt..j_end {
                    let row = (k * ny + j) * nx;
                    let or = &mut out[row - range.start..row - range.start + nx];
                    let xr = &x[row..row + nx];
                    let dr = &self.diag[row..row + nx];
                    for ((o, d), xv) in or.iter_mut().zip(dr).zip(xr) {
                        *o = d * xv;
                    }
                    if nx > 1 {
                        let gxr = &self.gx[(k * ny + j) * (nx - 1)..][..nx - 1];
                        for ((o, g), xn) in or[..nx - 1].iter_mut().zip(gxr).zip(&xr[1..]) {
                            *o -= g * xn;
                        }
                        for ((o, g), xp) in or[1..].iter_mut().zip(gxr).zip(xr) {
                            *o -= g * xp;
                        }
                    }
                    if j + 1 < ny {
                        let gyr = &self.gy[(k * (ny - 1) + j) * nx..][..nx];
                        let xn = &x[row + nx..][..nx];
                        for ((o, g), xv) in or.iter_mut().zip(gyr).zip(xn) {
                            *o -= g * xv;
                        }
                    }
                    if j > 0 {
                        let gyr = &self.gy[(k * (ny - 1) + j - 1) * nx..][..nx];
                        let xp = &x[row - nx..][..nx];
                        for ((o, g), xv) in or.iter_mut().zip(gyr).zip(xp) {
                            *o -= g * xv;
                        }
                    }
                    if k + 1 < nz {
                        let gzr = &self.gz[(k * ny + j) * nx..][..nx];
                        let xn = &x[row + slab..][..nx];
                        for ((o, g), xv) in or.iter_mut().zip(gzr).zip(xn) {
                            *o -= g * xv;
                        }
                    }
                    if k > 0 {
                        let gzr = &self.gz[((k - 1) * ny + j) * nx..][..nx];
                        let xp = &x[row - slab..][..nx];
                        for ((o, g), xv) in or.iter_mut().zip(gzr).zip(xp) {
                            *o -= g * xv;
                        }
                    }
                }
            }
        }
    }

    /// f32 red-black relaxation sweep — structurally identical to
    /// [`Assembled::rb_sweep`] (colour-disjoint writes through the
    /// generic [`crate::engine::SharedSlice`]), multiplying by the
    /// precomputed reciprocal diagonal.
    pub(crate) fn rb_sweep(
        &self,
        plan: &ExecPlan,
        x: &mut [f32],
        rhs: &[f32],
        omega: f32,
        colours: [usize; 2],
    ) {
        let (nx, ny, nz) = (self.dim.nx, self.dim.ny, self.dim.nz);
        let slab = nx * ny;
        for colour in colours {
            plan.for_each_shared(x, |range, shared| {
                let (k_lo, k_hi) = (range.start / slab, range.end / slab);
                for k in k_lo..k_hi {
                    for j in 0..ny {
                        let i0 = (colour + j + k) % 2;
                        for i in (i0..nx).step_by(2) {
                            let c = (k * ny + j) * nx + i;
                            // SAFETY: `c` has the active colour inside this
                            // worker's own band (exclusive writer); every
                            // index read below is a stencil neighbour of
                            // `c` and therefore of the *other* colour — no
                            // concurrent pass writes it. Identical
                            // discipline to the f64 sweep.
                            unsafe {
                                let mut sigma = 0.0f32;
                                if i > 0 {
                                    sigma += self.gx[(k * ny + j) * (nx - 1) + i - 1]
                                        * shared.get(c - 1);
                                }
                                if i + 1 < nx {
                                    sigma +=
                                        self.gx[(k * ny + j) * (nx - 1) + i] * shared.get(c + 1);
                                }
                                if j > 0 {
                                    sigma += self.gy[(k * (ny - 1) + j - 1) * nx + i]
                                        * shared.get(c - nx);
                                }
                                if j + 1 < ny {
                                    sigma +=
                                        self.gy[(k * (ny - 1) + j) * nx + i] * shared.get(c + nx);
                                }
                                if k > 0 {
                                    sigma +=
                                        self.gz[((k - 1) * ny + j) * nx + i] * shared.get(c - slab);
                                }
                                if k + 1 < nz {
                                    sigma += self.gz[(k * ny + j) * nx + i] * shared.get(c + slab);
                                }
                                let old = shared.get(c);
                                let gs = (rhs[c] + sigma) * self.inv_diag[c];
                                shared.set(c, old + omega * (gs - old));
                            }
                        }
                    }
                }
            });
        }
    }
}

/// Thomas factorization of one level's z-line tridiagonal part: for
/// every (i, j) column, the tridiagonal matrix with the operator's full
/// diagonal on the diagonal and `−gz` on the off-diagonals. All
/// `nx·ny` columns share the same elimination recurrence, so both the
/// factorization and the solve run as straight slab-wise vector passes
/// (a "vectorized Thomas" over the lateral plane) instead of per-column
/// scalar loops.
///
/// `w[c] = 1 / (diag[c] − gz[c−slab]·c[c−slab])` is the reciprocal
/// pivot and `c[c] = gz[c]·w[c]` the elimination multiplier (zero on
/// the last slab).
#[derive(Debug, Clone)]
struct LineZ {
    w: Vec<f32>,
    c: Vec<f32>,
}

impl LineZ {
    fn factor(op: &OpF32) -> Self {
        let (slab, nz) = (op.dim.nx * op.dim.ny, op.dim.nz);
        let n = slab * nz;
        let mut w = vec![0.0f32; n];
        let mut c = vec![0.0f32; n];
        for k in 0..nz {
            for s in 0..slab {
                let idx = k * slab + s;
                let denom = if k == 0 {
                    op.diag[idx]
                } else {
                    op.diag[idx] - op.gz[idx - slab] * c[idx - slab]
                };
                w[idx] = 1.0 / denom;
                if k + 1 < nz {
                    c[idx] = op.gz[idx] * w[idx];
                }
            }
        }
        Self { w, c }
    }

    /// `d = T⁻¹·r` for the factored tridiagonal `T`, as slab-wise
    /// forward substitution then back substitution. Serial over slabs
    /// (the recurrence runs along z, the banding direction), so the
    /// result is trivially thread-count independent; each pass is a
    /// straight zip the autovectorizer packs.
    fn solve(&self, dim: Dim3, gz: &[f32], r: &[f32], d: &mut [f32]) {
        let (slab, nz) = (dim.nx * dim.ny, dim.nz);
        for ((dv, rv), wv) in d[..slab].iter_mut().zip(&r[..slab]).zip(&self.w[..slab]) {
            *dv = rv * wv;
        }
        for k in 1..nz {
            let (prev, cur) = d.split_at_mut(k * slab);
            let prev = &prev[(k - 1) * slab..];
            let cur = &mut cur[..slab];
            let row = k * slab..(k + 1) * slab;
            let gzr = &gz[(k - 1) * slab..k * slab];
            for ((((dv, pv), gv), rv), wv) in cur
                .iter_mut()
                .zip(prev)
                .zip(gzr)
                .zip(&r[row.clone()])
                .zip(&self.w[row])
            {
                *dv = (rv + gv * pv) * wv;
            }
        }
        for k in (0..nz.saturating_sub(1)).rev() {
            let (cur, next) = d.split_at_mut((k + 1) * slab);
            let cur = &mut cur[k * slab..];
            let next = &next[..slab];
            for ((dv, nv), cv) in cur
                .iter_mut()
                .zip(next)
                .zip(&self.c[k * slab..(k + 1) * slab])
            {
                *dv += cv * nv;
            }
        }
    }
}

/// Per-level f32 scratch of one inner V-cycle.
#[derive(Debug, Clone)]
struct LevelBufs32 {
    x: Vec<f32>,
    b: Vec<f32>,
    r: Vec<f32>,
    d: Vec<f32>,
}

/// Reusable scratch for the inner f32 MG-PCG: per-level V-cycle
/// buffers, the f64 scratch of the (f64) coarsest direct solve, and the
/// finest-level CG vectors.
#[derive(Debug, Clone)]
pub(crate) struct WorkspaceF32 {
    r0: Vec<f32>,
    d0: Vec<f32>,
    tail: Vec<LevelBufs32>,
    coarse: Vec<f64>,
    cg_r: Vec<f32>,
    cg_z: Vec<f32>,
    cg_p: Vec<f32>,
    cg_ap: Vec<f32>,
}

/// The f32 shadow of an [`MgHierarchy`]: every level's operator
/// narrowed to [`OpF32`], sharing the f64 hierarchy's coarsening
/// decisions, execution plans and (still f64) coarsest-level banded
/// Cholesky factor — the direct solve is a negligible fraction of the
/// cycle, and keeping it in f64 costs nothing while anchoring the
/// cycle's coarse corrections.
#[derive(Debug)]
pub(crate) struct HierarchyF32 {
    ops: Vec<OpF32>,
    dims: Vec<Dim3>,
    factors: Vec<Factors>,
    plans: Vec<ExecPlan>,
    chol: BandedCholesky,
    smoother: SmootherF32,
    line: Vec<LineZ>,
}

/// Smoothers of the shadow hierarchy. The aggressive fully-coarsened
/// chain always smooths with [`LineZ`] (see [`F32_SEMI_THRESHOLD`]);
/// red-black exists for the mirror fallback, which reuses the f64
/// hierarchy's semicoarsened chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmootherF32 {
    RedBlack,
    LineZ,
}

impl HierarchyF32 {
    /// Builds the f32 shadow of an f64 hierarchy with its **own, fully
    /// coarsened chain** ([`F32_SEMI_THRESHOLD`]) smoothed by z-line
    /// Jacobi: the inner cycle is only a preconditioner, so it may
    /// trade spectral detail for a much cheaper grid complexity — a
    /// weaker cycle merely costs inner CG iterations (and a genuinely
    /// stalled pass falls back to f64). The line smoother is what makes
    /// full coarsening affordable on the anisotropic stacks; the
    /// red-black point smoother only governs the f64 hierarchy.
    /// Coarse-level execution plans are serial: those grids are small,
    /// and a fixed serial schedule is trivially thread-count
    /// independent. If the chain's coarsest operator fails the Cholesky
    /// SPD check (it cannot, mathematically — Galerkin aggregation of an
    /// SPD operator is SPD — but poisoned conductances could), the
    /// shadow falls back to mirroring `mg`'s already-factored levels
    /// with red-black smoothing.
    pub(crate) fn build(fine: &Assembled, mg: &MgHierarchy) -> Self {
        let mut dims = vec![fine.dim()];
        let mut factors: Vec<Factors> = Vec::new();
        let mut chain: Vec<Assembled> = Vec::new();
        loop {
            let cur = chain.last().unwrap_or(fine);
            if cur.dim().len() <= F32_COARSE_MAX {
                break;
            }
            let Some(f) = coarsen_factors_with(cur, F32_SEMI_THRESHOLD) else {
                break;
            };
            let coarse = coarsen(cur, f);
            dims.push(coarse.dim());
            factors.push(f);
            chain.push(coarse);
        }
        let Ok(chol) = BandedCholesky::factor(chain.last().unwrap_or(fine)) else {
            return Self::mirror(fine, mg);
        };
        let levels = || std::iter::once(fine).chain(chain.iter());
        let plans = dims
            .iter()
            .enumerate()
            .map(|(l, &d)| {
                if l == 0 {
                    mg.plans()[0].clone()
                } else {
                    ExecPlan::new(d, 1, usize::MAX)
                }
            })
            .collect();
        let ops: Vec<OpF32> = levels().map(OpF32::from_assembled).collect();
        let line = ops.iter().map(LineZ::factor).collect();
        Self {
            ops,
            dims,
            factors,
            plans,
            chol,
            smoother: SmootherF32::LineZ,
            line,
        }
    }

    /// The historical shadow construction: narrow `mg`'s own levels and
    /// clone its factored coarse solve — the fallback when the
    /// aggressive chain cannot be factored.
    fn mirror(fine: &Assembled, mg: &MgHierarchy) -> Self {
        let ops = (0..mg.levels())
            .map(|l| OpF32::from_assembled(mg.op(fine, l)))
            .collect();
        Self {
            ops,
            dims: mg.dims().to_vec(),
            factors: mg.factors().to_vec(),
            plans: mg.plans().to_vec(),
            chol: mg.chol().clone(),
            smoother: SmootherF32::RedBlack,
            line: Vec::new(),
        }
    }

    /// Fresh scratch sized for this hierarchy.
    pub(crate) fn workspace(&self) -> WorkspaceF32 {
        let n0 = self.dims[0].len();
        let nc = self.dims[self.dims.len() - 1].len();
        WorkspaceF32 {
            r0: vec![0.0; n0],
            d0: vec![0.0; n0],
            tail: self.dims[1..]
                .iter()
                .map(|d| LevelBufs32 {
                    x: vec![0.0; d.len()],
                    b: vec![0.0; d.len()],
                    r: vec![0.0; d.len()],
                    d: vec![0.0; d.len()],
                })
                .collect(),
            coarse: vec![0.0; nc],
            cg_r: vec![0.0; n0],
            cg_z: vec![0.0; n0],
            cg_p: vec![0.0; n0],
            cg_ap: vec![0.0; n0],
        }
    }

    /// [`SWEEPS`] smoothing passes at one level; `colours` orders the
    /// red-black passes and is irrelevant to the line smoother.
    fn smooth(
        &self,
        level: usize,
        b: &[f32],
        x: &mut [f32],
        r: &mut [f32],
        d: &mut [f32],
        colours: [usize; 2],
    ) {
        let op = &self.ops[level];
        let plan = &self.plans[level];
        match self.smoother {
            SmootherF32::RedBlack => {
                for _ in 0..SWEEPS {
                    op.rb_sweep(plan, x, b, OMEGA as f32, colours);
                }
            }
            SmootherF32::LineZ => {
                let line = &self.line[level];
                for _ in 0..SWEEPS {
                    plan.map_mut(r, |range, chunk| {
                        op.matvec_range(x, chunk, range.clone());
                        for (o, bv) in chunk.iter_mut().zip(&b[range]) {
                            *o = bv - *o;
                        }
                    });
                    line.solve(self.dims[level], &op.gz, r, d);
                    plan.map_mut(x, |range, chunk| {
                        for (o, dv) in chunk.iter_mut().zip(&d[range]) {
                            *o += LINE_OMEGA * dv;
                        }
                    });
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn cycle(
        &self,
        level: usize,
        b: &[f32],
        x: &mut [f32],
        r: &mut [f32],
        d: &mut [f32],
        tail: &mut [LevelBufs32],
        coarse: &mut [f64],
    ) {
        if level + 1 == self.dims.len() {
            self.chol.solve(b, x, coarse, |v| v as f32);
            return;
        }
        let op = &self.ops[level];
        let plan = &self.plans[level];
        self.smooth(level, b, x, r, d, [0, 1]);
        plan.map_mut(r, |range, chunk| {
            op.matvec_range(x, chunk, range.clone());
            for (o, bv) in chunk.iter_mut().zip(&b[range]) {
                *o = bv - *o;
            }
        });
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
        let LevelBufs32 {
            x: cx,
            b: cb,
            r: cr,
            d: cd,
        } = next;
        self.cycle(level + 1, cb, cx, cr, cd, rest, coarse);
        prolong_add(
            self.dims[level],
            self.dims[level + 1],
            self.factors[level],
            cx,
            x,
        );
        self.smooth(level, b, x, r, d, [1, 0]);
    }

    /// Inner f32 MG-PCG on `A·x = b`, starting from `x = 0`, run to
    /// [`INNER_TOL`] relative. All dot products accumulate in f64 over
    /// the per-slab ordered partials, so the iteration is bitwise
    /// thread-count independent like the f64 path. Returns
    /// `(iterations, matvecs, cycles, converged-and-finite)` — the
    /// caller treats `false` as a signal to fall back to f64, never as
    /// an error.
    pub(crate) fn solve_correction(
        &self,
        ws: &mut WorkspaceF32,
        b: &[f32],
        x: &mut [f32],
    ) -> (usize, usize, usize, bool) {
        let op = &self.ops[0];
        let plan = &self.plans[0];
        let slab = self.dims[0].nx * self.dims[0].ny;
        let WorkspaceF32 {
            r0,
            d0,
            tail,
            coarse,
            cg_r,
            cg_z,
            cg_p,
            cg_ap,
        } = ws;

        x.fill(0.0);
        cg_r.copy_from_slice(b);
        // The caller hands over `b = r/‖r‖` scaled to unit f64 norm, so
        // the narrowed ‖b‖ is 1 up to f32 rounding — close enough for a
        // 1e-2 inner tolerance check, and skipping the reduction saves a
        // full pass per refinement. A non-finite b still trips the
        // p_ap/residual guards below.
        let b_norm = 1.0f64;
        let mut residual = 1.0f64;
        let mut iterations = 0_usize;
        let mut matvecs = 0_usize;
        let mut cycles = 0_usize;

        cg_z.fill(0.0);
        self.cycle(0, cg_r, cg_z, r0, d0, tail, coarse);
        cycles += 1;
        cg_p.copy_from_slice(cg_z);
        let mut rz = cg_r
            .iter()
            .zip(cg_z.iter())
            .map(|(&r, &z)| f64::from(r) * f64::from(z))
            .sum::<f64>();

        while residual > INNER_TOL && residual.is_finite() && iterations < INNER_MAX_ITER {
            let parts = plan.map_mut(cg_ap, |range, chunk| {
                op.matvec_range(cg_p, chunk, range.clone());
                slab_dot_wide_parts(&cg_p[range], chunk, slab)
            });
            matvecs += 1;
            let p_ap = ordered_sum(parts.into_iter().flatten());
            if p_ap <= 0.0 || !p_ap.is_finite() {
                return (iterations, matvecs, cycles, false);
            }
            let alpha = rz / p_ap;
            let alpha32 = alpha as f32;
            let parts = plan.map2_mut(x, cg_r, |range, xs, rs| {
                for (xv, p) in xs.iter_mut().zip(&cg_p[range.clone()]) {
                    *xv += alpha32 * p;
                }
                for (rv, av) in rs.iter_mut().zip(&cg_ap[range]) {
                    *rv -= alpha32 * av;
                }
                slab_dot_wide_parts(rs, rs, slab)
            });
            let rr = ordered_sum(parts.into_iter().flatten());
            residual = rr.sqrt() / b_norm;
            iterations += 1;
            if residual <= INNER_TOL || !residual.is_finite() {
                break;
            }
            cg_z.fill(0.0);
            self.cycle(0, cg_r, cg_z, r0, d0, tail, coarse);
            cycles += 1;
            let rz_new = cg_r
                .iter()
                .zip(cg_z.iter())
                .map(|(&r, &z)| f64::from(r) * f64::from(z))
                .sum::<f64>();
            let beta = rz_new / rz;
            rz = rz_new;
            let beta32 = beta as f32;
            plan.map_mut(cg_p, |range, chunk| {
                for (o, zv) in chunk.iter_mut().zip(&cg_z[range]) {
                    *o = zv + beta32 * *o;
                }
            });
        }

        let ok = residual.is_finite() && residual <= INNER_TOL && x.iter().all(|v| v.is_finite());
        (iterations, matvecs, cycles, ok)
    }
}

impl Assembled {
    /// Mixed-precision solve of `A·x = rhs` to `params.tol` relative:
    /// f64 iterative refinement (see the module docs) around
    /// [`HierarchyF32::solve_correction`]. Falls back to
    /// [`Assembled::cg_core_mg`] from the current iterate when an outer
    /// pass stalls, so the error contract is exactly the f64 solver's.
    #[allow(clippy::too_many_arguments)] // internal kernel, wrapped by SolveContext
    pub(crate) fn cg_core_mixed(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        params: &CgParams,
        mg: &MgHierarchy,
        ws: &mut MgWorkspace,
        h32: &HierarchyF32,
        ws32: &mut WorkspaceF32,
    ) -> Result<SolverStats, SolveError> {
        // tsc-analyze: allow(no-wallclock-numeric): feeds SolverStats wall-time only, never the numerics
        let t0 = Instant::now();
        let n = self.dim.len();
        debug_assert_eq!(rhs.len(), n);
        debug_assert_eq!(x.len(), n);
        #[cfg(feature = "fault-inject")]
        let max_refine = {
            crate::fault::begin_solve();
            crate::fault::poison_field(x);
            crate::fault::truncated_budget(MAX_REFINE)
        };
        #[cfg(not(feature = "fault-inject"))]
        let max_refine = MAX_REFINE;
        let plan = ExecPlan::new(self.dim, params.threads, params.crossover);
        let b_norm = norm(rhs).max(f64::MIN_POSITIVE);

        let mut r = vec![0.0; n];
        let mut ax = vec![0.0; n];
        let mut r32 = vec![0.0f32; n];
        let mut d32 = vec![0.0f32; n];
        let mut matvecs = 0_usize;
        let mut cycles = 0_usize;
        let mut inner_iterations = 0_usize;
        let mut refinements = 0_usize;
        let mut stalled = false;

        let mut residual = self.residual_norm(&plan, x, rhs, b_norm, &mut ax);
        matvecs += 1;
        let mut trajectory = vec![(0, residual)];

        while residual > params.tol && residual.is_finite() && refinements < max_refine {
            for ((rv, bv), av) in r.iter_mut().zip(rhs).zip(&ax) {
                *rv = bv - av;
            }
            // ‖r‖ from the already-reduced relative residual; the scaling
            // puts the inner right-hand side at unit norm, dead centre of
            // the f32 dynamic range whatever the outer residual magnitude.
            let r_norm = residual * b_norm;
            let scale = 1.0 / r_norm;
            for (s, rv) in r32.iter_mut().zip(&r) {
                *s = (rv * scale) as f32;
            }
            let (it32, mv32, cy32, ok) = h32.solve_correction(ws32, &r32, &mut d32);
            inner_iterations += it32;
            matvecs += mv32;
            cycles += cy32;
            if !ok {
                stalled = true;
                break;
            }
            plan.map_mut(x, |range, chunk| {
                for (o, dv) in chunk.iter_mut().zip(&d32[range]) {
                    *o += r_norm * f64::from(*dv);
                }
            });
            refinements += 1;
            let previous = residual;
            residual = self.residual_norm(&plan, x, rhs, b_norm, &mut ax);
            matvecs += 1;
            #[cfg(feature = "fault-inject")]
            {
                residual = crate::fault::corrupt_residual(refinements, residual);
            }
            trajectory.push((refinements, residual));
            if residual.is_finite() && residual > params.tol && residual > previous * STALL_FACTOR {
                stalled = true;
                break;
            }
        }

        if stalled {
            // f32 hit its accuracy floor (or an inner solve failed):
            // finish in pure f64 from the current iterate. Robustness is
            // therefore never worse than the f64 path — only the speed
            // advantage is lost.
            let mut fb = self.cg_core_mg(rhs, x, params, mg, ws)?;
            fb.precision = Precision::Mixed;
            fb.refinements = refinements;
            fb.iterations += inner_iterations;
            fb.matvecs += matvecs;
            fb.cycles += cycles;
            fb.solve_seconds = t0.elapsed().as_secs_f64();
            let mut merged = trajectory;
            merged.extend(
                fb.trajectory
                    .iter()
                    .filter(|&&(it, _)| it > 0)
                    .map(|&(it, res)| (it + refinements, res)),
            );
            fb.trajectory = merged;
            return Ok(fb);
        }

        if !residual.is_finite() || !x.iter().all(|v| v.is_finite()) {
            return Err(SolveError::Diverged {
                iterations: refinements,
                residual,
            });
        }
        if residual > params.tol {
            return Err(SolveError::NotConverged {
                iterations: refinements,
                residual,
            });
        }
        for ((rv, bv), av) in r.iter_mut().zip(rhs).zip(&ax) {
            *rv = bv - av;
        }
        let level_residuals = mg.level_norms(&r, ws);
        Ok(SolverStats {
            iterations: inner_iterations,
            residual,
            matvecs,
            cycles,
            level_residuals,
            preconditioner: Preconditioner::Multigrid,
            precision: Precision::Mixed,
            refinements,
            assembly_seconds: self.assembly_seconds,
            setup_seconds: 0.0,
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
    use crate::multigrid::MgParams;
    use crate::problem::Problem;
    use tsc_units::{HeatFlux, Length, ThermalConductivity};

    fn test_problem(nx: usize, ny: usize, nz: usize) -> Problem {
        let mut p = Problem::uniform_block(
            nx,
            ny,
            nz,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(50.0),
            ThermalConductivity::new(120.0),
        );
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_uniform_top_flux(HeatFlux::from_watts_per_square_cm(150.0));
        p
    }

    fn mixed_solve(p: &Problem, tol: f64) -> (Vec<f64>, SolverStats) {
        let asm = Assembled::build(p).expect("assembly");
        let params = CgParams {
            tol,
            max_iter: 50_000,
            threads: 1,
            crossover: usize::MAX,
            traj_stride: 1,
        };
        let mg = MgHierarchy::build(&asm, &MgParams::with_exec(1, usize::MAX)).expect("hierarchy");
        let mut ws = mg.workspace();
        let h32 = HierarchyF32::build(&asm, &mg);
        let mut ws32 = h32.workspace();
        let mut x = vec![asm.initial_guess; asm.dim.len()];
        let stats = asm
            .cg_core_mixed(&asm.rhs, &mut x, &params, &mg, &mut ws, &h32, &mut ws32)
            .expect("mixed solve");
        (x, stats)
    }

    #[test]
    fn line_z_solve_inverts_the_tridiagonal_part() {
        // d = T⁻¹·r must satisfy T·d = r, where T couples each (i, j)
        // column along z with the operator's full diagonal and −gz
        // off-diagonals.
        let p = test_problem(5, 4, 7);
        let asm = Assembled::build(&p).expect("assembly");
        let op = OpF32::from_assembled(&asm);
        let line = LineZ::factor(&op);
        let (nx, ny, nz) = (asm.dim.nx, asm.dim.ny, asm.dim.nz);
        let slab = nx * ny;
        let n = asm.dim.len();
        let r: Vec<f32> = (0..n)
            .map(|i| ((i * 31 % 53) as f32) / 53.0 - 0.4)
            .collect();
        let mut d = vec![0.0f32; n];
        line.solve(asm.dim, &op.gz, &r, &mut d);
        for c in 0..n {
            let k = c / slab;
            let mut td = f64::from(op.diag[c]) * f64::from(d[c]);
            if k > 0 {
                td -= f64::from(op.gz[c - slab]) * f64::from(d[c - slab]);
            }
            if k + 1 < nz {
                td -= f64::from(op.gz[c]) * f64::from(d[c + slab]);
            }
            let rv = f64::from(r[c]);
            assert!(
                (td - rv).abs() <= 1e-4 * f64::from(op.diag[c]).max(1.0),
                "cell {c}: T·d = {td} vs r = {rv}"
            );
        }
    }

    #[test]
    fn shadow_hierarchy_uses_the_fully_coarsened_chain() {
        // The aggressive chain must coarsen laterally from the very
        // first level (the line smoother makes that affordable) and be
        // paired with a line factorization per level.
        let p = test_problem(16, 16, 13);
        let asm = Assembled::build(&p).expect("assembly");
        let mg = MgHierarchy::build(&asm, &MgParams::with_exec(1, usize::MAX)).expect("hierarchy");
        let h32 = HierarchyF32::build(&asm, &mg);
        assert!(h32.dims.len() >= 2, "expected a multi-level chain");
        assert!(
            h32.dims[1].nx < h32.dims[0].nx && h32.dims[1].nz < h32.dims[0].nz,
            "first coarsening must be in all directions: {:?}",
            h32.dims
        );
        assert_eq!(h32.line.len(), h32.ops.len());
        assert_eq!(h32.smoother, SmootherF32::LineZ);
    }

    #[test]
    fn f32_matvec_matches_f64_to_single_precision() {
        let p = test_problem(7, 5, 6);
        let asm = Assembled::build(&p).expect("assembly");
        let op = OpF32::from_assembled(&asm);
        let n = asm.dim.len();
        let x64: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 101) as f64) / 101.0 - 0.5)
            .collect();
        let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        let mut y64 = vec![0.0; n];
        asm.matvec_range(&x64, &mut y64, 0..n);
        let mut y32 = vec![0.0f32; n];
        op.matvec_range(&x32, &mut y32, 0..n);
        let scale = asm.diag.iter().cloned().fold(0.0f64, f64::max);
        for (c, (&a, &b)) in y64.iter().zip(&y32).enumerate() {
            assert!(
                (a - f64::from(b)).abs() <= 1e-5 * scale,
                "cell {c}: f64 {a} vs f32 {b}"
            );
        }
    }

    #[test]
    fn blocked_matvec_is_banding_invariant() {
        // The stripe-blocked f32 matvec must produce identical bits for
        // any slab-aligned banding of the same field.
        let p = test_problem(6, 9, 8);
        let asm = Assembled::build(&p).expect("assembly");
        let op = OpF32::from_assembled(&asm);
        let n = asm.dim.len();
        let slab = asm.dim.nx * asm.dim.ny;
        let x: Vec<f32> = (0..n).map(|i| ((i * 13 % 29) as f32) / 29.0).collect();
        let mut whole = vec![0.0f32; n];
        op.matvec_range(&x, &mut whole, 0..n);
        let mut banded = vec![0.0f32; n];
        let mid = (asm.dim.nz / 2) * slab;
        op.matvec_range(&x, &mut banded[..mid], 0..mid);
        op.matvec_range(&x, &mut banded[mid..], mid..n);
        assert_eq!(whole, banded);
    }

    #[test]
    fn mixed_reaches_f64_tolerance() {
        let p = test_problem(12, 10, 9);
        let tol = 1e-11;
        let (x, stats) = mixed_solve(&p, tol);
        assert!(stats.residual <= tol, "residual {}", stats.residual);
        assert_eq!(stats.precision, Precision::Mixed);
        assert!(stats.refinements >= 1, "expected refinement passes");
        assert!(x.iter().all(|v| v.is_finite()));
        // Cross-check against the pure-f64 solver.
        let sol = crate::solver::CgSolver::new()
            .with_preconditioner(Preconditioner::Multigrid)
            .with_tolerance(tol)
            .solve(&p)
            .expect("f64 solve");
        let y = sol.temperatures.as_kelvin().as_slice();
        let max_dev = x
            .iter()
            .zip(y)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-8, "mixed vs f64 deviation {max_dev} K");
    }

    #[test]
    fn mixed_stats_count_refinements_and_work() {
        let p = test_problem(10, 10, 6);
        let (_, stats) = mixed_solve(&p, 1e-11);
        assert!(stats.iterations > 0, "inner iterations recorded");
        assert!(stats.matvecs > stats.refinements);
        assert!(stats.cycles > 0);
        assert_eq!(
            stats.trajectory.first().map(|&(it, _)| it),
            Some(0),
            "trajectory starts at the initial residual"
        );
        let indices: Vec<usize> = stats.trajectory.iter().map(|&(it, _)| it).collect();
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "trajectory indices must be strictly increasing: {indices:?}"
        );
    }
}
