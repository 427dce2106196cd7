//! Exact affine superposition of solutions that share one operator.
//!
//! The steady-state system is linear: `A·T = P + b`, where the operator
//! `A` and the boundary term `b` are fixed by geometry, materials and
//! heatsinks, and `P` is the staged power vector.  Given two solves
//! `A·T_a = P_a + b` and `A·T_b = P_b + b`, any blended load
//! `P = (1−α)·P_a + α·P_b` is solved *exactly* by
//! `T = (1−α)·T_a + α·T_b` — the constant boundary term blends to
//! itself, so superposition holds for the affine (not just linear)
//! combination.
//!
//! [`affine_family`] detects when a family of power vectors lies on one
//! such line.  Utilization sweeps over a fixed design do by
//! construction: per-class power density is affine in utilization
//! (`nominal · (leak + (1−leak)·u·f)`), so every cell's power is
//! `p(u) = c₀ + c₁·u` and the whole vector moves along one direction as
//! `u` varies.  [`blend_solutions`] then materialises the interpolated
//! solutions without touching the solver — two anchor solves price an
//! arbitrarily long sweep.
//!
//! Membership is *verified elementwise*, never assumed: a vector that
//! strays from the fitted line by more than ~1e−9 of the family's power
//! scale (float-rounding headroom above the ~1e−15 error of evaluating
//! the affine density model itself) rejects the whole family, and
//! callers fall back to per-item solves.  Fits are also restricted to
//! interpolation (`α ∈ [0, 1]`), so blending never amplifies anchor
//! solver error.

use crate::analysis::EnergyBalance;
use crate::field::TemperatureField;
use crate::solver::Solution;
use tsc_geometry::Grid3;
use tsc_units::Power;

/// Relative elementwise tolerance for family membership.
const MEMBERSHIP_RTOL: f64 = 1e-9;

/// Slack on the `α ∈ [0, 1]` interpolation check, covering rounding in
/// the least-squares fit of an exact member.
const ALPHA_SLACK: f64 = 1e-6;

/// A family of power vectors on the line between two anchors.
#[derive(Debug, Clone)]
pub struct AffineFamily {
    /// Index of the low anchor (smallest total power).
    pub anchor_low: usize,
    /// Index of the high anchor (largest total power).
    pub anchor_high: usize,
    /// Per-member blend coordinate: member `i` equals
    /// `(1−α_i)·powers[anchor_low] + α_i·powers[anchor_high]` within
    /// [`affine_family`]'s verification tolerance.  `alphas[anchor_low]`
    /// is 0 and `alphas[anchor_high]` is 1 (up to fit rounding).
    pub alphas: Vec<f64>,
}

/// Detects whether `powers` all lie on the segment between its two
/// total-power extremes.
///
/// Returns `None` — caller should solve each member directly — when the
/// family has fewer than 3 members (nothing to amortise), mixes vector
/// lengths, is degenerate (all members coincide), or any member strays
/// from the fitted line beyond [`MEMBERSHIP_RTOL`] of the family's
/// largest |power|.  Anchors are chosen at the extremes so every
/// verified coordinate is an interpolation, `α ∈ [0, 1]`.
#[must_use]
pub fn affine_family(powers: &[Vec<f64>]) -> Option<AffineFamily> {
    if powers.len() < 3 {
        return None;
    }
    let len = powers[0].len();
    if len == 0 || powers.iter().any(|p| p.len() != len) {
        return None;
    }

    let totals: Vec<f64> = powers.iter().map(|p| p.iter().sum()).collect();
    if totals.iter().any(|t| !t.is_finite()) {
        return None;
    }
    let (anchor_low, _) = totals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))?;
    let (anchor_high, _) = totals
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))?;

    let scale = powers
        .iter()
        .flat_map(|p| p.iter())
        .fold(0.0_f64, |m, v| m.max(v.abs()));
    // tsc-analyze: allow(float-eq): a fold of abs() values is exactly 0.0
    // only when every power entry is exactly zero — the all-zero family
    // has no line to fit and must be rejected before dividing by scale.
    if scale == 0.0 {
        return None;
    }
    let low = &powers[anchor_low];
    let high = &powers[anchor_high];
    let dd: f64 = low.iter().zip(high).map(|(a, b)| (b - a) * (b - a)).sum();
    // All members coincide (or differ below verification resolution):
    // no line to fit, and direct solves converge instantly anyway.
    if dd.sqrt() <= MEMBERSHIP_RTOL * scale {
        return None;
    }

    let tol = MEMBERSHIP_RTOL * scale;
    let mut alphas = Vec::with_capacity(powers.len());
    for member in powers {
        // Least-squares projection onto the anchor direction…
        let dot: f64 = member
            .iter()
            .zip(low)
            .zip(high)
            .map(|((m, a), b)| (m - a) * (b - a))
            .sum();
        let alpha = dot / dd;
        if !((-ALPHA_SLACK)..=1.0 + ALPHA_SLACK).contains(&alpha) {
            return None;
        }
        // …then an exact elementwise residual check: membership is
        // verified, not trusted.
        for ((m, a), b) in member.iter().zip(low).zip(high) {
            if (m - (a + alpha * (b - a))).abs() > tol {
                return None;
            }
        }
        alphas.push(alpha.clamp(0.0, 1.0));
    }
    Some(AffineFamily {
        anchor_low,
        anchor_high,
        alphas,
    })
}

/// Blends two solutions of the *same operator* as
/// `(1−alpha)·low + alpha·high`.
///
/// Exact by superposition when the corresponding power vectors blend
/// with the same coordinate (see the module docs); use
/// [`affine_family`] to establish that precondition.  The returned
/// stats record zero iterations/matvecs — the blend does no solver
/// work — and carry the worse of the two anchor residuals, which bounds
/// the blend's own relative residual for `alpha ∈ [0, 1]`.
///
/// # Panics
///
/// Panics if the two temperature fields have different mesh dimensions:
/// that means the operators differ and superposition is meaningless.
#[must_use]
pub fn blend_solutions(low: &Solution, high: &Solution, alpha: f64) -> Solution {
    assert_eq!(
        low.temperatures.dim(),
        high.temperatures.dim(),
        "blend_solutions requires both anchors on the same mesh"
    );
    let beta = 1.0 - alpha;

    let mut kelvin = Grid3::filled(low.temperatures.dim(), 0.0_f64);
    for ((out, a), b) in kelvin
        .as_mut_slice()
        .iter_mut()
        .zip(low.temperatures.iter_kelvin())
        .zip(high.temperatures.iter_kelvin())
    {
        *out = beta * a + alpha * b;
    }

    let energy = EnergyBalance {
        injected: Power::from_watts(
            beta * low.energy.injected.watts() + alpha * high.energy.injected.watts(),
        ),
        extracted: Power::from_watts(
            beta * low.energy.extracted.watts() + alpha * high.energy.extracted.watts(),
        ),
    };

    // Zero-work observability record: the blend ran no iterations, and
    // its residual is bounded by the anchors' (convexity for α∈[0,1]).
    let mut stats = high.stats.clone();
    stats.iterations = 0;
    stats.matvecs = 0;
    stats.cycles = 0;
    stats.refinements = 0;
    stats.level_residuals = Vec::new();
    stats.trajectory = Vec::new();
    stats.assembly_seconds = 0.0;
    stats.setup_seconds = 0.0;
    stats.solve_seconds = 0.0;
    stats.residual = low.stats.residual.max(high.stats.residual);

    Solution {
        temperatures: TemperatureField::from_kelvin(kelvin),
        stats,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::solver::CgSolver;
    use crate::Heatsink;
    use tsc_units::{Length, ThermalConductivity};

    fn base_problem() -> Problem {
        let mut p = Problem::uniform_block(
            8,
            8,
            6,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(60.0),
            ThermalConductivity::new(120.0),
        );
        p.set_bottom_heatsink(Heatsink::two_phase());
        p
    }

    /// A power vector affine in a scalar `u`: `p(u) = base + u · slope`,
    /// with spatial structure so the fit is not trivially uniform.
    fn painted(u: f64) -> Vec<f64> {
        let dim = base_problem().dim();
        (0..dim.len())
            .map(|flat| {
                let cell = flat as f64;
                1e-4 * (1.0 + (cell % 7.0)) + u * 3e-4 * (1.0 + (cell % 5.0))
            })
            .collect()
    }

    fn solve_with_power(power: &[f64]) -> Solution {
        let mut p = base_problem();
        p.clear_power();
        for (flat, watts) in power.iter().enumerate() {
            let idx = p.dim().unflat(flat);
            p.add_power(idx.i, idx.j, idx.k, Power::from_watts(*watts));
        }
        CgSolver::new()
            .with_tolerance(1e-12)
            .solve(&p)
            .expect("solve")
    }

    #[test]
    fn detects_a_utilization_style_sweep() {
        let powers: Vec<Vec<f64>> = [0.55, 0.20, 1.0, 0.60, 0.20]
            .iter()
            .map(|&u| painted(u))
            .collect();
        let family = affine_family(&powers).expect("affine family");
        assert_eq!(family.anchor_low, 1, "lowest total power");
        assert_eq!(family.anchor_high, 2, "highest total power");
        assert!(family.alphas[1].abs() < 1e-12);
        assert!((family.alphas[2] - 1.0).abs() < 1e-12);
        // u = 0.55 sits at (0.55 − 0.2) / (1.0 − 0.2) = 0.4375.
        assert!((family.alphas[0] - 0.4375).abs() < 1e-9);
        assert!((family.alphas[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_members_off_the_line() {
        let mut powers: Vec<Vec<f64>> = [0.2, 0.5, 1.0].iter().map(|&u| painted(u)).collect();
        // Perturb one cell of the middle member well past tolerance.
        powers[1][17] += 1e-3;
        assert!(affine_family(&powers).is_none());
    }

    #[test]
    fn rejects_degenerate_and_small_families() {
        assert!(affine_family(&[painted(0.5), painted(0.9)]).is_none());
        let same = vec![painted(0.5); 4];
        assert!(affine_family(&same).is_none());
        assert!(affine_family(&[vec![0.0; 8], vec![0.0; 8], vec![0.0; 8]]).is_none());
    }

    #[test]
    fn blend_matches_a_direct_solve() {
        let p_low = painted(0.2);
        let p_high = painted(1.0);
        let p_mid = painted(0.55);
        let family =
            affine_family(&[p_low.clone(), p_high.clone(), p_mid.clone()]).expect("family");
        let low = solve_with_power(&p_low);
        let high = solve_with_power(&p_high);
        let direct = solve_with_power(&p_mid);
        let blended = blend_solutions(&low, &high, family.alphas[2]);

        assert_eq!(blended.stats.iterations, 0);
        assert_eq!(blended.stats.matvecs, 0);
        let mut worst = 0.0_f64;
        for (b, d) in blended
            .temperatures
            .iter_kelvin()
            .zip(direct.temperatures.iter_kelvin())
        {
            worst = worst.max((b - d).abs() / d.abs());
        }
        assert!(
            worst < 1e-9,
            "superposed field departs from the direct solve: rel {worst:.3e}"
        );
        let rel_energy = (blended.energy.injected.watts() - direct.energy.injected.watts()).abs()
            / direct.energy.injected.watts();
        assert!(rel_energy < 1e-12, "injected power blends affinely");
    }
}
