//! Co-design with power gating and task scheduling — the Fig. 12 toy
//! study.
//!
//! Four fine-grained heat sources (individually gated multiply-
//! accumulate units) sit in a 2×2 arrangement; software guarantees only
//! one is active at a time. Two coolings are compared against the
//! pillar-free baseline:
//!
//! * **scaffolding-aware**: a *single* pillar at the center, reachable
//!   from every source through the thermal dielectric's lateral
//!   conduction;
//! * **conventional**: pillar covering placed within each source
//!   (4× the pillar area) with no thermal dielectric.
//!
//! The paper finds the single pillar + dielectric reduces peak
//! temperature more (40 % vs 32 %), rising above 70 % as the dielectric
//! conductivity improves (Fig. 12b) — at 75 % less pillar area.

use crate::beol::{self, BeolProperties};
use crate::stack::hot_loop_solver;
use tsc_geometry::{Grid2, Rect};
use tsc_homogenize::pillar::PillarDesign;
use tsc_materials::Anisotropic;
use tsc_thermal::{Heatsink, Problem, SolveContext, SolveError};
use tsc_units::{HeatFlux, Length, Ratio, TempDelta, ThermalConductivity};

/// Geometry of the toy problem.
#[derive(Debug, Clone)]
pub struct ToyConfig {
    /// Side of the square domain.
    pub domain: Length,
    /// Side of each (square) heat source.
    pub source_side: Length,
    /// Flux of the single active source.
    pub flux: HeatFlux,
    /// Lateral mesh cells.
    pub cells: usize,
    /// Heatsink below the handle.
    pub heatsink: Heatsink,
}

impl Default for ToyConfig {
    fn default() -> Self {
        Self {
            domain: Length::from_micrometers(20.0),
            source_side: Length::from_micrometers(2.0),
            flux: HeatFlux::from_watts_per_square_cm(95.0),
            cells: 40,
            heatsink: Heatsink::two_phase(),
        }
    }
}

/// Which pillar arrangement to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrangement {
    /// No pillars (baseline).
    None,
    /// One pillar block at the domain center.
    SingleCentral {
        /// Side of the pillar block.
        side: Length,
    },
    /// Gating-unaware uniform pillar covering over the whole domain at
    /// 4× the single-central pillar area (the placement cannot know
    /// which unit the scheduler will wake, so it covers everything).
    UniformCovering {
        /// Side of the single-pillar reference; the covering spends four
        /// of these spread uniformly.
        reference_side: Length,
    },
}

/// Result of one toy solve.
#[derive(Debug, Clone)]
pub struct ToyResult {
    /// Peak rise of the active source above ambient.
    pub peak_rise: TempDelta,
    /// Total pillar footprint as a fraction of the domain.
    pub pillar_area: Ratio,
}

fn source_rects(cfg: &ToyConfig) -> [Rect; 4] {
    let d = cfg.domain;
    let s = cfg.source_side;
    let q = d / 4.0;
    let mk = |cx: Length, cy: Length| Rect::from_origin_size(cx - s / 2.0, cy - s / 2.0, s, s);
    [mk(q, q), mk(d - q, q), mk(q, d - q), mk(d - q, d - q)]
}

/// Solves the toy problem: one active source, one tier over handle
/// silicon, the given upper-BEOL dielectric and pillar arrangement.
///
/// # Errors
///
/// Propagates solver failures.
pub fn solve_toy(
    cfg: &ToyConfig,
    upper_dielectric: Anisotropic,
    arrangement: Arrangement,
) -> Result<ToyResult, SolveError> {
    solve_toy_with(cfg, upper_dielectric, arrangement, &mut SolveContext::new())
}

/// [`solve_toy`] against a caller-owned [`SolveContext`]: every toy
/// variant shares the mesh geometry, so sweeps over dielectrics and
/// arrangements warm-start from the previous variant's field.
///
/// # Errors
///
/// Propagates solver failures.
pub fn solve_toy_with(
    cfg: &ToyConfig,
    upper_dielectric: Anisotropic,
    arrangement: Arrangement,
    ctx: &mut SolveContext,
) -> Result<ToyResult, SolveError> {
    let n = cfg.cells;
    let beol = BeolProperties {
        upper: upper_dielectric,
        ..BeolProperties::conventional()
    };
    // Slabs: handle, tier-1 (device, lower, upper, ILV), tier-2 device.
    // The gated MAC units live on tier 2, so their heat must cross
    // tier 1's BEOL — where the pillar and the thermal dielectric sit.
    let dz = vec![
        Length::from_micrometers(10.0),
        Length::from_nanometers(100.0),
        beol::lower_thickness(),
        beol::upper_thickness(),
        beol::ilv_thickness(),
        Length::from_nanometers(100.0),
    ];
    let mut p = Problem::new(
        n,
        n,
        cfg.domain / n as f64,
        cfg.domain / n as f64,
        dz,
        ThermalConductivity::new(1.0),
    );
    p.set_layer_conductivity(
        0,
        tsc_materials::BULK_SILICON.conductivity.vertical,
        tsc_materials::BULK_SILICON.conductivity.lateral,
    );
    for dev in [1usize, 5] {
        p.set_layer_conductivity(
            dev,
            tsc_materials::DEVICE_SILICON_THIN.conductivity.vertical,
            tsc_materials::DEVICE_SILICON_THIN.conductivity.lateral,
        );
    }
    p.set_layer_conductivity(2, beol.lower.vertical, beol.lower.lateral);
    p.set_layer_conductivity(3, beol.upper.vertical, beol.upper.lateral);
    p.set_layer_conductivity(4, beol.ilv.vertical, beol.ilv.lateral);

    // Only source 0 is active (power gating).
    let domain_rect = Rect::from_origin_size(Length::ZERO, Length::ZERO, cfg.domain, cfg.domain);
    let sources = source_rects(cfg);
    let mut map = Grid2::filled(n, n, 0.0);
    map.paint_rect(&domain_rect, &sources[0], cfg.flux.watts_per_square_meter());
    p.add_flux_map(5, &map);

    // Pillars: vertical inclusions through BEOL layers 2 and 3.
    let k_pillar = PillarDesign::asap7_100nm().effective_vertical_k();
    let mut pillar_area = 0.0;
    let mut blocks: Vec<Rect> = Vec::new();
    match arrangement {
        Arrangement::None => {}
        Arrangement::SingleCentral { side } => {
            let c = cfg.domain / 2.0;
            blocks.push(Rect::centered(tsc_geometry::Point::new(c, c), side, side));
        }
        Arrangement::UniformCovering { reference_side } => {
            // Handled below as a uniform density blend.
            let _ = reference_side;
        }
    }
    if let Arrangement::UniformCovering { reference_side } = arrangement {
        let total = 4.0 * reference_side.squared().square_meters();
        let f = (total / domain_rect.area().square_meters()).min(0.95);
        pillar_area += total;
        for k in [2usize, 3, 4] {
            for j in 0..n {
                for i in 0..n {
                    p.blend_vertical_inclusion(i, j, k, f, k_pillar);
                }
            }
        }
    }
    for b in &blocks {
        pillar_area += b.area().square_meters();
        let mut bm = Grid2::filled(n, n, 0.0);
        let painted = bm.paint_rect(&domain_rect, b, 1.0);
        if painted == 0 {
            // Block smaller than a cell: blend its area fraction into the
            // containing cell.
            // tsc-analyze: allow(no-unwrap): block centers are placed
            // inside the domain rect by construction above.
            let ij = bm.locate(&domain_rect, b.center()).expect("inside");
            let cell_area = domain_rect.area().square_meters() / (n * n) as f64;
            bm[ij] = (b.area().square_meters() / cell_area).min(1.0);
        }
        for k in [2usize, 3, 4] {
            for j in 0..n {
                for i in 0..n {
                    if bm[(i, j)] > 0.0 {
                        p.blend_vertical_inclusion(i, j, k, bm[(i, j)], k_pillar);
                    }
                }
            }
        }
    }
    p.set_bottom_heatsink(cfg.heatsink);

    let sol = ctx.solve(&p, &hot_loop_solver().with_tolerance(1e-9))?;
    let peak = sol.temperatures.layer_max(5);
    Ok(ToyResult {
        peak_rise: peak - cfg.heatsink.ambient,
        pillar_area: Ratio::from_fraction(pillar_area / domain_rect.area().square_meters()),
    })
}

/// Peak-temperature reduction of an arrangement relative to the
/// pillar-free baseline with the same dielectric as the baseline uses
/// ultra-low-k (the Fig. 12b y-axis).
///
/// # Errors
///
/// Propagates solver failures.
pub fn reduction_vs_baseline(
    cfg: &ToyConfig,
    upper_dielectric: Anisotropic,
    arrangement: Arrangement,
) -> Result<Ratio, SolveError> {
    reduction_vs_baseline_with(cfg, upper_dielectric, arrangement, &mut SolveContext::new())
}

/// [`reduction_vs_baseline`] against a caller-owned [`SolveContext`];
/// the baseline and the arrangement solve share warm starts.
///
/// # Errors
///
/// Propagates solver failures.
pub fn reduction_vs_baseline_with(
    cfg: &ToyConfig,
    upper_dielectric: Anisotropic,
    arrangement: Arrangement,
    ctx: &mut SolveContext,
) -> Result<Ratio, SolveError> {
    let base = solve_toy_with(
        cfg,
        crate::beol::upper_ultra_low_k(),
        Arrangement::None,
        ctx,
    )?;
    let with = solve_toy_with(cfg, upper_dielectric, arrangement, ctx)?;
    Ok(Ratio::from_fraction(
        1.0 - with.peak_rise.kelvin() / base.peak_rise.kelvin(),
    ))
}

/// The Fig. 12b sweep: single central pillar, thermal-dielectric lateral
/// conductivity swept; returns `(k_lateral W/m/K, reduction)` pairs.
///
/// # Errors
///
/// Propagates solver failures.
pub fn dielectric_sweep(
    cfg: &ToyConfig,
    pillar_side: Length,
    ks: &[f64],
) -> Result<Vec<(f64, Ratio)>, SolveError> {
    // One context for the whole sweep: the baseline is dielectric-
    // independent, so it is solved once, and every sweep point
    // warm-starts from its predecessor's field.
    dielectric_sweep_with(cfg, pillar_side, ks, &mut SolveContext::new())
}

/// [`dielectric_sweep`] against a caller-owned [`SolveContext`]:
/// repeated sweeps over the same toy geometry (the solve service, Fig.
/// 12b refinements) reuse the warm field and cached hierarchy across
/// whole sweep invocations.
///
/// # Errors
///
/// Propagates solver failures.
pub fn dielectric_sweep_with(
    cfg: &ToyConfig,
    pillar_side: Length,
    ks: &[f64],
    ctx: &mut SolveContext,
) -> Result<Vec<(f64, Ratio)>, SolveError> {
    let base = sweep_baseline_with(cfg, ctx)?;
    let mut out = Vec::with_capacity(ks.len());
    for &k in ks {
        out.push(sweep_point_with(cfg, pillar_side, k, &base, ctx)?);
    }
    Ok(out)
}

/// The dielectric-independent baseline of a Fig. 12b sweep (no pillars,
/// ultra-low-k upper dielectric). Step-sliced callers (the `tsc-jobs`
/// sweep engine) solve this once as its own work unit, then fan the
/// [`sweep_point_with`] evaluations across workers.
///
/// # Errors
///
/// Propagates solver failures.
pub fn sweep_baseline_with(
    cfg: &ToyConfig,
    ctx: &mut SolveContext,
) -> Result<ToyResult, SolveError> {
    solve_toy_with(
        cfg,
        crate::beol::upper_ultra_low_k(),
        Arrangement::None,
        ctx,
    )
}

/// One Fig. 12b sweep point: the reduction of the single-central-pillar
/// arrangement at lateral dielectric conductivity `k` relative to
/// `baseline` (from [`sweep_baseline_with`]). Points are independent of
/// each other given the baseline, so they parallelize freely.
///
/// # Errors
///
/// Propagates solver failures.
pub fn sweep_point_with(
    cfg: &ToyConfig,
    pillar_side: Length,
    k: f64,
    baseline: &ToyResult,
    ctx: &mut SolveContext,
) -> Result<(f64, Ratio), SolveError> {
    // Through-plane tracks in-plane at the ETC ratio of the design
    // point (88/105.7).
    let upper = Anisotropic::new(
        ThermalConductivity::new((k * 88.0 / 105.7).max(0.2)),
        ThermalConductivity::new(k.max(0.2)),
    );
    let with = solve_toy_with(
        cfg,
        upper,
        Arrangement::SingleCentral { side: pillar_side },
        ctx,
    )?;
    Ok((
        k,
        Ratio::from_fraction(1.0 - with.peak_rise.kelvin() / baseline.peak_rise.kelvin()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ToyConfig {
        ToyConfig {
            cells: 24,
            ..ToyConfig::default()
        }
    }

    fn pillar_side() -> Length {
        Length::from_micrometers(1.0)
    }

    #[test]
    fn single_pillar_with_dielectric_beats_four_without() {
        // The Fig. 12 headline: 1 pillar + thermal dielectric cools the
        // gated sources better than 4x pillar area without it.
        let c = cfg();
        let single_td = reduction_vs_baseline(
            &c,
            crate::beol::upper_thermal_dielectric(),
            Arrangement::SingleCentral {
                side: pillar_side(),
            },
        )
        .expect("solves");
        let quad_ulk = reduction_vs_baseline(
            &c,
            crate::beol::upper_ultra_low_k(),
            Arrangement::UniformCovering {
                reference_side: pillar_side(),
            },
        )
        .expect("solves");
        // The paper's 40% vs 32%: the single shared pillar edges out the
        // gating-unaware covering despite 75% less pillar area.
        assert!(
            single_td.percent() > quad_ulk.percent() - 1.0,
            "single+TD {single_td} must match/beat 4x covering {quad_ulk}"
        );
        assert!(single_td.percent() > 20.0, "single+TD: {single_td}");
        assert!(
            quad_ulk.percent() > 5.0,
            "4x covering helps some: {quad_ulk}"
        );
        // Without the dielectric the shared pillar is useless — the
        // co-design claim in one line.
        let single_ulk = reduction_vs_baseline(
            &c,
            crate::beol::upper_ultra_low_k(),
            Arrangement::SingleCentral {
                side: pillar_side(),
            },
        )
        .expect("solves");
        assert!(
            single_ulk.percent() < 0.3 * single_td.percent(),
            "central pillar needs the dielectric: {single_ulk} vs {single_td}"
        );
    }

    #[test]
    fn pillar_area_accounting() {
        let c = cfg();
        let single = solve_toy(
            &c,
            crate::beol::upper_thermal_dielectric(),
            Arrangement::SingleCentral {
                side: pillar_side(),
            },
        )
        .expect("solves");
        let quad = solve_toy(
            &c,
            crate::beol::upper_ultra_low_k(),
            Arrangement::UniformCovering {
                reference_side: pillar_side(),
            },
        )
        .expect("solves");
        // 75% less area: single is a quarter of per-source.
        assert!((quad.pillar_area.fraction() / single.pillar_area.fraction() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_grows_with_dielectric_k() {
        let c = cfg();
        let sweep =
            dielectric_sweep(&c, pillar_side(), &[5.0, 50.0, 200.0, 500.0]).expect("solves");
        for w in sweep.windows(2) {
            assert!(
                w[1].1.fraction() >= w[0].1.fraction() - 1e-9,
                "reduction must grow with k: {sweep:?}"
            );
        }
        let last = sweep.last().expect("non-empty").1;
        assert!(
            last.percent() > 40.0,
            "a 500 W/m/K dielectric exceeds 40% reduction: {last}"
        );
    }

    #[test]
    fn baseline_reduction_is_zero() {
        let c = cfg();
        let r = reduction_vs_baseline(&c, crate::beol::upper_ultra_low_k(), Arrangement::None)
            .expect("solves");
        assert!(r.fraction().abs() < 1e-9);
    }
}
