//! Shared pieces of the `tsc-serve` benchmark: the seeded workloads and
//! the request bodies they send, summary statistics, the independent
//! reference solve behind the correctness gate, and the result line.
//!
//! Two binaries use this library.  `perfbench` drives the release
//! `tsc-serve` binary over loopback HTTP and reports the end-to-end
//! metrics; `perfbench-trace` replays the same seeded request sequence
//! in-process and times each public call the server makes.  Both draw
//! their requests from [`Workload::streams`], so one seed gives one
//! request sequence in both.

use std::collections::HashSet;

use tsc_bench::json::Json;
use tsc_core::beol::BeolProperties;
use tsc_core::pillars;
use tsc_core::stack::{self, StackConfig, StackSolution};
use tsc_designs::{gemmini, Design};
use tsc_rng::Rng64;
use tsc_thermal::{CgSolver, Heatsink, Preconditioner};
use tsc_units::Ratio;

/// The design every workload solves (`gemmini::memory_tier`).
pub const DESIGN: &str = "gemmini-memory";

/// Tolerance of the independent reference solve.
pub const REFERENCE_TOLERANCE: f64 = 1e-12;

/// Largest allowed |served − reference| junction temperature, in kelvin.
pub const REFERENCE_LIMIT_K: f64 = 1e-3;

/// The seeded generator for one `(seed, stream)` pair.
pub fn seeded(seed: u64, stream: u64) -> Rng64 {
    Rng64::seed_from_u64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The admission class a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Interactive,
    Background,
}

/// One `POST /v1/solve` request of the scaffolded `gemmini-memory` stack
/// with the two-phase heatsink (the API defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub tiers: usize,
    pub lateral_cells: usize,
    pub area_budget_percent: f64,
    pub utilization_percent: f64,
    pub class: Class,
}

impl Spec {
    /// The JSON body.  `{}` prints the shortest form that parses back
    /// to the same `f64`, so the server solves exactly this spec.
    pub fn body(&self) -> String {
        format!(
            "{{\"design\": \"{DESIGN}\", \"tiers\": {}, \"lateral_cells\": {}, \
             \"area_budget_percent\": {}, \"utilization_percent\": {}}}",
            self.tiers, self.lateral_cells, self.area_budget_percent, self.utilization_percent
        )
    }

    /// The whole HTTP/1.1 request as the load generator sends it.
    pub fn request(&self) -> Vec<u8> {
        let body = self.body();
        let priority = match self.class {
            Class::Interactive => "",
            Class::Background => "X-Priority: background\r\n",
        };
        format!(
            "POST /v1/solve HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
             {priority}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// Identity for grouping responses of the same body.
    pub fn key(&self) -> (usize, usize, u64, u64) {
        (
            self.tiers,
            self.lateral_cells,
            self.area_budget_percent.to_bits(),
            self.utilization_percent.to_bits(),
        )
    }

    /// The stack the server builds for this body: the scaffolded BEOL
    /// with a uniform routable pillar map at the area budget.
    pub fn stack_config(&self, design: &Design) -> StackConfig {
        let pillar_map = pillars::uniform_routable_map(
            design,
            Ratio::from_percent(self.area_budget_percent),
            self.lateral_cells,
        );
        StackConfig::uniform(
            self.tiers,
            BeolProperties::scaffolded(),
            Heatsink::two_phase(),
        )
        .with_lateral_cells(self.lateral_cells)
        .with_utilizations(vec![
            Ratio::from_percent(self.utilization_percent);
            self.tiers
        ])
        .with_pillar_map(pillar_map)
    }
}

/// The serving fixture: 4 tiers of 16×16 cells, a 16×16×17 mesh.
fn fixture(area_budget_percent: f64, utilization_percent: f64) -> Spec {
    Spec {
        tiers: 4,
        lateral_cells: 16,
        area_budget_percent,
        utilization_percent,
        class: Class::Interactive,
    }
}

/// The two traffic mixes (see `perfbench/README.md` for why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotRepeat,
    ColdUnderLoad,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::HotRepeat, Workload::ColdUnderLoad];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRepeat => "hot-repeat",
            Workload::ColdUnderLoad => "cold-under-load",
        }
    }

    /// `tsc-serve --workers`: the default 2, or 1 so that a background
    /// solve can sit ahead of an interactive request.
    pub fn server_workers(self) -> usize {
        match self {
            Workload::ColdUnderLoad => 1,
            Workload::HotRepeat => 2,
        }
    }

    /// Requests per stream sent before timing starts.
    pub fn warmup_len(self) -> usize {
        match self {
            // Every hot body twice: the first solve fills the caches, the
            // second re-solves the converged field.
            Workload::HotRepeat => 16,
            Workload::ColdUnderLoad => 1,
        }
    }

    /// The request streams, one per keep-alive connection.  `hot-repeat`
    /// uses one connection: with one request in flight its tail is the
    /// service path's, not two client loops contending for two cores.
    /// On `cold-under-load` stream 0 is the interactive open loop and
    /// stream 1 the background closed loop.
    pub fn streams(self, seed: u64) -> Vec<Stream> {
        let mut rng = seeded(seed, self as u64 + 1);
        match self {
            Workload::HotRepeat => {
                // Eight distinct geometries (one pillar budget in each 1 %
                // band from 6 % to 14 %): they fit the 8-entry pools.
                let bodies: Vec<Spec> = (0..8)
                    .map(|i| {
                        fixture(
                            6.0 + i as f64 + rng.gen_range_f64(0.0..0.9),
                            rng.gen_range_f64(60.0..100.0),
                        )
                    })
                    .collect();
                let mut order: Vec<usize> = (0..8).collect();
                for i in (1..8).rev() {
                    order.swap(i, rng.gen_range(0..i + 1));
                }
                vec![Stream::Hot {
                    bodies: order.iter().map(|&i| bodies[i]).collect(),
                    k: 0,
                }]
            }
            Workload::ColdUnderLoad => vec![
                Stream::Fresh {
                    template: fixture(0.0, 100.0),
                    rng: seeded(seed, 32),
                    seen: HashSet::new(),
                },
                Stream::Fresh {
                    template: Spec {
                        tiers: 8,
                        lateral_cells: 12,
                        area_budget_percent: 0.0,
                        utilization_percent: 100.0,
                        class: Class::Background,
                    },
                    rng: seeded(seed, 33),
                    seen: HashSet::new(),
                },
            ],
        }
    }
}

/// An endless seeded request sequence for one connection.
pub enum Stream {
    /// Cycle through a fixed set of hot bodies.
    Hot { bodies: Vec<Spec>, k: usize },
    /// A never-used pillar budget on every request.
    Fresh {
        template: Spec,
        rng: Rng64,
        seen: HashSet<u64>,
    },
}

impl Stream {
    pub fn next_spec(&mut self) -> Spec {
        match self {
            Stream::Hot { bodies, k } => {
                *k += 1;
                bodies[(*k - 1) % bodies.len()]
            }
            Stream::Fresh {
                template,
                rng,
                seen,
            } => loop {
                let budget = rng.gen_range_f64(9.0..11.0);
                if seen.insert(budget.to_bits()) {
                    return Spec {
                        area_budget_percent: budget,
                        ..*template
                    };
                }
            },
        }
    }
}

/// Junction temperature of `spec` from an independent path: the
/// benchmark's own stack configuration, solved by f64 Jacobi-CG at
/// [`REFERENCE_TOLERANCE`] instead of the service's multigrid solver.
///
/// # Errors
///
/// The solver's message when the reference solve fails.
pub fn reference_junction(spec: &Spec) -> Result<f64, String> {
    let design = gemmini::memory_tier();
    let built = stack::build(&design, &spec.stack_config(&design));
    let solution = CgSolver::new()
        .with_tolerance(REFERENCE_TOLERANCE)
        .with_preconditioner(Preconditioner::Jacobi)
        .solve(&built.problem)
        .map_err(|e| format!("reference solve failed: {e}"))?;
    let solved = StackSolution {
        solution,
        layout: built.layout,
    };
    Ok(solved.junction_temperature().celsius())
}

/// The `junction_celsius` number of a `/v1/solve` response body, if it
/// is present and finite.
pub fn junction_celsius(body: &[u8]) -> Option<f64> {
    const KEY: &[u8] = b"\"junction_celsius\"";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let rest = &body[at..];
    let start = rest.iter().position(|&b| b != b':' && b != b' ')?;
    let len = rest[start..]
        .iter()
        .position(|&b| matches!(b, b',' | b'\n' | b'}' | b' '))
        .unwrap_or(rest.len() - start);
    let value: f64 = std::str::from_utf8(&rest[start..start + len])
        .ok()?
        .parse()
        .ok()?;
    value.is_finite().then_some(value)
}

/// Nearest-rank quantile of an ascending slice: at least `n·(1 − q)`
/// samples lie at or beyond it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The result line the benchmark prints last.  A non-finite value is
/// printed as 0 and makes the run incorrect.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut object = Json::object();
    for m in metrics {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        object = object.field(
            &m.name,
            Json::object()
                .field("value", value)
                .field("unit", m.unit.as_str()),
        );
    }
    Json::object()
        .field("correct", correct && finite)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", object)
        .compact()
}
