//! `perfbench-trace` — the in-process half of a traced benchmark run.
//!
//! It replays a workload's seeded request sequence (the one `perfbench`
//! sends over HTTP) through the calls `tsc-serve` makes for a
//! `POST /v1/solve`, in the same order, and prints one result line of
//! per-layer metrics:
//!
//! 1. `http::parse_request` → `ApiJob::parse` → `ApiJob::execute` →
//!    `Response::to_bytes`, once with one timer around the whole path
//!    (untraced) and once with a span around each call (traced), each
//!    against its own `ServicePools` sized like the server's;
//! 2. the body of `ApiJob::execute` for a solve, re-run on a third set of
//!    pools with spans around `stack::build` (or the stack-cache take)
//!    and `SolveContext::solve`, reading `SolverStats` and
//!    `ContextStats`.  Its junction temperature must equal the traced
//!    response's bit for bit, which shows the re-run took the same path.
//!
//! ```text
//! perfbench-trace --workload <name> --seed N --seconds S
//! ```
//!
//! `perfbench --trace 1` runs it; it is not meant to be run alone.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::{junction_celsius, median, result_line, Class, Metric, Spec, Workload};
use tsc_core::stack::{self, StackSolution};
use tsc_serve::api::{fnv1a, registry};
use tsc_serve::http::{parse_request, Parsed};
use tsc_serve::{ApiJob, ContextKey, Limits, Metrics, Response, ServerConfig, ServicePools};
use tsc_thermal::{operator_fingerprint, OperatorSignature};

/// Most timed requests one replay records.
const MAX_REQUESTS: usize = 2000;

/// One server-side replica: its pools and metrics registry.
struct Replica {
    pools: ServicePools,
    metrics: Metrics,
}

impl Replica {
    fn new() -> Replica {
        Replica {
            pools: ServicePools::new(ServerConfig::default().pool_cap),
            metrics: Metrics::default(),
        }
    }
}

/// Spans of the request path, in call order.
struct Path {
    parse: Duration,
    api_parse: Duration,
    execute: Duration,
    encode: Duration,
    total: Duration,
    body: String,
}

/// `http::parse_request` → `ApiJob::parse` → `ApiJob::execute` →
/// `Response::to_bytes`, with a timestamp between calls.
fn serve_path(replica: &Replica, raw: &[u8], limits: &Limits) -> Result<Path, String> {
    let t0 = Instant::now();
    let parsed = parse_request(black_box(raw), limits);
    let t1 = Instant::now();
    let Ok(Parsed::Complete(request, _)) = parsed else {
        return Err("request did not parse".into());
    };
    let job = ApiJob::parse(&request.path, &request.body);
    let t2 = Instant::now();
    let Some(Ok(job)) = job else {
        return Err("body did not parse".into());
    };
    let executed = job.execute(&replica.pools, &replica.metrics);
    let t3 = Instant::now();
    let body = executed.map_err(|(status, message)| format!("execute: {status} {message}"))?;
    black_box(Response::json(200, body.clone()).to_bytes());
    let t4 = Instant::now();
    Ok(Path {
        parse: t1 - t0,
        api_parse: t2 - t1,
        execute: t3 - t2,
        encode: t4 - t3,
        total: t4 - t0,
        body,
    })
}

/// The same path with a single timer around it.
fn serve_untraced(replica: &Replica, raw: &[u8], limits: &Limits) -> Result<Duration, String> {
    let t0 = Instant::now();
    let Ok(Parsed::Complete(request, _)) = parse_request(black_box(raw), limits) else {
        return Err("request did not parse".into());
    };
    let Some(Ok(job)) = ApiJob::parse(&request.path, &request.body) else {
        return Err("body did not parse".into());
    };
    let body = job
        .execute(&replica.pools, &replica.metrics)
        .map_err(|(status, message)| format!("execute: {status} {message}"))?;
    black_box(Response::json(200, body).to_bytes());
    Ok(t0.elapsed())
}

/// What the re-run of `ApiJob::execute`'s solve branch measured.
struct Solve {
    stack: Duration,
    wall: Duration,
    assembly_s: f64,
    iterate_s: f64,
    iterations: usize,
    matvecs: usize,
    cycles: usize,
    assemblies: usize,
    hierarchy_builds: usize,
    operator_reuses: usize,
    warm_starts: usize,
    junction: f64,
}

/// The solve branch of `ApiJob::execute`, call for call, with spans.
fn solve_layers(replica: &Replica, spec: &Spec, raw: &[u8]) -> Result<Solve, String> {
    let Ok(Parsed::Complete(request, _)) = parse_request(raw, &Limits::default()) else {
        return Err("request did not parse".into());
    };
    let Some(Ok(job)) = ApiJob::parse(&request.path, &request.body) else {
        return Err("body did not parse".into());
    };
    let design = registry()
        .iter()
        .find(|(name, _)| *name == perfbench::DESIGN)
        .map(|(_, design)| design)
        .ok_or("design missing from the registry")?;
    let pools = &replica.pools;
    let stack_id = job.canonical_id();
    let stack_key = fnv1a(stack_id.as_bytes());

    let t0 = Instant::now();
    let built = match pools.stacks.take(stack_key, &stack_id) {
        Some(built) => built,
        None => stack::build(design, &spec.stack_config(design)),
    };
    let stack_span = t0.elapsed();

    let key = operator_fingerprint(&built.problem);
    let ctx_key = ContextKey::Operator(OperatorSignature::of(&built.problem));
    let (mut ctx, _) = pools.contexts.checkout(key, &ctx_key);
    let before = ctx.stats();
    let t1 = Instant::now();
    let solved = ctx.solve(&built.problem, &stack::hot_loop_solver());
    let wall = t1.elapsed();
    let after = ctx.stats();
    pools.contexts.checkin(key, ctx_key, ctx);
    let solution = solved.map_err(|e| format!("solve failed: {e}"))?;
    let stats = solution.stats.clone();
    let junction = StackSolution {
        solution,
        layout: built.layout.clone(),
    }
    .junction_temperature()
    .celsius();
    pools.stacks.put(stack_key, stack_id, built);

    let assemblies = after.assemblies - before.assemblies;
    Ok(Solve {
        stack: stack_span,
        wall,
        // SolverStats carries the cached operator's build time on a
        // reuse too; only a solve that assembled spent it.
        assembly_s: if assemblies > 0 {
            stats.assembly_seconds
        } else {
            0.0
        },
        iterate_s: stats.solve_seconds,
        iterations: stats.iterations,
        matvecs: stats.matvecs,
        cycles: stats.cycles,
        assemblies,
        hierarchy_builds: after.hierarchy_builds - before.hierarchy_builds,
        operator_reuses: after.operator_reuses - before.operator_reuses,
        warm_starts: after.warm_starts - before.warm_starts,
        junction,
    })
}

/// Per-request samples of the timed class.
#[derive(Default)]
struct Samples {
    parse_us: Vec<f64>,
    api_parse_us: Vec<f64>,
    execute_ms: Vec<f64>,
    encode_us: Vec<f64>,
    traced_ms: Vec<f64>,
    overhead_us: Vec<f64>,
    stack_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    assembly_ms: Vec<f64>,
    iterate_ms: Vec<f64>,
    setup_ms: Vec<f64>,
    counts: [usize; 7],
}

struct Replay {
    limits: Limits,
    untraced: Replica,
    traced: Replica,
    layers: Replica,
    attempted: usize,
    failed: usize,
}

impl Replay {
    /// Run one request through all three replicas; record it when
    /// `samples` is given.
    fn request(&mut self, spec: &Spec, samples: Option<&mut Samples>) {
        self.attempted += 1;
        let raw = spec.request();
        // Alternate which of the untraced and traced runs goes first, so
        // neither always finds the caches warmed by the other.
        let untraced_first = self.attempted.is_multiple_of(2);
        let outcome = (|| {
            let mut untraced = Duration::ZERO;
            if untraced_first {
                untraced = serve_untraced(&self.untraced, &raw, &self.limits)?;
            }
            let path = serve_path(&self.traced, &raw, &self.limits)?;
            if !untraced_first {
                untraced = serve_untraced(&self.untraced, &raw, &self.limits)?;
            }
            let solve = solve_layers(&self.layers, spec, &raw)?;
            let served = junction_celsius(path.body.as_bytes()).ok_or("no junction_celsius")?;
            if served.to_bits() != solve.junction.to_bits() {
                return Err(format!(
                    "the re-run solve differs from ApiJob::execute: {} vs {served} °C",
                    solve.junction
                ));
            }
            Ok((untraced, path, solve))
        })();
        let (untraced, path, solve) = match outcome {
            Ok(done) => done,
            Err(message) => {
                eprintln!("perfbench-trace: {}: {message}", spec.body());
                self.failed += 1;
                return;
            }
        };
        let Some(s) = samples else { return };
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        s.parse_us.push(us(path.parse));
        s.api_parse_us.push(us(path.api_parse));
        s.execute_ms.push(ms(path.execute));
        s.encode_us.push(us(path.encode));
        s.traced_ms.push(ms(path.total));
        s.overhead_us.push(us(path.total) - us(untraced));
        s.stack_ms.push(ms(solve.stack));
        s.solve_ms.push(ms(solve.wall));
        s.assembly_ms.push(solve.assembly_s * 1e3);
        s.iterate_ms.push(solve.iterate_s * 1e3);
        s.setup_ms
            .push(ms(solve.wall) - (solve.assembly_s + solve.iterate_s) * 1e3);
        for (total, n) in s.counts.iter_mut().zip([
            solve.iterations,
            solve.matvecs,
            solve.cycles,
            solve.assemblies,
            solve.hierarchy_builds,
            solve.operator_reuses,
            solve.warm_starts,
        ]) {
            *total += n;
        }
    }
}

fn parse_args(args: &[String]) -> Result<(Workload, u64, f64), String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("{flag} is required"))
    };
    let workload = value("--workload")?;
    Ok((
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?,
        value("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        value("--seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number")?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench-trace: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut replay = Replay {
        limits: Limits::default(),
        untraced: Replica::new(),
        traced: Replica::new(),
        layers: Replica::new(),
        attempted: 0,
        failed: 0,
    };
    // Same streams as the load generator: warm-up first, then the timed
    // requests, the connections interleaved.  On cold-under-load the
    // background requests are replayed but only the interactive class is
    // recorded, as only its latency is reported end to end.
    let mut streams = workload.streams(seed);
    for _ in 0..workload.warmup_len() {
        for stream in &mut streams {
            let spec = stream.next_spec();
            replay.request(&spec, None);
        }
    }
    let mut samples = Samples::default();
    let budget = Duration::from_secs_f64(seconds / 5.0);
    let started = Instant::now();
    while samples.execute_ms.len() < MAX_REQUESTS
        && (started.elapsed() < budget || samples.execute_ms.len() < 3)
        && replay.failed == 0
    {
        for stream in &mut streams {
            let spec = stream.next_spec();
            let record = workload != Workload::ColdUnderLoad || spec.class == Class::Interactive;
            replay.request(&spec, record.then_some(&mut samples));
        }
    }

    let solves = samples.execute_ms.len() as f64;
    let per_solve = |i: usize| samples.counts[i] as f64 / solves;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let metrics = [
        Metric::new("serve.http.parse_us", median(&samples.parse_us), "us"),
        Metric::new("serve.api.parse_us", median(&samples.api_parse_us), "us"),
        Metric::new("serve.api.execute_ms", median(&samples.execute_ms), "ms"),
        Metric::new("serve.http.encode_us", median(&samples.encode_us), "us"),
        Metric::new("core.stack.build_ms", median(&samples.stack_ms), "ms"),
        Metric::new("thermal.solve_ms", median(&samples.solve_ms), "ms"),
        Metric::new("thermal.assembly_ms", median(&samples.assembly_ms), "ms"),
        Metric::new("thermal.setup_ms", median(&samples.setup_ms), "ms"),
        Metric::new("thermal.iterate_ms", median(&samples.iterate_ms), "ms"),
        Metric::new(
            "thermal.setup_share",
            sum(&samples.setup_ms) / sum(&samples.solve_ms),
            "ratio",
        ),
        Metric::new("thermal.iterations", per_solve(0), "count"),
        Metric::new("thermal.matvecs", per_solve(1), "count"),
        Metric::new("thermal.cycles", per_solve(2), "count"),
        Metric::new("thermal.assemblies", per_solve(3), "count"),
        Metric::new("thermal.hierarchy_builds", per_solve(4), "count"),
        Metric::new("thermal.operator_reuse_ratio", per_solve(5), "ratio"),
        Metric::new("thermal.warm_start_ratio", per_solve(6), "ratio"),
        Metric::new("trace.path_ms", median(&samples.traced_ms), "ms"),
        Metric::new("trace.overhead_us", median(&samples.overhead_us), "us"),
        Metric::new("trace.requests", solves, "count"),
    ];
    println!(
        "{}",
        result_line(
            replay.failed == 0,
            replay.attempted,
            replay.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
