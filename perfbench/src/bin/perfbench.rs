//! `perfbench` — the repository benchmark.  It builds the release
//! `tsc-serve` binary, starts it on a loopback port and drives one of
//! two seeded workloads over one or two keep-alive connections from this
//! one process (one thread per connection), then prints one JSON result
//! line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin perfbench -- \
//!     --workload <hot-repeat|cold-under-load> --seed N --seconds S --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin perfbench -- --smoke
//! ```
//!
//! Run it from the repository root.  `--trace 0` reports the end-to-end
//! metrics.  `--trace 1` runs the same load, then the in-process replay
//! (`perfbench-trace`), and reports the per-layer metrics.  `--smoke`
//! runs every workload briefly in both modes and checks the output
//! against `BENCHMARK.json`.  See `perfbench/README.md`.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use perfbench::{
    junction_celsius, median, quantile, reference_junction, result_line, seeded, Class, Metric,
    Spec, Stream, Workload, REFERENCE_LIMIT_K,
};
use tsc_bench::json::{self, Json};
use tsc_bench::prom::sample_value;

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Interactive open-loop rate on `cold-under-load`, requests per second.
const INTERACTIVE_RATE: f64 = 4.0;

/// Longest wait for any one response before the run gives up on it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Largest allowed gap between the in-process layer medians plus
/// `serve.wait_ms` and the end-to-end median, as a share of the latter.
const ACCOUNTING_LIMIT: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--smoke") {
        smoke()
    } else {
        parse_args(&args).and_then(|args| {
            let bins = Binaries::build(args.trace)?;
            pin_to_one_cpu()?;
            let outcome = run(&bins, &args)?;
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- build

/// The release binaries the benchmark runs.
struct Binaries {
    serve: PathBuf,
    trace: Option<PathBuf>,
}

impl Binaries {
    fn build(trace: bool) -> Result<Binaries, String> {
        if !std::path::Path::new("crates/serve/Cargo.toml").is_file() {
            return Err("run from the repository root: crates/serve is missing".into());
        }
        Ok(Binaries {
            serve: cargo_build("Cargo.toml", &["-p", "tsc-serve"], "tsc-serve")?,
            trace: if trace {
                Some(cargo_build("perfbench/Cargo.toml", &[], "perfbench-trace")?)
            } else {
                None
            },
        })
    }
}

/// `cargo build --release` one binary and return the executable cargo
/// reports, wherever the target directory is.
fn cargo_build(manifest: &str, extra: &[&str], bin: &str) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--message-format=json"])
        .args(["--manifest-path", manifest])
        .args(extra)
        .args(["--bin", bin])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("cargo build of {bin} failed"));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|msg| msg.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some(bin)
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| format!("cargo reported no executable for {bin}"))
}

/// Pin this thread, and with it every thread and child process it starts
/// from now on (the servers and the load threads), to the lowest-numbered
/// CPU it may run on.  On a small virtual machine a request handed from
/// a thread on one vCPU to a thread on the other waits for that vCPU to
/// wake, and the wait follows the host's load: on the 2-vCPU guest the
/// benchmark was written on, `hot-repeat` p99 read 1.4–3.2 ms across two
/// CPUs and 0.43–0.44 ms on one.  Linux only, like the `/proc` reads.
fn pin_to_one_cpu() -> Result<(), String> {
    // A `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("the affinity mask names no CPU")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    eprintln!("perfbench: pinned to cpu {cpu}");
    Ok(())
}

// ----------------------------------------------------------------- http

/// One keep-alive HTTP/1.1 client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

struct Reply {
    status: u16,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
            chunk: vec![0; 16 * 1024],
        })
    }

    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// The next response, waiting at most [`REPLY_TIMEOUT`].
    fn recv(&mut self) -> std::io::Result<Reply> {
        loop {
            if let Some(reply) = self.take_reply()? {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// The next response if it arrives before `until`.
    fn recv_until(&mut self, until: Instant) -> std::io::Result<Option<Reply>> {
        loop {
            if let Some(reply) = self.take_reply()? {
                return Ok(Some(reply));
            }
            let now = Instant::now();
            if now >= until {
                return Ok(None);
            }
            let wait = (until - now).max(Duration::from_micros(100));
            self.stream.set_read_timeout(Some(wait))?;
            let filled = self.fill();
            self.stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            match filled {
                Ok(()) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }

    /// Split one complete response off the front of the buffer.
    fn take_reply(&mut self) -> std::io::Result<Option<Reply>> {
        let Some(head_len) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_len]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        let end = head_len + 4 + length;
        if self.buf.len() < end {
            return Ok(None);
        }
        let body = self.buf[head_len + 4..end].to_vec();
        self.buf.drain(..end);
        Ok(Some(Reply { status, body }))
    }
}

/// One request on a fresh connection, for control endpoints.
fn one_shot(addr: SocketAddr, method: &str, path: &str) -> Result<Reply, String> {
    let mut conn = Conn::open(addr)?;
    let request =
        format!("{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
    conn.send(request.as_bytes())
        .and_then(|()| conn.recv())
        .map_err(|e| format!("{method} {path}: {e}"))
}

// --------------------------------------------------------------- server

/// A running `tsc-serve` child process; dropping it kills and reaps it.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
    // Held open so the server's shutdown message has a reader.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    fn spawn(bin: &PathBuf, workers: usize) -> Result<ServerProcess, String> {
        let mut child = Command::new(bin)
            .args(["--port", "0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("tsc-serve listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProcess {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("tsc-serve did not report its address: {line:?}"))
            }
        }
    }

    fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match one_shot(self.addr, "GET", "/healthz") {
                Ok(reply) if reply.status == 200 => return Ok(()),
                _ if Instant::now() > deadline => return Err("/healthz never answered 200".into()),
                _ => thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's /proc status".into())
    }

    /// Ask for a graceful drain and reap the process.
    fn stop(mut self) -> Result<(), String> {
        let _ = one_shot(self.addr, "POST", "/v1/shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                _ => return Err("tsc-serve did not stop after /v1/shutdown".into()),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ----------------------------------------------------------------- load

/// What one connection saw.
#[derive(Default)]
struct Part {
    /// Completion time and latency (ms) of each completed request; the
    /// latency runs from its due time on the open loop, from its send
    /// otherwise.
    done: Vec<(Instant, f64)>,
    attempted: usize,
    failed: usize,
    /// Served junction temperature of every successful request.
    answers: Vec<(Spec, f64)>,
    /// Open loop only: how late each send was against its schedule, ms.
    lags_ms: Vec<f64>,
}

impl Part {
    fn record(&mut self, spec: Spec, reply: &Reply, since: Instant) {
        let done = Instant::now();
        self.done.push((done, (done - since).as_secs_f64() * 1e3));
        match junction_celsius(&reply.body) {
            Some(junction) if reply.status == 200 => self.answers.push((spec, junction)),
            _ => {
                self.failed += 1;
                eprintln!(
                    "perfbench: failed request: status {} body {}",
                    reply.status,
                    String::from_utf8_lossy(&reply.body)
                );
            }
        }
    }
}

/// Send each spec and wait for its reply; any failure is an error.
fn warm_up(conn: &mut Conn, stream: &mut Stream, count: usize) -> Result<(), String> {
    for _ in 0..count {
        let spec = stream.next_spec();
        conn.send(&spec.request())
            .and_then(|()| conn.recv())
            .map_err(|e| format!("warm-up request: {e}"))
            .and_then(|reply| match junction_celsius(&reply.body) {
                Some(_) if reply.status == 200 => Ok(()),
                _ => Err(format!("warm-up request answered {}", reply.status)),
            })?;
    }
    Ok(())
}

/// Run `work` on every connection at once: connection 0 on this thread,
/// each other one on a thread of its own.  Results in connection order.
fn per_connection<T: Send>(
    conns: &mut [Conn],
    streams: &mut [Stream],
    work: impl Fn(usize, &mut Conn, &mut Stream) -> T + Sync,
) -> Vec<T> {
    let work = &work;
    thread::scope(|scope| {
        let mut pairs = conns.iter_mut().zip(streams.iter_mut()).enumerate();
        let (_, (c0, s0)) = pairs.next().expect("at least one connection");
        let others: Vec<_> = pairs
            .map(|(i, (c, s))| scope.spawn(move || work(i, c, s)))
            .collect();
        let mut results = vec![work(0, c0, s0)];
        results.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("load thread panicked")),
        );
        results
    })
}

/// Closed loop: the next request goes out when the previous one is
/// answered, until `end`.
fn closed_loop(conn: &mut Conn, stream: &mut Stream, end: Instant) -> Part {
    let mut part = Part::default();
    while Instant::now() < end {
        let spec = stream.next_spec();
        let request = spec.request();
        let sent = Instant::now();
        part.attempted += 1;
        match conn.send(&request).and_then(|()| conn.recv()) {
            Ok(reply) => part.record(spec, &reply, sent),
            Err(e) => {
                eprintln!("perfbench: connection failed: {e}");
                part.failed += 1;
                break;
            }
        }
    }
    part
}

/// Open loop: request `k` is due at `start + k / rate` and is sent then,
/// whether or not earlier ones were answered (HTTP/1.1 pipelining), so
/// a stall delays the replies, never the schedule.  Latency runs from
/// the due time.
fn open_loop(
    conn: &mut Conn,
    stream: &mut Stream,
    start: Instant,
    seconds: f64,
    rate: f64,
) -> Part {
    let mut part = Part::default();
    let count = ((seconds * rate).floor() as usize).max(1);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let mut outstanding: VecDeque<(Spec, Instant)> = VecDeque::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        if next < count && now >= due(next) {
            let spec = stream.next_spec();
            part.lags_ms.push((now - due(next)).as_secs_f64() * 1e3);
            part.attempted += 1;
            if let Err(e) = conn.send(&spec.request()) {
                eprintln!("perfbench: connection failed: {e}");
                part.failed += 1 + outstanding.len();
                break;
            }
            outstanding.push_back((spec, due(next)));
            next += 1;
            continue;
        }
        if outstanding.is_empty() {
            if next == count {
                break;
            }
            thread::sleep(due(next) - now);
            continue;
        }
        let until = if next < count {
            due(next)
        } else {
            now + REPLY_TIMEOUT
        };
        match conn.recv_until(until) {
            Ok(Some(reply)) => {
                let (spec, due_at) = outstanding.pop_front().expect("a request is outstanding");
                part.record(spec, &reply, due_at);
            }
            Ok(None) if next < count => {}
            outcome => {
                eprintln!("perfbench: no reply from the server: {:?}", outcome.err());
                part.failed += outstanding.len();
                break;
            }
        }
    }
    part
}

// ------------------------------------------------------------------ run

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Responses compared with the independent reference.
    gate_checked: usize,
}

/// Counters scraped from `/metrics`.
struct Scrape(String);

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let reply = one_shot(addr, "GET", "/metrics")?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        Ok(Scrape(String::from_utf8_lossy(&reply.body).into_owned()))
    }

    fn get(&self, series: &str) -> f64 {
        sample_value(&self.0, series).unwrap_or(0.0)
    }
}

/// `part / whole`, or 0 when nothing happened.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn run(bins: &Binaries, args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} cpus {} profile release",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // Set-up: spawn → /healthz → warm-up, several times; the last server
    // stays up for the timed phase.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let server = ServerProcess::spawn(&bins.serve, workload.server_workers())?;
        server.wait_healthy()?;
        let mut streams = workload.streams(args.seed);
        let mut conns = streams
            .iter()
            .map(|_| Conn::open(server.addr))
            .collect::<Result<Vec<_>, _>>()?;
        per_connection(&mut conns, &mut streams, |_, conn, stream| {
            warm_up(conn, stream, workload.warmup_len())
        })
        .into_iter()
        .collect::<Result<Vec<()>, String>>()?;
        setup_s.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(conns);
            server.stop()?;
        } else {
            last = Some((server, streams, conns));
        }
    }
    let (server, mut streams, mut conns) = last.expect("at least one set-up");
    let before = Scrape::take(server.addr)?;

    // Timed phase.
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let parts = per_connection(&mut conns, &mut streams, |i, conn, stream| {
        if workload == Workload::ColdUnderLoad && i == 0 {
            open_loop(conn, stream, start, args.seconds, INTERACTIVE_RATE)
        } else {
            closed_loop(conn, stream, end)
        }
    });

    let after = Scrape::take(server.addr)?;
    let peak_rss_mib = server.peak_rss_mib()?;
    drop(conns);
    server.stop()?;

    // End-to-end metrics, each over the whole timed phase.  On
    // cold-under-load the latency is the interactive class's and the
    // throughput the background class's.
    let (latency_class, closed_class) = match workload {
        Workload::ColdUnderLoad => (&parts[0].done, &parts[1].done),
        Workload::HotRepeat => (&parts[0].done, &parts[0].done),
    };
    let mut latencies: Vec<f64> = latency_class.iter().map(|&(_, ms)| ms).collect();
    latencies.sort_by(f64::total_cmp);
    let latency_p50 = quantile(&latencies, 0.5);
    let latency_p90 = quantile(&latencies, 0.9);
    let beyond_p90 = latencies.len() / 10;
    eprintln!(
        "perfbench: {} latency samples ({beyond_p90} beyond p90): p50 {latency_p50:.4} ms, \
         p90 {latency_p90:.4} ms, p99 {:.4} ms",
        latencies.len(),
        quantile(&latencies, 0.99)
    );
    if beyond_p90 < 10 {
        eprintln!("perfbench: warning: fewer than 10 samples beyond p90");
    }
    let last_done = closed_class
        .iter()
        .map(|&(at, _)| at)
        .max()
        .unwrap_or(start);
    let throughput = closed_class.len() as f64 / (last_done - start).as_secs_f64();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("throughput_rps", throughput, "1/s"),
        Metric::new("latency_p50_ms", latency_p50, "ms"),
        Metric::new("latency_p90_ms", latency_p90, "ms"),
        Metric::new("server_peak_rss_mib", peak_rss_mib, "MiB"),
    ];

    // Correctness gate.
    let mut attempted: usize = parts.iter().map(|p| p.attempted).sum();
    let mut failed: usize = parts.iter().map(|p| p.failed).sum();
    let answers: Vec<(Spec, f64)> = parts.iter().flat_map(|p| p.answers.clone()).collect();
    let (checked, mismatched) = reference_gate(workload, args.seed, &answers)?;
    failed += mismatched;
    let panics = after.get("tsc_worker_panics_total");
    let mut gates_hold = panics == 0.0;
    if panics != 0.0 {
        eprintln!("perfbench: gate: tsc_worker_panics_total = {panics}");
    }

    // The open loop must have kept its schedule: no send may slip past
    // the next one's due time, or the loop has silently closed.
    let mut lags = parts[0].lags_ms.clone();
    lags.sort_by(f64::total_cmp);
    let (lag_p50, lag_max) = if lags.is_empty() {
        (0.0, 0.0)
    } else {
        (quantile(&lags, 0.5), lags[lags.len() - 1])
    };
    let schedule_kept = lag_max < 1e3 / INTERACTIVE_RATE;
    let delta = |series: &str| after.get(series) - before.get(series);
    let shed = |class: &str| delta(&format!("tsc_shed_total{{class=\"{class}\"}}"));
    let admitted = |class: &str| delta(&format!("tsc_admitted_total{{class=\"{class}\"}}"));
    if workload == Workload::ColdUnderLoad {
        eprintln!(
            "perfbench: open loop at {INTERACTIVE_RATE}/s: send lag p50 {lag_p50:.3} ms, max {lag_max:.3} ms; \
             shed interactive {} background {}",
            shed("interactive"),
            shed("background"),
        );
        if !schedule_kept {
            eprintln!("perfbench: FLAG: the open-loop generator fell behind its schedule");
            gates_hold = false;
        }
    }

    if args.trace {
        let trace_bin = bins
            .trace
            .as_ref()
            .expect("trace binary is built in trace mode");
        let (replay_ok, replay_attempted, replay_failed, layers) =
            run_trace(trace_bin, workload, args.seed, args.seconds)?;
        attempted += replay_attempted;
        failed += replay_failed;
        gates_hold &= replay_ok;
        let layer = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        // serve.wait_ms: the part of the untraced median that the
        // in-process path does not cover — socket, connection thread,
        // queue, and time behind another solve.
        let wait_ms = latency_p50 - layer("trace.path_ms");
        let layer_sum = layer("serve.http.parse_us") / 1e3
            + layer("serve.api.parse_us") / 1e3
            + layer("serve.api.execute_ms")
            + layer("serve.http.encode_us") / 1e3;
        let gap = (layer_sum + wait_ms - latency_p50) / latency_p50;
        eprintln!(
            "perfbench: accounting: parse {:.4} + api parse {:.4} + execute {:.4} + encode {:.4} \
             + wait {wait_ms:.4} = {:.4} ms against the untraced median {latency_p50:.4} ms ({:+.2} %)",
            layer("serve.http.parse_us") / 1e3,
            layer("serve.api.parse_us") / 1e3,
            layer("serve.api.execute_ms"),
            layer("serve.http.encode_us") / 1e3,
            layer_sum + wait_ms,
            gap * 100.0,
        );
        eprintln!(
            "perfbench: thermal.setup_ms is {:.1} % of SolveContext::solve (median {:.4} of {:.4} ms); \
             tracing overhead {:.2} us per request",
            layer("thermal.setup_share") * 100.0,
            layer("thermal.setup_ms"),
            layer("thermal.solve_ms"),
            layer("trace.overhead_us"),
        );
        if gap.abs() > ACCOUNTING_LIMIT {
            eprintln!(
                "perfbench: gate: the layer medians do not reconcile with the end-to-end median"
            );
            gates_hold = false;
        }
        let context_hits = delta("tsc_context_pool_hits_total");
        let stack_hits = delta("tsc_stack_cache_hits_total");
        let coalesced = delta("tsc_coalesced_requests_total");
        let all_admitted = admitted("interactive") + admitted("batch") + admitted("background");
        let all_shed = shed("interactive") + shed("batch") + shed("background");
        metrics = layers;
        metrics.extend([
            Metric::new("serve.wait_ms", wait_ms, "ms"),
            Metric::new("trace.accounting_gap_share", gap, "ratio"),
            Metric::new(
                "serve.pool.context_hit_ratio",
                ratio(
                    context_hits,
                    context_hits + delta("tsc_context_pool_misses_total"),
                ),
                "ratio",
            ),
            Metric::new(
                "serve.pool.stack_hit_ratio",
                ratio(
                    stack_hits,
                    stack_hits + delta("tsc_stack_cache_misses_total"),
                ),
                "ratio",
            ),
            Metric::new(
                "serve.coalesced_ratio",
                ratio(coalesced, coalesced + all_admitted + all_shed),
                "ratio",
            ),
            Metric::new(
                "serve.queue.shed_ratio.interactive",
                ratio(
                    shed("interactive"),
                    shed("interactive") + admitted("interactive"),
                ),
                "ratio",
            ),
            Metric::new(
                "serve.queue.shed_ratio.background",
                ratio(
                    shed("background"),
                    shed("background") + admitted("background"),
                ),
                "ratio",
            ),
            Metric::new("serve.queue.shed.interactive", shed("interactive"), "count"),
            Metric::new("serve.queue.shed.background", shed("background"), "count"),
            Metric::new("serve.worker_panics", panics, "count"),
            Metric::new("loadgen.lag_p50_ms", lag_p50, "ms"),
            Metric::new("loadgen.lag_max_ms", lag_max, "ms"),
            Metric::new(
                "loadgen.schedule_kept",
                f64::from(u8::from(schedule_kept)),
                "bool",
            ),
        ]);
    }

    Ok(Outcome {
        correct: failed == 0 && gates_hold,
        attempted,
        failed,
        metrics,
        gate_checked: checked,
    })
}

/// Compare served junction temperatures with the independent reference.
/// On `hot-repeat` every response is checked (one reference per distinct
/// body); on `cold-under-load` a seeded sample of each class.  Returns
/// `(responses checked, responses off by more than the limit)`.
fn reference_gate(
    workload: Workload,
    seed: u64,
    answers: &[(Spec, f64)],
) -> Result<(usize, usize), String> {
    let sample: Vec<&(Spec, f64)> = match workload {
        Workload::HotRepeat => answers.iter().collect(),
        Workload::ColdUnderLoad => {
            let of = |class| answers.iter().filter(|(s, _)| s.class == class).collect();
            let mut sample = seeded_sample(of(Class::Interactive), seed, 4);
            sample.extend(seeded_sample(of(Class::Background), seed ^ 1, 4));
            sample
        }
    };
    let mut references: HashMap<_, f64> = HashMap::new();
    let mut worst = 0.0_f64;
    let mut mismatched = 0;
    for (spec, served) in &sample {
        let reference = match references.get(&spec.key()) {
            Some(&r) => r,
            None => {
                let r = reference_junction(spec)?;
                references.insert(spec.key(), r);
                r
            }
        };
        let error = (served - reference).abs();
        worst = worst.max(error);
        if error > REFERENCE_LIMIT_K {
            mismatched += 1;
            eprintln!(
                "perfbench: gate: {} served {served} °C, reference {reference} °C",
                spec.body()
            );
        }
    }
    eprintln!(
        "perfbench: gate: {} responses checked against {} Jacobi-CG references at 1e-12, \
         max |dT| = {worst:.3e} K, {mismatched} over {REFERENCE_LIMIT_K} K",
        sample.len(),
        references.len()
    );
    if sample.is_empty() {
        return Err("the correctness gate had no responses to check".into());
    }
    Ok((sample.len(), mismatched))
}

fn seeded_sample<T>(mut items: Vec<T>, seed: u64, count: usize) -> Vec<T> {
    let mut rng = seeded(seed, 99);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
    items.truncate(count);
    items
}

/// Run the in-process replay and read its result line.
fn run_trace(
    bin: &PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let output = Command::new(bin)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err("perfbench-trace failed".into());
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .last()
        .ok_or("perfbench-trace printed nothing")?;
    let result = json::parse(line).map_err(|e| format!("perfbench-trace output: {e}"))?;
    let count = |key| result.get(key).and_then(Json::as_usize).unwrap_or(0);
    let metrics = parse_metrics(&result)?;
    Ok((
        result.get("correct").and_then(Json::as_bool) == Some(true),
        count("attempted"),
        count("failed"),
        metrics,
    ))
}

/// The `metrics` object of a result line.
fn parse_metrics(result: &Json) -> Result<Vec<Metric>, String> {
    let Some(Json::Object(fields)) = result.get("metrics") else {
        return Err("result line has no metrics object".into());
    };
    fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok(Metric::new(name, value, unit)),
                _ => Err(format!("metric {name} lacks a value or unit")),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- smoke

/// Run every workload briefly, untraced and traced, and check that each
/// prints exactly the metrics `BENCHMARK.json` names, with their units,
/// that the correctness gate ran, and that the run is correct.
fn smoke() -> Result<(), String> {
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = json::parse(&spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = |section: &str| -> Result<Vec<(String, String)>, String> {
        let list = spec
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        list.iter()
            .map(|m| {
                match (
                    m.get("name").and_then(Json::as_str),
                    m.get("unit").and_then(Json::as_str),
                ) {
                    (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                    _ => Err(format!("a {section} entry lacks name or unit")),
                }
            })
            .collect()
    };
    let end_to_end = declared("end_to_end")?;
    let per_layer = declared("per_layer")?;
    let bins = Binaries::build(true)?;
    pin_to_one_cpu()?;
    for workload in Workload::ALL {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let args = Args {
                workload,
                seed: 7,
                seconds: 2.0,
                trace,
            };
            let outcome = run(&bins, &args)?;
            let line = result_line(
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                &outcome.metrics,
            );
            let printed =
                parse_metrics(&json::parse(&line).map_err(|e| format!("result line: {e}"))?)?;
            let mut got: Vec<(String, String)> = printed
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect();
            let mut want = expected.clone();
            got.sort();
            want.sort();
            let what = format!("{} trace {}", workload.name(), u8::from(trace));
            if got != want {
                return Err(format!(
                    "{what}: printed metrics {got:?}, BENCHMARK.json names {want:?}"
                ));
            }
            if outcome.gate_checked == 0 {
                return Err(format!("{what}: the correctness gate checked no response"));
            }
            if !outcome.correct || outcome.attempted == 0 {
                return Err(format!("{what}: run not correct: {line}"));
            }
            eprintln!(
                "perfbench: smoke {what}: ok ({} metrics, {} responses checked)",
                got.len(),
                outcome.gate_checked
            );
        }
    }
    println!("perfbench smoke: ok");
    Ok(())
}
