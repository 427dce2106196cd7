//! The bounded job table the scheduler runs from.
//!
//! This is a *plain data structure* — no locking, no threads, no
//! wall-clock reads. `tsc-serve` wraps it in a ranked mutex and passes
//! `Instant`s in from outside, which keeps every transition unit-
//! testable and keeps the scheduling policy (per-class concurrency
//! quotas, TTL eviction, cooperative cancellation) in one place:
//!
//! * jobs are admitted up to `capacity`, then rejected — the table is
//!   distinct from the request queue, so a full table never blocks
//!   interactive traffic;
//! * at most `active_per_class` jobs per [`JobClass`] are `Running`;
//!   the rest wait `Queued` in submit order;
//! * finished entries (and their results) linger for `ttl` so clients
//!   can poll, then evict.

use std::time::{Duration, Instant};

use tsc_bench::json::Json;
use tsc_rng::Rng64;

use crate::checkpoint::hex_u64;
use crate::engine::{Engine, ShardWork};
use crate::spec::{JobKind, JobSpec};

/// Table sizing and retention.
#[derive(Debug, Clone, Copy)]
pub struct TableConfig {
    /// Maximum entries (all states) the table holds.
    pub capacity: usize,
    /// `Running` jobs allowed per class.
    pub active_per_class: usize,
    /// How long terminal entries linger before eviction.
    pub ttl: Duration,
}

impl Default for TableConfig {
    fn default() -> Self {
        Self {
            capacity: 16,
            active_per_class: 2,
            ttl: Duration::from_secs(600),
        }
    }
}

/// Scheduling class of a job (quotas apply per class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Bounded multi-solve work: sweeps, placements.
    Batch,
    /// Long optimization runs: tempered floorplanning.
    Background,
}

impl JobClass {
    /// The class a kind schedules under.
    #[must_use]
    pub fn of(kind: JobKind) -> Self {
        match kind {
            JobKind::FloorplanSa => Self::Background,
            JobKind::DielectricSweep | JobKind::PillarPlace => Self::Batch,
        }
    }

    /// Wire/metrics label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Batch => "batch",
            Self::Background => "background",
        }
    }
}

/// Lifecycle of a table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a class slot.
    Queued,
    /// Work units are being issued.
    Running,
    /// Finished with a result.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled by the client (or drained).
    Cancelled,
}

impl JobState {
    /// Wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
        }
    }

    /// `true` for states that issue no further work.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Done | Self::Failed | Self::Cancelled)
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The table is at capacity (retry after jobs finish/evict).
    TableFull,
    /// The spec failed engine construction.
    BadSpec(String),
}

/// Monotone lifetime totals the table keeps across evictions, so an
/// exporter can expose counters that never move backwards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableCounters {
    /// Jobs that reached [`JobState::Done`].
    pub done: u64,
    /// Jobs that reached [`JobState::Failed`].
    pub failed: u64,
    /// Jobs that reached [`JobState::Cancelled`].
    pub cancelled: u64,
    /// Terminal entries evicted after their TTL.
    pub evicted: u64,
    /// Fresh evaluations performed by jobs that reached a terminal
    /// state (live jobs' evaluations are still on their engines).
    pub evals: u64,
    /// Memo-served evaluations of terminal jobs.
    pub dedup_hits: u64,
}

/// One job in the table.
#[derive(Debug)]
pub struct JobEntry {
    /// Table-unique id (served as 16 hex digits).
    pub id: u64,
    /// Scheduling class.
    pub class: JobClass,
    /// Lifecycle state.
    pub state: JobState,
    /// Spec summary echoed in status documents.
    pub summary: Json,
    /// The engine.
    pub engine: Engine,
    /// Progress events, in order, for `/events` streaming.
    pub events: Vec<Json>,
    /// Failure message, if `Failed`.
    pub error: Option<String>,
    /// Cooperative cancel flag (stops new checkouts).
    pub cancel_requested: bool,
    /// Work units currently out with workers.
    pub inflight: usize,
    /// Admission time.
    pub submitted_at: Instant,
    /// Terminal-transition time (starts the TTL clock).
    pub finished_at: Option<Instant>,
}

impl JobEntry {
    fn push_state_event(&mut self) {
        self.events.push(
            Json::object()
                .field("event", "state")
                .field("state", self.state.label()),
        );
    }

    fn finish(&mut self, state: JobState, now: Instant) {
        self.state = state;
        self.finished_at = Some(now);
        self.push_state_event();
    }

    /// The full status document for `GET /v1/jobs/{id}`.
    #[must_use]
    pub fn status(&self) -> Json {
        let mut doc = Json::object()
            .field("id", hex_u64(self.id))
            .field("state", self.state.label())
            .field("class", self.class.label())
            .field("spec", self.summary.clone())
            .field("progress", self.engine.progress().to_json())
            .field("events", self.events.len());
        if let Some(err) = &self.error {
            doc = doc.field("error", err.as_str());
        }
        if let Some(result) = self.engine.result() {
            if self.state == JobState::Done {
                doc = doc.field("result", result);
            }
        }
        doc
    }
}

/// The bounded job table.
#[derive(Debug)]
pub struct JobTable {
    config: TableConfig,
    entries: Vec<JobEntry>,
    id_rng: Rng64,
    counters: TableCounters,
}

impl JobTable {
    /// An empty table; `id_seed` seeds the id stream.
    #[must_use]
    pub fn new(config: TableConfig, id_seed: u64) -> Self {
        Self {
            config,
            entries: Vec::new(),
            id_rng: Rng64::seed_from_u64(id_seed),
            counters: TableCounters::default(),
        }
    }

    /// Lifetime totals (survive eviction).
    #[must_use]
    pub fn counters(&self) -> TableCounters {
        self.counters
    }

    /// All current entries, in submit order.
    pub fn entries(&self) -> impl Iterator<Item = &JobEntry> {
        self.entries.iter()
    }

    /// Entries currently held (all states).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(running, queued)` counts for gauges.
    #[must_use]
    pub fn load(&self) -> (usize, usize) {
        let running = self
            .entries
            .iter()
            .filter(|e| e.state == JobState::Running)
            .count();
        let queued = self
            .entries
            .iter()
            .filter(|e| e.state == JobState::Queued)
            .count();
        (running, queued)
    }

    fn active(&self, class: JobClass) -> usize {
        self.entries
            .iter()
            .filter(|e| e.class == class && e.state == JobState::Running)
            .count()
    }

    /// Admits a job.
    ///
    /// # Errors
    ///
    /// [`SubmitError::TableFull`] at capacity, [`SubmitError::BadSpec`]
    /// when the engine rejects the spec (unknown design, bad resume
    /// checkpoint).
    pub fn submit(&mut self, spec: &JobSpec, now: Instant) -> Result<u64, SubmitError> {
        if self.entries.len() >= self.config.capacity {
            return Err(SubmitError::TableFull);
        }
        let engine = Engine::from_spec(spec).map_err(SubmitError::BadSpec)?;
        let id = loop {
            let id = self.id_rng.next_u64();
            if id != 0 && self.get(id).is_none() {
                break id;
            }
        };
        let mut entry = JobEntry {
            id,
            class: JobClass::of(spec.kind),
            state: JobState::Queued,
            summary: spec.summary(),
            engine,
            events: Vec::new(),
            error: None,
            cancel_requested: false,
            inflight: 0,
            submitted_at: now,
            finished_at: None,
        };
        entry.push_state_event();
        self.entries.push(entry);
        Ok(id)
    }

    /// Looks up an entry.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&JobEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut JobEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Promotes queued jobs within quotas and checks out up to `max`
    /// work units, round-robin across running jobs so one job cannot
    /// monopolize the worker pool.
    pub fn next_slices(&mut self, max: usize, now: Instant) -> Vec<(u64, ShardWork)> {
        // Promotion in submit order.
        for i in 0..self.entries.len() {
            if self.entries[i].state != JobState::Queued {
                continue;
            }
            let class = self.entries[i].class;
            if self.active(class) < self.config.active_per_class {
                self.entries[i].state = JobState::Running;
                self.entries[i].push_state_event();
            }
        }
        let mut out = Vec::new();
        loop {
            let before = out.len();
            for i in 0..self.entries.len() {
                if out.len() >= max {
                    return out;
                }
                let entry = &mut self.entries[i];
                if entry.state != JobState::Running || entry.cancel_requested {
                    continue;
                }
                if let Some(work) = entry.engine.next_work() {
                    entry.inflight += 1;
                    out.push((entry.id, work));
                } else if entry.inflight == 0 {
                    // Nothing checked out and nothing to issue: the
                    // engine ended without a completion call (e.g. an
                    // engine that was already done on admission).
                    let id = entry.id;
                    self.settle(id, now);
                }
            }
            if out.len() == before {
                return out;
            }
        }
    }

    /// Folds a terminal state out of the engine once nothing is in
    /// flight.
    fn settle(&mut self, id: u64, now: Instant) {
        let Some(idx) = self.entries.iter().position(|e| e.id == id) else {
            return;
        };
        let finished = {
            let entry = &mut self.entries[idx];
            if entry.state.is_terminal() || entry.inflight > 0 {
                return;
            }
            if let Some(msg) = entry.engine.failed() {
                entry.error = Some(msg.to_string());
                entry.finish(JobState::Failed, now);
                Some(JobState::Failed)
            } else if entry.engine.is_done() {
                entry.finish(JobState::Done, now);
                Some(JobState::Done)
            } else if entry.cancel_requested {
                entry.finish(JobState::Cancelled, now);
                Some(JobState::Cancelled)
            } else {
                None
            }
        };
        if let Some(state) = finished {
            self.record_terminal(idx, state);
        }
    }

    /// Folds a terminal transition into the lifetime counters.
    fn record_terminal(&mut self, idx: usize, state: JobState) {
        let progress = self.entries[idx].engine.progress();
        match state {
            JobState::Done => self.counters.done += 1,
            JobState::Failed => self.counters.failed += 1,
            JobState::Cancelled => self.counters.cancelled += 1,
            JobState::Queued | JobState::Running => {}
        }
        self.counters.evals += progress.evals;
        self.counters.dedup_hits += progress.dedup_hits;
    }

    /// Returns a completed work unit. Events the engine emits are
    /// buffered on the entry; terminal transitions settle here.
    pub fn complete(&mut self, id: u64, work: ShardWork, now: Instant) {
        let Some(entry) = self.get_mut(id) else {
            return; // Entry evicted while the shard ran: drop it.
        };
        entry.inflight = entry.inflight.saturating_sub(1);
        let events = entry.engine.complete_shard(work);
        entry.events.extend(events);
        self.settle(id, now);
    }

    /// Requests cancellation. Queued jobs cancel immediately; running
    /// jobs stop issuing work and settle when in-flight units return.
    /// Returns the entry's state after the request.
    pub fn cancel(&mut self, id: u64, now: Instant) -> Option<JobState> {
        let idx = self.entries.iter().position(|e| e.id == id)?;
        let finished = {
            let entry = &mut self.entries[idx];
            if !entry.state.is_terminal() {
                entry.cancel_requested = true;
                if entry.inflight == 0 {
                    entry.finish(JobState::Cancelled, now);
                    true
                } else {
                    false
                }
            } else {
                false
            }
        };
        if finished {
            self.record_terminal(idx, JobState::Cancelled);
        }
        Some(self.entries[idx].state)
    }

    /// Writes off a work unit a worker lost (panic mid-slice): the
    /// engine can never be advanced safely again, so the entry fails
    /// immediately instead of waiting on a return that will not come.
    pub fn abandon(&mut self, id: u64, error: &str, now: Instant) {
        let Some(idx) = self.entries.iter().position(|e| e.id == id) else {
            return;
        };
        let finished = {
            let entry = &mut self.entries[idx];
            entry.inflight = entry.inflight.saturating_sub(1);
            if entry.state.is_terminal() {
                false
            } else {
                entry.error = Some(error.to_string());
                entry.finish(JobState::Failed, now);
                true
            }
        };
        if finished {
            self.record_terminal(idx, JobState::Failed);
        }
    }

    /// Evicts terminal entries whose TTL has lapsed; returns how many.
    pub fn evict_expired(&mut self, now: Instant) -> usize {
        let ttl = self.config.ttl;
        let before = self.entries.len();
        self.entries.retain(|e| {
            !(e.state.is_terminal()
                && e.inflight == 0
                && e.finished_at.is_some_and(|t| now.duration_since(t) >= ttl))
        });
        let evicted = before - self.entries.len();
        self.counters.evicted += evicted as u64;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_bench::json::{parse, Json};

    fn fp_spec(seed: u64) -> JobSpec {
        let body = parse(&format!(
            r#"{{"kind": "floorplan_sa", "design": "rocket", "replicas": 2, "seed": {seed}}}"#
        ))
        .expect("json");
        JobSpec::parse(&body).expect("spec")
    }

    fn drain(table: &mut JobTable, now: Instant) {
        loop {
            let slices = table.next_slices(8, now);
            if slices.is_empty() {
                break;
            }
            for (id, mut work) in slices {
                work.run();
                table.complete(id, work, now);
            }
        }
    }

    #[test]
    fn quotas_keep_excess_jobs_queued() {
        let config = TableConfig {
            capacity: 8,
            active_per_class: 1,
            ttl: Duration::from_secs(60),
        };
        let now = Instant::now();
        let mut table = JobTable::new(config, 1);
        let a = table.submit(&fp_spec(1), now).expect("submit");
        let b = table.submit(&fp_spec(2), now).expect("submit");
        let slices = table.next_slices(8, now);
        assert!(!slices.is_empty());
        assert_eq!(table.get(a).expect("a").state, JobState::Running);
        assert_eq!(
            table.get(b).expect("b").state,
            JobState::Queued,
            "class quota of 1 must hold the second job back"
        );
        assert!(slices.iter().all(|(id, _)| *id == a));
        for (id, mut work) in slices {
            work.run();
            table.complete(id, work, now);
        }
        drain(&mut table, now);
        assert_eq!(table.get(a).expect("a").state, JobState::Done);
        assert_eq!(table.get(b).expect("b").state, JobState::Done);
    }

    #[test]
    fn table_full_rejects_and_ttl_evicts() {
        let config = TableConfig {
            capacity: 1,
            active_per_class: 1,
            ttl: Duration::from_secs(10),
        };
        let now = Instant::now();
        let mut table = JobTable::new(config, 2);
        let id = table.submit(&fp_spec(1), now).expect("submit");
        assert_eq!(table.submit(&fp_spec(2), now), Err(SubmitError::TableFull));
        drain(&mut table, now);
        assert_eq!(table.get(id).expect("entry").state, JobState::Done);
        assert_eq!(table.evict_expired(now), 0, "TTL has not lapsed yet");
        let later = now + Duration::from_secs(11);
        assert_eq!(table.evict_expired(later), 1);
        assert!(table.get(id).is_none());
        assert!(table.submit(&fp_spec(3), later).is_ok());
    }

    #[test]
    fn cancel_mid_run_settles_after_inflight_returns() {
        let now = Instant::now();
        let mut table = JobTable::new(TableConfig::default(), 3);
        let id = table.submit(&fp_spec(5), now).expect("submit");
        let slices = table.next_slices(1, now);
        assert_eq!(slices.len(), 1);
        assert_eq!(
            table.cancel(id, now),
            Some(JobState::Running),
            "a job with in-flight work stays running until it drains"
        );
        assert!(
            table.next_slices(8, now).is_empty(),
            "a cancel-requested job must stop issuing work"
        );
        for (sid, mut work) in slices {
            work.run();
            table.complete(sid, work, now);
        }
        assert_eq!(table.get(id).expect("entry").state, JobState::Cancelled);
        // Cancelling a terminal job is a no-op.
        assert_eq!(table.cancel(id, now), Some(JobState::Cancelled));
    }

    #[test]
    fn abandon_fails_the_job_and_counters_stay_monotone() {
        let now = Instant::now();
        let mut table = JobTable::new(TableConfig::default(), 7);
        let id = table.submit(&fp_spec(3), now).expect("submit");
        let mut slices = table.next_slices(1, now);
        assert_eq!(slices.len(), 1);
        // The worker that held this slice panicked: the unit is gone.
        table.abandon(id, "worker panicked", now);
        assert_eq!(table.get(id).expect("entry").state, JobState::Failed);
        assert_eq!(table.counters().failed, 1);
        // A straggler returning a slice for a terminal entry is harmless.
        let (sid, mut work) = slices.pop().expect("slice");
        work.run();
        table.complete(sid, work, now);
        assert_eq!(table.get(id).expect("entry").state, JobState::Failed);
        assert_eq!(table.counters().failed, 1, "no double count");
        let later = now + Duration::from_secs(601);
        assert_eq!(table.evict_expired(later), 1);
        assert_eq!(table.counters().evicted, 1);
    }

    #[test]
    fn bad_specs_are_rejected_with_a_message() {
        let now = Instant::now();
        let mut table = JobTable::new(TableConfig::default(), 4);
        let body = parse(r#"{"kind": "floorplan_sa", "design": "warp-core"}"#).expect("json");
        let spec = JobSpec::parse(&body).expect("spec parses; engine rejects");
        match table.submit(&spec, now) {
            Err(SubmitError::BadSpec(msg)) => assert!(msg.contains("warp-core")),
            other => panic!("expected BadSpec, got {other:?}"),
        }
    }

    #[test]
    fn status_document_carries_result_when_done() {
        let now = Instant::now();
        let mut table = JobTable::new(TableConfig::default(), 5);
        let id = table.submit(&fp_spec(9), now).expect("submit");
        drain(&mut table, now);
        let status = table.get(id).expect("entry").status();
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        assert!(status.get("result").is_some());
        assert!(status
            .get("progress")
            .and_then(|p| p.get("fraction"))
            .and_then(Json::as_f64)
            .is_some_and(|f| (f - 1.0).abs() < 1e-12));
    }
}
