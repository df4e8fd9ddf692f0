//! The campaign supervisor: panic-isolated workers, journaled
//! checkpoint/resume, poison-run quarantine and a wall-clock watchdog.
//!
//! The plain experiment loop trusts every run: a worker panic used to
//! abort the whole campaign (`join().expect("worker panicked")`), a
//! wedged simulator run could stall a worker forever, and an
//! interrupted campaign lost everything. The supervisor closes those
//! holes without disturbing the determinism contract — a supervised
//! campaign's records and merged metrics are bit-identical for any
//! worker count, and a campaign interrupted at any point and resumed
//! from its journal produces the same dataset as an uninterrupted one.
//!
//! * **Panic isolation** — each run executes under
//!   [`std::panic::catch_unwind`]. A panicking run poisons its rig, so
//!   the worker discards it, rebuilds a fresh one from scratch, and
//!   retries; a persistent offender is recorded as
//!   [`Outcome::RigFault`] instead of silently disappearing. A worker
//!   that cannot rebuild its rig pushes its job back and dies; the
//!   shared queue redistributes its remaining work to the survivors
//!   (or, if every worker dies, to a main-thread fallback).
//! * **Journal** — completed runs (record + per-run metrics delta) are
//!   appended to a CRC-framed journal ([`crate::journal`]); `--resume`
//!   replays the intact prefix and only executes what's missing.
//!   Frames are appended in plan-index order regardless of which
//!   worker finished first: the journal's bytes are identical for any
//!   worker count.
//! * **Quarantine** — runs that panic or trip the machine sanitizer are
//!   retried up to [`MAX_RETRIES`] times on a fresh rig; persistent
//!   offenders get a minimal-repro artifact written to the quarantine
//!   directory and are surfaced in the report.
//! * **Watchdog** — a supervisor thread flags runs exceeding the
//!   wall-clock budget via the machine's cooperative abort flag,
//!   degrading simulator-level livelock (which the in-guest cycle
//!   budget cannot see) into an ordinary hang-classified record.
//!
//! **One bookkeeping path.** The supervisor, the campaign matrix
//! ([`run_plan_supervised`]) and the distributed coordinator
//! ([`crate::dist`]) differ only in where a job runs. Each keeps its
//! campaign's books in the same `Ledger`: built from the plan and the
//! resumed journal entries, it yields the jobs still to run, journals
//! each finished job in plan-index order, and merges the records into
//! the [`CampaignResult`]. One function opens the study's journal, syncs
//! it at every campaign boundary and closes it.

use crate::experiment::{CampaignResult, Experiment, StudyResult};
use crate::journal::{Journal, JournalEntry};
use kfi_injector::{Campaign, InjectionTarget, InjectorRig, Outcome, RunRecord};
use kfi_trace::{outcome as trace_outcome, Metrics};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retries (each on a fresh rig) granted to a run that panicked or
/// tripped the sanitizer, beyond its first attempt.
pub const MAX_RETRIES: usize = 2;

/// Test-only fault injection into the *harness*: makes the listed job
/// indices panic inside the worker, exercising the containment path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum PanicInjection {
    /// No injected panics (the production setting).
    #[default]
    None,
    /// Panic on the first attempt of each listed job; retries succeed.
    Transient(BTreeSet<usize>),
    /// Panic on every attempt of each listed job; the supervisor must
    /// quarantine them as [`Outcome::RigFault`].
    Persistent(BTreeSet<usize>),
}

impl PanicInjection {
    fn should_panic(&self, index: usize, attempt: usize) -> bool {
        match self {
            PanicInjection::None => false,
            PanicInjection::Transient(set) => attempt == 0 && set.contains(&index),
            PanicInjection::Persistent(set) => set.contains(&index),
        }
    }
}

/// Supervisor policy.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Wall-clock budget per run; `None` disables the watchdog. Runs
    /// exceeding it are aborted via the machine's cooperative abort
    /// flag and classify as [`Outcome::Hang`].
    pub wall_budget: Option<Duration>,
    /// Directory for minimal-repro artifacts of quarantined runs.
    pub quarantine_dir: Option<PathBuf>,
    /// Journal path; every completed run is checkpointed here.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal at [`SupervisorConfig::journal`]
    /// instead of truncating it.
    pub resume: bool,
    /// Harness-fault injection (tests only).
    pub inject_panic: PanicInjection,
}

/// One quarantined run, surfaced in the report.
#[derive(Debug, Clone)]
pub struct QuarantineReport {
    /// Campaign letter.
    pub campaign: char,
    /// Job index within the campaign plan.
    pub index: usize,
    /// Target function.
    pub function: String,
    /// Why the run was quarantined.
    pub reason: String,
    /// Artifact path, when a quarantine directory was configured and
    /// the write succeeded.
    pub path: Option<PathBuf>,
}

/// What the supervisor did beyond the dataset itself. Everything here
/// is reporting-only: none of it feeds the CSV dataset, which must stay
/// independent of interruptions and worker scheduling.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Runs skipped because the journal already had them.
    pub resumed_runs: usize,
    /// Journal fsync batches performed.
    pub journal_flushes: u64,
    /// Worker panics caught.
    pub rig_panics: u64,
    /// Retries performed (fresh rig each).
    pub retries: u64,
    /// Runs quarantined as persistent offenders.
    pub quarantined_runs: u64,
    /// Runs the wall-clock watchdog aborted.
    pub watchdog_fired: u64,
    /// Workers that died (rig rebuild failed) with their jobs
    /// redistributed.
    pub workers_lost: usize,
    /// Per-run quarantine details.
    pub quarantined: Vec<QuarantineReport>,
}

impl SupervisorReport {
    fn absorb_campaign(&mut self, m: &Metrics) {
        self.rig_panics += m.rig_panics;
        self.retries += m.run_retries;
        self.quarantined_runs += m.quarantined_runs;
        self.watchdog_fired += m.wall_watchdog_fired;
    }
}

/// A supervised campaign: the ordinary result plus the supervisor's
/// report.
pub struct SupervisedCampaign {
    /// The campaign result (same shape as the unsupervised path).
    pub result: CampaignResult,
    /// What the supervisor had to do.
    pub report: SupervisorReport,
}

/// A supervised full study.
pub struct SupervisedStudy {
    /// The study result (same shape as [`Experiment::run_all`]).
    pub study: StudyResult,
    /// Report aggregated across the three campaigns.
    pub report: SupervisorReport,
}

/// A campaign's jobs: each planned target with the workload (run mode)
/// it runs under, in plan-index order.
pub(crate) type Plan = Vec<(InjectionTarget, u32)>;

/// One planned unit of work.
#[derive(Clone)]
pub(crate) struct Job {
    pub(crate) index: usize,
    pub(crate) target: InjectionTarget,
    pub(crate) mode: u32,
}

/// Per-worker watchdog slot. The watchdog sets `abort` only while
/// holding `started`'s lock and seeing a running run; the worker clears
/// both under the same lock, so a flag raised for run N can never leak
/// into run N+1.
pub(crate) struct WatchSlot {
    pub(crate) started: Mutex<Option<Instant>>,
    pub(crate) abort: Arc<AtomicBool>,
}

impl WatchSlot {
    pub(crate) fn new() -> WatchSlot {
        WatchSlot { started: Mutex::new(None), abort: Arc::new(AtomicBool::new(false)) }
    }
}

/// The wall-clock watchdog loop: raises the abort flag of every slot
/// whose run has exceeded `budget`, once a millisecond, until `stop`.
pub(crate) fn watchdog(slots: &[WatchSlot], budget: Duration, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        for slot in slots {
            let started = slot.started.lock().expect("watch slot");
            if started.is_some_and(|t0| t0.elapsed() >= budget) {
                slot.abort.store(true, Ordering::SeqCst);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How one job finished.
pub(crate) struct JobDone {
    pub(crate) index: usize,
    pub(crate) record: RunRecord,
    /// Final-attempt rig metrics delta + this job's supervisor counters.
    pub(crate) metrics: Metrics,
    pub(crate) quarantine: Option<QuarantineReport>,
}

impl JobDone {
    /// A run the harness lost: a [`Outcome::RigFault`] record, counted
    /// as one run on top of the job's supervisor counters `metrics`.
    pub(crate) fn rig_fault(job: &Job, msg: &str, mut metrics: Metrics) -> JobDone {
        metrics.runs += 1;
        metrics.record_outcome(trace_outcome::RIG_FAULT);
        let record = RunRecord {
            target: job.target.clone(),
            mode: job.mode,
            outcome: Outcome::RigFault(msg.to_string()),
            activation_tsc: None,
            run_cycles: 0,
            sanitizer_violations: 0,
        };
        JobDone { index: job.index, record, metrics, quarantine: None }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Writes a minimal-repro artifact for a quarantined run. Best-effort:
/// a failed write degrades to a report entry without a path.
fn write_quarantine_artifact(
    dir: &std::path::Path,
    exp: &Experiment,
    job: &Job,
    attempts: usize,
    reason: &str,
    rig: Option<&mut InjectorRig>,
) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let t = &job.target;
    let name = format!("{}{:05}_{}.txt", t.campaign.letter(), job.index, t.function);
    let path = dir.join(name);
    let mut text = String::new();
    text.push_str("kfi quarantine artifact\n");
    text.push_str(&format!("campaign: {}\njob index: {}\n", t.campaign.letter(), job.index));
    text.push_str(&format!("function: {} (subsystem {})\n", t.function, t.subsystem));
    text.push_str(&format!(
        "injection: addr {:#x} byte {} mask {:#04x} (insn len {}, branch: {})\n",
        t.insn_addr, t.byte_index, t.bit_mask, t.insn_len, t.is_branch
    ));
    text.push_str(&format!("mode: {}\nseed: {}\n", job.mode, exp.config.seed));
    text.push_str(&format!("attempts: {}\nreason: {}\n", attempts, reason));
    match rig {
        Some(rig) => match kfi_dump::capture(rig.machine_mut(), &exp.image) {
            Some(dump) => {
                text.push_str("\n--- crash capture ---\n");
                text.push_str(&dump.format(&exp.image));
            }
            None => text.push_str("\n(no crash cause reported by the guest)\n"),
        },
        None => text.push_str("\n(rig poisoned; no machine state to capture)\n"),
    }
    std::fs::write(&path, text).ok()?;
    Some(path)
}

/// Executes one job to a final record, retrying panics and
/// sanitizer-poisoned runs on a fresh rig. Returns `Err(())` when the
/// rig died and could not be rebuilt — the job goes back to the queue.
pub(crate) fn process_job(
    exp: &Experiment,
    cfg: &SupervisorConfig,
    job: &Job,
    rig: &mut Option<InjectorRig>,
    slot: &WatchSlot,
) -> Result<JobDone, ()> {
    let mut sup = Metrics::default();
    let mut attempt = 0usize;
    loop {
        if rig.is_none() {
            match exp.make_rig() {
                Ok(mut fresh) => {
                    if cfg.wall_budget.is_some() {
                        fresh.machine_mut().set_abort_flag(Some(slot.abort.clone()));
                    }
                    *rig = Some(fresh);
                }
                Err(_) => return Err(()),
            }
        }
        let r = rig.as_mut().expect("rig present");
        {
            let mut s = slot.started.lock().expect("watch slot");
            slot.abort.store(false, Ordering::SeqCst);
            *s = cfg.wall_budget.map(|_| Instant::now());
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if cfg.inject_panic.should_panic(job.index, attempt) {
                panic!("injected worker panic (job {}, attempt {attempt})", job.index);
            }
            r.run_one(&job.target, job.mode)
        }));
        let watchdog_fired = {
            let mut s = slot.started.lock().expect("watch slot");
            *s = None;
            slot.abort.swap(false, Ordering::SeqCst)
        };
        if watchdog_fired {
            sup.wall_watchdog_fired += 1;
        }
        match result {
            Ok(record) => {
                let mut delta = rig.as_mut().expect("rig present").take_metrics();
                if record.sanitizer_violations > 0 && attempt < MAX_RETRIES {
                    // Poisoned run: retry on a fresh rig.
                    sup.run_retries += 1;
                    *rig = None;
                    attempt += 1;
                    continue;
                }
                let quarantine = if record.sanitizer_violations > 0 {
                    sup.quarantined_runs += 1;
                    let reason = format!(
                        "sanitizer violations persisted across {} attempts ({} in final run)",
                        attempt + 1,
                        record.sanitizer_violations
                    );
                    let path = cfg.quarantine_dir.as_deref().and_then(|d| {
                        write_quarantine_artifact(d, exp, job, attempt + 1, &reason, rig.as_mut())
                    });
                    Some(QuarantineReport {
                        campaign: job.target.campaign.letter(),
                        index: job.index,
                        function: job.target.function.clone(),
                        reason,
                        path,
                    })
                } else {
                    None
                };
                delta.merge(&sup);
                return Ok(JobDone { index: job.index, record, metrics: delta, quarantine });
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                sup.rig_panics += 1;
                // The rig is poisoned — never reuse it after a panic.
                *rig = None;
                if attempt < MAX_RETRIES {
                    sup.run_retries += 1;
                    attempt += 1;
                    continue;
                }
                // Persistent offender: record the loss and quarantine.
                sup.quarantined_runs += 1;
                let reason = format!("panicked on all {} attempts: {msg}", attempt + 1);
                let path = cfg.quarantine_dir.as_deref().and_then(|d| {
                    write_quarantine_artifact(d, exp, job, attempt + 1, &reason, None)
                });
                let mut done = JobDone::rig_fault(job, &msg, sup);
                done.quarantine = Some(QuarantineReport {
                    campaign: job.target.campaign.letter(),
                    index: job.index,
                    function: job.target.function.clone(),
                    reason,
                    path,
                });
                return Ok(done);
            }
        }
    }
}

/// Finishes `jobs` on the calling thread with one private rig: the last
/// rung of the always-completes ladder, for the supervisor (every
/// worker died) and the dist coordinator (the pool collapsed) alike. If
/// even this thread cannot build a rig, the job becomes a RigFault
/// record — the dataset stays complete and the failure is visible, not
/// fatal.
pub(crate) fn finish_here(
    exp: &Experiment,
    cfg: &SupervisorConfig,
    jobs: impl IntoIterator<Item = Job>,
    mut sink: impl FnMut(JobDone),
) {
    let slot = WatchSlot::new();
    let mut rig: Option<InjectorRig> = None;
    for job in jobs {
        let done = process_job(exp, cfg, &job, &mut rig, &slot).unwrap_or_else(|()| {
            JobDone::rig_fault(&job, "rig could not be built on any worker", Metrics::default())
        });
        sink(done);
    }
}

/// One campaign's books, shared by every runner. Built from the plan
/// and the campaign's resumed journal entries, it knows which jobs are
/// still to run; [`Ledger::record`] files each finished job and appends
/// it to the journal in plan-index order, not completion order, so the
/// journal's bytes are identical for any worker count and arrival
/// order; [`Ledger::finish`] merges everything into the campaign
/// result.
pub(crate) struct Ledger<'j> {
    campaign: Campaign,
    plan: Plan,
    /// Each plan index's final outcome, once replayed or recorded.
    done: Vec<Option<JobDone>>,
    /// Plan indices replayed from the journal: already on disk.
    replayed: Vec<bool>,
    /// Plan indices still without an outcome.
    remaining: usize,
    journal: Option<&'j mut Journal>,
    /// Next plan index the journal is waiting for. Outcomes recorded
    /// ahead of a still-running earlier job wait in `done` until the
    /// gap closes.
    next: usize,
}

impl<'j> Ledger<'j> {
    fn new(
        campaign: Campaign,
        plan: Plan,
        mut journaled: BTreeMap<usize, JournalEntry>,
        journal: Option<&'j mut Journal>,
    ) -> Ledger<'j> {
        // A journaled entry only counts when it matches the plan exactly
        // — same target, same mode — so a stale or foreign journal can
        // never smuggle records into the dataset.
        let done: Vec<Option<JobDone>> = plan
            .iter()
            .enumerate()
            .map(|(index, (target, mode))| {
                journaled
                    .remove(&index)
                    .filter(|e| e.record.target == *target && e.record.mode == *mode)
                    .map(|e| JobDone {
                        index,
                        record: e.record,
                        metrics: e.metrics,
                        quarantine: None,
                    })
            })
            .collect();
        let replayed: Vec<bool> = done.iter().map(Option::is_some).collect();
        let remaining = replayed.iter().filter(|r| !**r).count();
        Ledger { campaign, plan, done, replayed, remaining, journal, next: 0 }
    }

    pub(crate) fn campaign(&self) -> Campaign {
        self.campaign
    }

    pub(crate) fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Runs replayed from the journal instead of executed.
    pub(crate) fn resumed_runs(&self) -> usize {
        self.replayed.iter().filter(|r| **r).count()
    }

    /// Plan indices still without an outcome.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether plan index `index` already has its outcome.
    pub(crate) fn is_done(&self, index: usize) -> bool {
        self.done[index].is_some()
    }

    /// The plan indices still to run, in plan order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        self.done.iter().enumerate().filter(|(_, d)| d.is_none()).map(|(i, _)| i)
    }

    /// The job at plan index `index`.
    pub(crate) fn job(&self, index: usize) -> Job {
        let (target, mode) = self.plan[index].clone();
        Job { index, target, mode }
    }

    /// Files a finished job and appends every outcome now contiguous
    /// with the journal's tail. The caller records each index once.
    pub(crate) fn record(&mut self, done: JobDone) {
        let index = done.index;
        assert!(self.done[index].is_none(), "plan index {index} recorded twice");
        self.done[index] = Some(done);
        self.remaining -= 1;
        let Some(j) = self.journal.as_deref_mut() else { return };
        while let Some(Some(d)) = self.done.get(self.next) {
            if !self.replayed[self.next] {
                // Journal I/O failure must not kill the campaign: the
                // run is already in memory; only resumability degrades.
                let _ = j.append(&JournalEntry {
                    campaign: self.campaign.letter(),
                    index: d.index,
                    record: d.record.clone(),
                    metrics: d.metrics.clone(),
                });
            }
            self.next += 1;
        }
    }

    /// The campaign result — records and merged metrics in plan order —
    /// and its quarantined runs.
    ///
    /// # Panics
    ///
    /// Panics when a plan index has no outcome: every runner finishes
    /// its whole plan.
    pub(crate) fn finish(self) -> (CampaignResult, Vec<QuarantineReport>) {
        let functions_injected = {
            let mut fs: Vec<&str> = self.plan.iter().map(|(t, _)| t.function.as_str()).collect();
            fs.sort_unstable();
            fs.dedup();
            fs.len()
        };
        let mut metrics = Metrics::default();
        let mut records = Vec::with_capacity(self.done.len());
        let mut quarantined = Vec::new();
        for d in self.done {
            let d = d.expect("every planned job has an outcome");
            metrics.merge(&d.metrics);
            records.push(d.record);
            quarantined.extend(d.quarantine);
        }
        let result =
            CampaignResult { campaign: self.campaign, records, functions_injected, metrics };
        (result, quarantined)
    }
}

/// Runs every campaign's plan through `run` against one journal: opened
/// once (resumed, or created afresh), handed to each campaign's
/// [`Ledger`] with that campaign's resumed entries, synced at every
/// campaign boundary. Returns each campaign's output in order and the
/// journal's fsync batches (0 without a journal).
///
/// # Errors
///
/// Journal open/read/sync failures (bad header, seed mismatch, I/O).
pub(crate) fn run_journaled<T>(
    seed: u64,
    path: Option<&Path>,
    resume: bool,
    plans: Vec<(Campaign, Plan)>,
    mut run: impl FnMut(Ledger<'_>) -> T,
) -> Result<(Vec<T>, u64), String> {
    let mut resumed: BTreeMap<char, BTreeMap<usize, JournalEntry>> = BTreeMap::new();
    let mut journal = match path {
        None => None,
        Some(p) if resume && p.exists() => {
            // `resume` truncates any torn tail before reopening for
            // append, so re-run frames stay reachable by the next resume.
            let (entries, j) = crate::journal::resume(p, seed).map_err(|e| e.to_string())?;
            for e in entries {
                resumed.entry(e.campaign).or_default().insert(e.index, e);
            }
            Some(j)
        }
        Some(p) => Some(Journal::create(p, seed).map_err(|e| e.to_string())?),
    };
    let mut outs = Vec::with_capacity(plans.len());
    for (campaign, plan) in plans {
        let journaled = resumed.remove(&campaign.letter()).unwrap_or_default();
        outs.push(run(Ledger::new(campaign, plan, journaled, journal.as_mut())));
        if let Some(j) = journal.as_mut() {
            // Checkpoint the campaign boundary.
            j.sync().map_err(|e| e.to_string())?;
        }
    }
    Ok((outs, journal.map_or(0, |j| j.flushes)))
}

/// One worker: drains the queue one job at a time until empty or its
/// rig becomes unbuildable (then its jobs flow to the survivors).
fn worker_loop(
    exp: &Experiment,
    cfg: &SupervisorConfig,
    queue: &Mutex<VecDeque<Job>>,
    ledger: &Mutex<Ledger<'_>>,
    slot: &WatchSlot,
) -> bool {
    let mut rig: Option<InjectorRig> = None;
    loop {
        let Some(job) = queue.lock().expect("queue lock").pop_front() else { return true };
        match process_job(exp, cfg, &job, &mut rig, slot) {
            Ok(done) => ledger.lock().expect("ledger lock").record(done),
            Err(()) => {
                // Rig unbuildable: give the job back and die.
                queue.lock().expect("queue lock").push_front(job);
                return false;
            }
        }
    }
}

/// Runs one campaign's pending jobs on `exp.config.threads`
/// panic-isolated workers (plus the watchdog), then finishes any job
/// every worker gave up on on this thread.
fn supervise(exp: &Experiment, cfg: &SupervisorConfig, ledger: Ledger<'_>) -> SupervisedCampaign {
    let resumed_runs = ledger.resumed_runs();
    let queue: Mutex<VecDeque<Job>> = Mutex::new(ledger.pending().map(|i| ledger.job(i)).collect());
    let ledger = Mutex::new(ledger);
    let slots: Vec<WatchSlot> = (0..exp.config.threads.max(1)).map(|_| WatchSlot::new()).collect();
    let stop = AtomicBool::new(false);
    let mut workers_lost = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .iter()
            .map(|slot| s.spawn(|| worker_loop(exp, cfg, &queue, &ledger, slot)))
            .collect();
        if let Some(budget) = cfg.wall_budget {
            let (slots, stop) = (&slots, &stop);
            s.spawn(move || watchdog(slots, budget, stop));
        }
        for h in handles {
            // Worker bodies catch their own panics; a panic escaping
            // here would be a supervisor bug, not a run failure.
            if !h.join().expect("supervisor worker") {
                workers_lost += 1;
            }
        }
        stop.store(true, Ordering::SeqCst);
    });

    let mut ledger = ledger.into_inner().expect("ledger lock");
    let leftovers = queue.into_inner().expect("queue lock");
    finish_here(exp, cfg, leftovers, |done| ledger.record(done));
    let (result, quarantined) = ledger.finish();
    let mut report =
        SupervisorReport { resumed_runs, workers_lost, quarantined, ..SupervisorReport::default() };
    report.absorb_campaign(&result.metrics);
    SupervisedCampaign { result, report }
}

/// Runs one campaign under supervision.
///
/// With a default [`SupervisorConfig`] this is behaviorally identical
/// to the plain experiment loop on healthy runs (and is what
/// [`Experiment::run_campaign`] delegates to).
///
/// # Errors
///
/// Journal open/read failures (bad header, seed mismatch, I/O).
pub fn run_campaign_supervised(
    exp: &Experiment,
    campaign: Campaign,
    cfg: &SupervisorConfig,
) -> Result<SupervisedCampaign, String> {
    run_plan_supervised(exp, campaign, exp.campaign_plan(campaign), cfg)
}

/// Runs all three campaigns under supervision, sharing one journal.
///
/// # Errors
///
/// Journal open/read failures (bad header, seed mismatch, I/O).
pub fn run_study_supervised(
    exp: &Experiment,
    cfg: &SupervisorConfig,
) -> Result<SupervisedStudy, String> {
    let (outs, journal_flushes) = run_journaled(
        exp.config.seed,
        cfg.journal.as_deref(),
        cfg.resume,
        exp.study_plan(),
        |l| supervise(exp, cfg, l),
    )?;
    let mut campaigns = BTreeMap::new();
    let mut report = SupervisorReport { journal_flushes, ..SupervisorReport::default() };
    for out in outs {
        report.resumed_runs += out.report.resumed_runs;
        report.workers_lost += out.report.workers_lost;
        report.quarantined.extend(out.report.quarantined);
        report.absorb_campaign(&out.result.metrics);
        campaigns.insert(out.result.campaign.letter(), out.result);
    }
    Ok(SupervisedStudy { study: StudyResult { campaigns, seed: exp.config.seed }, report })
}

/// Runs an explicit `(target, mode)` plan under supervision — the
/// campaign-matrix entry point. The plan is taken as given (no
/// profile-driven target selection or mode choice), but everything
/// else is the supervised campaign machinery: panic-isolated workers,
/// plan-index-ordered journaling, watchdog, quarantine, and resume
/// against [`SupervisorConfig::journal`] (a journaled entry only
/// replays when it matches the plan's target and mode exactly).
///
/// # Errors
///
/// Journal open/read failures (bad header, seed mismatch, I/O).
pub fn run_plan_supervised(
    exp: &Experiment,
    campaign: Campaign,
    plan: Vec<(InjectionTarget, u32)>,
    cfg: &SupervisorConfig,
) -> Result<SupervisedCampaign, String> {
    let (outs, journal_flushes) = run_journaled(
        exp.config.seed,
        cfg.journal.as_deref(),
        cfg.resume,
        vec![(campaign, plan)],
        |l| supervise(exp, cfg, l),
    )?;
    let mut out = outs.into_iter().next().expect("one campaign planned");
    out.report.journal_flushes = journal_flushes;
    Ok(out)
}
