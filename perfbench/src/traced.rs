//! The traced run: per-layer numbers taken by timing calls into each
//! layer's public functions from outside, with spans kept in memory.

use crate::spans::Tracer;
use crate::workload::{class_of, spot_check, Stats, Workload, CLASSES};
use crate::{median, Metric, Report};
use kfi_core::{Experiment, StudyResult};
use kfi_injector::wire::{decode_msg, Msg};
use kfi_injector::{Campaign, Outcome, RunRecord};
use kfi_trace::frame::StreamDecoder;
use kfi_trace::Metrics;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Forks timed after the first (golden-capturing) rig.
const FORKS: usize = 5;
/// Repetitions of the severity and restore probes.
const PROBES: usize = 5;
/// `fsck` calls timed on the post-boot disk.
const FSCK_CALLS: usize = 50;
/// Worker processes spawned to time the handshake.
const HELLOS: usize = 3;
/// Worker count of the parallel and dist measurements.
const PAR: usize = 2;
/// Share of the single-rig loop's wall that its spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;
/// Outcome classes with per-class run metrics (rig faults are failures,
/// not a class of guest behaviour).
const RUN_CLASSES: usize = 5;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median of `f`'s duration in milliseconds over `n` calls.
fn median_ms(n: usize, mut f: impl FnMut() -> Result<u64, String>) -> Result<f64, String> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(ms(f()?));
    }
    Ok(median(&v))
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The records of `campaigns` in `study`, in campaign order.
fn records_of<'a>(study: &'a StudyResult, campaigns: &[Campaign]) -> Vec<&'a RunRecord> {
    campaigns
        .iter()
        .flat_map(|c| study.campaigns.get(&c.letter()).map(|r| &r.records[..]).unwrap_or(&[]))
        .collect()
}

/// Spawns a dist worker and returns the nanoseconds until its `Hello`
/// frame arrives. The worker is killed and reaped either way.
fn time_hello(w: &Workload, seed: u64, cap: usize) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(w.worker_args(seed, cap))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning a worker: {e}"))?;
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut dec = StreamDecoder::new();
    let mut buf = [0u8; 4096];
    let got = 'read: loop {
        match out.read(&mut buf) {
            Ok(0) => break Err("worker closed its stdout before Hello".to_string()),
            Ok(n) => dec.push(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e.to_string()),
        }
        while let Some(frame) = dec.next_frame() {
            if let Ok(Msg::Hello { .. }) = decode_msg(&frame, &mut 0) {
                break 'read Ok(elapsed_ns(t0));
            }
        }
    };
    let _ = child.kill();
    child.wait().map_err(|e| e.to_string())?;
    got
}

/// Runs every per-layer measurement for `w` and returns the report.
pub fn measure(w: &Workload, seed: u64, cap: usize, out_dir: &Path) -> Result<Report, String> {
    let cfg = w.config(seed, cap);
    let mut tr = Tracer::new();
    let root = tr.begin("bench.traced_run");

    // Set-up layers: the two halves of prepare, prepare itself, the
    // shared-base boot, the golden-capturing first rig, later forks.
    let setup = tr.begin("bench.setup");
    let build = tr.begin("kernel.build_kernel");
    let image = kfi_kernel::build_kernel(cfg.kernel).map_err(|e| e.to_string())?;
    tr.end(build);
    let files = cfg.suite.files().map_err(|e| e.to_string())?;
    let workloads = cfg.suite.workloads();
    let prof = tr.begin("profiler.profile");
    let profile = kfi_profiler::profile(&image, &files, &workloads, &cfg.profiler);
    tr.end(prof);
    drop((image, profile));
    let prep = tr.begin("core.prepare");
    let exp = Experiment::prepare(cfg.clone())?;
    tr.end(prep);
    let boot = tr.begin("injector.shared_base");
    exp.shared_base()?;
    tr.end(boot);
    let golden = tr.begin("injector.make_rig.golden");
    let mut rig = exp.make_rig()?;
    tr.end(golden);
    let mut fork_ms = Vec::new();
    for _ in 0..FORKS {
        let id = tr.begin("injector.make_rig.fork");
        drop(exp.make_rig()?);
        tr.end(id);
        fork_ms.push(ms(tr.spans()[id].dur_ns()));
    }
    tr.end(setup);

    // The single-rig loop: one span per run, tagged with its class.
    let lp = tr.begin("injector.loop");
    let mut loop_records = Vec::new();
    for c in w.campaigns {
        let plan = tr.time("core.plan", || exp.plan(*c));
        for (i, t) in plan.iter().enumerate() {
            let mode = exp.mode_for(t);
            let id = tr.begin("injector.run_one");
            let rec = rig.run_one(t, mode);
            let s = tr.end(id);
            s.tag = Some(CLASSES[class_of(&rec.outcome)]);
            s.job = Some(i as u64);
            loop_records.push(rec);
        }
    }
    tr.end(lp);
    let loop_ids = tr.descendants(lp);
    let self_ns = tr.self_ns();
    let covered: u64 = loop_ids.iter().map(|&i| self_ns[i]).sum();
    let coverage = covered as f64 / tr.spans()[lp].dur_ns().max(1) as f64;
    let run_spans: Vec<usize> =
        loop_ids.iter().copied().filter(|&i| tr.spans()[i].name == "injector.run_one").collect();

    // Supervised walls: 1 thread, 1 thread with a journal, 2 threads.
    let sup1 = tr.begin("core.supervised.t1");
    let study1 = w.run_in_process(&exp, None)?;
    tr.end(sup1);
    let journal = out_dir.join(format!("journal-{}-{seed}.bin", w.name));
    let sup1j = tr.begin("core.supervised.t1_journal");
    let study1j = w.run_in_process(&exp, Some(journal.clone()))?;
    tr.end(sup1j);
    let _ = std::fs::remove_file(&journal);
    let exp2 = exp.with_threads(PAR);
    let sup2 = tr.begin("core.supervised.t2");
    let study2 = w.run_in_process(&exp2, None)?;
    tr.end(sup2);

    // Dist against the in-process supervisor at the same worker count.
    // `run_study_dist` runs whole studies, so a single-campaign workload
    // is compared on the whole study of its kernel.
    let full2 = if w.is_study() {
        None
    } else {
        let id = tr.begin("core.supervised.t2_study");
        let s = kfi_core::run_study_supervised(&exp2, &kfi_core::SupervisorConfig::default())?;
        tr.end(id);
        Some((id, s.study))
    };
    let (full2_id, full2_study) = match &full2 {
        Some((id, s)) => (*id, s),
        None => (sup2, &study2),
    };
    let dist_id = tr.begin("core.study_dist.w2");
    let dist = kfi_core::run_study_dist(&exp, &w.dist_config(seed, cap, PAR))?;
    tr.end(dist_id);
    let mut hello_ns = Vec::new();
    for _ in 0..HELLOS {
        hello_ns.push(tr.time("core.worker_hello", || time_hello(w, seed, cap))? as f64 / 1e9);
    }

    // Severity: a reboot on a fresh fork's unchanged disk, and what the
    // reboot leaves the next run's restore to do.
    let probe = tr.begin("injector.assess_severity.probe");
    let severity_ms = median_ms(PROBES, || {
        let mut r = exp.make_rig()?;
        let t0 = Instant::now();
        let _ = r.assess_severity();
        Ok(elapsed_ns(t0))
    })?;
    let completed = loop_records
        .iter()
        .find(|r| r.outcome == Outcome::NotManifested)
        .ok_or("the plan has no completed run to time the restore with")?;
    let mut r = exp.make_rig()?;
    r.run_one(&completed.target, completed.mode);
    let restore_ms = median_ms(PROBES, || {
        let t0 = Instant::now();
        let warm = r.run_one(&completed.target, completed.mode);
        let after_run = elapsed_ns(t0);
        let _ = r.assess_severity();
        let t1 = Instant::now();
        let cold = r.run_one(&completed.target, completed.mode);
        let after_reboot = elapsed_ns(t1);
        if warm != *completed || cold != *completed {
            return Err("a repeated run of the restore probe changed its record".into());
        }
        Ok(after_reboot.saturating_sub(after_run))
    })?;
    tr.end(probe);
    let disk = r.machine_mut().disk.as_ref().ok_or("rig without a disk")?.bytes().to_vec();
    drop(r);
    let manifest = kfi_kernel::mkfs(2048, &exp.files).manifest;
    let probe = tr.begin("kernel.fsck.probe");
    let fsck_ms = median_ms(FSCK_CALLS, || {
        let t0 = Instant::now();
        std::hint::black_box(kfi_kernel::fsck(std::hint::black_box(&disk), &manifest));
        Ok(elapsed_ns(t0))
    })?;
    tr.end(probe);
    tr.end(root);

    // Equivalence: the loop equals the supervisor, every in-process
    // thread count agrees, the journal does not touch the dataset, and
    // the dist dataset equals the in-process one.
    let mut failures = Vec::new();
    if records_of(&study1, w.campaigns) != loop_records.iter().collect::<Vec<_>>() {
        failures.push("single-rig loop records differ from the supervised campaign".to_string());
    }
    let s1 = Stats::of(&study1);
    for (label, other) in [("journaled", &study1j), ("2-thread", &study2)] {
        if let Err(e) = Stats::of(other).check(&s1) {
            failures.push(format!("{label} dataset differs from the 1-thread one: {e}"));
        }
    }
    if records_of(full2_study, w.campaigns) != records_of(&study1, w.campaigns) {
        failures.push("whole-study records differ from the workload's campaigns".into());
    }
    if let Err(e) = Stats::of(&dist.study).check(&Stats::of(full2_study)) {
        failures.push(format!("dist dataset differs from the in-process one: {e}"));
    }
    if let Some(pin) = crate::workload::pinned(w.name, seed, cap)? {
        if let Err(e) = s1.check(&pin) {
            failures.push(format!("dataset differs from the pinned one: {e}"));
        }
    }
    if let Err(e) = spot_check(&exp, &mut rig, &study1, w.campaigns, crate::SPOT_CHECKS) {
        failures.push(e);
    }
    if coverage < MIN_COVERAGE {
        failures.push(format!("spans cover {:.2}% of the loop wall", coverage * 100.0));
    }

    // Per-class run metrics from the loop's spans.
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); RUN_CLASSES];
    let mut class_cycles = [0u64; RUN_CLASSES];
    let mut class_ns = [0u64; RUN_CLASSES];
    for (&i, rec) in run_spans.iter().zip(&loop_records) {
        let c = class_of(&rec.outcome);
        if c < RUN_CLASSES {
            let d = tr.spans()[i].dur_ns();
            per_class[c].push(ms(d));
            class_cycles[c] += rec.run_cycles;
            class_ns[c] += d;
        }
    }
    let run_one_ns: u64 = class_ns.iter().sum();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric { name: name.to_string(), value, unit });
    };
    put("core.prepare_s", tr.secs(prep), "s");
    put("kernel.build_s", tr.secs(build), "s");
    put("profiler.profile_s", tr.secs(prof), "s");
    put("injector.boot_ms", tr.secs(boot) * 1e3, "ms");
    put("injector.golden_ms", tr.secs(golden) * 1e3, "ms");
    put("injector.fork_ms", median(&fork_ms), "ms");
    for c in 0..RUN_CLASSES {
        let name = CLASSES[c];
        put(&format!("injector.run.{name}.count"), per_class[c].len() as f64, "count");
        put(&format!("injector.run.{name}.total_s"), class_ns[c] as f64 / 1e9, "s");
        put(&format!("injector.run.{name}.p50_ms"), median(&per_class[c]), "ms");
        put(&format!("injector.run.{name}.guest_cycles"), class_cycles[c] as f64, "cycles");
    }
    let mut activated: Vec<f64> = per_class[1..].concat();
    activated.sort_by(f64::total_cmp);
    let (tail_pct, tail_ms) = tail(&activated);
    put("injector.run.tail_ms", tail_ms, "ms");
    put("injector.run.tail_pct", tail_pct, "%");
    put("injector.severity_ms", severity_ms, "ms");
    put("injector.restore_after_reboot_ms", restore_ms, "ms");
    put(
        "injector.crash_severity_share",
        per_class[3].len() as f64 * severity_ms / ms(run_one_ns.max(1)),
        "fraction",
    );
    put("kernel.fsck_ms", fsck_ms, "ms");
    let mut mm = Metrics::default();
    for r in study1.campaigns.values() {
        mm.merge(&r.metrics);
    }
    put("machine.instructions", mm.instructions as f64, "count");
    put("machine.run_cycles", mm.run_cycles_total as f64, "cycles");
    let per_cycle =
        |ns: u64, cycles: u64| if cycles == 0 { 0.0 } else { ns as f64 / cycles as f64 };
    put("machine.hang_ns_per_cycle", per_cycle(class_ns[4], class_cycles[4]), "ns/cycle");
    put(
        "machine.completed_ns_per_cycle",
        per_cycle(class_ns[1] + class_ns[2], class_cycles[1] + class_cycles[2]),
        "ns/cycle",
    );
    let ratio = |a: u64, b: u64| if a + b == 0 { 0.0 } else { a as f64 / (a + b) as f64 };
    put("machine.decode_hit_ratio", ratio(mm.decode_hits, mm.decode_misses), "fraction");
    put("machine.block_hit_ratio", ratio(mm.block_hits, mm.block_misses), "fraction");
    put("supervisor.overhead_s", tr.secs(sup1) - run_one_ns as f64 / 1e9, "s");
    put("supervisor.parallel_efficiency", tr.secs(sup1) / (PAR as f64 * tr.secs(sup2)), "fraction");
    put("journal.overhead_s", tr.secs(sup1j) - tr.secs(sup1), "s");
    put("dist.overhead_s", tr.secs(dist_id) - tr.secs(full2_id), "s");
    put("dist.worker_hello_s", median(&hello_ns), "s");
    put("dist.wire_bytes", dist.report.wire_bytes_streamed as f64, "bytes");
    put("dist.leases_expired", dist.report.leases_expired as f64, "count");
    put("dist.workers_respawned", dist.report.workers_respawned as f64, "count");
    put("trace.wall_ratio", tr.secs(lp) / tr.secs(sup1), "ratio");
    put("trace.loop_coverage", coverage, "fraction");

    let spans_path = out_dir.join(format!("spans-{}-{seed}.jsonl", w.name));
    std::fs::write(&spans_path, tr.to_jsonl(&format!("{}/{seed}", w.name)))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!("[perfbench] {} spans written to {}", tr.spans().len(), spans_path.display());

    let attempted = loop_records.len() as u64;
    let rig_faults = s1.counts[5];
    Ok(Report {
        correct: failures.is_empty(),
        attempted,
        failed: if failures.is_empty() { rig_faults } else { attempted },
        metrics: m,
        notes: failures,
    })
}

/// The highest of the 50th/90th/99th/99.9th percentiles with at least
/// ten samples beyond it (nearest rank), as `(percentile, value)`.
/// `sorted` must be ascending; with fewer than 20 samples the median is
/// returned.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    // Percentiles in permille, so the rank arithmetic is exact.
    let rank = |permille: usize| (permille * n).div_ceil(1000).max(1);
    let best = [999, 990, 900].into_iter().find(|&p| n - rank(p) >= 10).unwrap_or(500);
    (best as f64 / 10.0, sorted[rank(best) - 1])
}

#[cfg(test)]
mod tests {
    use super::tail;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        assert_eq!(tail(&v[..100]), (90.0, 90.0));
        assert_eq!(tail(&v[..19]).0, 50.0);
        assert_eq!(tail(&[]), (50.0, 0.0));
    }
}
