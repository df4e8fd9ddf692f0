//! Campaign-throughput benchmark for the kfi reproduction.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --check                 minimal-size self-test
//! perfbench --pin --workload NAME --seed N [--cap C]
//! ```
//!
//! `--trace 0` times the workload's campaign call (setup excluded) and
//! prints the end-to-end metrics; `--trace 1` times calls into each
//! layer's public functions from outside and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, whose names and units
//! are those listed in `BENCHMARK.json`. Every repetition's dataset must
//! match the pinned digest in `perfbench/pins.json` for pinned seeds,
//! and the first repetition's for the others; a repetition that does
//! not counts all of its runs as failed.

mod json;
mod spans;
mod traced;
mod workload;

use kfi_core::Experiment;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Stats, Workload, WORKLOADS};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Runs re-executed on a fresh rig after the timed repetitions.
pub const SPOT_CHECKS: usize = 4;
/// Default campaign seed.
const DEFAULT_SEED: u64 = 2003;

/// One named, measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured and whether its outputs were correct.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub notes: Vec<String>,
}

/// Lower quartile of `v`, interpolated as Python's
/// `statistics.quantiles(v, n=4)` does; the minimum below 4 values, 0
/// if empty.
pub fn lower_quartile(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (s.len() + 1) as f64 / 4.0;
    if s.is_empty() || pos <= 1.0 {
        return s.first().copied().unwrap_or(0.0);
    }
    let lo = pos.floor() as usize;
    s[lo - 1] + (s[lo] - s[lo - 1]) * (pos - lo as f64)
}

/// Median of `v` (mean of the middle two for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    cap: Option<usize>,
    worker: bool,
    check: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        cap: None,
        worker: false,
        check: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--cap" => a.cap = Some(value()?.parse().map_err(|e| format!("--cap: {e}"))?),
            "--worker" => a.worker = true,
            "--check" => a.check = true,
            "--pin" => a.pin = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Where runs leave journals and span files (ignored by git).
fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines().find(|l| l.ends_with(r)).and_then(|l| l.split(' ').next()).map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// This process's peak resident set in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Prepares the experiment, boots the shared base and captures the
/// goldens with the first rig: the set-up every campaign pays once.
fn setup(
    w: &Workload,
    seed: u64,
    cap: usize,
) -> Result<(Experiment, kfi_injector::InjectorRig), String> {
    let exp = Experiment::prepare(w.config(seed, cap))?;
    exp.shared_base()?;
    let rig = exp.make_rig()?;
    Ok((exp, rig))
}

/// The end-to-end run: set up `SETUPS` times, then repeat the campaign
/// call while the next repetition still fits in `seconds` (at least
/// once), gating every repetition's dataset. `runs_per_s` is the lower
/// quartile of the per-repetition rates: on a host whose speed jumps
/// between a contended and an idle level within seconds, it tracks the
/// contended level and was steadier across runs than their median or
/// their pooled rate.
fn measure_e2e(
    w: &Workload,
    seed: u64,
    cap: usize,
    seconds: f64,
    expect: Option<Stats>,
) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(setup(w, seed, cap)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (exp, mut rig) = prepared.expect("at least one setup");
    let planned = w.planned(&exp) as u64;
    let mut reference = match expect {
        Some(s) => Some(s),
        None => workload::pinned(w.name, seed, cap)?,
    };
    let pinned = reference.is_some();
    let journal =
        w.dist.then(|| out_dir().map(|d| d.join(format!("journal-{}-{seed}.bin", w.name))));
    let journal = journal.transpose()?;

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let start = Instant::now();
    let study = loop {
        let t0 = Instant::now();
        let study = w.run(&exp, cap, journal.clone())?;
        let wall = t0.elapsed().as_secs_f64();
        let stats = Stats::of(&study);
        attempted += planned;
        let gate = match &reference {
            Some(want) => stats.check(want),
            None => {
                reference = Some(stats.clone());
                Ok(())
            }
        };
        match gate {
            Ok(()) => failed += stats.counts[5] + planned.saturating_sub(stats.records()),
            Err(e) => {
                failed += planned;
                notes.push(format!("repetition {}: {e}", walls.len() + 1));
            }
        }
        eprintln!(
            "[perfbench] {} rep {}: {} runs in {wall:.3} s ({:.2} runs/s), digest {:#018x}",
            w.name,
            walls.len() + 1,
            stats.records(),
            stats.records() as f64 / wall,
            stats.digest
        );
        rates.push(stats.records() as f64 / wall);
        walls.push(wall);
        if start.elapsed().as_secs_f64() + median(&walls) > seconds {
            break study;
        }
    };
    if let Some(j) = &journal {
        let _ = std::fs::remove_file(j);
    }
    if let Err(e) = workload::spot_check(&exp, &mut rig, &study, w.campaigns, SPOT_CHECKS) {
        failed = attempted;
        notes.push(e);
    }
    println!(
        "{} reps={} gate={} rig_fault_frac={} (fraction)",
        w.name,
        walls.len(),
        if pinned { "pinned" } else { "first-repetition" },
        failed as f64 / attempted as f64
    );
    Ok(Report {
        correct: notes.is_empty(),
        attempted,
        failed,
        metrics: vec![
            Metric { name: "runs_per_s".into(), value: lower_quartile(&rates), unit: "1/s" },
            Metric { name: "setup_s".into(), value: median(&setups), unit: "s" },
            Metric { name: "peak_rss_mb".into(), value: peak_rss_mb()?, unit: "MB" },
        ],
        notes,
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
fn listed(section: &str) -> Result<Vec<(String, String)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc.get(section).map(json::Value::as_arr).unwrap_or(&[]);
    entries
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(json::Value::as_str).map(String::from);
            s("name").zip(s("unit")).ok_or_else(|| format!("malformed {section} entry"))
        })
        .collect()
}

/// Renders the human lines and the final JSON line. The metrics must be
/// exactly those `BENCHMARK.json` lists for the mode, with its units.
fn render(r: &Report, trace: bool) -> Result<String, String> {
    let want = listed(if trace { "per_layer" } else { "end_to_end" })?;
    let mut human = String::new();
    let mut fields = Vec::new();
    for (name, unit) in &want {
        let m = r
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .ok_or_else(|| format!("BENCHMARK.json lists {name}, which was not measured"))?;
        if m.unit != unit {
            return Err(format!("{name}: measured in {}, listed in {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        human.push_str(&format!("{name} {} {unit}\n", m.value));
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(name),
            m.value,
            json::quote(unit)
        ));
    }
    if let Some(extra) = r.metrics.iter().find(|m| !want.iter().any(|(n, _)| *n == m.name)) {
        return Err(format!("{} was measured but BENCHMARK.json does not list it", extra.name));
    }
    for n in &r.notes {
        human.push_str(&format!("FAILED: {n}\n"));
    }
    Ok(format!(
        "{human}{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        fields.join(", ")
    ))
}

/// Refuses worker counts the host cannot run side by side.
fn check_host(workers: usize) -> Result<(), String> {
    let cpus = host_cpus();
    if workers > cpus {
        return Err(format!(
            "needs {workers} host CPUs for its workers but host_cpus is {cpus}; refusing to oversubscribe"
        ));
    }
    Ok(())
}

fn measure(
    w: &Workload,
    seed: u64,
    cap: usize,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    // The traced run also measures 2-thread and 2-worker walls.
    check_host(if trace { w.workers.max(2) } else { w.workers })?;
    println!(
        "host host_cpus={} commit={} workload={} seed={seed} cap={cap} workers={} dist={} trace={}",
        host_cpus(),
        commit(),
        w.name,
        w.workers,
        w.dist,
        trace as u8
    );
    if trace {
        traced::measure(w, seed, cap, &out_dir()?)
    } else {
        measure_e2e(w, seed, cap, seconds, None)
    }
}

/// Minimal-size self-test: every listed metric is printed with its
/// unit, the spans cover the single-rig loop, and the digest gate trips
/// on a wrong expected digest.
fn self_check() -> Result<(), String> {
    const CAP: usize = 1;
    for w in WORKLOADS {
        for trace in [false, true] {
            let r = measure(w, DEFAULT_SEED, CAP, 0.0, trace)?;
            let out = render(&r, trace)?;
            println!("{out}");
            if !r.correct || r.failed != 0 {
                return Err(format!("{} trace={trace}: {:?}", w.name, r.notes));
            }
            for (name, unit) in listed(if trace { "per_layer" } else { "end_to_end" })? {
                let needle = format!("{}: {{\"value\": ", json::quote(&name));
                let line = out.lines().last().unwrap_or("");
                if !line.contains(&needle)
                    || !out.contains(&format!("{name} "))
                    || !line.contains(&json::quote(&unit))
                {
                    return Err(format!("{} trace={trace}: {name} ({unit}) not printed", w.name));
                }
            }
            if trace {
                let cov =
                    r.metrics.iter().find(|m| m.name == "trace.loop_coverage").map(|m| m.value);
                if !cov.is_some_and(|c| c >= traced::MIN_COVERAGE) {
                    return Err(format!(
                        "{}: span coverage {cov:?} below {}",
                        w.name,
                        traced::MIN_COVERAGE
                    ));
                }
            }
        }
        let (exp, _) = setup(w, DEFAULT_SEED, CAP)?;
        let mut wrong = Stats::of(&w.run(&exp, CAP, None)?);
        wrong.digest ^= 1;
        let r = measure_e2e(w, DEFAULT_SEED, CAP, 0.0, Some(wrong))?;
        if r.correct || r.failed != r.attempted {
            return Err(format!("{}: the digest gate did not trip on a wrong digest", w.name));
        }
        println!("{}: digest gate tripped as expected ({})", w.name, r.notes.join("; "));
    }
    println!("check: ok");
    Ok(())
}

fn run() -> Result<(), String> {
    let a = parse_args()?;
    if a.check {
        return self_check();
    }
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let w = workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", names.join(", "))
    })?;
    let cap = a.cap.unwrap_or(w.cap);
    if a.worker {
        // Worker mode: stdout carries the dist wire protocol.
        let exp = Experiment::prepare(w.config(a.seed, cap))?;
        let cfg = kfi_core::WorkerConfig::default();
        return kfi_core::run_worker(&exp, &cfg, std::io::stdin().lock(), std::io::stdout());
    }
    if a.pin {
        let (exp, _) = setup(&w, a.seed, cap)?;
        let stats = Stats::of(&w.run(&exp, cap, None)?);
        println!("{}", stats.pin_json(w.name, a.seed, cap));
        return Ok(());
    }
    let r = measure(&w, a.seed, cap, a.seconds, a.trace)?;
    println!("{}", render(&r, a.trace)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{lower_quartile, median};

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=9], n=4)[0] == 2.5; [1..=4] -> 1.25
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 2.5);
        assert_eq!(lower_quartile(&[4.0, 3.0, 2.0, 1.0]), 1.25);
        assert_eq!(lower_quartile(&[5.0, 7.0, 6.0]), 5.0);
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
