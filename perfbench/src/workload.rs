//! The benchmark's workloads, the campaign call each one times, and the
//! dataset gate every repetition must pass.

use crate::json::{self, Value};
use kfi_core::{Experiment, ExperimentConfig, StudyResult, SupervisorConfig};
use kfi_injector::{Campaign, InjectorRig, Outcome};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Injections per function per campaign (`--cap`).
    pub cap: usize,
    pub campaigns: &'static [Campaign],
    /// Kernel built with `BUG()` assertions.
    pub assertions: bool,
    /// Guest CPUs per simulated machine.
    pub cpus: u32,
    /// Host workers: threads in-process, or worker processes.
    pub workers: usize,
    /// Run through `run_study_dist` instead of the in-process supervisor.
    pub dist: bool,
}

const ABC: &[Campaign] = &[Campaign::A, Campaign::B, Campaign::C];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_abc",
        cap: 2,
        campaigns: ABC,
        assertions: true,
        cpus: 1,
        workers: 1,
        dist: false,
    },
    Workload {
        name: "branch_noassert",
        cap: 16,
        campaigns: &[Campaign::C],
        assertions: false,
        cpus: 1,
        workers: 1,
        dist: false,
    },
    Workload {
        name: "smp2_dist",
        cap: 4,
        campaigns: ABC,
        assertions: true,
        cpus: 2,
        workers: 2,
        dist: true,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The repro defaults for this workload (`ReproOptions::to_config`).
    pub fn config(&self, seed: u64, cap: usize) -> ExperimentConfig {
        kfi_bench::ReproOptions {
            cap: Some(cap),
            seed,
            threads: if self.dist { 1 } else { self.workers },
            no_assertions: !self.assertions,
            cpus: self.cpus,
            ..Default::default()
        }
        .to_config()
    }

    /// Arguments that make this binary a dist worker for the workload.
    pub fn worker_args(&self, seed: u64, cap: usize) -> Vec<String> {
        [
            "--worker",
            "--workload",
            self.name,
            "--seed",
            &seed.to_string(),
            "--cap",
            &cap.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    pub fn dist_config(&self, seed: u64, cap: usize, workers: usize) -> kfi_core::DistConfig {
        let exe = std::env::current_exe().expect("current executable path resolves");
        kfi_core::DistConfig::new(workers, exe, self.worker_args(seed, cap))
    }

    /// The timed campaign call: the whole study through the dist
    /// coordinator, or the workload's campaigns through the supervisor.
    pub fn run(
        &self,
        exp: &Experiment,
        cap: usize,
        journal: Option<PathBuf>,
    ) -> Result<StudyResult, String> {
        if self.dist {
            let mut cfg = self.dist_config(exp.config.seed, cap, self.workers);
            cfg.journal = journal;
            return Ok(kfi_core::run_study_dist(exp, &cfg)?.study);
        }
        self.run_in_process(exp, journal)
    }

    /// The workload's campaigns through the in-process supervisor, at
    /// `exp`'s thread count.
    pub fn run_in_process(
        &self,
        exp: &Experiment,
        journal: Option<PathBuf>,
    ) -> Result<StudyResult, String> {
        let sup = SupervisorConfig { journal, ..SupervisorConfig::default() };
        if self.is_study() {
            return Ok(kfi_core::run_study_supervised(exp, &sup)?.study);
        }
        let mut campaigns = BTreeMap::new();
        for c in self.campaigns {
            let out = kfi_core::run_campaign_supervised(exp, *c, &sup)?;
            campaigns.insert(c.letter(), out.result);
        }
        Ok(StudyResult { campaigns, seed: exp.config.seed })
    }

    /// Whether the workload is the whole A/B/C study.
    pub fn is_study(&self) -> bool {
        self.campaigns == ABC
    }

    /// Planned runs: one record is owed per planned target.
    pub fn planned(&self, exp: &Experiment) -> usize {
        self.campaigns.iter().map(|c| exp.plan(*c).len()).sum()
    }
}

/// Outcome classes, in the order of [`Stats::counts`].
pub const CLASSES: [&str; 6] =
    ["not_activated", "not_manifested", "fsv", "crash", "hang", "rig_fault"];

pub fn class_of(o: &Outcome) -> usize {
    match o {
        Outcome::NotActivated => 0,
        Outcome::NotManifested => 1,
        Outcome::FailSilenceViolation(_) => 2,
        Outcome::Crash(_) => 3,
        Outcome::Hang => 4,
        Outcome::RigFault(_) => 5,
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What the gate compares: the dataset digest and the simulated
/// statistics behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// FNV-1a of the `kfi_bench::csv_dataset` bytes.
    pub digest: u64,
    pub counts: [u64; 6],
    pub instructions: u64,
    pub run_cycles_total: u64,
}

impl Stats {
    pub fn of(study: &StudyResult) -> Stats {
        let mut counts = [0u64; 6];
        let mut instructions = 0;
        let mut run_cycles_total = 0;
        for r in study.campaigns.values() {
            for rec in &r.records {
                counts[class_of(&rec.outcome)] += 1;
            }
            instructions += r.metrics.instructions;
            run_cycles_total += r.metrics.run_cycles_total;
        }
        let digest = fnv1a(kfi_bench::csv_dataset(study).as_bytes());
        Stats { digest, counts, instructions, run_cycles_total }
    }

    pub fn records(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fields that differ from `want`, or `Ok` when none do.
    pub fn check(&self, want: &Stats) -> Result<(), String> {
        let mut diffs = Vec::new();
        if self.digest != want.digest {
            diffs.push(format!("digest {:#018x} != {:#018x}", self.digest, want.digest));
        }
        for (i, c) in CLASSES.iter().enumerate() {
            if self.counts[i] != want.counts[i] {
                diffs.push(format!("{c} {} != {}", self.counts[i], want.counts[i]));
            }
        }
        if self.instructions != want.instructions {
            diffs.push(format!("instructions {} != {}", self.instructions, want.instructions));
        }
        if self.run_cycles_total != want.run_cycles_total {
            diffs.push(format!(
                "run_cycles_total {} != {}",
                self.run_cycles_total, want.run_cycles_total
            ));
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs.join(", "))
        }
    }

    /// One `pins.json` entry.
    pub fn pin_json(&self, workload: &str, seed: u64, cap: usize) -> String {
        let counts: Vec<String> = CLASSES
            .iter()
            .zip(self.counts)
            .map(|(c, n)| format!("{}: {n}", json::quote(c)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"cap\": {cap}, \"digest\": \"{:#018x}\", {}, \
             \"instructions\": {}, \"run_cycles_total\": {}}}",
            json::quote(workload),
            self.digest,
            counts.join(", "),
            self.instructions,
            self.run_cycles_total
        )
    }
}

/// The pinned statistics for `(workload, seed, cap)`, if pinned.
pub fn pinned(workload: &str, seed: u64, cap: usize) -> Result<Option<Stats>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    for p in doc.get("pins").map(Value::as_arr).unwrap_or(&[]) {
        let field = |k: &str| p.get(k).and_then(Value::as_u64);
        if p.get("workload").and_then(Value::as_str) != Some(workload)
            || field("seed") != Some(seed)
            || field("cap") != Some(cap as u64)
        {
            continue;
        }
        let bad = || format!("{path}: malformed pin for {workload}/{seed}/{cap}");
        let digest = p
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or_else(bad)?;
        let mut counts = [0u64; 6];
        for (i, c) in CLASSES.iter().enumerate() {
            counts[i] = field(c).ok_or_else(bad)?;
        }
        return Ok(Some(Stats {
            digest,
            counts,
            instructions: field("instructions").ok_or_else(bad)?,
            run_cycles_total: field("run_cycles_total").ok_or_else(bad)?,
        }));
    }
    Ok(None)
}

/// Checks that `study` holds exactly one record per planned target, in
/// plan order, and re-runs a spread of `samples` targets per campaign on
/// `rig`: each must reproduce its record.
pub fn spot_check(
    exp: &Experiment,
    rig: &mut InjectorRig,
    study: &StudyResult,
    campaigns: &[Campaign],
    samples: usize,
) -> Result<(), String> {
    for c in campaigns {
        let plan = exp.plan(*c);
        let records = &study.campaigns.get(&c.letter()).ok_or("campaign missing")?.records;
        if records.len() != plan.len() {
            return Err(format!(
                "campaign {}: {} records for {} planned",
                c.letter(),
                records.len(),
                plan.len()
            ));
        }
        for (i, (t, r)) in plan.iter().zip(records).enumerate() {
            if r.target != *t || r.mode != exp.mode_for(t) {
                return Err(format!(
                    "campaign {} index {i}: record is not the planned run",
                    c.letter()
                ));
            }
        }
        let step = (plan.len() / samples.max(1)).max(1);
        for i in (0..plan.len()).step_by(step) {
            let again = rig.run_one(&plan[i], records[i].mode);
            if again != records[i] {
                return Err(format!(
                    "campaign {} index {i}: re-run gives {} where the campaign recorded {}",
                    c.letter(),
                    again.outcome.category(),
                    records[i].outcome.category()
                ));
            }
        }
    }
    Ok(())
}
