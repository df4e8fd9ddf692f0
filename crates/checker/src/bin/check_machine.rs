//! Deterministic differential sweep + seeded-bug self-tests for CI.
//!
//! For each seed, generates a guest program in three corruption
//! variants (clean, pre-run bit flips, mid-run bit flip) and runs it
//! through the nine machine-level differential pairs of
//! [`MACHINE_PAIRS`] (decode cache on/off, block tier vs single-step,
//! ring/null trace sink, snapshot-restore/fresh-boot,
//! shared-snapshot-fork/fresh-boot, on a separately generated two-ring
//! program crossing `int $0x80`/`iret`/timer gates under paging —
//! block tier vs bare interpreter, and on a separately generated
//! two-CPU program exchanging startup and reschedule IPIs — decode
//! cache on/off and block tier vs single-step at `cpus = 2`, plus
//! parked-secondary vs plain uniprocessor). The architectural-state
//! sanitizer is enabled on every machine except in the block-engine,
//! smp-blocks and ring pairs, which
//! force it off so blocks actually run (the sanitizer demotes the
//! block tier to single-stepping). A smaller sweep of full injection
//! campaigns compares 1-worker vs 2-worker execution
//! record-for-record. Before any of that, the three seeded-bug
//! self-tests of [`seeded_bug_self_tests`] — a broken ALU flag writer
//! the sanitizer must report, a skipped TSS.esp0 kernel-stack switch
//! the ring-transition lockstep must flag, and a dropped reschedule
//! IPI the SMP lockstep must flag — prove the net can actually catch
//! fish.
//!
//! Exit status is nonzero iff any divergence, sanitizer violation, or
//! self-test failure occurred.

use kfi_checker::diff::{run_machine_pairs, seeded_bug_self_tests, PairOutcome, MACHINE_PAIRS};
use kfi_checker::gen::Variant;
use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::Campaign;
use kfi_machine::MachineConfig;
use kfi_profiler::ProfilerConfig;

struct Options {
    seeds: u64,
    campaign_seeds: u64,
    verbose: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { seeds: 32, campaign_seeds: 2, verbose: false };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value")?;
                opts.seeds = v.parse().map_err(|_| format!("bad --seeds value: {v}"))?;
            }
            "--campaign-seeds" => {
                let v = args.next().ok_or("--campaign-seeds needs a value")?;
                opts.campaign_seeds =
                    v.parse().map_err(|_| format!("bad --campaign-seeds value: {v}"))?;
            }
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: check_machine [--seeds N] [--campaign-seeds N] [--verbose]\n\
                     \n\
                     Differential sweep over the simulated machine's paired\n\
                     configurations plus seeded-bug self-tests. Defaults:\n\
                     --seeds 32, --campaign-seeds 2."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn sanitized_config() -> MachineConfig {
    MachineConfig { sanitizer: true, ..MachineConfig::default() }
}

fn report_pair(seed: u64, variant: Variant, name: &str, out: &PairOutcome) -> bool {
    if out.clean() {
        return true;
    }
    eprintln!("FAIL seed={seed} variant={variant:?} pair={name} after {} steps", out.steps);
    if let Some(d) = &out.divergence {
        eprintln!("  divergence at step {}: {}", d.step, d.detail);
        eprint!("{}", d.context);
    }
    for v in &out.violations {
        eprintln!("  sanitizer: {v}");
    }
    false
}

fn machine_sweep(opts: &Options) -> (u64, u64) {
    let mut pairs = 0u64;
    let mut failures = 0u64;
    for seed in 0..opts.seeds {
        for variant in [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip] {
            for (name, out) in run_machine_pairs(seed, variant, sanitized_config()) {
                pairs += 1;
                if !report_pair(seed, variant, name, &out) {
                    failures += 1;
                } else if opts.verbose {
                    println!("ok seed={seed} variant={variant:?} pair={name} steps={}", out.steps);
                }
            }
        }
    }
    (pairs, failures)
}

/// Campaign-level pair: a full (small) injection campaign at 1 worker
/// vs 2 workers must produce bit-identical records and metrics. With
/// memoization on (the default) both sides fork one shared base whose
/// golden runs are seed-independent, so reusing the experiment across
/// sweep seeds is sound — and the sweep doubles as an end-to-end check
/// of the fork path under real campaign load.
fn campaign_sweep(opts: &Options) -> (u64, u64) {
    let mut pairs = 0u64;
    let mut failures = 0u64;
    let mut exp = match Experiment::prepare(ExperimentConfig {
        max_per_function: Some(1),
        threads: 1,
        profiler: ProfilerConfig { period: 997, budget: 200_000_000 },
        ..Default::default()
    }) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("FAIL campaign sweep: prepare failed: {e}");
            return (1, 1);
        }
    };
    for seed in 0..opts.campaign_seeds {
        pairs += 1;
        exp.config.seed = 2003 + seed;
        exp.config.threads = 1;
        let one = exp.run_campaign(Campaign::A);
        exp.config.threads = 2;
        let many = exp.run_campaign(Campaign::A);
        if one.records != many.records || one.metrics != many.metrics {
            failures += 1;
            eprintln!(
                "FAIL campaign seed={} pair=workers-1-vs-2: {} records vs {} records",
                exp.config.seed,
                one.records.len(),
                many.records.len()
            );
        } else if opts.verbose {
            println!(
                "ok campaign seed={} pair=workers-1-vs-2 records={}",
                exp.config.seed,
                one.records.len()
            );
        }
    }
    (pairs, failures)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("check_machine: {e}");
            std::process::exit(2);
        }
    };

    for (what, result) in seeded_bug_self_tests(0) {
        match result {
            Ok(()) => println!("self-test: {what}"),
            Err(e) => {
                eprintln!("self-test FAILED ({what}): {e}");
                std::process::exit(1);
            }
        }
    }

    let (mpairs, mfail) = machine_sweep(&opts);
    println!(
        "machine sweep: {} seeds x 3 variants x {} pairs = {} pairs, {} failures",
        opts.seeds,
        MACHINE_PAIRS.len(),
        mpairs,
        mfail
    );
    let (cpairs, cfail) = campaign_sweep(&opts);
    println!("campaign sweep: {cpairs} pairs (1 vs 2 workers), {cfail} failures");

    if mfail + cfail > 0 {
        eprintln!("check_machine: {} failing pairs", mfail + cfail);
        std::process::exit(1);
    }
    println!("check_machine: all pairs agree, no sanitizer violations");
}
