//! Golden-outcome equivalence: the execution tier must not change a
//! single campaign result. A full small campaign at
//! [`ExecTier::Interp`] (no decode cache, no blocks) is the reference;
//! at every tier — and at any worker count — every record and every
//! metric except the caches' own counters must be bit-identical. The
//! same holds on the `smp` kernel at `cpus = 2`, where the block tier
//! runs slice-bounded segments between scheduling decisions.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, RigConfig};
use kfi_kernel::KernelBuildOptions;
use kfi_machine::{ExecTier, MachineConfig};
use kfi_profiler::ProfilerConfig;
use kfi_trace::Metrics;

fn campaign(tier: ExecTier, threads: usize, cpus: u32) -> (Vec<kfi_injector::RunRecord>, Metrics) {
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 11,
        max_per_function: Some(2),
        threads,
        kernel: KernelBuildOptions { smp: cpus > 1, ..KernelBuildOptions::default() },
        profiler: ProfilerConfig { period: 997, budget: 200_000_000 },
        rig: RigConfig {
            machine: MachineConfig { tier, cpus, ..MachineConfig::default() },
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("prepare");
    let r = exp.run_campaign(Campaign::A);
    (r.records, r.metrics)
}

/// Zeroes the counters that are *about* the caches themselves — the
/// only fields allowed to differ between tiers: the decode-cache
/// counters (zero at `Interp`) and the block and chain counters (zero
/// below `Blocks`).
fn without_cache_counters(m: &Metrics) -> Metrics {
    let mut m = m.clone();
    m.decode_hits = 0;
    m.decode_misses = 0;
    m.decode_invalidations = 0;
    m.block_hits = 0;
    m.block_misses = 0;
    m.block_invalidations = 0;
    m.block_chain_links = 0;
    m.block_chain_follows = 0;
    m.block_chain_breaks = 0;
    m
}

/// Runs campaign A on a `cpus`-CPU machine at every tier and at 1 and
/// 2 worker threads, and checks each against the 1-thread `Interp`
/// reference.
fn tiers_are_bit_identical(cpus: u32) {
    let (rec_ref, met_ref) = campaign(ExecTier::Interp, 1, cpus);
    assert_eq!(met_ref.decode_hits, 0, "the interpreter must count no decode-cache traffic");
    assert_eq!(met_ref.decode_misses, 0);
    assert_eq!(met_ref.block_hits, 0, "the interpreter runs no blocks");
    assert!(met_ref.runs > 0);

    for tier in [ExecTier::Interp, ExecTier::Decoded, ExecTier::Blocks] {
        for threads in [1, 2] {
            if (tier, threads) == (ExecTier::Interp, 1) {
                continue; // the reference itself
            }
            let (rec, met) = campaign(tier, threads, cpus);
            assert_eq!(rec_ref, rec, "records diverged at {tier:?} ({threads} threads)");
            assert_eq!(
                met.decode_hits > 0,
                tier != ExecTier::Interp,
                "the decode cache runs exactly above Interp ({tier:?})"
            );
            assert_eq!(
                met.block_hits > 0,
                tier == ExecTier::Blocks,
                "blocks run exactly at Blocks ({tier:?})"
            );
            assert_eq!(
                met.block_chain_follows > 0,
                tier == ExecTier::Blocks,
                "chaining runs exactly at Blocks ({tier:?})"
            );
            assert_eq!(
                without_cache_counters(&met_ref),
                without_cache_counters(&met),
                "metrics diverged at {tier:?} ({threads} threads)"
            );
        }
    }
}

#[test]
fn cached_campaign_is_bit_identical_to_uncached() {
    tiers_are_bit_identical(1);
}

#[test]
fn smp_cached_campaign_is_bit_identical_to_uncached() {
    tiers_are_bit_identical(2);
}
