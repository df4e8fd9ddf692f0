//! Emits `BENCH_machine.json`: the machine-core performance baseline
//! (exec-loop MIPS at each execution tier — interpreter, decode cache,
//! chained blocks; the same loop on both CPUs of a `cpus = 2` machine,
//! single-stepped through the decode cache vs slice-bounded blocks;
//! paged-guest kernel-replay MIPS single-stepping
//! through the decode cache vs chained blocks; per-run snapshot
//! restore cost full vs dirty-tracked; and small-campaign wall clock at
//! 1 and 4 worker threads, both recompute-per-rig and with golden
//! memoization + copy-on-write rig forks), with the measuring host's
//! CPU count.
//!
//! `--check` runs a scaled-down version of every measurement, prints
//! the JSON to stdout and writes nothing — the CI smoke mode. Without
//! it, the JSON lands in `BENCH_machine.json` in the current directory.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::Campaign;
use kfi_machine::{ExecTier, Machine, MachineConfig, Ramdisk, RunExit};
use kfi_profiler::ProfilerConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// The bench workload: a register-ALU loop heavy on multi-byte
/// encodings (imm32 forms, modrm+sib+disp8), so per-fetch decode cost
/// is a realistic share of the interpreter's work. With `cpus = 2`,
/// CPU 0 first wakes CPU 1 at the same loop with a startup IPI, so
/// both CPUs run it interleaved at the default slice length.
fn alu_loop_machine(iters: u32, tier: ExecTier, cpus: u32) -> Machine {
    use kfi_machine::ports::{MON_IPI, MON_IPI_ARG};
    let mut m =
        Machine::new(MachineConfig { timer_enabled: false, tier, cpus, ..Default::default() });
    if cpus > 1 {
        let mut wake = vec![0xb8]; // mov eax, 0x2000; out MON_IPI_ARG
        wake.extend_from_slice(&0x2000u32.to_le_bytes());
        wake.extend_from_slice(&[0xe7, MON_IPI_ARG as u8, 0xb8]); // mov eax, startup CPU 1
        wake.extend_from_slice(&((1u32 << 16) | (1 << 8)).to_le_bytes());
        wake.extend_from_slice(&[0xe7, MON_IPI as u8]); // out MON_IPI
        let rel = 0x2000u32.wrapping_sub(0x1000 + wake.len() as u32 + 5);
        wake.push(0xe9); // jmp 0x2000
        wake.extend_from_slice(&rel.to_le_bytes());
        m.mem.load(0x1000, &wake);
    }
    let mut code = vec![0xb9]; // mov ecx, iters
    code.extend_from_slice(&iters.to_le_bytes());
    code.extend_from_slice(&[
        // loop:
        0x05, 0x78, 0x56, 0x34, 0x12, // add eax, 0x12345678
        0x8d, 0x54, 0x98, 0x44, // lea edx, [eax+ebx*4+0x44]
        0x35, 0x0f, 0x0f, 0x0f, 0x0f, // xor eax, 0x0f0f0f0f
        0x81, 0xc3, 0x01, 0x00, 0x00, 0x00, // add ebx, 1
        0x31, 0xd0, // xor eax, edx
        0x49, // dec ecx
        0x75, 0xe7, // jnz loop
        0xfa, 0xf4, // cli; hlt
    ]);
    m.mem.load(if cpus > 1 { 0x2000 } else { 0x1000 }, &code);
    m.cpu.eip = 0x1000;
    m.cpu.set_reg(4, 0x8000);
    m
}

/// Interprets the ALU loop on a `cpus`-CPU machine and returns (MIPS,
/// instructions retired). Best of `passes` — the loop is
/// deterministic, so the fastest pass is the one least disturbed by
/// the host scheduler.
fn measure_mips(iters: u32, passes: u32, tier: ExecTier, cpus: u32) -> (f64, u64) {
    let mut best = f64::MAX;
    let mut insns = 0;
    for _ in 0..passes {
        let mut m = alu_loop_machine(iters, tier, cpus);
        let t = Instant::now();
        assert_eq!(m.run(u64::MAX / 2), RunExit::Halted);
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        insns = m.counters().instructions;
    }
    (insns as f64 / best / 1e6, insns)
}

/// Paged-guest replay: where campaigns actually spend their cycles.
/// Boots the real kernel image, snapshots at the paging-enabled entry
/// point, then replays the same boot-plus-workload instruction window
/// (a copy-on-write fork per pass) single-stepping at
/// [`ExecTier::Decoded`] vs running chained blocks at
/// [`ExecTier::Blocks`]. The two must retire the *same* instruction
/// count — the deadline semantics are bit-identical — so the MIPS ratio
/// isolates the dispatch + per-instruction-translation cost that
/// chained blocks and once-per-entry translation validation remove.
/// Returns `(mips_decoded, mips_blocks, instructions)`.
fn measure_paged(budget: u64, passes: u32) -> (f64, f64, u64) {
    let image = kfi_kernel::build_kernel(Default::default()).expect("kernel builds");
    let files = kfi_workloads::suite_files().expect("workloads build");
    let fsimg = kfi_kernel::mkfs(2048, &files);
    let disk = fsimg.disk.bytes().to_vec();
    let m = kfi_kernel::boot(&image, fsimg.disk, &Default::default());
    let snap = m.snapshot();
    let base_cfg = *m.config();

    let one_pass = |tier: ExecTier| -> (f64, u64) {
        let mut f = Machine::fork(&snap, MachineConfig { tier, ..base_cfg });
        f.disk = Some(Ramdisk::fork_from(&disk, snap.id()));
        let t = Instant::now();
        let _ = f.run(budget);
        (t.elapsed().as_secs_f64(), f.counters().instructions)
    };
    // Passes alternate the tiers so host-load drift hits both sides
    // equally instead of whichever side was measured second.
    let (mut best_step, mut best_blocks) = (f64::MAX, f64::MAX);
    let (mut insns_step, mut insns_blocks) = (0, 0);
    for _ in 0..passes {
        let (dt, n) = one_pass(ExecTier::Decoded);
        best_step = best_step.min(dt);
        insns_step = n;
        let (dt, n) = one_pass(ExecTier::Blocks);
        best_blocks = best_blocks.min(dt);
        insns_blocks = n;
    }
    assert_eq!(insns_step, insns_blocks, "blocks must not change the instruction count");
    (insns_step as f64 / best_step / 1e6, insns_blocks as f64 / best_blocks / 1e6, insns_blocks)
}

/// Measures per-restore cost in microseconds against a booted kernel
/// snapshot: `full` alternates two snapshots (every restore copies all
/// of physical memory), `dirty` reuses one snapshot with guest work in
/// between (every restore copies only the pages that work dirtied).
/// Returns (full_us, dirty_us, dirty_pages_per_run).
fn measure_restore(reps: u32) -> (f64, f64, u32) {
    let image = kfi_kernel::build_kernel(Default::default()).expect("kernel builds");
    let files = kfi_workloads::suite_files().expect("workloads build");
    let fsimg = kfi_kernel::mkfs(2048, &files);
    let m = kfi_kernel::boot(&image, fsimg.disk.clone(), &Default::default());
    let snap_a = m.snapshot();
    let snap_b = m.snapshot();

    let mut m = kfi_kernel::boot(&image, fsimg.disk, &Default::default());
    let t = Instant::now();
    for _ in 0..reps {
        m.restore(&snap_a);
        m.restore(&snap_b);
    }
    let full_us = t.elapsed().as_secs_f64() * 1e6 / (2 * reps) as f64;

    m.restore(&snap_a); // sync the dirty tracking to snap_a
    let mut dirty_time = 0.0;
    let mut dirty_pages = 0u64;
    for _ in 0..reps {
        let _ = m.run(50_000);
        dirty_pages += u64::from(m.dirty_page_count());
        let t = Instant::now();
        m.restore(&snap_a);
        dirty_time += t.elapsed().as_secs_f64();
    }
    (full_us, dirty_time * 1e6 / reps as f64, (dirty_pages / u64::from(reps)) as u32)
}

/// Wall-clock seconds for one campaign A at the given thread count,
/// best of `passes`.
///
/// `memoize = false` is the recompute-per-rig reference: every worker
/// boots and captures golden runs inside the timed region, every pass.
/// `memoize = true` measures the amortized steady state: the shared
/// base is booted and its golden runs captured once, *outside* the
/// timer (at million-run scale that one-off setup is noise), so the
/// timed region is fork + inject + classify only.
fn measure_campaign(exp: &Experiment, threads: usize, memoize: bool, passes: u32) -> f64 {
    let mut e = exp.with_threads(threads);
    e.config.memoize = memoize;
    if memoize {
        // One throwaway fork warms the base boot and all golden
        // captures for every pass that follows.
        drop(e.make_rig().expect("rig forks"));
    }
    let mut best = f64::MAX;
    for _ in 0..passes {
        let t = Instant::now();
        let r = e.run_campaign(Campaign::A);
        assert!(r.metrics.runs > 0);
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` per-rig setup cost: a full boot + golden capture
/// (what every worker paid before memoization) vs a copy-on-write fork
/// of the warm shared base (what every worker pays now).
fn measure_rig_setup(exp: &Experiment, reps: u32) -> (f64, f64) {
    let mut e = exp.with_threads(1);
    e.config.memoize = false;
    let mut boot_ms = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        drop(e.make_rig().expect("rig boots"));
        boot_ms = boot_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    e.config.memoize = true;
    drop(e.make_rig().expect("rig forks")); // boot the base + capture goldens
    let mut fork_ms = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        drop(e.make_rig().expect("rig forks"));
        fork_ms = fork_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (boot_ms, fork_ms)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let (loop_iters, passes, restore_reps, cap) =
        if check { (20_000, 3, 8, 1) } else { (500_000, 5, 64, 4) };

    eprintln!("[bench_machine] exec loop ({loop_iters} iterations)...");
    let (mips_interp, insns) = measure_mips(loop_iters, passes, ExecTier::Interp, 1);
    let (mips_decoded, insns_decoded) = measure_mips(loop_iters, passes, ExecTier::Decoded, 1);
    let (mips_blocks, insns_blocks) = measure_mips(loop_iters, passes, ExecTier::Blocks, 1);
    assert_eq!(insns, insns_decoded, "the decode cache must not change the instruction count");
    assert_eq!(insns, insns_blocks, "blocks must not change the instruction count");
    let exec_speedup = mips_blocks / mips_interp;

    eprintln!("[bench_machine] exec loop on both CPUs of a cpus = 2 machine...");
    let (mips_smp_decoded, insns_smp) = measure_mips(loop_iters, passes, ExecTier::Decoded, 2);
    let (mips_smp_blocks, insns_smp_blocks) = measure_mips(loop_iters, passes, ExecTier::Blocks, 2);
    assert_eq!(
        insns_smp, insns_smp_blocks,
        "slice-bounded blocks must not change the cpus = 2 instruction count"
    );
    assert!(insns_smp > 2 * insns, "both CPUs must run the loop");

    let paged_budget: u64 = if check { 2_000_000 } else { 40_000_000 };
    // One paged pass is a single ~35 ms run — far more exposed to
    // scheduler noise than the long exec loop — so best-of needs more
    // samples to converge on the quiet-machine figure.
    let paged_passes = if check { 3 } else { 9 };
    eprintln!("[bench_machine] paged kernel replay (budget {paged_budget} cycles)...");
    let (mips_paged_step, mips_paged_blocks, paged_insns) =
        measure_paged(paged_budget, paged_passes);
    let paged_speedup = mips_paged_blocks / mips_paged_step;

    eprintln!("[bench_machine] snapshot restore ({restore_reps} reps)...");
    let (full_us, dirty_us, dirty_pages) = measure_restore(restore_reps);
    let restore_speedup = full_us / dirty_us;

    eprintln!("[bench_machine] campaign A wall clock (cap {cap})...");
    let exp = Experiment::prepare(ExperimentConfig {
        seed: 2003,
        max_per_function: Some(cap),
        threads: 1,
        profiler: ProfilerConfig { period: 501, budget: 200_000_000 },
        ..Default::default()
    })
    .expect("experiment prepares");
    let campaign_passes = if check { 1 } else { 2 };
    let wall_1 = measure_campaign(&exp, 1, false, campaign_passes);
    let wall_4 = measure_campaign(&exp, 4, false, campaign_passes);
    eprintln!("[bench_machine] campaign A wall clock, memoized (cap {cap})...");
    let memo_1 = measure_campaign(&exp, 1, true, campaign_passes);
    let memo_4 = measure_campaign(&exp, 4, true, campaign_passes);

    eprintln!("[bench_machine] per-rig setup: boot+goldens vs warm fork...");
    let (boot_ms, fork_ms) = measure_rig_setup(&exp, if check { 2 } else { 5 });
    let setup_speedup = boot_ms / fork_ms;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"machine\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if check { "check" } else { "full" });
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"exec_loop\": {{");
    let _ = writeln!(json, "    \"instructions\": {insns},");
    let _ = writeln!(json, "    \"mips_interp\": {mips_interp:.1},");
    let _ = writeln!(json, "    \"mips_decoded\": {mips_decoded:.1},");
    let _ = writeln!(json, "    \"mips_blocks\": {mips_blocks:.1},");
    let _ = writeln!(json, "    \"speedup_decoded\": {:.2},", mips_decoded / mips_interp);
    let _ = writeln!(json, "    \"speedup_blocks\": {:.2},", mips_blocks / mips_decoded);
    let _ = writeln!(json, "    \"speedup\": {exec_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"exec_loop_smp\": {{");
    let _ = writeln!(json, "    \"cpus\": 2,");
    let _ = writeln!(json, "    \"instructions\": {insns_smp},");
    let _ = writeln!(json, "    \"mips_decoded\": {mips_smp_decoded:.1},");
    let _ = writeln!(json, "    \"mips_blocks\": {mips_smp_blocks:.1},");
    let _ = writeln!(json, "    \"speedup_blocks\": {:.2}", mips_smp_blocks / mips_smp_decoded);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"exec_loop_paged\": {{");
    let _ = writeln!(json, "    \"instructions\": {paged_insns},");
    let _ = writeln!(json, "    \"mips_decoded\": {mips_paged_step:.1},");
    let _ = writeln!(json, "    \"mips_blocks\": {mips_paged_blocks:.1},");
    let _ = writeln!(json, "    \"speedup_blocks\": {paged_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"snapshot_restore\": {{");
    let _ = writeln!(json, "    \"phys_mem_bytes\": {},", 8 << 20);
    let _ = writeln!(json, "    \"full_restore_us\": {full_us:.1},");
    let _ = writeln!(json, "    \"dirty_restore_us\": {dirty_us:.1},");
    let _ = writeln!(json, "    \"dirty_pages_per_run\": {dirty_pages},");
    let _ = writeln!(json, "    \"speedup\": {restore_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign\": {{");
    let _ = writeln!(json, "    \"seed\": 2003,");
    let _ = writeln!(json, "    \"cap\": {cap},");
    let _ = writeln!(json, "    \"memoize\": false,");
    let _ = writeln!(json, "    \"wall_s_threads_1\": {wall_1:.2},");
    let _ = writeln!(json, "    \"wall_s_threads_4\": {wall_4:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign_memo\": {{");
    let _ = writeln!(json, "    \"seed\": 2003,");
    let _ = writeln!(json, "    \"cap\": {cap},");
    let _ = writeln!(json, "    \"memoize\": true,");
    let _ = writeln!(json, "    \"wall_s_threads_1\": {memo_1:.2},");
    let _ = writeln!(json, "    \"wall_s_threads_4\": {memo_4:.2},");
    let _ = writeln!(json, "    \"rig_setup_boot_ms\": {boot_ms:.2},");
    let _ = writeln!(json, "    \"rig_setup_fork_ms\": {fork_ms:.2},");
    let _ = writeln!(json, "    \"setup_speedup\": {setup_speedup:.2}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    if check {
        print!("{json}");
        eprintln!("[bench_machine] check ok (speedups: exec {exec_speedup:.2}x, restore {restore_speedup:.2}x)");
    } else {
        std::fs::write("BENCH_machine.json", &json).expect("write BENCH_machine.json");
        eprintln!("[bench_machine] wrote BENCH_machine.json (exec {exec_speedup:.2}x, restore {restore_speedup:.2}x)");
    }
}
