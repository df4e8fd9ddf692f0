//! Lockstep differential execution over paired machine configurations.
//!
//! Two machines running the same [`GenProgram`] under configurations
//! that must be observationally equivalent (the [`MACHINE_PAIRS`]
//! table: decode cache on/off, block tier vs single-step, ring/null
//! trace sink, snapshot-restore vs fresh boot, shared-snapshot fork vs
//! fresh boot, block tier vs bare interpreter across user/kernel ring
//! transitions, and three SMP pairs) are stepped together; their
//! [`StepEvent`]s are compared after every step and the full
//! architectural state — registers, flags, control
//! registers, TSC, console, monitor, trap history, counters, and an
//! FNV-1a digest of all of physical memory — at checkpoints and at
//! termination. The first divergence is reported with a disassembly of
//! the instruction stream around the diverging EIP.

use crate::gen::{
    apply_mid_flip, generate, generate_ring, generate_smp, install, GenProgram, Variant, CODE_BASE,
};
use kfi_machine::{
    Counters, ExecTier, Machine, MachineConfig, MonitorEvent, RunExit, SeededBugs, StepEvent,
    TrapRecord,
};
use kfi_trace::{fnv1a, FNV1A_BASIS};

/// How often (in steps) the full architectural state is compared during
/// lockstep; step events are compared every step regardless.
pub const CHECKPOINT_INTERVAL: u64 = 64;

/// Lockstep never runs longer than this many steps per side.
pub const MAX_STEPS: u64 = 200_000;

/// Which cumulative statistics participate in a state comparison.
///
/// The decode-cache and TLB counters survive [`Machine::restore`] by
/// design (they are host-side plumbing, not guest state), and the cache
/// counters necessarily differ between cache-on and cache-off machines
/// — pairs exclude exactly the fields their configurations legitimately
/// perturb, and nothing else.
#[derive(Debug, Clone, Copy)]
pub struct StateMask {
    /// Compare `(decode_hits, decode_misses, decode_invalidations)`.
    pub decode_stats: bool,
    /// Compare `(tlb_hits, tlb_misses)`.
    pub tlb_stats: bool,
    /// Compare [`Machine::smp_digest`] — every CPU's architectural
    /// state, the scheduler position, and in-flight IPIs. Masked out
    /// only by the pair that compares a multi-CPU machine against a
    /// uniprocessor ([`pair_smp_parked`]), where the digests differ
    /// structurally (0 on the uniprocessor side) by design.
    pub smp_digest: bool,
}

impl StateMask {
    /// Compare everything.
    pub fn full() -> StateMask {
        StateMask { decode_stats: true, tlb_stats: true, smp_digest: true }
    }
}

/// A comparable capture of everything architecturally observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// EAX..EDI in encoding order.
    pub regs: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// EFLAGS image.
    pub eflags: u32,
    /// Code segment selector.
    pub cs: u32,
    /// CR0.
    pub cr0: u32,
    /// CR2 (page-fault linear address).
    pub cr2: u32,
    /// CR3 (page-directory base).
    pub cr3: u32,
    /// IDT base.
    pub idt_base: u32,
    /// Kernel stack pointer for privilege transitions.
    pub esp0: u32,
    /// Time-stamp counter.
    pub tsc: u64,
    /// Halted with interrupts off.
    pub halted: bool,
    /// Console output.
    pub console: Vec<u8>,
    /// Monitor events with timestamps.
    pub monitor: Vec<(u64, MonitorEvent)>,
    /// Delivered faults.
    pub traps: Vec<TrapRecord>,
    /// Execution counters.
    pub counters: Counters,
    /// `(hits, misses)` — zeroed when masked out.
    pub tlb_stats: (u64, u64),
    /// `(hits, misses, invalidations)` — zeroed when masked out.
    pub decode_stats: (u64, u64, u64),
    /// FNV-1a over all of physical memory.
    pub mem_digest: u64,
    /// [`Machine::smp_digest`]: every CPU's state + scheduler position
    /// + in-flight IPIs (0 on uniprocessor machines) — zeroed when
    /// masked out. Folding this in means a parked CPU diverging between
    /// its quanta is caught at the next checkpoint, not at its next
    /// slice.
    pub smp_digest: u64,
}

impl ArchState {
    /// Captures `m` under `mask`.
    pub fn capture(m: &Machine, mask: &StateMask) -> ArchState {
        ArchState {
            regs: m.cpu.regs,
            eip: m.cpu.eip,
            eflags: m.cpu.eflags.bits(),
            cs: m.cpu.cs,
            cr0: m.cpu.cr0,
            cr2: m.cpu.cr2,
            cr3: m.cpu.cr3,
            idt_base: m.cpu.idt_base,
            esp0: m.cpu.esp0,
            tsc: m.cpu.tsc,
            halted: m.cpu.halted,
            console: m.console().to_vec(),
            monitor: m.monitor_events().to_vec(),
            traps: m.trap_log().to_vec(),
            counters: m.counters(),
            tlb_stats: if mask.tlb_stats { m.tlb_stats() } else { (0, 0) },
            decode_stats: if mask.decode_stats { m.decode_stats() } else { (0, 0, 0) },
            mem_digest: fnv1a(FNV1A_BASIS, m.mem.slice(0, m.mem.size())),
            smp_digest: if mask.smp_digest { m.smp_digest() } else { 0 },
        }
    }

    /// Human-readable list of fields differing between two captures.
    pub fn diff(&self, other: &ArchState) -> Vec<String> {
        let mut out = Vec::new();
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    out.push(format!(
                        "{}: {:x?} != {:x?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        cmp!(regs);
        cmp!(eip);
        cmp!(eflags);
        cmp!(cs);
        cmp!(cr0);
        cmp!(cr2);
        cmp!(cr3);
        cmp!(idt_base);
        cmp!(esp0);
        cmp!(tsc);
        cmp!(halted);
        cmp!(console);
        cmp!(monitor);
        cmp!(traps);
        cmp!(counters);
        cmp!(tlb_stats);
        cmp!(decode_stats);
        cmp!(mem_digest);
        cmp!(smp_digest);
        out
    }
}

/// The first observed disagreement between paired machines.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Step index at which the disagreement was observed.
    pub step: u64,
    /// What disagreed.
    pub detail: String,
    /// Disassembly context around the first machine's EIP.
    pub context: String,
}

/// Result of running one pair to completion.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Steps executed per side.
    pub steps: u64,
    /// First divergence, if any.
    pub divergence: Option<Divergence>,
    /// Sanitizer reports from both sides, labeled `a:` / `b:`.
    pub violations: Vec<String>,
}

impl PairOutcome {
    /// No divergence and no sanitizer violations.
    pub fn clean(&self) -> bool {
        self.divergence.is_none() && self.violations.is_empty()
    }
}

fn disasm_context(m: &mut Machine) -> String {
    let eip = m.cpu.eip;
    let start = eip.saturating_sub(8).max(CODE_BASE);
    let mut buf = [0u8; 32];
    let n = m.probe_read(start, &mut buf);
    let mut out = String::new();
    for line in kfi_asm::disassemble(&buf[..n], start) {
        let marker = if line.addr == eip { ">" } else { " " };
        out.push_str(&format!("  {marker} {:#07x}: {}\n", line.addr, line.text));
    }
    out
}

fn collect_violations(label: &str, m: &Machine, into: &mut Vec<String>) {
    for v in m.sanitizer_violations() {
        into.push(format!("{label}: {v}"));
    }
    let extra = m.sanitizer_violation_count() as usize - m.sanitizer_violations().len();
    if extra > 0 {
        into.push(format!("{label}: … {extra} further violations elided"));
    }
}

fn terminal(ev: StepEvent) -> bool {
    matches!(ev, StepEvent::Halted | StepEvent::TripleFault)
}

/// Steps `a` and `b` in lockstep over `prog` until both terminate (or
/// [`MAX_STEPS`]), comparing step events every step and full state at
/// checkpoints. A mid-run flip in `prog` is applied to both machines
/// before the same step index.
pub fn run_lockstep(
    a: &mut Machine,
    b: &mut Machine,
    prog: &GenProgram,
    mask: &StateMask,
) -> PairOutcome {
    let mut step = 0u64;
    let mut divergence = None;
    loop {
        if let Some(f) = prog.mid_flip.filter(|f| f.step == step) {
            apply_mid_flip(a, &f);
            apply_mid_flip(b, &f);
        }
        let eva = a.step();
        let evb = b.step();
        step += 1;
        if eva != evb {
            divergence = Some(Divergence {
                step,
                detail: format!("step events diverged: a={eva:?} b={evb:?}"),
                context: disasm_context(a),
            });
            break;
        }
        let done = terminal(eva);
        if done || step % CHECKPOINT_INTERVAL == 0 {
            let sa = ArchState::capture(a, mask);
            let sb = ArchState::capture(b, mask);
            if sa != sb {
                divergence = Some(Divergence {
                    step,
                    detail: format!("state diverged:\n    {}", sa.diff(&sb).join("\n    ")),
                    context: disasm_context(a),
                });
                break;
            }
        }
        if done || step >= MAX_STEPS {
            break;
        }
    }
    let mut violations = Vec::new();
    collect_violations("a", a, &mut violations);
    collect_violations("b", b, &mut violations);
    PairOutcome { steps: step, divergence, violations }
}

/// Pair: decode cache on vs off — [`ExecTier::Decoded`] vs
/// [`ExecTier::Interp`] (lockstep; cache counters excluded).
pub fn pair_decode_cache(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mut a = install(prog, MachineConfig { tier: ExecTier::Decoded, ..base });
    let mut b = install(prog, MachineConfig { tier: ExecTier::Interp, ..base });
    run_lockstep(
        &mut a,
        &mut b,
        prog,
        &StateMask { decode_stats: false, tlb_stats: true, smp_digest: true },
    )
}

/// Pair: ring trace sink vs null sink (lockstep; tracing must be
/// invisible to the guest).
pub fn pair_trace_sink(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mut a = install(prog, base);
    a.set_trace_sink(kfi_trace::TraceSink::ring(256));
    let mut b = install(prog, base);
    run_lockstep(&mut a, &mut b, prog, &StateMask::full())
}

/// Pair: snapshot-restore-rerun vs fresh boot. Machine `a` runs the
/// program once, restores its boot snapshot, and runs again; machine
/// `b` boots fresh and runs once. Final states must match except for
/// the cumulative cache/TLB statistics that deliberately survive
/// restore.
pub fn pair_restore(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mask = StateMask { decode_stats: false, tlb_stats: false, smp_digest: true };
    let mut a = install(prog, base);
    let snap = a.snapshot();
    let first = run_to_end(&mut a, prog);
    a.restore(&snap);
    let second = run_to_end(&mut a, prog);
    let mut b = install(prog, base);
    let third = run_to_end(&mut b, prog);

    let sa = ArchState::capture(&a, &mask);
    let sb = ArchState::capture(&b, &mask);
    let divergence = if first != second || second != third {
        Some(Divergence {
            step: second.min(third),
            detail: format!(
                "step counts diverged: first-run={first} restored-rerun={second} fresh={third}"
            ),
            context: disasm_context(&mut a),
        })
    } else if sa != sb {
        Some(Divergence {
            step: second,
            detail: format!(
                "restored-rerun state != fresh-boot state:\n    {}",
                sa.diff(&sb).join("\n    ")
            ),
            context: disasm_context(&mut a),
        })
    } else {
        None
    };
    let mut violations = Vec::new();
    collect_violations("a", &a, &mut violations);
    collect_violations("b", &b, &mut violations);
    PairOutcome { steps: second, divergence, violations }
}

/// Pair: the block tier vs single-stepping through the decode cache.
/// Compared under [`StateMask::full`]: unlike the cache-on/off pair,
/// the block tier keeps the decode-cache *and* TLB statistics identical
/// to single-stepping — that is the property that lets the golden
/// campaign CSV stay byte-identical with blocks on. A mid-run flip
/// lands *inside* chained segments, the case where a stale chain link
/// or a skipped re-translation would show. The reference side
/// single-steps at [`ExecTier::Decoded`]; the block side is driven by
/// [`Machine::run`] to the reference's machine-wide TSCs, both with the
/// sanitizer off (it would demote the block tier to single-stepping).
///
/// The table runs it twice: on [`generate`] programs (`block-engine`)
/// and on [`generate_smp`] programs (`smp-blocks`), where the block
/// side runs slice-bounded segments on a two-CPU machine and
/// [`Machine::smp_digest`] — slice position, jitter state, in-flight
/// IPIs, the parked CPU — must come out identical too. The SMP
/// programs' self-IPIs test that each IPI made deliverable mid-block
/// (by `out`, `sti` or `popf`) is delivered on the same boundary as
/// under single-stepping.
pub fn pair_block_engine(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    run_vs_step(prog, base, ExecTier::Decoded, StateMask::full())
}

/// Pair: the block tier vs the bare interpreter on a *ring-transition*
/// program from [`generate_ring`]:
/// `int $0x80` through a user-callable IDT gate, the TSS.esp0
/// kernel-stack switch, `iret` back to ring 3, and asynchronous timer
/// interrupts of user code — the transitions every campaign run
/// crosses thousands of times, under the exact machinery stack
/// campaigns run with. Decode-cache statistics are masked (the bare
/// side has no cache); TLB statistics must still match, gate crossings
/// and CR3-rooted walks included. Driven like [`pair_block_engine`],
/// with the reference single-stepping at [`ExecTier::Interp`].
pub fn pair_ring(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    run_vs_step(
        prog,
        base,
        ExecTier::Interp,
        StateMask { decode_stats: false, tlb_stats: true, smp_digest: true },
    )
}

/// Run-vs-single-step comparison behind [`pair_block_engine`] and
/// [`pair_ring`]. The reference machine single-steps at `step_tier`
/// (via [`Machine::step`], which never uses blocks), recording
/// [`Machine::max_tsc`] at the pre-flip boundary and at the comparison
/// point. The other machine runs at [`ExecTier::Blocks`] and is driven
/// by [`Machine::run`], which budgets on the same clock, against those
/// recorded values — instruction-boundary TSCs are bit-identical across
/// tiers (trap delivery costs are charged at boundaries too), so a
/// cycle deadline stops it at the first boundary whose `max_tsc`
/// reaches the recorded value. That is the intended boundary only if
/// `max_tsc` strictly rose on the step into it: while a lagging CPU
/// runs on an SMP machine, several boundaries share one `max_tsc`. So
/// the flip lands on the first such boundary at or after the
/// program's flip step, and a run that reaches [`MAX_STEPS`] is
/// compared at the first such boundary from there. (On a uniprocessor
/// every step raises the TSC, so nothing moves.) The end states are
/// compared under `mask`.
///
/// Both sides force the sanitizer off: it demotes the block tier to
/// single-stepping, which would make the pair vacuous.
fn run_vs_step(
    prog: &GenProgram,
    base: MachineConfig,
    step_tier: ExecTier,
    mask: StateMask,
) -> PairOutcome {
    let base = MachineConfig { sanitizer: false, ..base };

    // Reference pass: single-step, recording where the flip lands.
    let mut b = install(prog, MachineConfig { tier: step_tier, ..base });
    let mut flip_tsc = None;
    let mut step = 0u64;
    // Whether `max_tsc` rose on the step into the current boundary
    // (boundary 0 has no predecessor to share its clock with).
    let mut rose = true;
    let terminated = loop {
        if let Some(f) = prog.mid_flip.filter(|f| f.step <= step && rose && flip_tsc.is_none()) {
            flip_tsc = Some(b.max_tsc());
            apply_mid_flip(&mut b, &f);
        }
        let before = b.max_tsc();
        let ev = b.step();
        step += 1;
        rose = b.max_tsc() > before;
        if terminal(ev) {
            break true;
        }
        if step >= MAX_STEPS && rose {
            break false;
        }
    };
    let end_tsc = b.max_tsc();

    // Block pass: run to the recorded clock values.
    let mut a = install(prog, MachineConfig { tier: ExecTier::Blocks, ..base });
    if let (Some(f), Some(t)) = (prog.mid_flip, flip_tsc) {
        a.run(t - a.max_tsc());
        apply_mid_flip(&mut a, &f);
    }
    if terminated {
        // The reference halted or triple-faulted at `end_tsc`; the
        // block side must reach the same terminal state. Slack covers
        // the halted-side TSC not advancing past the terminal event.
        a.run(end_tsc.saturating_sub(a.max_tsc()).saturating_add(100_000));
    } else {
        a.run(end_tsc - a.max_tsc());
    }

    let sa = ArchState::capture(&a, &mask);
    let sb = ArchState::capture(&b, &mask);
    let divergence = if sa != sb {
        Some(Divergence {
            step,
            detail: format!(
                "block-tier run state != {step_tier:?} single-step state:\n    {}",
                sa.diff(&sb).join("\n    ")
            ),
            context: disasm_context(&mut a),
        })
    } else {
        None
    };
    let mut violations = Vec::new();
    collect_violations("a", &a, &mut violations);
    collect_violations("b", &b, &mut violations);
    PairOutcome { steps: step, divergence, violations }
}

/// Pair: shared-snapshot fork vs fresh boot, in two legs.
///
/// Leg 1: machine `a` is a [`Machine::fork`] of a snapshot taken from
/// an installed (never-run) donor — the copy-on-write fork path the
/// campaign rigs use — while machine `b` is installed fresh. The two
/// run in full-mask lockstep: a fork starts with empty caches and
/// zeroed statistics, so *everything* must match, cache and TLB
/// counters included. A mid-run flip variant writes into the code page
/// here, which is exactly the self-modifying-code case a stale shared
/// decode/block cache would get wrong.
///
/// Leg 2: `a` then restores the shared snapshot — for a fork this is a
/// dirty-page restore against the `Arc`-shared base image, the rig's
/// per-run reset — and reruns, compared at termination against a second
/// fresh boot with the cumulative cache/TLB statistics masked (they
/// deliberately survive restore).
pub fn pair_fork(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let donor = install(prog, base);
    let snap = donor.snapshot();

    // Fork with the donor's effective config (`install` overrides
    // `phys_mem`), exactly as the rig forks with the boot machine's.
    let mut a = Machine::fork(&snap, *donor.config());
    let mut b = install(prog, base);
    let first = run_lockstep(&mut a, &mut b, prog, &StateMask::full());
    if !first.clean() {
        return first;
    }

    a.restore(&snap);
    let second = run_to_end(&mut a, prog);
    let mut b2 = install(prog, base);
    let third = run_to_end(&mut b2, prog);

    let mask = StateMask { decode_stats: false, tlb_stats: false, smp_digest: true };
    let sa = ArchState::capture(&a, &mask);
    let sb = ArchState::capture(&b2, &mask);
    let divergence = if first.steps != second || second != third {
        Some(Divergence {
            step: second.min(third),
            detail: format!(
                "step counts diverged: forked-lockstep={} restored-fork-rerun={second} fresh={third}",
                first.steps
            ),
            context: disasm_context(&mut a),
        })
    } else if sa != sb {
        Some(Divergence {
            step: second,
            detail: format!(
                "restored-fork state != fresh-boot state:\n    {}",
                sa.diff(&sb).join("\n    ")
            ),
            context: disasm_context(&mut a),
        })
    } else {
        None
    };
    let mut violations = Vec::new();
    collect_violations("a", &a, &mut violations);
    collect_violations("b", &b2, &mut violations);
    PairOutcome { steps: second, divergence, violations }
}

/// Pair: decode cache on vs off on a *two-CPU* machine running a
/// [`generate_smp`] program — startup IPI,
/// interleaved execution under the round-robin scheduler, cross-CPU
/// stores to a shared word, and a reschedule doorbell. The decode cache
/// is shared plumbing over [`PhysMem`](kfi_machine::PhysMem) while the
/// TLB is swapped per CPU, so this is the pair that would catch a
/// context swap leaking cached translations across CPUs. Lockstep with
/// [`StateMask::smp_digest`] on: both CPUs' full state (and in-flight
/// IPIs) are compared at every checkpoint, not just the active one's.
pub fn pair_smp(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mut a = install(prog, MachineConfig { tier: ExecTier::Decoded, ..base });
    let mut b = install(prog, MachineConfig { tier: ExecTier::Interp, ..base });
    run_lockstep(
        &mut a,
        &mut b,
        prog,
        &StateMask { decode_stats: false, tlb_stats: true, smp_digest: true },
    )
}

/// Pair: a two-CPU machine whose secondary is never woken vs the plain
/// uniprocessor, in lockstep on an ordinary
/// [`generate`] program (no IPI traffic). A
/// parked CPU must be *free*: the
/// scheduler may rotate over it at every quantum boundary, but nothing
/// the program can observe — timing, TLB and decode statistics, memory
/// — may differ from the machine that never allocated a second CPU.
/// This is the checker-level face of the `cpus = 1` golden-corpus
/// guarantee: SMP support that leaks into uniprocessor behavior would
/// show up here before it invalidated a corpus. [`StateMask::
/// smp_digest`] is masked out — it is structurally 0 on the
/// uniprocessor side and nonzero on the other, the one legitimate
/// difference.
pub fn pair_smp_parked(prog: &GenProgram, base: MachineConfig) -> PairOutcome {
    let mut a = install(prog, MachineConfig { cpus: 2, ..base });
    let mut b = install(prog, MachineConfig { cpus: 1, ..base });
    run_lockstep(
        &mut a,
        &mut b,
        prog,
        &StateMask { decode_stats: true, tlb_stats: true, smp_digest: false },
    )
}

/// Which generated program a pair runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// [`generate`]: single-ring, uniprocessor.
    Plain,
    /// [`generate_ring`]: user/kernel ring transitions under paging.
    Ring,
    /// [`generate_smp`]: two CPUs exchanging startup and reschedule
    /// IPIs.
    Smp,
}

/// A machine-level pair: `(name, program, pair)`.
pub type MachinePair = (&'static str, Program, fn(&GenProgram, MachineConfig) -> PairOutcome);

/// Every machine-level differential pair, in sweep order — the one
/// list `check_machine` and the unit tests both run.
pub const MACHINE_PAIRS: [MachinePair; 9] = [
    ("decode-cache", Program::Plain, pair_decode_cache),
    ("block-engine", Program::Plain, pair_block_engine),
    ("trace-sink", Program::Plain, pair_trace_sink),
    ("restore", Program::Plain, pair_restore),
    ("fork", Program::Plain, pair_fork),
    ("ring", Program::Ring, pair_ring),
    ("smp", Program::Smp, pair_smp),
    ("smp-blocks", Program::Smp, pair_block_engine),
    ("smp-parked", Program::Plain, pair_smp_parked),
];

/// Runs every pair of [`MACHINE_PAIRS`] on the programs generated for
/// `(seed, variant)`, returning `(name, outcome)` in table order.
pub fn run_machine_pairs(
    seed: u64,
    variant: Variant,
    base: MachineConfig,
) -> Vec<(&'static str, PairOutcome)> {
    let plain = generate(seed, variant);
    let ring = generate_ring(seed, variant);
    let smp = generate_smp(seed, variant);
    MACHINE_PAIRS
        .iter()
        .map(|&(name, program, pair)| {
            let prog = match program {
                Program::Plain => &plain,
                Program::Ring => &ring,
                Program::Smp => &smp,
            };
            (name, pair(prog, base))
        })
        .collect()
}

/// Seeded-bug self-test for the sanitizer: it must report the
/// [`SeededBugs::flag_update`] bug on a one-instruction ALU program, and
/// stay silent on the same program without the bug.
fn sanitizer_self_test() -> Result<(), String> {
    // add $1,%eax ; cli ; hlt — one ALU flag write, then stop.
    const PROGRAM: [u8; 5] = [0x83, 0xc0, 0x01, 0xfa, 0xf4];
    let run = |flag_update: bool| -> (u64, RunExit) {
        let mut m = Machine::new(MachineConfig {
            sanitizer: true,
            bugs: SeededBugs { flag_update, ..SeededBugs::default() },
            ..MachineConfig::default()
        });
        m.mem.load(0x1000, &PROGRAM);
        m.cpu.eip = 0x1000;
        let exit = m.run(10_000);
        (m.sanitizer_violation_count(), exit)
    };
    let (clean, exit) = run(false);
    if exit != RunExit::Halted {
        return Err(format!("control run did not halt: {exit:?}"));
    }
    if clean != 0 {
        return Err(format!("sanitizer reported {clean} violations on a correct machine"));
    }
    if run(true).0 == 0 {
        return Err("sanitizer MISSED the seeded flag-update bug".to_string());
    }
    Ok(())
}

/// Seeded-bug self-test for the lockstep executor: a machine carrying
/// `bugs` must diverge from a correct one on `prog`, and two correct
/// machines must not.
fn lockstep_self_test(prog: &GenProgram, bugs: SeededBugs) -> Result<(), String> {
    let cfg = MachineConfig::default();
    let mut a = install(prog, cfg);
    let mut b = install(prog, cfg);
    let control = run_lockstep(&mut a, &mut b, prog, &StateMask::full());
    if !control.clean() {
        return Err(format!("control run diverged on correct machines: {control:?}"));
    }
    let mut a = install(prog, cfg);
    let mut b = install(prog, MachineConfig { bugs, ..cfg });
    if run_lockstep(&mut a, &mut b, prog, &StateMask::full()).divergence.is_none() {
        return Err(format!("lockstep MISSED the seeded bug {bugs:?}"));
    }
    Ok(())
}

/// The three seeded-bug self-tests on programs generated from `seed`,
/// as `(what must be caught, result)`: a broken ALU flag writer the
/// sanitizer must report, a skipped TSS.esp0 kernel-stack switch the
/// ring-transition lockstep must flag, and a dropped reschedule IPI
/// the SMP lockstep must flag.
pub fn seeded_bug_self_tests(seed: u64) -> [(&'static str, Result<(), String>); 3] {
    let ring_switch = SeededBugs { ring_switch: true, ..SeededBugs::default() };
    let ipi_drop = SeededBugs { ipi_drop: true, ..SeededBugs::default() };
    [
        ("sanitizer catches the seeded flag-update bug", sanitizer_self_test()),
        (
            "ring lockstep catches the seeded stack-switch bug",
            lockstep_self_test(&generate_ring(seed, Variant::Clean), ring_switch),
        ),
        (
            "smp lockstep catches the seeded dropped-IPI bug",
            lockstep_self_test(&generate_smp(seed, Variant::Clean), ipi_drop),
        ),
    ]
}

fn run_to_end(m: &mut Machine, prog: &GenProgram) -> u64 {
    let mut step = 0u64;
    loop {
        if let Some(f) = prog.mid_flip.filter(|f| f.step == step) {
            apply_mid_flip(m, &f);
        }
        let ev = m.step();
        step += 1;
        if terminal(ev) || step >= MAX_STEPS {
            return step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> MachineConfig {
        MachineConfig { sanitizer: true, ..MachineConfig::default() }
    }

    #[test]
    fn identical_configs_never_diverge() {
        let prog = generate(3, Variant::Clean);
        let mut a = install(&prog, base());
        let mut b = install(&prog, base());
        let out = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
        assert!(out.clean(), "identical machines diverged: {out:?}");
        assert!(out.steps > 0);
    }

    #[test]
    fn lockstep_detects_a_seeded_state_difference() {
        let prog = generate(3, Variant::Clean);
        let mut a = install(&prog, base());
        let mut b = install(&prog, base());
        b.cpu.regs[3] ^= 0x40; // perturb EBX on one side only
        let out = run_lockstep(&mut a, &mut b, &prog, &StateMask::full());
        let d = out.divergence.expect("perturbed machine must diverge");
        assert!(
            d.detail.contains("regs") || d.detail.contains("events"),
            "unexpected divergence detail: {}",
            d.detail
        );
        assert!(!d.context.is_empty(), "divergence must carry disassembly context");
    }

    #[test]
    fn all_machine_pairs_agree_on_a_sample() {
        for seed in [0, 1, 2, 5] {
            for variant in [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip] {
                for (name, out) in run_machine_pairs(seed, variant, base()) {
                    assert!(out.clean(), "seed {seed} {variant:?} pair {name} failed:\n{out:#?}");
                }
            }
        }
    }

    #[test]
    fn seeded_bugs_are_caught() {
        for seed in [0u64, 1, 2] {
            for (what, result) in seeded_bug_self_tests(seed) {
                assert_eq!(result, Ok(()), "seed {seed}: {what}");
            }
        }
    }

    #[test]
    fn smp_programs_actually_interleave_and_doorbell() {
        // The equivalence pairs above are only worth their runtime if
        // the generated programs really wake CPU 1, deliver its
        // self-IPIs and stop it with a reschedule IPI — pin that here
        // so a generator regression can't silently turn the SMP sweep
        // vacuous.
        let mut delivered = 0u64;
        for seed in 0..8u64 {
            let prog = crate::gen::generate_smp(seed, Variant::Clean);
            let mut m = install(&prog, MachineConfig::default());
            let steps = run_to_end(&mut m, &prog);
            assert!(steps < MAX_STEPS, "smp seed {seed} did not terminate");
            assert!(m.cpu_state(0).halted && m.cpu_state(1).halted, "seed {seed} left a CPU live");
            assert!(m.cpu_state(1).tsc > 0, "smp seed {seed} never ran CPU 1");
            assert_eq!(
                m.mem.read_u32(crate::gen::SMP_IPI_COUNT),
                crate::gen::SMP_IPI_DELIVERIES,
                "smp seed {seed}: CPU 1 must take its four self-IPIs and the doorbell"
            );
            delivered += m.counters().ipis;
        }
        assert!(delivered > 0, "no seed delivered a reschedule doorbell");
    }
}
