//! Seeded random guest-program generator.
//!
//! Builds small self-terminating IA-32 programs over the [`kfi_isa`]
//! subset and installs them into fresh [`Machine`]s, so two differently
//! configured machines can execute the *same* program in lockstep. The
//! generated environment is deliberately fault-tolerant: every IDT
//! vector points at a `cli; hlt` handler, so any exception a random (or
//! bit-flipped) instruction raises is terminal on both machines rather
//! than a reason for the harness to special-case anything.
//!
//! Memory map (physical = virtual in the identity-mapped low window):
//!
//! | region          | address            |
//! |-----------------|--------------------|
//! | code            | `0x1000..`         |
//! | fault handler   | `0x6000` (cli;hlt) |
//! | IDT (256 × 8)   | `0x7000..0x7800`   |
//! | stack top       | `0xF000`           |
//! | seeded data     | `0x10000..0x20000` |
//! | page dir/table  | `0x80000/0x81000`  |
//!
//! In the paging variant only the low `0..0x40000` window is mapped;
//! wild pointers page-fault into the terminal handler. The page-table
//! pages themselves sit *outside* the mapped window, so generated code
//! can never rewrite live translations (which would make the MMU
//! sanitizer's re-walk disagree with the TLB by design — see
//! [`kfi_machine::sanitizer`]).
//!
//! [`generate_ring`] builds the *two-ring* extension of this
//! environment: the generated code runs at ring 3 on user-mapped pages
//! and crosses into ring 0 through a user-callable `int $0x80` IDT
//! gate (and asynchronously through the timer vector), with a seeded
//! kernel-side handler counting the program down to a halt. Extra
//! kernel regions:
//!
//! | region                   | address    |
//! |--------------------------|------------|
//! | syscall handler (ring 0) | `0x6100`   |
//! | timer handler (`iret`)   | `0x6180`   |
//! | springboard (boot entry) | `0x6200`   |
//! | kernel scratch word      | `0x6FE0`   |
//! | syscall countdown        | `0x6FF0`   |
//! | user stack top           | `0xE000`   |
//!
//! Only the user code pages (`0x1000..0x3000`), the user stack page,
//! and the data region carry the PTE user bit; the handlers, IDT, and
//! kernel stack are supervisor-only, so the environment exercises the
//! real privilege checks (user fetches of kernel pages fault, `int`
//! DPL gating, the TSS.esp0 stack switch) rather than a flat machine.
//!
//! [`generate_smp`] builds the *two-CPU* extension: the bootstrap CPU
//! wakes CPU 1 through the monitor's startup-IPI ports
//! ([`MON_IPI_ARG`](kfi_machine::ports::MON_IPI_ARG) /
//! [`MON_IPI`](kfi_machine::ports::MON_IPI)), interleaves random work
//! with it under the deterministic round-robin scheduler, and finally
//! stops it with a reschedule doorbell. CPU 1 first sends itself four
//! reschedule IPIs, made deliverable by `sti`, by `popf` and by the
//! send itself (through an immediate port and through DX); IDT vector
//! `0x21` points at a handler that logs each interrupted EIP and
//! `iret`s, except that the fifth delivery (the doorbell) halts. Extra
//! regions:
//!
//! | region              | address  |
//! |---------------------|----------|
//! | CPU 1 routine       | `0x3800` |
//! | IPI handler         | `0x6300` |
//! | CPU 1 stack top     | `0xE800` |
//! | shared counter word | `0xFF00` |
//! | IPI log / count     | `0xFF04` / `0xFF08` |

use kfi_isa::{
    encode, AluKind, BtKind, Cond, Grp3Kind, MemRef, Op, PortArg, Reg, Rm, ShiftCount, ShiftKind,
    Src, Width, ALL_CONDS,
};
use kfi_machine::{pte, Machine, MachineConfig, CR0_PG, USER_CS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where generated code is loaded.
pub const CODE_BASE: u32 = 0x1000;
/// The terminal fault handler (`cli; hlt`).
pub const HANDLER: u32 = 0x6000;
/// IDT base (256 entries, all present, all pointing at [`HANDLER`]).
pub const IDT_BASE: u32 = 0x7000;
/// Initial ESP.
pub const STACK_TOP: u32 = 0xF000;
/// Seeded data region base.
pub const DATA_BASE: u32 = 0x1_0000;
/// Seeded data region length.
pub const DATA_LEN: u32 = 0x1_0000;
/// Physical memory given to checker machines — small, so full-memory
/// digests at divergence checkpoints stay cheap.
pub const PHYS_MEM: u32 = 1 << 20;

const PAGE_DIR: u32 = 0x8_0000;
const PAGE_TABLE: u32 = 0x8_1000;
/// Top of the identity-mapped window in the paging variant.
const MAPPED_TOP: u32 = 0x4_0000;
/// Generated code never exceeds this many bytes.
const MAX_CODE: usize = 0x1800;

/// Ring-program syscall handler entry (ring 0).
pub const RING_HANDLER: u32 = 0x6100;
/// Ring-program timer handler (a bare `iret`, so the timer interrupts
/// ring 3 and resumes it — the asynchronous transition path).
pub const RING_TIMER_HANDLER: u32 = 0x6180;
/// Ring-program boot springboard: ring 0 code building an `iret` frame
/// that drops to ring 3 at [`CODE_BASE`].
pub const RING_ENTRY: u32 = 0x6200;
/// Kernel scratch word mutated by the handler's seeded burst.
pub const KERNEL_SCRATCH: u32 = 0x6FE0;
/// Syscall countdown cell; the handler halts the machine when it hits
/// zero instead of `iret`ing back to ring 3.
pub const SYSCALL_COUNTER: u32 = 0x6FF0;
/// Initial ring-3 ESP (its page is user-mapped; the kernel stack under
/// [`STACK_TOP`] is not).
pub const USER_STACK_TOP: u32 = 0xE000;
/// Exclusive top of the user-executable code window.
const USER_CODE_TOP: u32 = 0x3000;

/// Where an SMP program's CPU 1 routine is loaded (entry point of the
/// startup IPI the bootstrap CPU sends).
pub const AP_CODE: u32 = 0x3800;
/// Initial ESP of CPU 1 — its own stack, clear of the bootstrap CPU's
/// at [`STACK_TOP`], so doorbell interrupt frames never alias.
pub const AP_STACK_TOP: u32 = 0xE800;
/// Shared word both CPUs can reach; CPU 1 mutates it so cross-CPU
/// memory traffic shows up in the lockstep memory digest.
pub const SMP_SHARED: u32 = 0xFF00;
/// SMP-program handler for the reschedule vector (`0x21`): folds the
/// interrupted EIP into [`SMP_IPI_LOG`], counts the delivery in
/// [`SMP_IPI_COUNT`] and `iret`s, except that the delivery that brings
/// the count to [`SMP_IPI_DELIVERIES`] halts the CPU.
pub const SMP_IPI_HANDLER: u32 = 0x6300;
/// Rolling log of the EIPs the reschedule vector interrupted: an IPI
/// delivered one instruction early or late leaves another value.
pub const SMP_IPI_LOG: u32 = 0xFF04;
/// Reschedule deliveries counted by [`SMP_IPI_HANDLER`].
pub const SMP_IPI_COUNT: u32 = 0xFF08;
/// Reschedule IPIs CPU 1 takes in a clean run: its four self-IPIs,
/// then the bootstrap CPU's doorbell, which halts it.
pub const SMP_IPI_DELIVERIES: u32 = 5;

/// A deferred single-bit corruption applied while the program runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MidFlip {
    /// Step index (0-based) *before* which the flip lands.
    pub step: u64,
    /// Offset into the code region.
    pub offset: u32,
    /// Bit index 0..8.
    pub bit: u8,
}

/// Which corruption the program carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Valid instruction stream, no corruption.
    Clean,
    /// 1–3 bits flipped in the code image before the first fetch.
    PreFlip,
    /// One bit flipped mid-run (exercises decode-cache invalidation).
    MidRunFlip,
}

/// The kernel half of a two-ring program (see [`generate_ring`]).
#[derive(Debug, Clone)]
pub struct RingSetup {
    /// Syscall-handler code, loaded at [`RING_HANDLER`]: a seeded
    /// kernel burst, the countdown decrement, then `iret` or halt.
    pub handler: Vec<u8>,
    /// Springboard code, loaded at [`RING_ENTRY`] and run first: builds
    /// an `iret` frame and drops to ring 3 at [`CODE_BASE`].
    pub entry: Vec<u8>,
    /// Initial value of the [`SYSCALL_COUNTER`] countdown — the number
    /// of `int $0x80` round trips a clean run performs before the
    /// handler halts.
    pub syscalls: u32,
}

/// The CPU 1 half of a two-CPU program (see [`generate_smp`]).
#[derive(Debug, Clone)]
pub struct SmpSetup {
    /// CPU 1's routine, loaded at [`AP_CODE`]: stack setup, four
    /// self-IPIs each followed by a seeded burst on the shared word,
    /// then a bounded store loop the bootstrap CPU's reschedule
    /// doorbell interrupts terminally.
    pub ap_code: Vec<u8>,
}

/// A generated program plus the machine state it expects.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// The seed it was generated from.
    pub seed: u64,
    /// Whether the paging variant is used.
    pub paging: bool,
    /// Encoded instruction stream (pre-flip corruption already applied).
    pub code: Vec<u8>,
    /// Seeded contents of the data region.
    pub data: Vec<u8>,
    /// Initial register file (EAX..EDI, encoding order).
    pub regs: [u32; 8],
    /// Mid-run corruption, if any.
    pub mid_flip: Option<MidFlip>,
    /// Ring-transition environment; `Some` makes [`install`] set up the
    /// user/kernel split and start at the springboard, and [`GenProgram
    /// ::code`] then runs at ring 3.
    pub ring: Option<RingSetup>,
    /// Two-CPU environment; `Some` makes [`install`] load the CPU 1
    /// routine at [`AP_CODE`] and build the machine with at least two
    /// CPUs ([`GenProgram::code`] then runs on the bootstrap CPU).
    pub smp: Option<SmpSetup>,
}

/// Generates the program for `seed`. The paging variant is chosen by
/// seed parity so a sweep alternates; everything else comes from the
/// seeded RNG, so the same seed always yields the same program.
pub fn generate(seed: u64, variant: Variant) -> GenProgram {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b66_692d_6368_6b00);
    let paging = seed % 2 == 1;

    // Paged programs open with a hot loop, before any random
    // instruction can fault: a chained trace records at most 128
    // instructions (64 trips), so 200+ trips get the loop's trace
    // recorded and then replayed whole — the paged block path whose
    // end-of-block TLB-hit accounting only a full replay reaches. ECX
    // is saved around it, so the random body starts from the seeded
    // registers. The trip count comes from the seed, not the RNG,
    // which leaves the rest of the program as it was.
    let mut code: Vec<u8> = Vec::new();
    if paging {
        let trips = 200 + (seed % 300) as u32;
        code.push(0x51); // push %ecx
        code.extend_from_slice(
            &encode(&Op::Mov { width: Width::D, dst: Rm::reg(Reg::Ecx), src: Src::Imm(trips) })
                .expect("mov imm"),
        );
        code.extend_from_slice(&[0x49, 0x75, 0xfd, 0x59]); // dec %ecx; jne .-1; pop %ecx
    }
    let prologue = code.len() as u32;
    let n_insns = rng.gen_range(24usize..80);
    for _ in 0..n_insns {
        if code.len() >= MAX_CODE - 64 {
            break;
        }
        let bytes = random_insn(&mut rng);
        // Occasionally guard the next instruction with a conditional
        // branch that skips exactly over it — a taken/not-taken split
        // that both machines must agree on.
        if bytes.len() <= 127 && rng.gen_bool(0.15) {
            let cond = ALL_CONDS[rng.gen_range(0usize..16)];
            let jcc = encode(&Op::Jcc { cond, rel: bytes.len() as i32 }).expect("short jcc");
            code.extend_from_slice(&jcc);
        }
        code.extend_from_slice(&bytes);
    }

    // A tight countdown loop (dec %ecx; jne -3) so the decode cache sees
    // real hits: mov $k,%ecx first, then the two-instruction loop body.
    if rng.gen_bool(0.6) {
        let k = rng.gen_range(4u32..40);
        code.extend_from_slice(
            &encode(&Op::Mov { width: Width::D, dst: Rm::reg(Reg::Ecx), src: Src::Imm(k) })
                .expect("mov imm"),
        );
        code.extend_from_slice(&[0x49, 0x75, 0xfd]); // dec %ecx; jne .-1
    }

    code.extend_from_slice(&[0xfa, 0xf4]); // cli; hlt

    let mut data = vec![0u8; DATA_LEN as usize];
    for b in data.iter_mut() {
        *b = rng.gen_range(0u32..256) as u8;
    }

    let mut regs = [0u32; 8];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = match i {
            4 => STACK_TOP,
            // Pointer-ish registers land inside the data region so
            // generated memory operands mostly hit seeded bytes.
            5 | 6 | 7 => DATA_BASE + (rng.gen_range(0u32..0x8000) & !3),
            _ => rng.gen_range(0u32..0x1_0000),
        };
    }

    let code_len = code.len() as u32;
    match variant {
        Variant::Clean => {}
        Variant::PreFlip => {
            // Flips spare the hot prologue, which a flipped `dec` could
            // turn into a 2^32-trip loop.
            for _ in 0..rng.gen_range(1u32..4) {
                let off = rng.gen_range(prologue..code_len);
                let bit = rng.gen_range(0u32..8) as u8;
                code[off as usize] ^= 1 << bit;
            }
        }
        Variant::MidRunFlip => {}
    }
    // A mid-run flip may land anywhere, the running hot loop included:
    // a flip inside a replayed trace is the invalidation case to test.
    let mid_flip = match variant {
        Variant::MidRunFlip => Some(MidFlip {
            step: rng.gen_range(4u64..48),
            offset: rng.gen_range(0u32..code_len),
            bit: rng.gen_range(0u32..8) as u8,
        }),
        _ => None,
    };

    GenProgram { seed, paging, code, data, regs, mid_flip, ring: None, smp: None }
}

/// Generates the two-ring variant for `seed`: bursts of unprivileged
/// random instructions at ring 3 punctuated by `int $0x80` gate
/// crossings, a seeded ring-0 handler that mutates kernel state and
/// counts the program down to a halt, and (on some seeds) a countdown
/// loop long enough that the timer interrupts ring 3 asynchronously.
/// Paging is always on — the privilege checks live in the page tables
/// and the IDT, so a flat variant would be vacuous. Corruption variants
/// flip bits in the *user* code, as [`generate`] does.
pub fn generate_ring(seed: u64, variant: Variant) -> GenProgram {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b66_692d_7269_6e67);
    let rounds = rng.gen_range(3u32..9);
    let long_round = if rng.gen_bool(0.35) { Some(rng.gen_range(0u32..rounds)) } else { None };

    let mut code: Vec<u8> = Vec::new();
    for round in 0..rounds {
        if Some(round) == long_round {
            // Long enough that at least one 50 000-cycle timer period
            // elapses at ring 3: the timer vector's bare-iret handler
            // gets exercised from an arbitrary user EIP.
            let k = rng.gen_range(40_000u32..60_000);
            code.extend_from_slice(
                &encode(&Op::Mov { width: Width::D, dst: Rm::reg(Reg::Ecx), src: Src::Imm(k) })
                    .expect("mov imm"),
            );
            code.extend_from_slice(&[0x49, 0x75, 0xfd]); // dec %ecx; jne .-1
        }
        for _ in 0..rng.gen_range(2usize..9) {
            if code.len() >= MAX_CODE - 64 {
                break;
            }
            let bytes = random_user_insn(&mut rng);
            if bytes.len() <= 127 && rng.gen_bool(0.15) {
                let cond = ALL_CONDS[rng.gen_range(0usize..16)];
                code.extend_from_slice(
                    &encode(&Op::Jcc { cond, rel: bytes.len() as i32 }).expect("short jcc"),
                );
            }
            code.extend_from_slice(&bytes);
        }
        code.extend_from_slice(&[0xcd, 0x80]); // int $0x80
    }
    // Unreachable on clean runs (the handler halts on the last int);
    // if corruption skips an int, user cli is #GP -> terminal handler.
    code.extend_from_slice(&[0xfa, 0xf4]);

    let mut data = vec![0u8; DATA_LEN as usize];
    for b in data.iter_mut() {
        *b = rng.gen_range(0u32..256) as u8;
    }
    let mut regs = [0u32; 8];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = match i {
            4 => STACK_TOP,
            5 | 6 | 7 => DATA_BASE + (rng.gen_range(0u32..0x8000) & !3),
            _ => rng.gen_range(0u32..0x1_0000),
        };
    }

    // Ring-0 handler: seeded burst on a kernel word, countdown, iret.
    let mut handler: Vec<u8> = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        let kind =
            [AluKind::Add, AluKind::Xor, AluKind::Sub, AluKind::Or][rng.gen_range(0usize..4)];
        handler.extend_from_slice(
            &encode(&Op::Alu {
                kind,
                width: Width::D,
                dst: Rm::Mem(MemRef::abs(KERNEL_SCRATCH)),
                src: Src::Imm(imm(&mut rng)),
            })
            .expect("kernel burst"),
        );
    }
    handler.extend_from_slice(
        &encode(&Op::IncDec {
            inc: false,
            width: Width::D,
            rm: Rm::Mem(MemRef::abs(SYSCALL_COUNTER)),
        })
        .expect("dec counter"),
    );
    handler.extend_from_slice(&encode(&Op::Jcc { cond: Cond::E, rel: 1 }).expect("je over iret"));
    handler.extend_from_slice(&encode(&Op::Iret).expect("iret"));
    handler.extend_from_slice(&[0xfa, 0xf4]); // countdown done: cli; hlt
    assert!(handler.len() <= (RING_TIMER_HANDLER - RING_HANDLER) as usize);

    // Springboard: push an iret frame (user ESP, EFLAGS with IF, user
    // CS, user EIP) and drop to ring 3.
    let mut entry: Vec<u8> = Vec::new();
    for v in [USER_STACK_TOP, 0x202, USER_CS, CODE_BASE] {
        entry.extend_from_slice(&encode(&Op::Push(Src::Imm(v))).expect("push imm"));
    }
    entry.extend_from_slice(&encode(&Op::Iret).expect("iret"));

    let code_len = code.len() as u32;
    match variant {
        Variant::Clean => {}
        Variant::PreFlip => {
            for _ in 0..rng.gen_range(1u32..4) {
                let off = rng.gen_range(0u32..code_len);
                let bit = rng.gen_range(0u32..8) as u8;
                code[off as usize] ^= 1 << bit;
            }
        }
        Variant::MidRunFlip => {}
    }
    let mid_flip = match variant {
        Variant::MidRunFlip => Some(MidFlip {
            step: rng.gen_range(4u64..48),
            offset: rng.gen_range(0u32..code_len),
            bit: rng.gen_range(0u32..8) as u8,
        }),
        _ => None,
    };

    GenProgram {
        seed,
        paging: true,
        code,
        data,
        regs,
        mid_flip,
        ring: Some(RingSetup { handler, entry, syscalls: rounds }),
        smp: None,
    }
}

/// Generates the two-CPU variant for `seed`: the bootstrap CPU sends a
/// startup IPI pointing CPU 1 at its seeded routine, runs random work
/// and a countdown long enough for the round-robin interleaver to give
/// CPU 1 real slices, then stops it with a reschedule doorbell (IDT
/// vector `0x21` → [`SMP_IPI_HANDLER`], which halts CPU 1 on this
/// delivery) and halts itself. Both IPI
/// sends come *before* any random instruction, so even a seed whose
/// random burst faults terminally still exercises cross-CPU wakeup and
/// doorbell delivery. CPU 1 first sends itself a reschedule IPI four
/// times: with interrupts off and then `sti`, with interrupts off and
/// then a `popf` that sets IF, and twice with interrupts on (through an
/// immediate port and through DX). Each must be
/// delivered on the boundary right after the instruction that made it
/// deliverable, and [`SMP_IPI_HANDLER`] logs where it landed. Then
/// CPU 1 mutates the shared word at [`SMP_SHARED`] in a bounded loop
/// with interrupts on — if the doorbell never lands (a machine with
/// [`SeededBugs::ipi_drop`](kfi_machine::SeededBugs) drops
/// it) the loop runs visibly longer, so a missed IPI can't hide from
/// the lockstep digests. Paging alternates by seed parity like
/// [`generate`]; corruption variants flip bits in the bootstrap CPU's
/// code.
pub fn generate_smp(seed: u64, variant: Variant) -> GenProgram {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b66_692d_736d_7000);
    let paging = seed % 2 == 1;

    // "mov $value, %eax; outl %eax, $port" — the monitor-port write
    // sequence both IPI sends are built from.
    let emit_out = |code: &mut Vec<u8>, port: u16, value: u32| {
        code.extend_from_slice(
            &encode(&Op::Mov { width: Width::D, dst: Rm::reg(Reg::Eax), src: Src::Imm(value) })
                .expect("mov imm"),
        );
        code.extend_from_slice(
            &encode(&Op::Out { width: Width::D, port: PortArg::Imm(port as u8) }).expect("outl"),
        );
    };
    let countdown = |code: &mut Vec<u8>, k: u32| {
        code.extend_from_slice(
            &encode(&Op::Mov { width: Width::D, dst: Rm::reg(Reg::Ecx), src: Src::Imm(k) })
                .expect("mov imm"),
        );
        code.extend_from_slice(&[0x49, 0x75, 0xfd]); // dec %ecx; jne .-1
    };

    let mut code: Vec<u8> = Vec::new();
    // Wake CPU 1 at its routine, first thing.
    emit_out(&mut code, kfi_machine::ports::MON_IPI_ARG, AP_CODE);
    emit_out(&mut code, kfi_machine::ports::MON_IPI, (1 << 8) | (1 << 16));
    // Long enough that the interleaver hands CPU 1 many quanta while
    // the bootstrap CPU spins here.
    countdown(&mut code, rng.gen_range(600u32..1400));
    // Stop CPU 1: the reschedule doorbell, vector 0x21, terminal here.
    emit_out(&mut code, kfi_machine::ports::MON_IPI, 1 << 8);
    // Random work *after* the sends, so corruption can't unplug SMP.
    for _ in 0..rng.gen_range(4usize..12) {
        if code.len() >= MAX_CODE - 64 {
            break;
        }
        let bytes = random_insn(&mut rng);
        if bytes.len() <= 127 && rng.gen_bool(0.15) {
            let cond = ALL_CONDS[rng.gen_range(0usize..16)];
            code.extend_from_slice(
                &encode(&Op::Jcc { cond, rel: bytes.len() as i32 }).expect("short jcc"),
            );
        }
        code.extend_from_slice(&bytes);
    }
    countdown(&mut code, rng.gen_range(100u32..400));
    code.extend_from_slice(&[0xfa, 0xf4]); // cli; hlt

    let mut data = vec![0u8; DATA_LEN as usize];
    for b in data.iter_mut() {
        *b = rng.gen_range(0u32..256) as u8;
    }
    let mut regs = [0u32; 8];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = match i {
            4 => STACK_TOP,
            5 | 6 | 7 => DATA_BASE + (rng.gen_range(0u32..0x8000) & !3),
            _ => rng.gen_range(0u32..0x1_0000),
        };
    }

    // CPU 1's routine: own stack, the four self-IPIs, then a bounded
    // store loop with interrupts on — long enough that a clean run is
    // always interrupted by the doorbell, bounded so a doorbell-less
    // run still halts. CPU 1 starts with interrupts off.
    let shared_burst = |ap: &mut Vec<u8>, rng: &mut StdRng| {
        for _ in 0..rng.gen_range(1usize..4) {
            let kind =
                [AluKind::Add, AluKind::Xor, AluKind::Sub, AluKind::Or][rng.gen_range(0usize..4)];
            ap.extend_from_slice(
                &encode(&Op::Alu {
                    kind,
                    width: Width::D,
                    dst: Rm::Mem(MemRef::abs(SMP_SHARED)),
                    src: Src::Imm(imm(rng)),
                })
                .expect("shared burst"),
            );
        }
    };
    let self_ipi = |ap: &mut Vec<u8>| emit_out(ap, kfi_machine::ports::MON_IPI, 1 << 8);
    let mut ap: Vec<u8> = Vec::new();
    ap.extend_from_slice(
        &encode(&Op::Mov { width: Width::D, dst: Rm::reg(Reg::Esp), src: Src::Imm(AP_STACK_TOP) })
            .expect("mov esp"),
    );
    // Queued with IF off; `sti` makes it deliverable.
    self_ipi(&mut ap);
    shared_burst(&mut ap, &mut rng);
    ap.push(0xfb); // sti
    shared_burst(&mut ap, &mut rng);
    // Queued with IF off; a `popf` setting IF makes it deliverable.
    ap.push(0xfa); // cli
    self_ipi(&mut ap);
    shared_burst(&mut ap, &mut rng);
    ap.extend_from_slice(&encode(&Op::Push(Src::Imm(0x202))).expect("push imm"));
    ap.extend_from_slice(&encode(&Op::Popf).expect("popf"));
    shared_burst(&mut ap, &mut rng);
    // Sent with IF on: deliverable as soon as the `out` retires.
    self_ipi(&mut ap);
    shared_burst(&mut ap, &mut rng);
    // Again through DX, where the port is only known at run time.
    ap.extend_from_slice(
        &encode(&Op::Mov {
            width: Width::D,
            dst: Rm::reg(Reg::Edx),
            src: Src::Imm(u32::from(kfi_machine::ports::MON_IPI)),
        })
        .expect("mov edx"),
    );
    ap.extend_from_slice(&encode(&Op::Out { width: Width::D, port: PortArg::Dx }).expect("out dx"));
    shared_burst(&mut ap, &mut rng);
    ap.extend_from_slice(
        &encode(&Op::Mov {
            width: Width::D,
            dst: Rm::reg(Reg::Ecx),
            src: Src::Imm(rng.gen_range(8_000u32..16_000)),
        })
        .expect("mov imm"),
    );
    let body =
        encode(&Op::IncDec { inc: true, width: Width::D, rm: Rm::Mem(MemRef::abs(SMP_SHARED)) })
            .expect("inc shared");
    ap.extend_from_slice(&body);
    ap.push(0x49); // dec %ecx
    ap.push(0x75); // jne back to the inc
    ap.push((-(body.len() as i32 + 3)) as i8 as u8);
    ap.extend_from_slice(&[0xfa, 0xf4]); // cli; hlt

    let code_len = code.len() as u32;
    match variant {
        Variant::Clean => {}
        Variant::PreFlip => {
            for _ in 0..rng.gen_range(1u32..4) {
                let off = rng.gen_range(0u32..code_len);
                let bit = rng.gen_range(0u32..8) as u8;
                code[off as usize] ^= 1 << bit;
            }
        }
        Variant::MidRunFlip => {}
    }
    let mid_flip = match variant {
        Variant::MidRunFlip => Some(MidFlip {
            step: rng.gen_range(4u64..48),
            offset: rng.gen_range(0u32..code_len),
            bit: rng.gen_range(0u32..8) as u8,
        }),
        _ => None,
    };

    GenProgram {
        seed,
        paging,
        code,
        data,
        regs,
        mid_flip,
        ring: None,
        smp: Some(SmpSetup { ap_code: ap }),
    }
}

/// Installs `prog` into a fresh machine built from `config` (with
/// `phys_mem` forced to [`PHYS_MEM`]).
pub fn install(prog: &GenProgram, mut config: MachineConfig) -> Machine {
    config.phys_mem = PHYS_MEM;
    if prog.smp.is_some() {
        config.cpus = config.cpus.max(2);
    }
    let mut m = Machine::new(config);

    m.mem.load(HANDLER, &[0xfa, 0xf4]);
    for v in 0..256u32 {
        m.mem.write_u32(IDT_BASE + v * 8, HANDLER);
        m.mem.write_u32(IDT_BASE + v * 8 + 4, 1); // present
    }
    m.mem.load(CODE_BASE, &prog.code);
    m.mem.load(DATA_BASE, &prog.data);

    m.cpu.regs = prog.regs;
    m.cpu.eip = CODE_BASE;
    m.cpu.idt_base = IDT_BASE;
    m.cpu.esp0 = STACK_TOP;

    if let Some(smp) = &prog.smp {
        // CPU 1 inherits CR0/CR3/IDT from the sender at startup-IPI
        // time, so nothing beyond its routine and the reschedule
        // handler needs installing here.
        m.mem.load(AP_CODE, &smp.ap_code);
        m.mem.load(SMP_IPI_HANDLER, &smp_ipi_handler());
        m.mem.write_u32(IDT_BASE + 0x21 * 8, SMP_IPI_HANDLER);
    }

    if let Some(ring) = &prog.ring {
        m.mem.load(RING_HANDLER, &ring.handler);
        m.mem.load(RING_TIMER_HANDLER, &[0xcf]); // timer: bare iret
        m.mem.load(RING_ENTRY, &ring.entry);
        m.mem.write_u32(SYSCALL_COUNTER, ring.syscalls);
        // The syscall gate is user-callable (DPL 3); the timer gate is
        // hardware-delivered, so it stays supervisor-only.
        m.mem.write_u32(IDT_BASE + 0x80 * 8, RING_HANDLER);
        m.mem.write_u32(IDT_BASE + 0x80 * 8 + 4, 3); // present | user
        m.mem.write_u32(IDT_BASE + 0x20 * 8, RING_TIMER_HANDLER);
        m.cpu.eip = RING_ENTRY;
    }

    if prog.paging {
        // One page table identity-mapping the low window; everything
        // else (including the table pages themselves) is unmapped. In
        // the two-ring environment the user bit is set on exactly the
        // user code pages, the user stack page, and the data region —
        // both PDE and PTE must carry it for ring-3 access.
        let ring = prog.ring.is_some();
        let dir_us = if ring { pte::US } else { 0 };
        m.mem.write_u32(PAGE_DIR, PAGE_TABLE | pte::P | pte::RW | dir_us);
        for page in 0..(MAPPED_TOP / kfi_machine::PAGE_SIZE) {
            let pa = page * kfi_machine::PAGE_SIZE;
            let user_page = ring
                && ((CODE_BASE..USER_CODE_TOP).contains(&pa)
                    || (USER_STACK_TOP - kfi_machine::PAGE_SIZE..USER_STACK_TOP).contains(&pa)
                    || pa >= DATA_BASE);
            let us = if user_page { pte::US } else { 0 };
            m.mem.write_u32(PAGE_TABLE + page * 4, pa | pte::P | pte::RW | us);
        }
        m.cpu.cr3 = PAGE_DIR;
        m.cpu.cr0 |= CR0_PG;
    }
    m
}

/// The [`SMP_IPI_HANDLER`] routine.
fn smp_ipi_handler() -> Vec<u8> {
    let log = || Rm::Mem(MemRef::abs(SMP_IPI_LOG));
    let count = || Rm::Mem(MemRef::abs(SMP_IPI_COUNT));
    let ops = [
        Op::Push(Src::reg(Reg::Eax)),
        // The interrupted EIP, above the saved EAX in the frame.
        Op::Mov {
            width: Width::D,
            dst: Rm::reg(Reg::Eax),
            src: Src::Mem(MemRef::base_disp(Reg::Esp, 4)),
        },
        Op::Shift { kind: ShiftKind::Rol, width: Width::D, dst: log(), count: ShiftCount::Imm(5) },
        Op::Alu { kind: AluKind::Xor, width: Width::D, dst: log(), src: Src::reg(Reg::Eax) },
        Op::Pop(Rm::reg(Reg::Eax)),
        Op::IncDec { inc: true, width: Width::D, rm: count() },
        Op::Alu {
            kind: AluKind::Cmp,
            width: Width::D,
            dst: count(),
            src: Src::Imm(SMP_IPI_DELIVERIES),
        },
        Op::Jcc { cond: Cond::Ae, rel: 1 }, // over the iret
        Op::Iret,
    ];
    let mut code: Vec<u8> = ops.iter().flat_map(|op| encode(op).expect("ipi handler")).collect();
    code.extend_from_slice(&[0xfa, 0xf4]); // cli; hlt
    code
}

/// Applies a mid-run flip to a machine's code image. Routing the write
/// through [`PhysMem`](kfi_machine::PhysMem) bumps the page generation,
/// so a decode-cache-enabled machine invalidates exactly like it would
/// for the injector's flips.
pub fn apply_mid_flip(m: &mut Machine, flip: &MidFlip) {
    let addr = CODE_BASE + flip.offset;
    let b = m.mem.read_u8(addr);
    m.mem.load(addr, &[b ^ (1 << flip.bit)]);
}

/// One random encodable instruction (retrying unencodable picks).
fn random_insn(rng: &mut StdRng) -> Vec<u8> {
    loop {
        if let Ok(bytes) = encode(&random_op(rng)) {
            return bytes;
        }
    }
}

/// Like [`random_insn`] but unprivileged-only, for ring-3 bursts:
/// privileged picks would #GP into the terminal handler on the first
/// instruction and the program would never reach its gate crossings.
/// (Wild memory operands still page-fault terminally sometimes — that
/// asymmetric ending is itself coverage, and both machines of a pair
/// must agree on it.)
fn random_user_insn(rng: &mut StdRng) -> Vec<u8> {
    loop {
        let op = random_op(rng);
        if matches!(op, Op::Out { .. } | Op::MovToCr { .. } | Op::MovFromCr { .. }) {
            continue;
        }
        if let Ok(bytes) = encode(&op) {
            return bytes;
        }
    }
}

fn reg(rng: &mut StdRng) -> Reg {
    kfi_isa::ALL_REGS[rng.gen_range(0usize..8)]
}

/// A register other than ESP — ESP-relative clobbers make the stack
/// walk off into the weeds too fast to exercise anything interesting.
fn reg_not_sp(rng: &mut StdRng) -> Reg {
    loop {
        let r = reg(rng);
        if r != Reg::Esp {
            return r;
        }
    }
}

fn mem_ref(rng: &mut StdRng) -> MemRef {
    match rng.gen_range(0u32..4) {
        0 => MemRef::abs(DATA_BASE + rng.gen_range(0u32..DATA_LEN - 16)),
        1 => {
            let base = [Reg::Ebp, Reg::Esi, Reg::Edi][rng.gen_range(0usize..3)];
            MemRef::base_disp(base, rng.gen_range(0i32..0xE00))
        }
        2 => {
            let base = [Reg::Ebp, Reg::Esi, Reg::Edi][rng.gen_range(0usize..3)];
            let index = reg_not_sp(rng);
            let scale = [1u8, 2, 4][rng.gen_range(0usize..3)];
            MemRef {
                base: Some(base),
                index: Some((index, scale)),
                disp: rng.gen_range(0i32..0x100),
            }
        }
        _ => MemRef::base_disp([Reg::Ebp, Reg::Esi, Reg::Edi][rng.gen_range(0usize..3)], 0),
    }
}

fn rm(rng: &mut StdRng) -> Rm {
    if rng.gen_bool(0.4) {
        Rm::Mem(mem_ref(rng))
    } else {
        Rm::reg(reg(rng))
    }
}

fn src(rng: &mut StdRng) -> Src {
    match rng.gen_range(0u32..3) {
        0 => Src::Reg(reg(rng) as u8),
        1 => Src::Imm(imm(rng)),
        _ => Src::Mem(mem_ref(rng)),
    }
}

fn imm(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0u32..5) {
        0 => rng.gen_range(0u32..0x80),
        1 => 0,
        2 => 0xffff_ffff,
        3 => 1 << rng.gen_range(0u32..32),
        _ => rng.next_u64() as u32,
    }
}

fn width(rng: &mut StdRng) -> Width {
    if rng.gen_bool(0.25) {
        Width::B
    } else {
        Width::D
    }
}

fn shift_count(rng: &mut StdRng) -> ShiftCount {
    match rng.gen_range(0u32..3) {
        0 => ShiftCount::One,
        1 => ShiftCount::Imm(rng.gen_range(0u32..32) as u8),
        _ => ShiftCount::Cl,
    }
}

fn random_op(rng: &mut StdRng) -> Op {
    const ALU: [AluKind; 8] = [
        AluKind::Add,
        AluKind::Or,
        AluKind::Adc,
        AluKind::Sbb,
        AluKind::And,
        AluKind::Sub,
        AluKind::Xor,
        AluKind::Cmp,
    ];
    const SHIFTS: [ShiftKind; 7] = [
        ShiftKind::Rol,
        ShiftKind::Ror,
        ShiftKind::Rcl,
        ShiftKind::Rcr,
        ShiftKind::Shl,
        ShiftKind::Shr,
        ShiftKind::Sar,
    ];
    const BTS: [BtKind; 4] = [BtKind::Bt, BtKind::Bts, BtKind::Btr, BtKind::Btc];
    match rng.gen_range(0u32..100) {
        0..=24 => Op::Alu {
            kind: ALU[rng.gen_range(0usize..8)],
            width: width(rng),
            dst: rm(rng),
            src: src(rng),
        },
        25..=39 => Op::Mov { width: width(rng), dst: rm(rng), src: src(rng) },
        40..=44 => Op::Shift {
            kind: SHIFTS[rng.gen_range(0usize..7)],
            width: width(rng),
            dst: rm(rng),
            count: shift_count(rng),
        },
        45..=49 => Op::IncDec { inc: rng.gen_bool(0.5), width: width(rng), rm: rm(rng) },
        50..=52 => Op::Lea { dst: reg(rng), mem: mem_ref(rng) },
        53..=55 => Op::Push(src(rng)),
        56..=57 => Op::Pop(Rm::reg(reg_not_sp(rng))),
        58..=59 => {
            if rng.gen_bool(0.5) {
                Op::Movzx { dst: reg(rng), src: rm(rng) }
            } else {
                Op::Movsx { dst: reg(rng), src: rm(rng) }
            }
        }
        60..=61 => Op::Xchg { reg: reg_not_sp(rng), rm: rm(rng) },
        62..=63 => Op::Bt { kind: BTS[rng.gen_range(0usize..4)], dst: rm(rng), src: src(rng) },
        64..=65 => Op::Setcc { cond: ALL_CONDS[rng.gen_range(0usize..16)], rm: rm(rng) },
        66..=67 => {
            Op::Cmov { cond: ALL_CONDS[rng.gen_range(0usize..16)], dst: reg(rng), src: rm(rng) }
        }
        68..=69 => Op::Imul2 { dst: reg(rng), src: rm(rng) },
        70 => Op::Imul3 { dst: reg(rng), src: rm(rng), imm: imm(rng) as i32 },
        71..=73 => Op::Grp3 {
            // Div/Idiv excluded from the uniform pick (a zero divisor is
            // terminal); they get their own low-probability arm below.
            kind: [Grp3Kind::Not, Grp3Kind::Neg, Grp3Kind::Mul, Grp3Kind::Imul]
                [rng.gen_range(0usize..4)],
            width: width(rng),
            rm: rm(rng),
        },
        74 => Op::Grp3 {
            kind: if rng.gen_bool(0.5) { Grp3Kind::Div } else { Grp3Kind::Idiv },
            width: width(rng),
            rm: rm(rng),
        },
        75 => Op::Xadd { width: width(rng), dst: rm(rng), src: reg(rng) },
        76 => Op::Cmpxchg { width: width(rng), dst: rm(rng), src: reg(rng) },
        77 => {
            if rng.gen_bool(0.5) {
                Op::Shld { dst: rm(rng), src: reg(rng), count: shift_count(rng) }
            } else {
                Op::Shrd { dst: rm(rng), src: reg(rng), count: shift_count(rng) }
            }
        }
        78..=79 => {
            if rng.gen_bool(0.5) {
                Op::Pushf
            } else {
                Op::Popf
            }
        }
        80 => {
            if rng.gen_bool(0.5) {
                Op::Pusha
            } else {
                Op::Popa
            }
        }
        81..=82 => {
            if rng.gen_bool(0.5) {
                Op::Cwde
            } else {
                Op::Cdq
            }
        }
        83 => Op::Bswap(reg(rng)),
        84 => Op::Rdtsc,
        85 => Op::Out { width: Width::B, port: PortArg::Imm(0xe9) },
        86..=87 => [Op::Cmc, Op::Clc, Op::Stc, Op::Cld, Op::Std][rng.gen_range(0usize..5)],
        88 => {
            if rng.gen_bool(0.5) {
                Op::Sahf
            } else {
                Op::Lahf
            }
        }
        89 => Op::Aam(rng.gen_range(1u32..256) as u8),
        90 => Op::Aad(rng.gen_range(0u32..256) as u8),
        91 => Op::Xlat,
        92 => Op::Cpuid,
        93 => Op::MovToCr { cr: 2, src: reg(rng) },
        94 => Op::MovFromCr { cr: 2, dst: reg(rng) },
        _ => Op::Nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfi_machine::RunExit;

    #[test]
    fn generation_is_deterministic() {
        for variant in [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip] {
            let a = generate(7, variant);
            let b = generate(7, variant);
            assert_eq!(a.code, b.code);
            assert_eq!(a.data, b.data);
            assert_eq!(a.regs, b.regs);
            assert_eq!(a.mid_flip, b.mid_flip);
        }
        let a = generate(7, Variant::Clean);
        let b = generate(8, Variant::Clean);
        assert_ne!(a.code, b.code, "different seeds must differ");
    }

    #[test]
    fn clean_programs_terminate() {
        for seed in 0..16 {
            let prog = generate(seed, Variant::Clean);
            let mut m = install(&prog, MachineConfig::default());
            let exit = m.run(500_000);
            assert!(
                matches!(exit, RunExit::Halted | RunExit::TripleFault),
                "seed {seed} did not terminate: {exit:?}"
            );
        }
    }

    #[test]
    fn flipped_programs_terminate() {
        for seed in 0..16 {
            let prog = generate(seed, Variant::PreFlip);
            let mut m = install(&prog, MachineConfig::default());
            let exit = m.run(500_000);
            assert!(
                matches!(exit, RunExit::Halted | RunExit::TripleFault),
                "flipped seed {seed} did not terminate: {exit:?}"
            );
        }
    }

    #[test]
    fn ring_generation_is_deterministic() {
        for variant in [Variant::Clean, Variant::PreFlip, Variant::MidRunFlip] {
            let a = generate_ring(7, variant);
            let b = generate_ring(7, variant);
            assert_eq!(a.code, b.code);
            assert_eq!(a.ring.as_ref().unwrap().handler, b.ring.as_ref().unwrap().handler);
            assert_eq!(a.ring.as_ref().unwrap().syscalls, b.ring.as_ref().unwrap().syscalls);
            assert_eq!(a.mid_flip, b.mid_flip);
        }
        assert_ne!(
            generate_ring(7, Variant::Clean).code,
            generate_ring(8, Variant::Clean).code,
            "different seeds must differ"
        );
    }

    #[test]
    fn ring_programs_cross_rings_and_terminate() {
        let mut total_syscalls = 0u64;
        let mut total_timer = 0u64;
        for seed in 0..16 {
            let prog = generate_ring(seed, Variant::Clean);
            let mut m = install(&prog, MachineConfig::default());
            let exit = m.run(2_000_000);
            assert_eq!(exit, RunExit::Halted, "ring seed {seed} did not halt: {exit:?}");
            // Every clean ring program must leave ring 0 at least once:
            // either it comes back in through the syscall gate or a
            // wild user access faults terminally — both are user-mode
            // deliveries.
            assert!(
                m.counters().syscalls > 0 || m.counters().faults > 0,
                "ring seed {seed} never left ring 0"
            );
            total_syscalls += m.counters().syscalls;
            total_timer += m.counters().timer_irqs;
        }
        assert!(total_syscalls > 0, "no seed crossed the int $0x80 gate");
        assert!(total_timer > 0, "no seed was interrupted asynchronously at ring 3");
    }

    #[test]
    fn flipped_ring_programs_terminate() {
        for seed in 0..16 {
            let prog = generate_ring(seed, Variant::PreFlip);
            let mut m = install(&prog, MachineConfig::default());
            let exit = m.run(2_000_000);
            assert!(
                matches!(exit, RunExit::Halted | RunExit::TripleFault),
                "flipped ring seed {seed} did not terminate: {exit:?}"
            );
        }
    }
}
