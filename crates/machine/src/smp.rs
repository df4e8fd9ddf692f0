//! SMP support: per-CPU architectural contexts over the shared
//! physical memory, plus the in-flight IPI queues.
//!
//! The machine keeps the *active* CPU's state where it has always
//! lived — `Machine::cpu`, the TLB, the local-timer deadline — and
//! parks every other CPU's context here. Switching CPUs is three
//! `mem::swap`s at a deterministic round-robin quantum boundary, so a
//! uniprocessor machine (`cpus = 1`) allocates none of this and
//! executes exactly the code it always did.

use crate::cpu::Cpu;
use crate::mmu::Tlb;
use std::collections::VecDeque;

/// An inter-processor interrupt in flight to some CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Ipi {
    /// The reschedule doorbell: delivered through IDT vector 0x21
    /// (`Vector::Ipi`) once the target has interrupts enabled.
    Resched,
    /// Firmware-assisted startup (the INIT/SIPI sequence collapsed to
    /// one message): the monitor captured the *sender's* paging and IDT
    /// state at send time, and delivery installs it on the target and
    /// jumps to `entry` — maskable by nothing, like a real SIPI.
    Startup {
        /// Target EIP (latched via `ports::MON_IPI_ARG` before the send).
        entry: u32,
        /// Sender's CR0 at send time.
        cr0: u32,
        /// Sender's CR3 at send time.
        cr3: u32,
        /// Sender's IDT base at send time.
        idt_base: u32,
    },
}

impl Ipi {
    /// Whether [`Machine::step`](crate::Machine::step) delivers this IPI
    /// to a CPU whose IF is `if_set`: a startup always, a reschedule
    /// only with interrupts on.
    pub fn deliverable(&self, if_set: bool) -> bool {
        match self {
            Ipi::Startup { .. } => true,
            Ipi::Resched => if_set,
        }
    }
}

/// The parked context of one CPU: everything per-CPU that the machine
/// otherwise keeps inline for the active CPU.
#[derive(Debug)]
pub(crate) struct CpuCtx {
    pub cpu: Cpu,
    pub tlb: Tlb,
    pub next_tick: u64,
}

impl CpuCtx {
    /// Reset state: wait-for-startup (halted with interrupts off, so
    /// nothing but a startup IPI can schedule it).
    pub fn parked(timer_period: u64) -> CpuCtx {
        let mut cpu = Cpu::new(0);
        cpu.halted = true;
        CpuCtx { cpu, tlb: Tlb::new(), next_tick: timer_period }
    }
}

/// Scheduler + parked contexts for a multi-CPU machine.
///
/// `ctxs[active]` is stale while that CPU runs inline; the snapshot and
/// digest paths substitute the live state.
#[derive(Debug)]
pub(crate) struct SmpState {
    pub ctxs: Vec<CpuCtx>,
    pub active: usize,
    /// Steps left in the active CPU's slice.
    pub slice_left: u32,
    /// Xorshift state for slice jitter; 0 = fixed quantum.
    pub rng: u64,
    /// Latch written via `ports::MON_IPI_ARG` (startup entry point).
    pub ipi_arg: u32,
    /// Per-CPU pending IPI queues, FIFO per target.
    pub pending: Vec<VecDeque<Ipi>>,
}

impl SmpState {
    pub fn new(cpus: u32, timer_period: u64, seed: u64) -> SmpState {
        let n = cpus.max(1) as usize;
        SmpState {
            ctxs: (0..n).map(|_| CpuCtx::parked(timer_period)).collect(),
            active: 0,
            slice_left: 0,
            rng: seed,
            ipi_arg: 0,
            pending: vec![VecDeque::new(); n],
        }
    }

    /// Captures every CPU context — the live `cpu`/`next_tick` for the
    /// active one, the parked ones for the rest — plus the scheduler
    /// position and in-flight IPIs.
    pub fn snapshot(&self, live_cpu: &Cpu, live_next_tick: u64) -> SmpSnapshot {
        let mut cpus: Vec<(Cpu, u64)> =
            self.ctxs.iter().map(|c| (c.cpu.clone(), c.next_tick)).collect();
        cpus[self.active] = (live_cpu.clone(), live_next_tick);
        SmpSnapshot {
            cpus,
            active: self.active,
            slice_left: self.slice_left,
            rng: self.rng,
            ipi_arg: self.ipi_arg,
            pending: self.pending.iter().map(|q| q.iter().cloned().collect()).collect(),
        }
    }

    /// Installs `snap` into the parked contexts (TLBs flushed), the
    /// scheduler and the IPI queues. The active CPU's entry lands in
    /// its parked slot too; the caller installs the live copy.
    ///
    /// # Panics
    ///
    /// Panics if `snap` was taken on a machine with another CPU count.
    pub fn load(&mut self, snap: &SmpSnapshot) {
        assert_eq!(self.ctxs.len(), snap.cpus.len(), "snapshot CPU-count mismatch");
        for (ctx, (cpu, next_tick)) in self.ctxs.iter_mut().zip(&snap.cpus) {
            ctx.cpu = cpu.clone();
            ctx.next_tick = *next_tick;
            ctx.tlb.flush();
        }
        self.active = snap.active;
        self.slice_left = snap.slice_left;
        self.rng = snap.rng;
        self.ipi_arg = snap.ipi_arg;
        for (q, p) in self.pending.iter_mut().zip(&snap.pending) {
            q.clear();
            q.extend(p.iter().cloned());
        }
    }

    /// Next slice length. With `rng == 0` this is exactly `quantum`;
    /// otherwise a xorshift64 draw jitters it within
    /// `[quantum/2, quantum/2 + quantum)`. Either way the schedule is a
    /// pure function of `(seed, quantum)` and guest behavior — host
    /// thread count never enters.
    pub fn next_quantum(&mut self, quantum: u32) -> u32 {
        let quantum = quantum.max(1);
        if self.rng == 0 {
            return quantum;
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (quantum / 2 + (x % u64::from(quantum)) as u32).max(1)
    }
}

/// Per-CPU state captured by [`crate::Snapshot`] for SMP machines: the
/// architectural state of every CPU (slot `active` duplicates the
/// snapshot's top-level CPU), the scheduler position, and in-flight
/// IPIs. TLB contents are caches and deliberately not captured —
/// restore flushes them, exactly as on the uniprocessor path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SmpSnapshot {
    pub cpus: Vec<(Cpu, u64)>,
    pub active: usize,
    pub slice_left: u32,
    pub rng: u64,
    pub ipi_arg: u32,
    pub pending: Vec<Vec<Ipi>>,
}
