//! Per-step architectural-state sanitizer.
//!
//! Enabled by [`MachineConfig::sanitizer`](crate::MachineConfig) —
//! injection campaigns opt in through `RigConfig::sanitizer` in
//! `kfi-injector`, which plumbs down to it, and the checker's sweep
//! machines enable it directly — this validates invariants the rest of
//! the workspace silently relies on, after every
//! [`Machine::step`](crate::Machine::step):
//!
//! * the EFLAGS image is canonical (only writable bits, reserved
//!   always-one bit set — [`kfi_isa::Eflags::is_canonical`]);
//! * the TSC never moves backwards, and strictly advances on every
//!   executed step (crash latencies are TSC differences);
//! * CR2 changes only when a #PF was delivered or the guest executed
//!   `mov %reg, %cr2`, and a delivered #PF leaves CR2 equal to the
//!   faulting address it logged;
//! * a decode-cache hit returns exactly what a fresh decode of the
//!   current memory bytes produces (checked at the hit site in `fetch`);
//! * the MMU walk is idempotent: re-translating the fetch address
//!   through an empty scratch TLB reproduces the same physical address
//!   (checked at the fetch site).
//!
//! Violations are *recorded*, not panicked on, so a sweep can report
//! every finding; [`Machine::sanitizer_violations`](crate::Machine) and
//! [`Machine::sanitizer_violation_count`](crate::Machine) expose them.
//! The sanitizer never mutates architectural state, but the fetch-site
//! re-walk uses its own scratch TLB and the re-decode re-reads memory,
//! so wall-clock cost roughly doubles — it is a checking mode, not a
//! production mode. Because its invariants are per-*step*, the
//! sanitizer demotes [`ExecTier::Blocks`](crate::ExecTier) to
//! single-stepping ([`MachineConfig::effective_tier`](crate::MachineConfig::effective_tier)).
//!
//! One caveat on the MMU re-walk: a guest that rewrites live page
//! tables *without* reloading CR3 keeps serving stale TLB entries (by
//! design, like hardware). The re-walk would flag that as a mismatch.
//! The guest kernel always reloads CR3 after table updates and the
//! checker's generated programs never map their page tables writable,
//! so a report here means a simulator bug in every supported workload.

use crate::mmu::Tlb;

/// How many violation messages are retained verbatim (the count keeps
/// incrementing past this).
pub(crate) const MAX_REPORTS: usize = 32;

#[derive(Debug)]
pub(crate) struct Sanitizer {
    pub(crate) violations: Vec<String>,
    pub(crate) count: u64,
    /// Scratch TLB for the independent re-walk of fetch translations.
    pub(crate) scratch_tlb: Tlb,
    /// Set by the two legal CR2 writers (#PF delivery, `mov %r,%cr2`)
    /// during the current step; cleared at step entry.
    pub(crate) cr2_write_ok: bool,
}

impl Sanitizer {
    pub(crate) fn new() -> Sanitizer {
        Sanitizer { violations: Vec::new(), count: 0, scratch_tlb: Tlb::new(), cr2_write_ok: false }
    }

    pub(crate) fn report(&mut self, msg: String) {
        self.count += 1;
        if self.violations.len() < MAX_REPORTS {
            self.violations.push(msg);
        }
    }
}
