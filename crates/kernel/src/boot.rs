//! Booting a machine into the guest kernel: the loader + "setup stub"
//! role (builds the boot page tables, loads the image, enables paging,
//! and jumps to `start_kernel` in virtual space).

use crate::image::KernelImage;
use crate::layout::{self, boot_info};
use kfi_machine::{Cpu, Machine, MachineConfig, Ramdisk, CR0_PG};

/// Pages of the boot linear map [`load_into`] writes: virtual page
/// `KERNEL_BASE/4K + n` maps physical frame `n`, supervisor, writable,
/// for `n` below this (two page tables, 8 MiB).
const BOOT_MAP_PAGES: u32 = 2 * 1024;

/// Boot configuration.
#[derive(Debug, Clone, Copy)]
pub struct BootConfig {
    /// Value placed in the boot-info `RUN_MODE` field (which workload
    /// `/init` executes; `0xFF` = run the whole suite).
    pub run_mode: u32,
    /// The machine to boot on. Its defaults match the kernel layout
    /// (8 MiB of memory, the timer on); `cpus` above 1 only brings
    /// application processors online when the kernel was built with
    /// [`crate::KernelBuildOptions::smp`].
    pub machine: MachineConfig,
}

impl Default for BootConfig {
    fn default() -> BootConfig {
        BootConfig { run_mode: 0xff, machine: MachineConfig::default() }
    }
}

/// Creates a machine and boots the kernel on it with the given disk.
///
/// On return the CPU sits at `start_kernel` in virtual address space
/// with paging enabled; run it with [`Machine::run`].
pub fn boot(image: &KernelImage, disk: Ramdisk, config: &BootConfig) -> Machine {
    let mut m = Machine::new(config.machine);
    m.disk = Some(disk);
    load_into(&mut m, image, config.run_mode);
    m
}

/// (Re)loads the kernel into an existing machine: the reboot path. The
/// machine's memory is wiped and every CPU, the timer deadline and the
/// block-device latches return to their [`Machine::new`] state; the
/// disk is left untouched. `run_mode` is [`BootConfig::run_mode`].
///
/// CPU 0's TLB is *kept*, as a warm reset keeps it: a reboot after a
/// crash starts with the crashed run's translations.
/// [`reboot_tlb_is_inert`] says when they cannot matter.
pub fn load_into(m: &mut Machine, image: &KernelImage, run_mode: u32) {
    m.mem.clear();
    m.clear_logs();

    // Kernel image at its physical home.
    let text_phys = image.program.text.base - layout::KERNEL_BASE;
    m.mem.load(text_phys, &image.program.text.bytes);
    let data_phys = image.program.data.base - layout::KERNEL_BASE;
    m.mem.load(data_phys, &image.program.data.bytes);

    // Boot page tables: the kernel linear map (dirs 768, 769 -> phys
    // 0..8 MiB, supervisor read/write).
    let tables = [layout::BOOT_PT0_PHYS, layout::BOOT_PT1_PHYS];
    debug_assert_eq!(tables.len() as u32 * 1024, BOOT_MAP_PAGES);
    for (i, pt_phys) in tables.into_iter().enumerate() {
        m.mem.write_u32(layout::BOOT_PGD_PHYS + (768 + i as u32) * 4, pt_phys | 0x3);
        for e in 0..1024u32 {
            let phys = (i as u32 * 1024 + e) << 12;
            m.mem.write_u32(pt_phys + e * 4, phys | 0x3);
        }
    }

    // Boot info.
    let bi = layout::BOOT_INFO_PHYS;
    m.mem.write_u32(bi + boot_info::PHYS_FREE_START, image.phys_free_start());
    m.mem.write_u32(bi + boot_info::PHYS_MEM_SIZE, layout::PHYS_MEM_SIZE);
    m.mem.write_u32(bi + boot_info::RUN_MODE, run_mode);
    m.mem.write_u32(bi + boot_info::FLAGS, 0);

    // The SMP half of the reset first: make CPU0 the active context,
    // park the application processors and drain the IPI queues, so the
    // boot state below lands on CPU0 exactly like `Machine::new` would
    // have it. A no-op on uniprocessor machines.
    m.reset_secondary_cpus();
    m.reset_latches();

    // CPU state: reset, then paging on, boot stack, entry point.
    m.cpu = Cpu::new(image.entry);
    m.cpu.cr3 = layout::BOOT_PGD_PHYS;
    m.cpu.cr0 = CR0_PG;
    m.cpu.esp0 = layout::BOOT_STACK_TOP;
    m.cpu.set(kfi_isa::Reg::Esp, layout::BOOT_STACK_TOP);
}

/// True when a reboot by [`load_into`] behaves exactly as it would on
/// an empty TLB, given CPU 0's resident translations as `(vpn, pfn,
/// writable, user)` (see [`kfi_machine::Tlb::entries`]).
///
/// The rule: every kernel-half entry (`vpn >= KERNEL_BASE/4K`) must
/// agree with the boot linear map — frame `vpn - KERNEL_BASE/4K` below
/// 8 MiB, supervisor, writable. User-half entries may hold anything.
///
/// Why that suffices: a page walk has no side effects (no accessed or
/// dirty bits) and charges no cycles, so a TLB hit that yields what
/// the walk would have yielded is indistinguishable from a miss.
/// Until the rebooted kernel's first CR3 load flushes the TLB, it
/// translates only kernel-half addresses, through the unmodified boot
/// map, so a stale user-half entry is never looked up. After that
/// flush the two TLBs hold the same nothing.
pub fn reboot_tlb_is_inert(entries: impl IntoIterator<Item = (u32, u32, bool, bool)>) -> bool {
    let kernel_vpn = layout::KERNEL_BASE >> 12;
    entries.into_iter().all(|(vpn, pfn, writable, user)| {
        vpn < kernel_vpn || (pfn == vpn - kernel_vpn && pfn < BOOT_MAP_PAGES && writable && !user)
    })
}

/// Sets the run mode in guest memory (used after restoring a post-boot
/// snapshot, before resuming).
pub fn set_run_mode(m: &mut Machine, mode: u32) {
    m.mem.write_u32(layout::BOOT_INFO_PHYS + boot_info::RUN_MODE, mode);
}

#[cfg(test)]
mod tests {
    use super::reboot_tlb_is_inert;

    const K: u32 = 0xC0000;

    #[test]
    fn empty_and_boot_map_tlbs_are_inert() {
        assert!(reboot_tlb_is_inert([]));
        assert!(reboot_tlb_is_inert([(K, 0, true, false), (K + 0x7ff, 0x7ff, true, false)]));
    }

    #[test]
    fn stale_user_half_entries_are_inert() {
        // Any frame, any permission: the reboot never looks them up.
        assert!(reboot_tlb_is_inert([
            (0x08048, 0x1234, false, true),
            (0xBFFFF, 0x7ff, true, true),
            (0, 0, false, false),
            (K - 1, 0x42, true, false),
            (K + 5, 5, true, false),
        ]));
    }

    #[test]
    fn kernel_half_entries_off_the_boot_map_are_not() {
        let ok = (K + 0x10, 0x10, true, false);
        for bad in [
            (K + 0x10, 0x11, true, false),   // wrong frame
            (K + 0x10, 0x10, true, true),    // user bit
            (K + 0x10, 0x10, false, false),  // read-only
            (K + 0x800, 0x800, true, false), // beyond 8 MiB
            (0xFFFFF, 0x3FFFF, true, false), // top of the address space
        ] {
            assert!(!reboot_tlb_is_inert([ok, bad]), "{bad:x?} must disqualify");
        }
    }

    #[test]
    fn default_machine_matches_the_kernel_layout() {
        let m = super::BootConfig::default().machine;
        assert_eq!(m.phys_mem, super::layout::PHYS_MEM_SIZE);
        assert!(m.timer_enabled, "the kernel schedules off the timer");
    }
}
