//! Severity-memo exactness on the crash that makes it non-trivial.
//!
//! Forked rigs serve post-crash severity verdicts from a campaign-wide
//! store keyed by the exact post-crash disk, but only when CPU 0's TLB
//! cannot influence the reboot. Campaign B at seed 4099 (cap 2) holds
//! one crash where that rule matters: the flipped bit in
//! `error_common` runs the kernel on a corrupted CR3, which leaves
//! kernel-text translations to frame `0xfffff` in the TLB and the disk
//! byte-identical to the post-boot image. Its in-place reboot inherits
//! those translations and fails (`MostSevere`), while a clean reboot
//! of the same disk boots — so a memo keyed on the disk alone would
//! hand this crash the wrong verdict.

use kfi_core::{Experiment, ExperimentConfig};
use kfi_injector::{Campaign, InjectorRig, Outcome, Severity, SeverityMemoStats};

fn experiment(memoize: bool, threads: usize) -> Experiment {
    Experiment::prepare(ExperimentConfig {
        seed: 4099,
        max_per_function: Some(2),
        threads,
        memoize,
        ..Default::default()
    })
    .expect("prepare")
}

#[test]
fn dirty_tlb_crash_bypasses_the_memo_and_matches_the_reference() {
    let exp = experiment(true, 1);
    let target = &exp.plan(Campaign::B)[22];
    assert_eq!(target.function, "error_common", "the plan moved; re-find the dirty-TLB crash");
    let mode = exp.mode_for(target);
    let shared = exp.shared_base().expect("boot");

    // What a disk-only memo would answer: a clean reboot of the
    // unchanged disk boots.
    let (clean, _) = InjectorRig::fork(&shared).expect("fork").assess_severity();
    assert_eq!(clean, Severity::Normal);

    let forked = InjectorRig::fork(&shared).expect("fork").run_one(target, mode);
    match &forked.outcome {
        Outcome::Crash(c) => assert_eq!(c.severity, Severity::MostSevere),
        other => panic!("expected a crash, got {other:?}"),
    }
    assert_eq!(
        shared.severity_store().stats(),
        SeverityMemoStats { assessed: 1, hits: 0, bypasses: 1 },
        "the eligibility rule must reject this crash's TLB and reboot in place"
    );

    let reference =
        InjectorRig::new(exp.image.clone(), &exp.files, exp.config.suite.n_modes(), exp.config.rig)
            .expect("rig")
            .run_one(target, mode);
    assert_eq!(forked, reference, "memoized fork and reboot-every-crash reference disagree");
}

#[test]
fn memoized_campaign_matches_the_reference_across_the_dirty_tlb_crash() {
    let reference = experiment(false, 1).run_campaign(Campaign::B);
    let exp = experiment(true, 2);
    let got = exp.run_campaign(Campaign::B);
    assert_eq!(got.records, reference.records);
    assert_eq!(got.metrics, reference.metrics);
    let s = exp.severity_memo_stats().expect("memoized campaign booted the base");
    let crashes = got.records.iter().filter(|r| matches!(r.outcome, Outcome::Crash(_))).count();
    assert_eq!((s.assessed + s.hits + s.bypasses) as usize, crashes, "one verdict per crash");
    assert_eq!(s.bypasses, 1);
    assert!(s.hits > s.assessed, "most crash verdicts come from the memo: {s:?}");
}
