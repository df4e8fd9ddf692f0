//! The benchmark's own check mode at minimal size: every listed metric
//! is printed with its unit, the traced spans cover the single-rig loop,
//! and the digest gate trips on a wrong expected digest.

use std::process::Command;

#[test]
fn check_mode_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--check")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench --check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.lines().any(|l| l == "check: ok"));
    assert_eq!(stdout.matches("digest gate tripped as expected").count(), 3);
}
