//! `acs train` on a profile file the offline stage cannot use: one
//! `error:` line naming the kernel and the run, exit status 1, and no
//! model file.

use acs_core::KernelProfile;
use acs_sim::Machine;
use std::process::Command;

#[test]
fn a_truncated_profile_fails_train_and_writes_no_model() {
    let dir = std::env::temp_dir().join(format!("acs-bad-profiles-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (profiles_path, model_path) = (dir.join("profiles.json"), dir.join("model.json"));

    let machine = Machine::new(7);
    let mut profiles: Vec<KernelProfile> = acs_kernels::all_kernel_instances()[..8]
        .iter()
        .map(|k| KernelProfile::collect(&machine, k))
        .collect();
    profiles[3].runs.truncate(30);
    std::fs::write(&profiles_path, serde_json::to_string(&profiles).unwrap()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_acs-cli"))
        .arg("train")
        .arg("--profiles")
        .arg(&profiles_path)
        .arg("--out")
        .arg(&model_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let kernel = profiles[3].kernel.id();
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains(&format!("{kernel}, run 30:")), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!model_path.exists(), "a model was written");
    std::fs::remove_dir_all(&dir).unwrap();
}
