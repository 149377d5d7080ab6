//! The `kpm` binary's answer to options no command reads.

use std::process::Command;

#[test]
fn unknown_options_exit_with_the_argument_error_code() {
    // A typo, a removed option, and a near miss of `--moments`.
    for (key, value) in [("exce", "rows"), ("precision", "mixed"), ("moments-count", "64")] {
        let out = Command::new(env!("CARGO_BIN_EXE_kpm"))
            .args(["dos", "--lattice", "chain:16", &format!("--{key}"), value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--{key} is an argument error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown option --{key}")), "--{key}: {stderr}");
        assert!(out.stdout.is_empty(), "--{key}: nothing runs");
    }
}

#[test]
fn help_prints_the_usage_before_any_work() {
    let dir = std::env::temp_dir().join(format!("kpm_cli_help_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("dos.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_kpm"))
        .args(["dos", "--lattice", "chain:8", "--moments", "16", "--help"])
        .arg("--out")
        .arg(&csv)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE: kpm <command>"), "{stdout}");
    assert!(!stdout.contains("integral"), "the DoS must not run: {stdout}");
    assert!(!csv.exists(), "no output is written");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn full_is_an_unknown_option() {
    let out = Command::new(env!("CARGO_BIN_EXE_kpm"))
        .args(["dos", "--lattice", "chain:8", "--moments", "16", "--full"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --full"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}
