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
