//! The `kpm` binary's answer to options no command reads and to option
//! values no parser accepts.

use std::process::Command;

#[test]
fn bad_options_exit_with_their_class_code() {
    // `(command, option, value, exit code, text the message must carry)`.
    // An option no command reads (a typo, a removed option, a near miss of
    // `--moments`) is an argument error (2), and so is a value no parser
    // accepts, whose message names the accepted values; `--bc` stays a
    // lattice-spec error (3), and `--bounds` and `--device` stay
    // KPM-parameter errors (4), as is a parsed value out of range for the
    // lattice on every command that checks one.
    for (cmd, key, value, code, names) in [
        ("dos", "exce", "rows", 2, "unknown option --exce"),
        ("dos", "precision", "mixed", 2, "unknown option --precision"),
        ("dos", "moments-count", "64", 2, "unknown option --moments-count"),
        ("dos", "format", "coo", 2, "csr|stencil|auto"),
        ("dos", "format", "ell", 2, "csr|stencil|auto"),
        ("dos", "exec", "bogus", 2, "auto|rows|hybrid"),
        ("dos", "kernel", "nope", 2, "jackson|lorentz|fejer|dirichlet|jacobi"),
        ("dos", "disorder", "x", 2, "a number"),
        ("dos", "moments", "abc", 2, "--moments abc"),
        ("dos", "threads", "x", 2, "--threads x"),
        ("dos", "bc", "twisted", 3, "twisted"),
        ("dos", "bounds", "tight", 4, "tight"),
        ("dos", "device", "gpu", 4, "gpu"),
        ("ldos", "site", "99", 4, "site 99 out of range"),
        ("evolve", "site", "99", 4, "--site 99 out of range"),
        ("evolve", "steps", "0", 4, "--steps must be positive"),
        ("spectral", "momenta", "99", 4, "--momenta must be in 1..=16"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kpm"))
            .args([cmd, "--lattice", "chain:16", &format!("--{key}"), value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{cmd} --{key} {value}: {stderr}");
        assert!(stderr.contains(names), "{cmd} --{key} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} --{key} {value}: nothing runs");
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
