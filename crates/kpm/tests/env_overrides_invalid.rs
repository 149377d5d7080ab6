//! Hardened env-override parsing, invalid-value half: garbage in
//! `KPM_TILE_ROWS` is rejected (with a stderr warning) and falls back to
//! the built-in prior.
//!
//! The override is read **once per process** (`OnceLock`), so this lives
//! in its own test binary with a single test: the variable is set before
//! anything can have read it. The valid-value half is
//! `env_overrides_valid.rs`.

#[test]
fn invalid_env_overrides_fall_back_to_priors() {
    std::env::set_var("KPM_TILE_ROWS", "garbage");

    // Invalid values are treated as unset...
    assert_eq!(kpm::exec::env_tile_rows(), None);
    assert_eq!(kpm::exec::tile_rows(), kpm_linalg::DEFAULT_TILE_ROWS);
    // ...so the precedence chain env > profile > prior starts at "profile".
    assert_eq!(kpm::exec::resolve_tile_rows(Some(256)), 256);
    assert_eq!(kpm::exec::resolve_tile_rows(None), kpm_linalg::DEFAULT_TILE_ROWS);
}
