//! `table1` refuses what it does not understand instead of silently
//! running its defaults.

use std::process::Command;

#[test]
fn unknown_flags_and_values_exit_2() {
    for args in [
        &["--sharing", "private"][..],
        &["--small", "--frobnicate"],
        &["--order", "bogus"],
        &["--engine", "bogus"],
        &["--reorder", "bogus"],
        &["--small", "--timeout", "1e300"],
        &["--small", "--timeout", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
