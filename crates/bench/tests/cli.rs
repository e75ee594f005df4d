//! The `experiments` command line refuses what it cannot measure: an
//! unknown experiment, a zero `--queries` or a zero `--scale` prints the
//! usage and exits 2 instead of printing a table of zeros.

use std::process::Command;

#[test]
fn unknown_experiments_and_zero_counts_are_usage_errors() {
    for args in [
        &["wal"][..],
        &["fig99"],
        &["nn", "--queries", "0"],
        &["points", "--scale", "0"],
        &["table7", "--scale", "-1"],
        &["table7", "--backend", "file"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments");
        assert_eq!(out.status.code(), Some(2), "experiments {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} measured something");
    }
}
