//! `minsync-node` rejects zero-valued count flags up front: a usage error
//! (exit 2, the flag named on stderr) before any socket is bound or `PORT`
//! line printed, never a panic deeper in the run.

use std::process::Command;

#[test]
fn zero_batch_and_zero_tick_are_usage_errors() {
    for flag in ["--batch", "--tick-us", "--window", "--stats-period"] {
        let out = Command::new(env!("CARGO_BIN_EXE_minsync-node"))
            .args([flag, "0"])
            .output()
            .expect("spawn minsync-node");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(flag), "{flag} 0 not named: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} 0 got as far as stdout");
    }
}
