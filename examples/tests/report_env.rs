//! `report` validates the `ACCEVAL_*` environment before doing any work: a
//! removed knob is a usage error (exit 2), and the usage text documents
//! every knob the validator accepts.

use std::process::{Command, Output};

use acceval_ir::env::KNOWN_VARS;

/// Run `report` with an unknown command (so it never starts a sweep), with
/// every known knob cleared from the inherited environment and `vars` set.
fn report_with(vars: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_report"));
    cmd.arg("no-such-command");
    for k in KNOWN_VARS {
        cmd.env_remove(k);
    }
    for (k, v) in vars {
        cmd.env(k, v);
    }
    cmd.output().expect("report runs")
}

#[test]
fn usage_documents_every_known_knob() {
    let out = report_with(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for k in KNOWN_VARS {
        assert!(usage.contains(&format!("{k}=")), "usage must document {k}:\n{usage}");
    }
}

#[test]
fn removed_launch_parallelism_knob_is_rejected() {
    let out = report_with(&[("ACCEVAL_LAUNCH_PAR", "on")]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid environment: ACCEVAL_LAUNCH_PAR"), "{err}");
}

/// `ACCEVAL_DEVICE=tesla` is the one way to pick the C1060: the flag that
/// used to pick it is an unknown flag, refused before any sweep starts.
#[test]
fn removed_device_flag_is_rejected() {
    let flag = format!("--device-{}", "c1060");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_report"));
    cmd.args(["figure1", flag.as_str()]);
    for k in KNOWN_VARS {
        cmd.env_remove(k);
    }
    let out = cmd.output().expect("report runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
}
