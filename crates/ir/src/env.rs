//! Typed parsing and up-front validation of the `ACCEVAL_*` environment
//! knobs.
//!
//! Every runtime knob (`ACCEVAL_DEVICE`, `ACCEVAL_ENGINE`,
//! `ACCEVAL_LAUNCH_CACHE`, `ACCEVAL_STORE`) parses through this module.
//! The launch cache's and the store's byte caps and the store's build epoch
//! are not knobs: they are fixed (512 MiB, 2 GiB, the executable's length
//! and mtime). Parses are *typed*:
//! a malformed value is an [`EnvError`], never a panic. The lazy getters in
//! [`crate::interp::gpu`], [`crate::interp::launch_cache`], and
//! [`crate::interp::store`] fall back to their documented defaults on a
//! malformed value — a launch deep inside a parallel sweep must not abort
//! the process over a typo — while front-end binaries call [`validate_env`]
//! once at startup and turn any error into a usage message and exit code 2,
//! so the typo is caught before any work is done.

use std::fmt;

/// A malformed or unrecognized `ACCEVAL_*` environment setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable at fault (e.g. `"ACCEVAL_ENGINE"`).
    pub var: String,
    /// The value found in the environment.
    pub value: String,
    /// Human-readable description of what the variable accepts.
    pub expected: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: invalid value `{}` (expected {})", self.var, self.value, self.expected)
    }
}

impl std::error::Error for EnvError {}

impl EnvError {
    fn new(var: &str, value: &str, expected: &str) -> Self {
        EnvError { var: var.to_string(), value: value.to_string(), expected: expected.to_string() }
    }
}

/// `on` / `off` knob value of the launch cache (`ACCEVAL_LAUNCH_CACHE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Toggle {
    /// Enabled.
    On,
    /// Disabled.
    Off,
}

/// Parse an `on`/`off` toggle value.
pub fn parse_toggle(var: &str, s: &str) -> Result<Toggle, EnvError> {
    match s {
        "on" => Ok(Toggle::On),
        "off" => Ok(Toggle::Off),
        _ => Err(EnvError::new(var, s, "`on` or `off`")),
    }
}

/// Parse an engine name (`tree` | `bytecode`). Returns the raw name; the
/// executor maps it onto its `Engine` enum.
pub fn parse_engine_name(s: &str) -> Result<&'static str, EnvError> {
    match s {
        "tree" => Ok("tree"),
        "bytecode" => Ok("bytecode"),
        _ => Err(EnvError::new("ACCEVAL_ENGINE", s, "`tree` or `bytecode`")),
    }
}

/// The persistent-store mode parsed from `ACCEVAL_STORE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreMode {
    /// Enabled at the default root (`results/.acceval-store`); enablement
    /// was defaulted, not asked for.
    Auto,
    /// Enabled at the default root, explicitly.
    On,
    /// Disabled: no disk probes, no spills.
    Off,
    /// Enabled at an explicit root directory.
    Path(std::path::PathBuf),
}

/// Parse an `ACCEVAL_STORE` value: `auto` | `on` | `off` | a directory path
/// (anything containing a path separator, or `.`/`..`, is a path).
pub fn parse_store_mode(s: &str) -> Result<StoreMode, EnvError> {
    match s {
        "auto" => Ok(StoreMode::Auto),
        "on" => Ok(StoreMode::On),
        "off" => Ok(StoreMode::Off),
        "" => Err(EnvError::new("ACCEVAL_STORE", s, "`auto`, `on`, `off`, or a directory path")),
        p if p.contains('/') || p.contains(std::path::MAIN_SEPARATOR) || p == "." || p == ".." => {
            Ok(StoreMode::Path(std::path::PathBuf::from(p)))
        }
        _ => Err(EnvError::new(
            "ACCEVAL_STORE",
            s,
            "`auto`, `on`, `off`, or a directory path (use `./name` for a relative directory)",
        )),
    }
}

/// Parse a device-generation preset name through the
/// [`acceval_sim::DeviceConfig::preset`] table. Returns the resolved config;
/// an unknown name is an [`EnvError`] naming the known presets.
pub fn parse_device_name(s: &str) -> Result<acceval_sim::DeviceConfig, EnvError> {
    acceval_sim::DeviceConfig::preset(s).ok_or_else(|| {
        let known: Vec<&str> = acceval_sim::DeviceConfig::presets().iter().map(|(n, _)| *n).collect();
        EnvError::new("ACCEVAL_DEVICE", s, &format!("a device preset: {}", known.join(", ")))
    })
}

/// The `ACCEVAL_*` variables this build understands.
pub const KNOWN_VARS: &[&str] = &["ACCEVAL_DEVICE", "ACCEVAL_ENGINE", "ACCEVAL_LAUNCH_CACHE", "ACCEVAL_STORE"];

/// Validate every `ACCEVAL_*` variable present in the environment: known
/// names must parse, and unknown `ACCEVAL_`-prefixed names are rejected (a
/// misspelled knob silently doing nothing is the bug this guards against).
///
/// Front-end binaries call this once at startup and exit 2 with a usage
/// message on `Err`; library code never calls it, so tests and embedders can
/// still set their own variables through the process environment — as long
/// as they don't squat the `ACCEVAL_` prefix.
pub fn validate_env() -> Result<(), EnvError> {
    validate_vars(std::env::vars())
}

/// [`validate_env`] over an explicit set of `(name, value)` pairs.
fn validate_vars(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), EnvError> {
    for (k, v) in vars {
        if !k.starts_with("ACCEVAL_") {
            continue;
        }
        match k.as_str() {
            "ACCEVAL_DEVICE" => {
                parse_device_name(&v)?;
            }
            "ACCEVAL_ENGINE" => {
                parse_engine_name(&v)?;
            }
            "ACCEVAL_LAUNCH_CACHE" => {
                parse_toggle(&k, &v)?;
            }
            "ACCEVAL_STORE" => {
                parse_store_mode(&v)?;
            }
            _ => return Err(EnvError::new(&k, &v, &format!("no such ACCEVAL knob; known: {}", KNOWN_VARS.join(", ")))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_parses() {
        assert!(parse_toggle("X", "auto").is_err());
        assert_eq!(parse_toggle("X", "on"), Ok(Toggle::On));
        assert_eq!(parse_toggle("X", "off"), Ok(Toggle::Off));
        let e = parse_toggle("ACCEVAL_LAUNCH_CACHE", "maybe").unwrap_err();
        assert_eq!(e.var, "ACCEVAL_LAUNCH_CACHE");
        assert!(e.to_string().contains("maybe"));
    }

    #[test]
    fn engine_name_parses() {
        assert_eq!(parse_engine_name("tree"), Ok("tree"));
        assert_eq!(parse_engine_name("bytecode"), Ok("bytecode"));
        let e = parse_engine_name("jit").unwrap_err();
        assert_eq!(e.var, "ACCEVAL_ENGINE");
        assert!(e.to_string().contains("bytecode"), "error must name the accepted engines: {e}");
    }

    /// The optimizer switch, the promotion threshold, the `native` and
    /// `auto` engine values, the intra-launch parallelism policy, the launch
    /// cache's `auto` value, both byte caps and the store epoch label were
    /// removed; setting any of them is a startup error, not a silently
    /// ignored knob.
    #[test]
    fn removed_knobs_are_rejected() {
        let one = |k: &str, v: &str| validate_vars([(k.to_string(), v.to_string())]);
        for (k, v) in [
            ("ACCEVAL_OPT", "off"),
            ("ACCEVAL_NATIVE_THRESHOLD", "8"),
            ("ACCEVAL_ENGINE", "native"),
            ("ACCEVAL_ENGINE", "auto"),
            ("ACCEVAL_LAUNCH_PAR", "on"),
            ("ACCEVAL_LAUNCH_CACHE", "auto"),
            ("ACCEVAL_LAUNCH_CACHE_CAP_MB", "512"),
            ("ACCEVAL_STORE_CAP_MB", "2048"),
            ("ACCEVAL_STORE_EPOCH", "any label"),
        ] {
            let e = one(k, v).unwrap_err();
            assert_eq!(e.var, k, "{k}={v} must be rejected under its own name");
        }
        assert!(!KNOWN_VARS.contains(&"ACCEVAL_OPT"));
        assert!(!KNOWN_VARS.contains(&"ACCEVAL_NATIVE_THRESHOLD"));
        assert!(!KNOWN_VARS.contains(&"ACCEVAL_LAUNCH_PAR"));
        assert_eq!(KNOWN_VARS.len(), 4);
        assert_eq!(one("ACCEVAL_ENGINE", "bytecode"), Ok(()));
        assert_eq!(one("OTHER_VAR", "x"), Ok(()));
    }

    #[test]
    fn device_name_parses() {
        assert!(parse_device_name("fermi").is_ok());
        assert!(parse_device_name("volta_v100").is_ok());
        let e = parse_device_name("turing").unwrap_err();
        assert_eq!(e.var, "ACCEVAL_DEVICE");
        assert!(e.to_string().contains("fermi"), "error must name the known presets: {e}");
    }

    #[test]
    fn store_mode_parses() {
        assert_eq!(parse_store_mode("auto"), Ok(StoreMode::Auto));
        assert_eq!(parse_store_mode("off"), Ok(StoreMode::Off));
        assert_eq!(parse_store_mode("/tmp/s"), Ok(StoreMode::Path("/tmp/s".into())));
        assert_eq!(parse_store_mode("./store"), Ok(StoreMode::Path("./store".into())));
        // A bare word that is neither a mode nor visibly a path is an error,
        // not a surprise relative directory.
        assert!(parse_store_mode("fast").is_err());
        assert!(parse_store_mode("").is_err());
    }
}
