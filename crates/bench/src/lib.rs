//! # noc-bench
//!
//! Experiment harness reproducing **every table and figure** of
//! Hu & Marculescu (DATE 2004) plus the ablation studies called out in
//! `DESIGN.md`:
//!
//! | Paper artifact | Binary | Library entry point |
//! |---|---|---|
//! | Fig. 5 (category-I random benchmarks) | `fig5_category1` | [`experiments::random_category`] |
//! | Fig. 6 (category-II random benchmarks) | `fig6_category2` | [`experiments::random_category`] |
//! | Table 1 (A/V encoder) | `table1_av_encoder` | [`experiments::multimedia_table`] |
//! | Table 2 (A/V decoder) | `table2_av_decoder` | [`experiments::multimedia_table`] |
//! | Table 3 (integrated A/V enc+dec) | `table3_av_integrated` | [`experiments::multimedia_table`] |
//! | Fig. 7 (energy vs performance ratio) | `fig7_tradeoff` | [`experiments::tradeoff_sweep`] |
//! | §6.1 runtime remarks | `cargo bench -p noc-bench` | — |
//! | Ablations (weights, budgets, comm model) | `ablation` | [`experiments::ablation_study`] |
//!
//! Every experiment returns plain serializable rows so binaries print
//! both a human table and (with `--json`) machine-readable output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod platforms;
pub mod report;
pub mod runner;
pub mod svc;

pub use runner::{run_schedulers, ResultRow};

/// Writes `value` to `path` as pretty-printed JSON.
///
/// # Errors
///
/// A message naming `path` when the value does not serialize or the
/// file cannot be written.
pub fn write_json<T: serde::Serialize + ?Sized>(
    path: impl AsRef<std::path::Path>,
    value: &T,
) -> Result<(), String> {
    let path = path.as_ref();
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialize {}: {e}", path.display()))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Parses the shared `--threads N` knob from the process arguments
/// (0, the default, means all hardware threads). Exits with a usage
/// error on a malformed value so experiment binaries fail loudly
/// instead of silently running serial.
#[must_use]
pub fn threads_arg() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            let value = args.next().unwrap_or_default();
            return value.parse().unwrap_or_else(|_| {
                eprintln!("error: --threads expects a number, got {value:?}");
                std::process::exit(2);
            });
        }
        if let Some(value) = arg.strip_prefix("--threads=") {
            return value.parse().unwrap_or_else(|_| {
                eprintln!("error: --threads expects a number, got {value:?}");
                std::process::exit(2);
            });
        }
    }
    0
}
