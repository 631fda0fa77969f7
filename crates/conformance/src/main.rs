//! The conformance gate CI runs beside clippy: the deterministic closure
//! and the line scan.
//!
//! ```text
//! cargo run -p conformance                        # scan, report, fail on any finding
//! cargo run -p conformance -- --json report.json  # also write the JSON report
//! cargo run -p conformance -- --root path/to/ws   # scan another workspace
//! ```
//!
//! The gate scans once, prints the text report, and exits non-zero on
//! any finding. There is no per-site exception: fix the code.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    // The binary lives in crates/conformance; the workspace root is two
    // levels up.
    let mut args = Args {
        root: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        json_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let path = it.next().ok_or("--json requires a path")?;
                args.json_out = Some(PathBuf::from(path));
            }
            "--root" => {
                let path = it.next().ok_or("--root requires a path")?;
                args.root = PathBuf::from(path);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::FAILURE;
        }
    };

    let scan = match conformance::scan(&args.root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("conformance: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", conformance::report::render_text(&scan));
    if let Some(json_path) = &args.json_out {
        let doc = conformance::report::to_json(&scan);
        let text = serde_json::to_string_pretty(&doc).expect("report serializes");
        if let Err(e) = std::fs::write(json_path, format!("{text}\n")) {
            eprintln!("conformance: cannot write {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("conformance: wrote {}", json_path.display());
    }

    if scan.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
