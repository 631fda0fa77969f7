//! The conformance gate CI runs.
//!
//! ```text
//! cargo run -p conformance                       # scan, report, fail on new findings
//! cargo run -p conformance -- --deny-new        # CI mode: stale baseline entries fail too
//! cargo run -p conformance -- --update-baseline # rewrite the baseline from this scan
//! cargo run -p conformance -- --json report.json
//! ```
//!
//! The scan is sharded across one worker per available CPU and folded
//! in path order, so its output is bit-identical to the serial scan the
//! library exposes, whatever the machine.

use std::path::PathBuf;
use std::process::ExitCode;

use conformance::{Baseline, BASELINE_PATH};

struct Args {
    root: PathBuf,
    deny_new: bool,
    update_baseline: bool,
    json_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    // The binary lives in crates/conformance; the workspace root is two
    // levels up.
    let mut args = Args {
        root: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        deny_new: false,
        update_baseline: false,
        json_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-new" => args.deny_new = true,
            "--update-baseline" => args.update_baseline = true,
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

    let result = conformance::scan::scan_parallel(&args.root, 0);
    let scan = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("conformance: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let baseline_path = args.root.join(BASELINE_PATH);
    if args.update_baseline {
        let baseline = Baseline::from_findings(&scan.findings);
        if let Err(e) = std::fs::write(&baseline_path, baseline.to_json()) {
            eprintln!("conformance: cannot write baseline: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "conformance: baseline rewritten with {} entr{} at {}",
            baseline.entries.len(),
            if baseline.entries.len() == 1 { "y" } else { "ies" },
            baseline_path.display(),
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = baseline.apply(scan.findings.clone());

    print!("{}", conformance::report::render_text(&scan, &outcome));
    if let Some(json_path) = &args.json_out {
        let doc = conformance::report::to_json(&scan, &outcome);
        let text = serde_json::to_string_pretty(&doc).expect("report serializes");
        if let Err(e) = std::fs::write(json_path, format!("{text}\n")) {
            eprintln!("conformance: cannot write {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("conformance: wrote {}", json_path.display());
    }

    let failed =
        !outcome.new.is_empty() || (args.deny_new && !outcome.stale.is_empty());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
