//! `onoc-dse` — run the thermal-aware design methodology from a JSON spec.
//!
//! ```text
//! Usage: onoc_dse [SPEC.json] [--json] [--out FILE]
//!        onoc_dse --sweep SWEEP.json [--json] [--out FILE]
//!
//!   SPEC.json     system specification (see specs/ for samples);
//!                 omitted = the paper's Section V-C operating point
//!   --sweep FILE  batched design-space sweep: FILE holds a SweepSpec
//!                 (base spec + per-point overrides); points sharing an
//!                 operator are solved through one shared engine and
//!                 each finished report is checkpointed under
//!                 reports/dse/<sweep-name>/ so a re-run resumes
//!   --json        emit the report as JSON instead of markdown
//!   --out FILE    write the report to FILE instead of stdout
//! ```
//!
//! Exit code 0 when the run succeeds and all declared constraints pass,
//! 1 on constraint failure (or, for sweeps, any failed point), 2 on
//! usage/IO/analysis errors.

use std::fs;
use std::process::ExitCode;

use vcsel_core::spec::{run_spec, DseReport, SystemSpec};
use vcsel_core::{BatchPlan, CheckpointStore, DesignFlow, FlowError, SweepSpec};

struct Args {
    spec_path: Option<String>,
    sweep_path: Option<String>,
    json: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut spec_path = None;
    let mut sweep_path = None;
    let mut json = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--out" => {
                out = Some(it.next().ok_or("--out needs a file argument")?);
            }
            "--sweep" => {
                let path = it.next().ok_or("--sweep needs a file argument")?;
                if sweep_path.replace(path).is_some() {
                    return Err("at most one --sweep file".into());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: onoc_dse [SPEC.json | --sweep SWEEP.json] [--json] [--out FILE]".into(),
                );
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            other => {
                if spec_path.replace(other.to_string()).is_some() {
                    return Err("at most one spec file".into());
                }
            }
        }
    }
    if sweep_path.is_some() && spec_path.is_some() {
        return Err("--sweep replaces the positional spec file; pass one or the other".into());
    }
    Ok(Args { spec_path, sweep_path, json, out })
}

fn load_spec(path: Option<&str>) -> Result<SystemSpec, String> {
    match path {
        None => Ok(SystemSpec::paper_operating_point()),
        Some(p) => {
            let text = fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("cannot parse {p}: {e}"))
        }
    }
}

fn render(report: &DseReport, json: bool) -> Result<String, String> {
    if json {
        serde_json::to_string_pretty(report).map_err(|e| format!("cannot serialize report: {e}"))
    } else {
        Ok(report.to_markdown())
    }
}

fn emit(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        None => {
            println!("{text}");
            Ok(())
        }
        Some(path) => {
            fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("report written to {path}");
            Ok(())
        }
    }
}

/// Renders the per-point sweep outcome as a markdown table (or, with
/// `--json`, an array mixing report objects and `{"error": ...}` slots).
fn render_sweep(
    names: &[String],
    results: &[Result<DseReport, FlowError>],
    json: bool,
) -> Result<String, String> {
    if json {
        // The vendored serde_json has no Value type, so the array is
        // assembled from per-slot serializations.
        let slots: Vec<String> = results
            .iter()
            .map(|r| match r {
                Ok(report) => serde_json::to_string_pretty(report)
                    .map_err(|e| format!("cannot serialize report: {e}")),
                Err(e) => {
                    let msg = serde_json::to_string(&e.to_string())
                        .map_err(|e| format!("cannot serialize error: {e}"))?;
                    Ok(format!("{{\"error\": {msg}}}"))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(format!("[\n{}\n]", slots.join(",\n")))
    } else {
        use core::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "| point | P_vcsel mW | worst grad C | worst SNR dB | status |");
        let _ = writeln!(s, "|---|---|---|---|---|");
        for (name, r) in names.iter().zip(results) {
            match r {
                Ok(rep) => {
                    let ok = rep.meets_gradient_constraint && rep.meets_snr_target.unwrap_or(true);
                    let _ = writeln!(
                        s,
                        "| {name} | {:.2} | {:.3} | {:.2} | {} |",
                        rep.p_vcsel_mw,
                        rep.worst_gradient_c,
                        rep.worst_snr_db,
                        if ok { "ok" } else { "CONSTRAINT" },
                    );
                }
                Err(e) => {
                    let _ = writeln!(s, "| {name} | - | - | - | FAILED: {e} |");
                }
            }
        }
        Ok(s)
    }
}

fn run_sweep(path: &str, json: bool, out: Option<&str>) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let sweep: SweepSpec = match serde_json::from_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if sweep.points.is_empty() {
        eprintln!("sweep '{}' declares no points", sweep.name);
        return ExitCode::from(2);
    }
    let plan = BatchPlan::for_sweep(&sweep);
    let names: Vec<String> = plan.specs().iter().map(|s| s.name.clone()).collect();
    let store = CheckpointStore::new(format!("reports/dse/{}", sweep.name));
    eprintln!(
        "sweep '{}': {} points in {} operator group(s), checkpoints in reports/dse/{}/",
        sweep.name,
        plan.point_count(),
        plan.group_count(),
        sweep.name,
    );
    let flow = DesignFlow::paper();
    let results = plan.run(&flow, Some(&store));
    let rendered = match render_sweep(&names, &results, json) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = emit(&rendered, out) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    let failed = results.iter().filter(|r| r.is_err()).count();
    let violated = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter(|rep| !(rep.meets_gradient_constraint && rep.meets_snr_target.unwrap_or(true)))
        .count();
    eprintln!("{}", vcsel_core::EngineCache::summary_line());
    if failed > 0 || violated > 0 {
        eprintln!("{failed} point(s) failed, {violated} violated declared constraints");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    // Root span drops at the end of `run`, then the trace flushes
    // (`finish_global` is a no-op unless VCSEL_TRACE is set).
    let code = run();
    vcsel_telemetry::finish_global("onoc_dse");
    code
}

fn run() -> ExitCode {
    let _root = vcsel_telemetry::global().span("report", "onoc_dse");
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(sweep) = &args.sweep_path {
        return run_sweep(sweep, args.json, args.out.as_deref());
    }
    let spec = match load_spec(args.spec_path.as_deref()) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    eprintln!("running spec '{}' ...", spec.name);
    let report = match run_spec(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    let text = match render(&report, args.json) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = emit(&text, args.out.as_deref()) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    eprintln!("{}", vcsel_core::EngineCache::summary_line());
    let constraints_ok =
        report.meets_gradient_constraint && report.meets_snr_target.unwrap_or(true);
    if constraints_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("one or more declared constraints FAILED");
        ExitCode::from(1)
    }
}
