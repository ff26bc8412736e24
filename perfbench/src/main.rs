//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse_power_sweep --seed 7 --seconds 40 --trace 0
//! ```
//!
//! Runs one workload through the library's public entry points for about
//! `--seconds` seconds (whole repetitions only, at least one), checks every
//! output, and prints each metric with its unit and sample count. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

mod checks;
mod machine;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vcsel_core::spec::HeaterSpec;
use vcsel_core::DesignFlow;

use checks::{RefPoint, Reference};
use machine::Stamp;
use stats::median;
use trace::{layer_self_ns, Tracer, BENCH_LAYER};
use workloads::{run_rep, Inputs, Probe, Rep, DEFAULT_SEED};

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("point_latency_p50_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. A metric
/// that a workload gives no view of reports 0 there (see `README.md`).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("thermal.mesh_ms", "ms"),
    ("thermal.engine_build_ms", "ms"),
    ("thermal.basis_cold_ms", "ms"),
    ("thermal.basis_warm_ms", "ms"),
    ("thermal.compose_ms", "ms"),
    ("thermal.transient_setup_ms", "ms"),
    ("thermal.step_ms", "ms"),
    ("numerics.cg_iterations", "count"),
    ("numerics.basis_cold_iterations", "count"),
    ("numerics.basis_warm_iterations", "count"),
    ("numerics.ms_per_column_iteration", "ms"),
    ("numerics.spmv_ms", "ms"),
    ("numerics.spmv_gbps_computed", "GB/s"),
    ("numerics.spmv_working_set_mb", "MB"),
    ("numerics.escalations", "count"),
    ("core.study_build_ms", "ms"),
    ("core.study_retarget_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.explore_ms", "ms"),
    ("core.power_only_points", "count"),
    ("core.redundant_resolves", "count"),
    ("arch.oni_thermals_ms", "ms"),
    ("network.snr_ms", "ms"),
    ("control.control_ms", "ms"),
    ("layer.bench_s", "s"),
    ("layer.core_s", "s"),
    ("layer.thermal_s", "s"),
    ("layer.numerics_s", "s"),
    ("layer.arch_s", "s"),
    ("layer.network_s", "s"),
    ("layer.control_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Root-span name of a workload repetition.
const REPETITION: &str = "repetition";

/// Root-span name of the layer probe.
const PROBE: &str = "layer_probe";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
        emit_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            parsed.emit_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !parsed.emit_reference && parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(parsed.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", parsed.seconds));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    machine::guard_environment()?;
    let flow = DesignFlow::paper();
    if args.emit_reference {
        return emit_reference(&flow);
    }
    let inputs = Inputs::generate(&args.workload, args.seed)?;
    let stamp = Stamp::read();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", stamp.line());
    let reference = Reference::committed()?;
    let refs = (args.seed == DEFAULT_SEED).then(|| reference.points(&args.workload)).flatten();

    let deadline = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let (reps, metrics) = if args.trace {
        // One untraced repetition first: the baseline the tracing overhead
        // is measured against, on the same inputs. The probe runs on its
        // last study; both count against the deadline.
        let mut baseline = vec![run_one(&inputs, &flow, refs, &mut tracer)];
        tracer.set_enabled(true);
        let probe = run_probe(&inputs, &flow, &mut baseline[0], &mut tracer)?;
        let mut traced = measure(&inputs, &flow, refs, &mut tracer, started, deadline, false);
        let metrics = per_layer(&baseline, &traced, probe.as_ref(), &tracer);
        write_trace(&args, &tracer)?;
        baseline.append(&mut traced);
        (baseline, metrics)
    } else {
        let reps = measure(&inputs, &flow, refs, &mut tracer, started, deadline, true);
        let metrics = end_to_end(&inputs, &reps);
        (reps, metrics)
    };
    report(&reps, &metrics);
    Ok(())
}

/// One metric value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    samples: usize,
}

type Metrics = BTreeMap<&'static str, Value>;

/// A repetition is clean when the hypervisor took at most this share of
/// each CPU's time while it ran. On a shared VM a repetition can lose a
/// third of its CPU time to other tenants and run twice as long; the
/// end-to-end metrics come from clean repetitions when there are any.
const STEAL_LIMIT: f64 = 0.1;

fn is_clean(rep: &Rep) -> bool {
    rep.steal_s.is_none_or(|s| s <= STEAL_LIMIT * rep.wall.as_secs_f64())
}

/// Runs one repetition as its own run, with the CPU time the hypervisor
/// stole meanwhile.
fn run_one(
    inputs: &Inputs,
    flow: &DesignFlow,
    refs: Option<&[RefPoint]>,
    tracer: &mut Tracer,
) -> Rep {
    let steal_before = machine::steal_per_cpu_s();
    tracer.begin_run(REPETITION);
    let mut rep = run_rep(inputs, flow, tracer, refs);
    tracer.end_run();
    rep.steal_s = steal_before.zip(machine::steal_per_cpu_s()).map(|(a, b)| b - a);
    rep
}

/// Runs whole repetitions until the next one is expected to end past
/// `deadline` (measured from `started`); always at least one. When
/// `want_clean` and none of them is clean by then it runs one more, so a
/// run ends at most about one repetition past the deadline.
fn measure(
    inputs: &Inputs,
    flow: &DesignFlow,
    refs: Option<&[RefPoint]>,
    tracer: &mut Tracer,
    started: Instant,
    deadline: Duration,
    want_clean: bool,
) -> Vec<Rep> {
    let window = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut extended = false;
    loop {
        // Only the newest repetition's study is kept, so each repetition
        // runs with the memory a single run would use.
        if let Some(last) = reps.last_mut() {
            last.last_study = None;
        }
        reps.push(run_one(inputs, flow, refs, tracer));
        if reps.len() == 1 {
            // The high-water mark of one repetition, as a single run of the
            // workload sees it; later repetitions only add allocator noise.
            reps[0].peak_rss_mb = machine::peak_rss_mb();
        }
        let mean = window.elapsed() / reps.len() as u32;
        if started.elapsed() + mean <= deadline {
            continue;
        }
        if extended || !want_clean || reps.iter().any(is_clean) {
            return reps;
        }
        extended = true;
    }
}

fn run_probe(
    inputs: &Inputs,
    flow: &DesignFlow,
    rep: &mut Rep,
    tracer: &mut Tracer,
) -> Result<Option<Probe>, String> {
    let points = inputs.points();
    let (Some(first), Some(study)) = (points.first(), rep.last_study.take()) else {
        return Ok(None);
    };
    let explore = points
        .iter()
        .find(|p| matches!(p.spec.heater, HeaterSpec::Explore { .. }))
        .ok_or("no point explores the heater")?;
    tracer.begin_run(PROBE);
    let probe = workloads::probe(first, &study, explore, flow, tracer);
    tracer.end_run();
    probe.map(Some).map_err(|e| format!("layer probe: {e}"))
}

fn end_to_end(inputs: &Inputs, all: &[Rep]) -> Metrics {
    let clean: Vec<&Rep> = all.iter().filter(|r| is_clean(r)).collect();
    let reps: Vec<&Rep> = if clean.is_empty() { all.iter().collect() } else { clean };
    let n = reps.len();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    let total_wall: f64 = walls.iter().sum();
    let setups: Vec<f64> =
        reps.iter().flat_map(|r| r.setups.iter().map(Duration::as_secs_f64)).collect();
    let latencies: Vec<f64> =
        reps.iter().flat_map(|r| r.latencies.iter().map(Duration::as_secs_f64)).collect();
    let points: usize = reps.iter().map(|r| r.latencies.len()).sum();
    let steps: usize = reps.iter().map(|r| r.steps).sum();
    let points_per_s = points as f64 / total_wall;
    // A sweep advances one design point per step; a scenario one time step.
    let steps_per_s = match inputs {
        Inputs::Transient { .. } => steps as f64 / total_wall,
        _ => points_per_s,
    };
    let mut m = Metrics::new();
    m.insert("wall_s", Value { value: median(&walls), samples: n });
    m.insert("setup_s", Value { value: median(&setups), samples: setups.len() });
    m.insert("points_per_s", Value { value: points_per_s, samples: points });
    m.insert("point_latency_p50_s", Value { value: median(&latencies), samples: latencies.len() });
    m.insert("steps_per_s", Value { value: steps_per_s, samples: steps.max(points) });
    let rss = all[0].peak_rss_mb.unwrap_or(f64::NAN);
    m.insert("peak_rss_mb", Value { value: rss, samples: 1 });
    m
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn per_layer(baseline: &[Rep], traced: &[Rep], probe: Option<&Probe>, tracer: &Tracer) -> Metrics {
    let n = traced.len();
    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64, samples: usize| {
        m.insert(name, Value { value, samples });
    };
    let durations_ms = |pick: fn(&Rep) -> &Vec<Duration>| -> (f64, usize) {
        let v: Vec<f64> = traced.iter().flat_map(|r| pick(r).iter().map(|d| ms(*d))).collect();
        if v.is_empty() {
            (0.0, 0)
        } else {
            (median(&v), v.len())
        }
    };
    let per_rep = |f: fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());

    let p = probe.map_or(0, |_| 1);
    let probe_ms = |f: fn(&Probe) -> Duration| probe.map_or(0.0, |p| ms(f(p)));
    put("thermal.mesh_ms", probe_ms(|p| p.mesh), p);
    put("thermal.engine_build_ms", probe_ms(|p| p.engine_build), p);
    put("thermal.basis_cold_ms", probe_ms(|p| p.basis_cold), p);
    put("thermal.basis_warm_ms", probe_ms(|p| p.basis_warm), p);
    put("thermal.compose_ms", probe_ms(|p| p.compose), p);
    put("arch.oni_thermals_ms", probe_ms(|p| p.oni_thermals), p);
    put("network.snr_ms", probe_ms(|p| p.snr), p);
    put("numerics.spmv_ms", probe_ms(|p| p.spmv), p);
    put("core.explore_ms", probe_ms(|p| p.explore), p);
    let probe_count = |f: fn(&Probe) -> usize| probe.map_or(0.0, |p| f(p) as f64);
    put("numerics.basis_cold_iterations", probe_count(|p| p.cold_iterations), p);
    put("numerics.basis_warm_iterations", probe_count(|p| p.warm_iterations), p);
    let spmv_bytes = probe_count(|p| p.spmv_bytes);
    let spmv_s = probe_ms(|p| p.spmv) / 1e3;
    put(
        "numerics.spmv_gbps_computed",
        if spmv_s > 0.0 { spmv_bytes / spmv_s / 1e9 } else { 0.0 },
        p,
    );
    put("numerics.spmv_working_set_mb", spmv_bytes / 1e6, p);

    let scenarios: Vec<_> = traced.iter().filter_map(|r| r.scenario.as_ref()).collect();
    let s = scenarios.len();
    let scen = |f: fn(&vcsel_core::ScenarioReport) -> f64| -> f64 {
        if scenarios.is_empty() {
            0.0
        } else {
            median(&scenarios.iter().map(|r| f(r)).collect::<Vec<_>>())
        }
    };
    put("thermal.transient_setup_ms", scen(|r| r.setup_ms), s);
    put("thermal.step_ms", scen(|r| r.step_ms / r.steps.max(1) as f64), s);
    put("control.control_ms", scen(|r| r.control_ms), s);
    let escalations =
        if s > 0 { scen(|r| r.solver_escalations as f64) } else { probe_count(|p| p.escalations) };
    put("numerics.escalations", escalations, s.max(p));

    put("numerics.cg_iterations", per_rep(|r| r.cg_iterations as f64), n);
    let per_iteration = if s > 0 {
        scen(|r| r.step_ms / r.cg_iterations.max(1) as f64)
    } else {
        probe.map_or(0.0, |p| ms(p.basis_cold) / p.cold_iterations.max(1) as f64)
    };
    put("numerics.ms_per_column_iteration", per_iteration, s.max(p));

    let (v, k) = durations_ms(|r| &r.study_build);
    put("core.study_build_ms", v, k);
    let (v, k) = durations_ms(|r| &r.study_retarget);
    put("core.study_retarget_ms", v, k);
    let (v, k) = durations_ms(|r| &r.evaluate);
    put("core.evaluate_ms", v, k);
    put("core.power_only_points", per_rep(|r| r.power_only_points as f64), n);
    put("core.redundant_resolves", per_rep(|r| r.redundant_resolves as f64), n);

    // Self time per layer, per run, of the runs that show the layers: the
    // layers partition each such run's wall time. On the DSE workloads a
    // repetition calls only vcsel_core entry points, so the split comes
    // from the layer probe, whose calls go straight to each layer; on the
    // transient workload from the traced repetitions, where the scenario's
    // own timers split each run_scenario call.
    let split = if probe.is_some() { PROBE } else { REPETITION };
    let spans = tracer.spans();
    let roots: Vec<&trace::Span> =
        spans.iter().filter(|s| s.parent.is_none() && s.name == split).collect();
    let runs: Vec<u32> = roots.iter().map(|s| s.run_id).collect();
    let layers = layer_self_ns(spans, |id| runs.contains(&id));
    let k = runs.len().max(1) as f64;
    let layer_s = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / 1e9 / k;
    for (name, layer) in [
        ("layer.bench_s", BENCH_LAYER),
        ("layer.core_s", "core"),
        ("layer.thermal_s", "thermal"),
        ("layer.numerics_s", "numerics"),
        ("layer.arch_s", "arch"),
        ("layer.network_s", "network"),
        ("layer.control_s", "control"),
    ] {
        put(name, layer_s(layer), runs.len());
    }
    let untraced = median(&baseline.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>());
    put("trace.untraced_wall_s", untraced, baseline.len());
    put("trace.traced_wall_s", traced_wall, n);
    put("trace.overhead_s", traced_wall - untraced, n);
    let split_wall = roots.iter().map(|s| (s.end_ns - s.start_ns) as f64 / 1e9).sum::<f64>() / k;
    put("trace.coverage", 1.0 - layer_s(BENCH_LAYER) / split_wall, runs.len());
    m
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", tracer.spans().len(), path.display());
    Ok(())
}

fn unit(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

fn report(reps: &[Rep], metrics: &Metrics) {
    let attempted: usize = reps.iter().map(|r| r.attempted).sum();
    let failed: usize = reps.iter().map(|r| r.failed).sum();
    for line in reps.iter().flat_map(|r| &r.failures).take(20) {
        eprintln!("check failed: {line}");
    }
    for (i, r) in reps.iter().enumerate() {
        println!(
            "repetition {}: wall {:.3} s, setup {:.3} s, {} operations, {} column CG \
             iterations, {:.2} s of each CPU stolen by the hypervisor{}",
            i + 1,
            r.wall.as_secs_f64(),
            median(&r.setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>()),
            r.attempted,
            r.cg_iterations,
            r.steal_s.unwrap_or(f64::NAN),
            if is_clean(r) { "" } else { " (not clean)" }
        );
    }
    let clean = reps.iter().filter(|r| is_clean(r)).count();
    println!(
        "repetitions: {} ({clean} clean: steal <= {:.0} % of each CPU)  operations: \
         {attempted} attempted, {failed} failed",
        reps.len(),
        STEAL_LIMIT * 100.0
    );
    for (name, v) in metrics {
        println!("{name:<34} {:>14.6} {:<6} (n={})", v.value, unit(name), v.samples);
    }
    let all_finite = metrics.values().all(|v| v.value.is_finite());
    let correct = failed == 0 && attempted > 0 && all_finite;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        let value = if v.value.is_finite() { format!("{:?}", v.value) } else { "null".into() };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit(name));
    }
    json.push_str("}}");
    println!("{json}");
}

fn emit_reference(flow: &DesignFlow) -> Result<(), String> {
    let mut reference = Reference { dse_power_sweep: Vec::new(), dse_cold_designs: Vec::new() };
    for workload in ["dse_power_sweep", "dse_cold_designs"] {
        let inputs = Inputs::generate(workload, DEFAULT_SEED)?;
        let mut points = Vec::new();
        for point in inputs.points() {
            let report = workloads::fresh_report(point, flow)?;
            let problems = checks::check_dse(&point.spec, &report, None);
            if !problems.is_empty() {
                return Err(problems.join("; "));
            }
            points.push(RefPoint::of(&report));
        }
        match workload {
            "dse_power_sweep" => reference.dse_power_sweep = points,
            _ => reference.dse_cold_designs = points,
        }
    }
    let text = serde_json::to_string_pretty(&reference).map_err(|e| e.to_string())?;
    println!("{text}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn valid_name(s: &str) -> bool {
        !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[derive(Deserialize)]
    struct Named {
        name: String,
    }

    #[derive(Deserialize)]
    struct MetricSpec {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct Benchmark {
        workloads: Vec<Named>,
        end_to_end: Vec<MetricSpec>,
        per_layer: Vec<MetricSpec>,
    }

    fn benchmark_json() -> Benchmark {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn every_name_matches_the_allowed_pattern() {
        let names = workloads::WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n));
        for name in names {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_names_and_units() {
        let b = benchmark_json();
        let workloads: Vec<_> = b.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, workloads::WORKLOADS);
        let pairs = |v: &[MetricSpec]| -> Vec<(String, String)> {
            v.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(pairs(&b.end_to_end), own(&END_TO_END));
        assert_eq!(pairs(&b.per_layer), own(&PER_LAYER));
    }

    #[test]
    fn end_to_end_metrics_come_from_clean_repetitions() {
        let rep = |wall: f64, steal: f64| Rep {
            wall: Duration::from_secs_f64(wall),
            latencies: vec![Duration::from_secs_f64(wall)],
            steal_s: Some(steal),
            attempted: 1,
            ..Rep::default()
        };
        let inputs = Inputs::generate("dse_cold_designs", 1).unwrap();
        let reps = vec![rep(20.0, 5.0), rep(10.0, 0.5), rep(12.0, 0.1)];
        assert!(!is_clean(&reps[0]) && is_clean(&reps[1]) && is_clean(&reps[2]));
        let m = end_to_end(&inputs, &reps);
        assert_eq!(m["wall_s"].value, 11.0);
        assert_eq!(m["point_latency_p50_s"].samples, 2);
        // Without a clean repetition every repetition counts.
        assert_eq!(end_to_end(&inputs, &reps[..1])["wall_s"].value, 20.0);
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload transient_fault --seed 3 --seconds 10 --trace 1"))
            .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("transient_fault", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }
}
