//! The three workloads: inputs generated from a seed, and one repetition
//! of each through the library's public entry points.
//!
//! Both DSE workloads use the paper's full die and placements through
//! [`SystemSpec::to_config`] at `Fidelity::Tiny`. The paper's eight ONIs at
//! `Fidelity::Fast` cost ≈25 s per cold study and ≈14 s per re-targeted
//! point on a 2-core Xeon VM, which leaves no room for repeated runs; at
//! tiny fidelity a four-ONI study costs ≈5 s cold and ≈3 s per re-targeted
//! point, and an eight-ONI one ≈13 s cold, on the same machine.

use std::time::{Duration, Instant};

use vcsel_arch::{Activity, SccSystem};
use vcsel_core::scenarios::{find_scenario, run_scenario, Scenario, ScenarioReport};
use vcsel_core::spec::{
    evaluate_with_study, DseReport, FidelitySpec, HeaterSpec, LayoutSpec, PlacementSpec, SystemSpec,
};
use vcsel_core::{DesignFlow, ThermalOutcome, ThermalStudy};
use vcsel_thermal::{EngineBlueprint, ResponseBasis};
use vcsel_units::Watts;

use crate::checks::{self, RefPoint};
use crate::stats::median;
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["dse_power_sweep", "dse_cold_designs", "transient_fault"];

/// The seed the reference outputs and the scenario pins hold at.
pub const DEFAULT_SEED: u64 = 7;

/// The catalogue scenario `transient_fault` runs.
const SCENARIO: &str = "hot-channel-death";

/// `splitmix64`: a small deterministic generator, so a seed fixes the
/// inputs on every platform.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed ^ 0x2015_DA7E_0C5E_1A11)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`, rounded to `1e-3` so specs read cleanly.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1e3).round() / 1e3
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next_u64() % options.len() as u64) as usize]
    }
}

/// One design point: a spec and whether it differs from the point before
/// it only in powers or heater policy (same operator, same activity).
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// The point's full specification.
    pub spec: SystemSpec,
    /// Only powers or the heater policy changed since the previous point.
    pub power_only: bool,
}

/// A workload's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    /// Points sharing one operator, evaluated through one study that is
    /// re-targeted from point to point, as `BatchPlan::run_point` does.
    Sweep(Vec<DsePoint>),
    /// Designs with distinct operators, each on a fresh study, as
    /// `run_spec` does.
    Cold(Vec<DsePoint>),
    /// A catalogue scenario and the seed that jitters its fault timing.
    Transient {
        /// The scenario, as the catalogue defines it.
        scenario: Scenario,
        /// Fault-plan seed.
        seed: u64,
    },
}

impl Inputs {
    /// The inputs of `workload` for `seed`.
    ///
    /// # Errors
    ///
    /// Unknown workload names, and a scenario missing from the catalogue.
    pub fn generate(workload: &str, seed: u64) -> Result<Self, String> {
        match workload {
            "dse_power_sweep" => Ok(Self::Sweep(power_sweep(seed))),
            "dse_cold_designs" => Ok(Self::Cold(cold_designs(seed))),
            "transient_fault" => {
                let scenario = find_scenario(SCENARIO).map_err(|e| e.to_string())?;
                Ok(Self::Transient { scenario, seed })
            }
            other => Err(format!("unknown workload '{other}' (expected one of {WORKLOADS:?})")),
        }
    }

    /// The design points, empty for the transient workload.
    pub fn points(&self) -> &[DsePoint] {
        match self {
            Self::Sweep(p) | Self::Cold(p) => p,
            Self::Transient { .. } => &[],
        }
    }
}

fn spec(name: &str, placement: PlacementSpec, oni_count: usize, layout: LayoutSpec) -> SystemSpec {
    SystemSpec {
        name: name.to_string(),
        placement,
        oni_count,
        layout,
        activity: Activity::Uniform,
        p_chip_w: 25.0,
        p_vcsel_mw: 3.6,
        heater: HeaterSpec::Fixed { ratio: 0.3 },
        fidelity: FidelitySpec::Tiny,
        snr_target_db: None,
    }
}

/// `onoc_dse --sweep` shape: one operator group (case 1, four ONIs,
/// clustered), a cold first point, two power-only points (one explores
/// the heater, one fixes it) and an activity change that must re-solve.
fn power_sweep(seed: u64) -> Vec<DsePoint> {
    let mut rng = Rng::new(seed);
    let mut cold = spec("cold", PlacementSpec::Case1, 4, LayoutSpec::Clustered);
    cold.p_chip_w = rng.uniform(20.0, 30.0);
    cold.p_vcsel_mw = rng.uniform(3.0, 4.5);
    cold.heater = HeaterSpec::Fixed { ratio: rng.uniform(0.2, 0.4) };

    let mut explore = cold.clone();
    explore.name = "power_explore".into();
    explore.p_vcsel_mw = rng.uniform(3.0, 4.5);
    explore.heater = HeaterSpec::Explore { max_ratio: rng.uniform(0.8, 1.2), samples: 7 };

    let mut fixed = cold.clone();
    fixed.name = "power_fixed".into();
    fixed.p_vcsel_mw = rng.uniform(3.0, 4.5);
    fixed.p_chip_w = rng.uniform(20.0, 30.0);
    fixed.heater = HeaterSpec::Fixed { ratio: rng.uniform(0.2, 0.4) };

    let mut activity = fixed.clone();
    activity.name = "activity".into();
    activity.activity = if rng.next_u64().is_multiple_of(2) {
        Activity::Diagonal
    } else {
        Activity::Random { seed: rng.next_u64() % 1000 }
    };

    vec![
        DsePoint { spec: cold, power_only: false },
        DsePoint { spec: explore, power_only: true },
        DsePoint { spec: fixed, power_only: true },
        DsePoint { spec: activity, power_only: false },
    ]
}

/// `onoc_dse SPEC.json` shape: two designs whose operator keys differ in
/// ONI count, each on a seed-drawn placement. The paper's eight ONIs give
/// ≈190k unknowns, above the multigrid threshold; two ONIs give ≈42k,
/// which IC(0) serves. The ONI count and layout per slot stay fixed so
/// that every seed costs about the same.
fn cold_designs(seed: u64) -> Vec<DsePoint> {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let placements = [PlacementSpec::Case1, PlacementSpec::Case2, PlacementSpec::Case3];
    let activities = [Activity::Uniform, Activity::Diagonal];
    let slots = [("design_a", 8, LayoutSpec::Clustered), ("design_b", 2, LayoutSpec::Clustered)];
    slots
        .iter()
        .enumerate()
        .map(|(i, &(name, oni_count, layout))| {
            let mut s = spec(name, rng.pick(&placements), oni_count, layout);
            s.activity = rng.pick(&activities);
            s.p_chip_w = rng.uniform(20.0, 30.0);
            s.p_vcsel_mw = rng.uniform(3.0, 4.5);
            s.heater = if i == 0 {
                HeaterSpec::Explore { max_ratio: rng.uniform(0.8, 1.2), samples: 7 }
            } else {
                HeaterSpec::Fixed { ratio: rng.uniform(0.2, 0.4) }
            };
            DsePoint { spec: s, power_only: false }
        })
        .collect()
}

/// What one repetition of a workload measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the repetition.
    pub wall: Duration,
    /// The first study build (DSE), or the plant set-up of each scenario
    /// run, as the scenario reports it (transient).
    pub setups: Vec<Duration>,
    /// Per design point (DSE) or per scenario run (transient).
    pub latencies: Vec<Duration>,
    /// Transient steps integrated.
    pub steps: usize,
    /// Operations started: design points or scenario runs.
    pub attempted: usize,
    /// Operations that returned an error or failed an output check.
    pub failed: usize,
    /// One line per error or failed check.
    pub failures: Vec<String>,
    /// `ThermalStudy::new` durations.
    pub study_build: Vec<Duration>,
    /// `ThermalStudy::reconfigured` durations.
    pub study_retarget: Vec<Duration>,
    /// `evaluate_with_study` durations.
    pub evaluate: Vec<Duration>,
    /// Column CG iterations, from `ThermalStudy::solver_iterations` deltas.
    pub cg_iterations: usize,
    /// Points that changed only powers or the heater policy.
    pub power_only_points: usize,
    /// Power-only points whose engine still iterated (re-solved its basis).
    pub redundant_resolves: usize,
    /// The scenario's report (transient).
    pub scenario: Option<ScenarioReport>,
    /// The study the last point ran on (DSE), kept for the layer probe.
    pub last_study: Option<ThermalStudy>,
    /// Peak resident set size after this repetition, MB (first repetition
    /// of a run only).
    pub peak_rss_mb: Option<f64>,
    /// CPU time the hypervisor took from each CPU during this repetition,
    /// seconds.
    pub steal_s: Option<f64>,
}

impl Rep {
    fn fail(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }
}

/// Runs one repetition of `inputs`. Calls into the library are timed (and
/// recorded as spans when `tracer` is enabled); outputs are checked, and
/// against `reference` when one is given.
pub fn run_rep(
    inputs: &Inputs,
    flow: &DesignFlow,
    tracer: &mut Tracer,
    reference: Option<&[RefPoint]>,
) -> Rep {
    match inputs {
        Inputs::Sweep(points) => dse_rep(points, true, flow, tracer, reference),
        Inputs::Cold(points) => dse_rep(points, false, flow, tracer, reference),
        Inputs::Transient { scenario, seed } => transient_rep(scenario, *seed, tracer),
    }
}

fn dse_rep(
    points: &[DsePoint],
    reuse: bool,
    flow: &DesignFlow,
    tracer: &mut Tracer,
    reference: Option<&[RefPoint]>,
) -> Rep {
    let start = Instant::now();
    let mut rep = Rep::default();
    let mut study: Option<ThermalStudy> = None;
    for point in points {
        rep.attempted += 1;
        let timer = Instant::now();
        // Drop a study that will not be reused before building the next,
        // so peak memory holds one engine, as `run_spec` callers do.
        let previous = study.take().filter(|_| reuse);
        let before = previous.as_ref().map_or(0, ThermalStudy::solver_iterations);
        let config = match point.spec.to_config() {
            Ok(c) => c,
            Err(e) => {
                rep.fail(vec![format!("{}: {e}", point.spec.name)]);
                continue;
            }
        };
        let built = match previous {
            Some(prev) => {
                let (r, d) = tracer.time("core", "ThermalStudy::reconfigured", || {
                    prev.reconfigured(config, flow.simulator())
                });
                rep.study_retarget.push(d);
                r
            }
            None => {
                let (r, d) = tracer.time("core", "ThermalStudy::new", || {
                    ThermalStudy::new(config, flow.simulator())
                });
                if rep.study_build.is_empty() {
                    rep.setups.push(d);
                }
                rep.study_build.push(d);
                r
            }
        };
        let current = match built {
            Ok(s) => s,
            Err(e) => {
                rep.fail(vec![format!("{}: {e}", point.spec.name)]);
                continue;
            }
        };
        let after = current.solver_iterations();
        // A re-target that had to rebuild starts a fresh iteration count.
        let iterations = if after >= before { after - before } else { after };
        rep.cg_iterations += iterations;
        if point.power_only {
            rep.power_only_points += 1;
            if iterations > 0 {
                rep.redundant_resolves += 1;
            }
        }
        let (report, d) = tracer.time("core", "evaluate_with_study", || {
            evaluate_with_study(&point.spec, &current, flow)
        });
        rep.evaluate.push(d);
        rep.latencies.push(timer.elapsed());
        let problems = match report {
            Ok(r) => checks::check_dse(&point.spec, &r, reference),
            Err(e) => vec![format!("{}: {e}", point.spec.name)],
        };
        rep.fail(problems);
        study = Some(current);
    }
    rep.last_study = study;
    rep.wall = start.elapsed();
    rep
}

/// Extra plant set-ups each transient repetition times, besides the one in
/// its full scenario run, so that `setup_s` is a median over several.
const SETUP_SAMPLES: usize = 10;

fn transient_rep(scenario: &Scenario, seed: u64, tracer: &mut Tracer) -> Rep {
    let start = Instant::now();
    let mut rep = Rep { attempted: 1, ..Rep::default() };
    let (result, d) = tracer.time("core", "run_scenario", || run_scenario(scenario, seed));
    rep.latencies.push(d);
    match result {
        Ok(report) => {
            split_scenario_span(tracer, &report);
            rep.setups.push(ms(report.setup_ms));
            rep.steps = report.steps;
            rep.cg_iterations = report.cg_iterations;
            rep.fail(checks::check_transient(scenario, seed, &report));
            rep.scenario = Some(report);
        }
        Err(e) => rep.fail(vec![format!("{}: {e}", scenario.name)]),
    }
    rep.wall = start.elapsed();

    // The same scenario cut to one step runs the same plant set-up inside
    // run_scenario; these runs are timed apart from the repetition's wall.
    let one_step = Scenario { steps: 1, ..scenario.clone() };
    for _ in 0..SETUP_SAMPLES {
        rep.attempted += 1;
        let (result, _) =
            tracer.time("core", "run_scenario/setup_sample", || run_scenario(&one_step, seed));
        match result {
            Ok(report) => {
                split_scenario_span(tracer, &report);
                rep.setups.push(ms(report.setup_ms));
                rep.fail(checks::check_setup_sample(&one_step, &report));
            }
            Err(e) => rep.fail(vec![format!("{} (one step): {e}", scenario.name)]),
        }
    }
    rep
}

/// run_scenario is one call; its own report splits the time of the span
/// just recorded into plant setup, stepping and control.
fn split_scenario_span(tracer: &mut Tracer, report: &ScenarioReport) {
    if let (true, Some(parent)) = (tracer.is_enabled(), tracer.last_span()) {
        tracer.derive_children(
            parent,
            &[
                ("thermal", "plant_setup", ms(report.setup_ms)),
                ("thermal", "TransientStepper::step", ms(report.step_ms)),
                ("control", "control_actions", ms(report.control_ms)),
            ],
        );
    }
}

fn ms(v: f64) -> Duration {
    Duration::from_secs_f64(v.max(0.0) / 1e3)
}

/// Layer numbers from calling each layer's public functions directly on
/// one design: the breakdown `ThermalStudy` hides.
#[derive(Debug, Default)]
pub struct Probe {
    /// `EngineBlueprint::new` (meshing, conductivity paint).
    pub mesh: Duration,
    /// `EngineBlueprint::build` (assembly, preconditioner setup).
    pub engine_build: Duration,
    /// `ResponseBasis::build_on_batched` on the fresh engine.
    pub basis_cold: Duration,
    /// The same call again on the now warm engine.
    pub basis_warm: Duration,
    /// Column CG iterations of the cold basis solve.
    pub cold_iterations: usize,
    /// Column CG iterations of the warm basis solve.
    pub warm_iterations: usize,
    /// Median `ResponseBasis::compose`.
    pub compose: Duration,
    /// Median `SccSystem::oni_thermals`.
    pub oni_thermals: Duration,
    /// Median `DesignFlow::evaluate_snr`.
    pub snr: Duration,
    /// Median `CsrMatrix::multiply_into` on the engine's operator.
    pub spmv: Duration,
    /// Bytes one SpMV reads and writes, computed from the CSR array sizes.
    pub spmv_bytes: usize,
    /// Ladder escalations of the probe engine.
    pub escalations: usize,
    /// Median `ThermalStudy::explore_heater` on the last study.
    pub explore: Duration,
}

const PROBE_REPEATS: usize = 5;
const SPMV_REPEATS: usize = 25;

fn median_duration(v: &[Duration]) -> Duration {
    let s: Vec<f64> = v.iter().map(Duration::as_secs_f64).collect();
    Duration::from_secs_f64(median(&s))
}

/// Runs the layer probe on `point`: `EngineBlueprint::new` → `build` →
/// cold and warm `ResponseBasis::build_on_batched` → `compose` →
/// `SccSystem::oni_thermals` → `DesignFlow::evaluate_snr` →
/// `CsrMatrix::multiply_into`, then `ThermalStudy::explore_heater` on
/// `study` with `explore`'s heater range.
///
/// # Errors
///
/// Any error a probed call returns.
pub fn probe(
    point: &DsePoint,
    study: &ThermalStudy,
    explore: &DsePoint,
    flow: &DesignFlow,
    tracer: &mut Tracer,
) -> Result<Probe, String> {
    let mut p = Probe::default();
    let config = point.spec.to_config().map_err(|e| e.to_string())?;
    let p_vcsel = config.p_vcsel;
    let system = SccSystem::build(&config).map_err(|e| e.to_string())?;
    let mesh_spec = system.mesh_spec().map_err(|e| e.to_string())?;

    let (blueprint, d) = tracer.time("thermal", "EngineBlueprint::new", || {
        EngineBlueprint::new(system.design(), &mesh_spec)
    });
    p.mesh = d;
    let blueprint = blueprint.map_err(|e| e.to_string())?;
    let (ctx, d) = tracer.time("thermal", "EngineBlueprint::build", || blueprint.build());
    p.engine_build = d;
    let mut ctx = ctx.map_err(|e| e.to_string())?.with_options(*flow.simulator().options());

    let start_iterations = ctx.total_iterations();
    let (basis, d) = tracer.time("thermal", "ResponseBasis::build_on_batched/cold", || {
        ResponseBasis::build_on_batched(&mut ctx)
    });
    p.basis_cold = d;
    basis.map_err(|e| e.to_string())?;
    let cold_end = ctx.total_iterations();
    let (basis, d) = tracer.time("thermal", "ResponseBasis::build_on_batched/warm", || {
        ResponseBasis::build_on_batched(&mut ctx)
    });
    p.basis_warm = d;
    let basis = basis.map_err(|e| e.to_string())?;
    p.cold_iterations = cold_end - start_iterations;
    p.warm_iterations = ctx.total_iterations() - cold_end;
    p.escalations = ctx.health().escalations;

    // Every group at scale 1 composes the probe system's own field.
    let scales: Vec<(&str, f64)> = basis.groups().into_iter().map(|g| (g, 1.0)).collect();
    let mut compose = Vec::new();
    let mut oni = Vec::new();
    let mut snr = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let (map, d) = tracer.time("thermal", "ResponseBasis::compose", || basis.compose(&scales));
        compose.push(d);
        let map = map.map_err(|e| e.to_string())?;
        let (thermals, d) =
            tracer.time("arch", "SccSystem::oni_thermals", || system.oni_thermals(&map));
        oni.push(d);
        let outcome = ThermalOutcome { oni: thermals.map_err(|e| e.to_string())?, map };
        let (summary, d) = tracer.time("network", "DesignFlow::evaluate_snr", || {
            flow.evaluate_snr(&system, &outcome, p_vcsel)
        });
        snr.push(d);
        summary.map_err(|e| e.to_string())?;
    }
    p.compose = median_duration(&compose);
    p.oni_thermals = median_duration(&oni);
    p.snr = median_duration(&snr);

    let a = ctx.shared_operator();
    let x = vec![1.0; a.cols()];
    let mut y = vec![0.0; a.rows()];
    let mut spmv = Vec::with_capacity(SPMV_REPEATS);
    for _ in 0..SPMV_REPEATS {
        let ((), d) = tracer.time("numerics", "CsrMatrix::multiply_into", || {
            a.multiply_into(std::hint::black_box(&x), &mut y);
        });
        std::hint::black_box(&y);
        spmv.push(d);
    }
    p.spmv = median_duration(&spmv);
    // values (f64) + column indices (u32) + row pointers (usize), x read
    // once, y written once.
    p.spmv_bytes = a.nnz() * (8 + 4) + (a.rows() + 1) * 8 + a.cols() * 8 + a.rows() * 8;

    let HeaterSpec::Explore { max_ratio, samples } = explore.spec.heater else {
        return Err(format!("probe point {} does not explore the heater", explore.spec.name));
    };
    let mut times = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let (r, d) = tracer.time("core", "ThermalStudy::explore_heater", || {
            study.explore_heater(
                Watts::from_milliwatts(explore.spec.p_vcsel_mw),
                Watts::new(explore.spec.p_chip_w),
                max_ratio,
                samples,
            )
        });
        r.map_err(|e| e.to_string())?;
        times.push(d);
    }
    p.explore = median_duration(&times);
    Ok(p)
}

/// Evaluates `point` on a fresh study (`run_spec`'s body), independently
/// of any study re-targeting: the reference outputs come from here.
///
/// # Errors
///
/// Any error the flow returns.
pub fn fresh_report(point: &DsePoint, flow: &DesignFlow) -> Result<DseReport, String> {
    let config = point.spec.to_config().map_err(|e| e.to_string())?;
    let study = ThermalStudy::new(config, flow.simulator()).map_err(|e| e.to_string())?;
    evaluate_with_study(&point.spec, &study, flow).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_maps_to_identical_inputs() {
        for w in WORKLOADS {
            assert_eq!(Inputs::generate(w, 11).unwrap(), Inputs::generate(w, 11).unwrap(), "{w}");
            assert_ne!(Inputs::generate(w, 11).unwrap(), Inputs::generate(w, 12).unwrap(), "{w}");
        }
    }

    #[test]
    fn sweep_points_share_one_operator_and_mark_power_only_changes() {
        for seed in 0..20 {
            let Inputs::Sweep(points) = Inputs::generate("dse_power_sweep", seed).unwrap() else {
                panic!("sweep inputs expected");
            };
            let key = |s: &SystemSpec| (s.placement, s.layout, s.fidelity, s.oni_count);
            assert!(points.iter().all(|p| key(&p.spec) == key(&points[0].spec)));
            for pair in points.windows(2) {
                let same_activity = pair[0].spec.activity == pair[1].spec.activity;
                assert_eq!(pair[1].power_only, same_activity, "seed {seed}");
            }
            assert!(points.iter().any(|p| matches!(p.spec.heater, HeaterSpec::Explore { .. })));
            assert!(points.iter().all(|p| p.spec.to_config().is_ok()));
        }
    }

    #[test]
    fn cold_designs_have_distinct_operator_keys() {
        for seed in 0..20 {
            let inputs = Inputs::generate("dse_cold_designs", seed).unwrap();
            let points = inputs.points();
            let key = |s: &SystemSpec| (s.placement, s.layout, s.fidelity, s.oni_count);
            assert_ne!(key(&points[0].spec), key(&points[1].spec));
            assert!(matches!(points[0].spec.heater, HeaterSpec::Explore { .. }));
            assert!(points.iter().all(|p| p.spec.to_config().is_ok()));
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(Inputs::generate("nope", 1).is_err());
    }
}
