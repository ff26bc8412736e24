//! Batched design-space exploration across many system specs.
//!
//! A sweep spec names a base [`SystemSpec`] plus a list of per-point
//! overrides. Points that share the quantities determining the FVM
//! operator — placement, layout, fidelity, ONI count — land in one
//! **batch group** and run through one shared [`ThermalStudy`]: the first
//! point pays meshing, assembly, factorization and the (block-solved)
//! response basis; every later point re-targets that study with
//! [`ThermalStudy::reconfigured`]. A point that changes only powers or
//! the heater policy keeps the held basis and solves nothing; one that
//! changes the activity pattern re-paints powers and re-solves the basis
//! warm-started through one
//! [`solve_batch`](vcsel_thermal::SolveContext::solve_batch) call.
//!
//! Results stream per point: each finished [`DseReport`] is checkpointed
//! through the atomic [`CheckpointStore`] as soon as it exists, so a
//! killed sweep resumes from its last completed point, and a failed point
//! surfaces as its own `Err` slot without taking the sweep down.

use serde::{Deserialize, Serialize};
use vcsel_arch::Activity;
use vcsel_telemetry::ArgValue;

use crate::spec::{
    evaluate_with_study, DseReport, FidelitySpec, HeaterSpec, LayoutSpec, PlacementSpec, SystemSpec,
};
use crate::{CheckpointStore, DesignFlow, FlowError, ThermalStudy};

/// One sweep point: the base spec with selected fields overridden. Every
/// field is optional; omitted fields inherit the base spec's value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepOverride {
    /// Point name, echoed in the report and used as the checkpoint key.
    /// Defaults to `point<index>`.
    #[serde(default)]
    pub name: Option<String>,
    /// Override of [`SystemSpec::p_vcsel_mw`].
    #[serde(default)]
    pub p_vcsel_mw: Option<f64>,
    /// Override of [`SystemSpec::p_chip_w`].
    #[serde(default)]
    pub p_chip_w: Option<f64>,
    /// Override of [`SystemSpec::heater`].
    #[serde(default)]
    pub heater: Option<HeaterSpec>,
    /// Override of [`SystemSpec::activity`] (same mesh, repainted powers).
    #[serde(default)]
    pub activity: Option<Activity>,
    /// Override of [`SystemSpec::placement`] (new operator, new group).
    #[serde(default)]
    pub placement: Option<PlacementSpec>,
    /// Override of [`SystemSpec::layout`] (new operator, new group).
    #[serde(default)]
    pub layout: Option<LayoutSpec>,
    /// Override of [`SystemSpec::oni_count`] (new operator, new group).
    #[serde(default)]
    pub oni_count: Option<usize>,
}

/// A file-loadable multi-point sweep: one base spec, many overrides.
///
/// ```json
/// {
///   "name": "vcsel-power-sweep",
///   "base": { "name": "base", "placement": "case1", ... },
///   "points": [
///     { "name": "p1mw", "p_vcsel_mw": 1.0 },
///     { "name": "p3mw", "p_vcsel_mw": 3.0 },
///     { "name": "diag", "activity": "Diagonal" }
///   ]
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep name (labels the report directory).
    pub name: String,
    /// The spec every point starts from.
    pub base: SystemSpec,
    /// Per-point overrides, in evaluation order.
    pub points: Vec<SweepOverride>,
}

impl SweepSpec {
    /// Materializes the per-point [`SystemSpec`]s, applying each override
    /// onto a clone of the base and defaulting missing point names to
    /// `point<index>`.
    pub fn resolve(&self) -> Vec<SystemSpec> {
        self.points
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let mut spec = self.base.clone();
                spec.name = o.name.clone().unwrap_or_else(|| format!("point{i:03}"));
                if let Some(v) = o.p_vcsel_mw {
                    spec.p_vcsel_mw = v;
                }
                if let Some(v) = o.p_chip_w {
                    spec.p_chip_w = v;
                }
                if let Some(v) = o.heater {
                    spec.heater = v;
                }
                if let Some(v) = o.activity {
                    spec.activity = v;
                }
                if let Some(v) = o.placement {
                    spec.placement = v;
                }
                if let Some(v) = o.layout {
                    spec.layout = v;
                }
                if let Some(v) = o.oni_count {
                    spec.oni_count = v;
                }
                spec
            })
            .collect()
    }
}

/// The quantities that determine the FVM operator: two specs with equal
/// keys share a mesh and conduction matrix, so one engine serves both
/// (power and activity differences re-paint, never re-assemble).
type GroupKey = (PlacementSpec, LayoutSpec, FidelitySpec, usize);

fn group_key(spec: &SystemSpec) -> GroupKey {
    (spec.placement, spec.layout, spec.fidelity, spec.oni_count)
}

/// A batched evaluation schedule: sweep points grouped by operator
/// compatibility, each group served by one shared engine.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    specs: Vec<SystemSpec>,
    /// `(key, indices into specs)`, in first-appearance order.
    groups: Vec<(GroupKey, Vec<usize>)>,
}

impl BatchPlan {
    /// Plans the batch: points are grouped by their operator-determining
    /// key (placement, layout, fidelity, ONI count) in first-appearance
    /// order, preserving evaluation order inside each group.
    pub fn new(specs: Vec<SystemSpec>) -> Self {
        let mut groups: Vec<(GroupKey, Vec<usize>)> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let key = group_key(spec);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        Self { specs, groups }
    }

    /// Plans the batch for a sweep spec's resolved points.
    pub fn for_sweep(sweep: &SweepSpec) -> Self {
        Self::new(sweep.resolve())
    }

    /// Number of engine groups the plan will build (≤ point count; equal
    /// only when no two points share an operator).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of sweep points.
    pub fn point_count(&self) -> usize {
        self.specs.len()
    }

    /// The planned specs, in point order.
    pub fn specs(&self) -> &[SystemSpec] {
        &self.specs
    }

    /// Runs every point, one shared engine per group, returning per-point
    /// results in the original point order.
    ///
    /// Failure is per point: a point whose config is invalid or whose
    /// solve fails gets its own `Err` slot and the group's engine carries
    /// on with the next point (rebuilding if the failure poisoned the
    /// study). When `store` is given, each completed report is written
    /// through it under the point's name before the next point starts,
    /// and already-stored points are returned without re-solving.
    pub fn run(
        &self,
        flow: &DesignFlow,
        store: Option<&CheckpointStore>,
    ) -> Vec<Result<DseReport, FlowError>> {
        let sink = vcsel_telemetry::global();
        let mut results: Vec<Option<Result<DseReport, FlowError>>> =
            self.specs.iter().map(|_| None).collect();
        for (gi, (_, members)) in self.groups.iter().enumerate() {
            let _span = {
                let mut span = sink.span("dse", "batch_group");
                span.arg("group", ArgValue::U64(gi as u64));
                span.arg("points", ArgValue::U64(members.len() as u64));
                span
            };
            // The group's shared engine, built at the first point that
            // actually needs a solve and re-targeted for every later one.
            let mut study: Option<ThermalStudy> = None;
            for &pi in members {
                let spec = &self.specs[pi];
                if let Some(cached) = store.and_then(|s| s.load::<DseReport>(&spec.name)) {
                    results[pi] = Some(Ok(cached));
                    continue;
                }
                results[pi] = Some(self.run_point(spec, flow, &mut study));
                if let (Some(s), Some(Ok(report))) = (store, results[pi].as_ref()) {
                    if let Err(e) = s.store(&spec.name, report) {
                        results[pi] = Some(Err(e));
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(FlowError::BadConfig { reason: "batch plan skipped a point".into() })
                })
            })
            .collect()
    }

    /// One point through the group's shared engine: validate, build or
    /// re-target the study, evaluate. On failure the study slot is left
    /// `None` so the next point rebuilds from scratch instead of running
    /// on a poisoned engine.
    fn run_point(
        &self,
        spec: &SystemSpec,
        flow: &DesignFlow,
        study: &mut Option<ThermalStudy>,
    ) -> Result<DseReport, FlowError> {
        let config = spec.to_config()?;
        let ready = match study.take() {
            Some(prev) => prev.reconfigured(config, flow.simulator())?,
            None => ThermalStudy::new(config, flow.simulator())?,
        };
        let report = evaluate_with_study(spec, &ready, flow);
        *study = Some(ready);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::run_spec;

    fn tiny_base() -> SystemSpec {
        SystemSpec {
            name: "tiny".into(),
            placement: PlacementSpec::Case1,
            // 4 ONIs: the smallest tiny-fidelity system whose SNR is
            // finite, so reports survive a JSON checkpoint round-trip.
            oni_count: 4,
            layout: LayoutSpec::Chessboard,
            activity: Activity::Uniform,
            p_chip_w: 2.0,
            p_vcsel_mw: 3.6,
            heater: HeaterSpec::Fixed { ratio: 0.3 },
            fidelity: FidelitySpec::Tiny,
            snr_target_db: None,
        }
    }

    fn tiny_sweep() -> SweepSpec {
        SweepSpec {
            name: "tiny-sweep".into(),
            base: tiny_base(),
            // Powers picked so every point's SNR is finite: JSON cannot
            // express inf, so a below-sensitivity point (-inf dB) would
            // not survive the checkpoint round-trip.
            points: vec![
                SweepOverride { p_vcsel_mw: Some(3.0), ..Default::default() },
                SweepOverride { p_vcsel_mw: Some(4.5), ..Default::default() },
                SweepOverride {
                    name: Some("diag".into()),
                    activity: Some(Activity::Diagonal),
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn sweep_spec_round_trips_through_json() {
        let sweep = tiny_sweep();
        let json = serde_json::to_string_pretty(&sweep).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(sweep, back);
    }

    #[test]
    fn resolve_applies_overrides_and_default_names() {
        let specs = tiny_sweep().resolve();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].name, "point000");
        assert!((specs[0].p_vcsel_mw - 3.0).abs() < 1e-12);
        assert_eq!(specs[2].name, "diag");
        assert_eq!(specs[2].activity, Activity::Diagonal);
        // Untouched fields inherit the base.
        assert_eq!(specs[0].oni_count, 4);
    }

    #[test]
    fn grouping_follows_the_operator_key() {
        let mut sweep = tiny_sweep();
        // A fourth point with a different ONI count needs its own engine.
        sweep.points.push(SweepOverride { oni_count: Some(6), ..Default::default() });
        let plan = BatchPlan::for_sweep(&sweep);
        assert_eq!(plan.point_count(), 4);
        assert_eq!(plan.group_count(), 2);
    }

    /// Asserts a batched report agrees with a fresh-study `run_spec` of
    /// the same spec.
    fn assert_matches_run_spec(spec: &SystemSpec, batched: &DseReport) {
        let direct = run_spec(spec).unwrap();
        assert_eq!(batched.name, direct.name);
        // The shared engine warm-starts where a fresh study solves cold,
        // so agreement is at CG-tolerance level — the same 1e-5 bound the
        // reconfigured-vs-fresh study test uses.
        assert!(
            (batched.worst_gradient_c - direct.worst_gradient_c).abs() < 1e-5,
            "{}: batched {} vs direct {}",
            spec.name,
            batched.worst_gradient_c,
            direct.worst_gradient_c
        );
        // SNR passes the field through the MR resonance alignment, which
        // amplifies solver-tolerance-level temperature noise; 1e-3 dB is
        // still orders below any physical significance.
        assert!(
            (batched.worst_snr_db - direct.worst_snr_db).abs() < 1e-3
                || batched.worst_snr_db == direct.worst_snr_db,
            "{}: snr {} vs {}",
            spec.name,
            batched.worst_snr_db,
            direct.worst_snr_db
        );
    }

    #[test]
    fn batched_sweep_matches_run_spec_point_for_point() {
        let plan = BatchPlan::for_sweep(&tiny_sweep());
        assert_eq!(plan.group_count(), 1, "tiny sweep shares one engine");
        let flow = DesignFlow::paper();
        let results = plan.run(&flow, None);
        assert_eq!(results.len(), 3);
        for (spec, result) in plan.specs().iter().zip(&results) {
            assert_matches_run_spec(spec, result.as_ref().unwrap());
        }
    }

    #[test]
    fn only_cold_and_activity_points_solve() {
        let sweep = SweepSpec {
            name: "reuse-tiers".into(),
            base: tiny_base(),
            points: vec![
                SweepOverride { name: Some("cold".into()), ..Default::default() },
                SweepOverride {
                    name: Some("explore".into()),
                    p_vcsel_mw: Some(4.0),
                    heater: Some(HeaterSpec::Explore { max_ratio: 1.0, samples: 5 }),
                    ..Default::default()
                },
                SweepOverride {
                    name: Some("fixed".into()),
                    p_vcsel_mw: Some(3.0),
                    p_chip_w: Some(2.6),
                    ..Default::default()
                },
                SweepOverride {
                    name: Some("diag".into()),
                    activity: Some(Activity::Diagonal),
                    ..Default::default()
                },
            ],
        };
        let plan = BatchPlan::for_sweep(&sweep);
        let flow = DesignFlow::paper();
        // Drive the points the way `run` does, reading the shared engine's
        // iteration count after each.
        let mut study = None;
        let mut iterations = 0;
        let mut solved = Vec::new();
        for spec in plan.specs() {
            let report = plan.run_point(spec, &flow, &mut study).unwrap();
            let total = study.as_ref().map_or(0, ThermalStudy::solver_iterations);
            solved.push(total > iterations);
            iterations = total;
            assert_matches_run_spec(spec, &report);
        }
        assert_eq!(
            solved,
            [true, false, false, true],
            "points that ran CG: cold, explore, fixed, diag"
        );
    }

    #[test]
    fn invalid_point_fails_alone() {
        let mut sweep = tiny_sweep();
        sweep.points[1].p_vcsel_mw = Some(-2.0);
        let plan = BatchPlan::for_sweep(&sweep);
        let results = plan.run(&DesignFlow::paper(), None);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(FlowError::BadConfig { .. })));
        assert!(results[2].is_ok(), "later points must survive a poisoned one");
    }

    #[test]
    fn checkpoints_stream_and_resume() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("batch-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);
        let sweep = tiny_sweep();
        let plan = BatchPlan::for_sweep(&sweep);
        let flow = DesignFlow::paper();
        let first = plan.run(&flow, Some(&store));
        assert!(first.iter().all(Result::is_ok));
        for spec in plan.specs() {
            assert!(
                store.load::<DseReport>(&spec.name).is_some(),
                "point {} must be checkpointed",
                spec.name
            );
        }
        // A resumed run returns the stored reports verbatim.
        let second = plan.run(&flow, Some(&store));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
