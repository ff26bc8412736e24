//! Output checks: every operation's result is validated, and a failed
//! check counts as a failed operation.

use serde::{Deserialize, Serialize};
use vcsel_core::scenarios::{Scenario, ScenarioReport};
use vcsel_core::spec::{DseReport, HeaterSpec, SystemSpec};

use crate::workloads::DEFAULT_SEED;

/// Gradient agreement with the reference, °C: the bound
/// `batched_sweep_matches_run_spec_point_for_point` holds a re-targeted
/// study to against a fresh one.
pub const GRADIENT_TOL_C: f64 = 1e-5;
/// SNR agreement with the reference, dB (same origin).
pub const SNR_TOL_DB: f64 = 1e-3;

/// One reference design point at [`DEFAULT_SEED`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefPoint {
    /// Point name.
    pub name: String,
    /// Worst intra-ONI gradient, °C.
    pub worst_gradient_c: f64,
    /// Worst-case SNR, dB; `None` stands for +inf (no crosstalk).
    pub worst_snr_db: Option<f64>,
}

impl RefPoint {
    /// The reference entry for `report`.
    pub fn of(report: &DseReport) -> Self {
        Self {
            name: report.name.clone(),
            worst_gradient_c: report.worst_gradient_c,
            worst_snr_db: Some(report.worst_snr_db).filter(|v| v.is_finite()),
        }
    }
}

/// The reference outputs of both DSE workloads at [`DEFAULT_SEED`], kept
/// in `reference.json` beside this crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reference {
    /// `dse_power_sweep` points.
    pub dse_power_sweep: Vec<RefPoint>,
    /// `dse_cold_designs` points.
    pub dse_cold_designs: Vec<RefPoint>,
}

const REFERENCE_JSON: &str = include_str!("../reference.json");

impl Reference {
    /// The committed reference.
    ///
    /// # Errors
    ///
    /// A reference file that does not parse.
    pub fn committed() -> Result<Self, String> {
        serde_json::from_str(REFERENCE_JSON).map_err(|e| format!("reference.json: {e}"))
    }

    /// The reference points of `workload`, if it has any.
    pub fn points(&self, workload: &str) -> Option<&[RefPoint]> {
        match workload {
            "dse_power_sweep" => Some(&self.dse_power_sweep),
            "dse_cold_designs" => Some(&self.dse_cold_designs),
            _ => None,
        }
    }
}

/// Checks one DSE report: every quantity finite where it should be, and,
/// when `reference` is given, agreement with it.
pub fn check_dse(
    spec: &SystemSpec,
    report: &DseReport,
    reference: Option<&[RefPoint]>,
) -> Vec<String> {
    let name = &spec.name;
    let mut bad = Vec::new();
    let finite = [
        ("worst_gradient_c", report.worst_gradient_c),
        ("inter_oni_spread_c", report.inter_oni_spread_c),
        ("p_heater_mw", report.p_heater_mw),
        ("heater_ratio", report.heater_ratio),
        ("mean_injected_mw", report.mean_injected_mw),
        ("worst_ber", report.worst_ber),
        ("effective_bandwidth_gbps", report.effective_bandwidth_gbps),
    ];
    for (field, v) in finite {
        if !v.is_finite() {
            bad.push(format!("{name}: {field} = {v} is not finite"));
        }
    }
    if report.name != *name {
        bad.push(format!("{name}: report is named {}", report.name));
    }
    if report.onis.len() != spec.oni_count {
        bad.push(format!("{name}: {} ONI rows for {} ONIs", report.onis.len(), spec.oni_count));
    }
    if report.onis.iter().any(|r| !(r.average_c.is_finite() && r.gradient_c.is_finite())) {
        bad.push(format!("{name}: non-finite ONI temperature"));
    }
    if !(report.worst_gradient_c >= 0.0) {
        bad.push(format!("{name}: negative gradient {}", report.worst_gradient_c));
    }
    // +inf is the SNR model's value for a link without crosstalk; it is
    // accepted on two-ONI rings only.
    let snr_ok = if spec.oni_count >= 3 {
        report.worst_snr_db.is_finite()
    } else {
        report.worst_snr_db.is_finite() || report.worst_snr_db == f64::INFINITY
    };
    if !snr_ok {
        bad.push(format!("{name}: worst SNR {} dB", report.worst_snr_db));
    }
    if let HeaterSpec::Explore { max_ratio, .. } = spec.heater {
        let explored = report.explored_optimal_ratio.unwrap_or(f64::NAN);
        if !(0.0..=max_ratio).contains(&explored) || explored != report.heater_ratio {
            bad.push(format!("{name}: explored ratio {explored} outside [0, {max_ratio}]"));
        }
    }
    if let Some(points) = reference {
        match points.iter().find(|p| p.name == *name) {
            None => bad.push(format!("{name}: no reference point")),
            Some(expected) => bad.extend(compare(name, report, expected)),
        }
    }
    bad
}

fn compare(name: &str, report: &DseReport, expected: &RefPoint) -> Vec<String> {
    let mut bad = Vec::new();
    let dg = (report.worst_gradient_c - expected.worst_gradient_c).abs();
    if !(dg < GRADIENT_TOL_C) {
        bad.push(format!(
            "{name}: gradient {} °C vs reference {} °C",
            report.worst_gradient_c, expected.worst_gradient_c
        ));
    }
    let snr_ok = match expected.worst_snr_db {
        None => report.worst_snr_db == f64::INFINITY,
        Some(v) => (report.worst_snr_db - v).abs() < SNR_TOL_DB,
    };
    if !snr_ok {
        bad.push(format!(
            "{name}: SNR {} dB vs reference {:?} dB",
            report.worst_snr_db, expected.worst_snr_db
        ));
    }
    bad
}

/// Checks one scenario report: at [`DEFAULT_SEED`] the scenario's own
/// metric pins; at any other seed a converged run whose remap ran and
/// whose final SNR is finite.
pub fn check_transient(scenario: &Scenario, seed: u64, report: &ScenarioReport) -> Vec<String> {
    let name = scenario.name;
    if seed == DEFAULT_SEED {
        return scenario.pins.check(report).into_iter().map(|v| format!("{name}: {v}")).collect();
    }
    let mut bad = Vec::new();
    if !report.converged {
        bad.push(format!("{name}: final solve did not converge"));
    }
    if !report.remap_ran {
        bad.push(format!("{name}: no channel remap ran"));
    }
    if !report.worst_snr_db.is_finite() {
        bad.push(format!("{name}: final SNR {} dB", report.worst_snr_db));
    }
    if report.steps != scenario.steps {
        bad.push(format!("{name}: {} of {} steps", report.steps, scenario.steps));
    }
    bad
}

/// Checks one of the one-step runs that sample the transient plant set-up:
/// it must integrate its step, converge and end with a finite SNR.
pub fn check_setup_sample(scenario: &Scenario, report: &ScenarioReport) -> Vec<String> {
    let name = scenario.name;
    let mut bad = Vec::new();
    if !report.converged || report.steps != scenario.steps {
        bad.push(format!(
            "{name} (one step): {} steps, converged {}",
            report.steps, report.converged
        ));
    }
    if !report.worst_snr_db.is_finite() || !(report.setup_ms > 0.0) {
        bad.push(format!(
            "{name} (one step): SNR {} dB, setup {} ms",
            report.worst_snr_db, report.setup_ms
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Inputs;
    use vcsel_core::scenarios::find_scenario;
    use vcsel_core::spec::OniReportRow;

    fn report_like(r: &RefPoint, oni_count: usize) -> DseReport {
        DseReport {
            name: r.name.clone(),
            p_vcsel_mw: 3.6,
            p_heater_mw: 1.08,
            heater_ratio: 0.3,
            explored_optimal_ratio: None,
            onis: (0..oni_count)
                .map(|oni| OniReportRow { oni, average_c: 60.0, gradient_c: r.worst_gradient_c })
                .collect(),
            worst_gradient_c: r.worst_gradient_c,
            meets_gradient_constraint: r.worst_gradient_c < 1.0,
            inter_oni_spread_c: 0.5,
            worst_snr_db: r.worst_snr_db.unwrap_or(f64::INFINITY),
            mean_injected_mw: 0.2,
            all_detected: true,
            meets_snr_target: None,
            worst_ber: 1e-12,
            effective_bandwidth_gbps: 12.0,
        }
    }

    #[test]
    fn reference_covers_every_default_seed_point() {
        let reference = Reference::committed().unwrap();
        for w in ["dse_power_sweep", "dse_cold_designs"] {
            let names: Vec<_> = reference.points(w).unwrap().iter().map(|p| &p.name).collect();
            let inputs = Inputs::generate(w, DEFAULT_SEED).unwrap();
            let expected: Vec<_> = inputs.points().iter().map(|p| &p.spec.name).collect();
            assert_eq!(names, expected, "{w}");
        }
    }

    #[test]
    fn checks_reject_a_perturbed_dse_report() {
        let reference = Reference::committed().unwrap();
        let inputs = Inputs::generate("dse_power_sweep", DEFAULT_SEED).unwrap();
        let spec = &inputs.points()[2].spec;
        let refs = reference.points("dse_power_sweep");
        let expected = refs.unwrap().iter().find(|p| p.name == spec.name).unwrap();
        let good = report_like(expected, spec.oni_count);
        assert!(check_dse(spec, &good, refs).is_empty(), "{:?}", check_dse(spec, &good, refs));

        let mut off = good.clone();
        off.worst_gradient_c += 2.0 * GRADIENT_TOL_C;
        assert!(!check_dse(spec, &off, refs).is_empty());
        let mut off = good.clone();
        off.worst_snr_db += 2.0 * SNR_TOL_DB;
        assert!(!check_dse(spec, &off, refs).is_empty());
        let mut off = good.clone();
        off.worst_snr_db = f64::NAN;
        assert!(!check_dse(spec, &off, None).is_empty());
        let mut off = good.clone();
        off.onis[1].average_c = f64::INFINITY;
        assert!(!check_dse(spec, &off, None).is_empty());
        let mut off = good;
        off.onis.pop();
        assert!(!check_dse(spec, &off, None).is_empty());
    }

    #[test]
    fn an_explored_ratio_outside_the_range_is_rejected() {
        let inputs = Inputs::generate("dse_power_sweep", DEFAULT_SEED).unwrap();
        let spec = &inputs.points()[1].spec;
        let HeaterSpec::Explore { max_ratio, .. } = spec.heater else { panic!("explore point") };
        let r =
            RefPoint { name: spec.name.clone(), worst_gradient_c: 0.5, worst_snr_db: Some(20.0) };
        let mut report = report_like(&r, spec.oni_count);
        report.explored_optimal_ratio = Some(max_ratio / 2.0);
        report.heater_ratio = max_ratio / 2.0;
        assert!(check_dse(spec, &report, None).is_empty());
        report.explored_optimal_ratio = Some(max_ratio * 2.0);
        report.heater_ratio = max_ratio * 2.0;
        assert!(!check_dse(spec, &report, None).is_empty());
    }

    fn passing_scenario_report(scenario: &Scenario, seed: u64) -> ScenarioReport {
        let (lo, hi) = scenario.pins.peak_c;
        ScenarioReport {
            name: scenario.name.to_string(),
            seed,
            steps: scenario.steps,
            dt_s: scenario.dt_s,
            peak_c: (lo + hi) / 2.0,
            final_peak_c: (lo + hi) / 2.0,
            mean_final_c: lo,
            over_limit_steps: 0,
            recovered: true,
            remap_ran: true,
            remap_gain_db: 1.0,
            remap_moves: 3,
            evacuated: 2,
            min_dvfs_scale: 1.0,
            min_frequency_scale: 1.0,
            cg_iterations: 100,
            solver_escalations: scenario.pins.min_escalations,
            converged: true,
            worst_snr_db: 20.0,
            setup_ms: 1.0,
            step_ms: 1.0,
            control_ms: 1.0,
        }
    }

    #[test]
    fn checks_reject_a_perturbed_scenario_report() {
        let scenario = find_scenario("hot-channel-death").unwrap();
        for seed in [DEFAULT_SEED, 3] {
            let good = passing_scenario_report(&scenario, seed);
            assert!(check_transient(&scenario, seed, &good).is_empty(), "seed {seed}");
            let mut off = good.clone();
            off.remap_ran = false;
            assert!(!check_transient(&scenario, seed, &off).is_empty(), "seed {seed}");
            let mut off = good;
            off.converged = false;
            assert!(!check_transient(&scenario, seed, &off).is_empty(), "seed {seed}");
        }
        // The pins apply at the default seed only.
        let mut hot = passing_scenario_report(&scenario, DEFAULT_SEED);
        hot.peak_c = scenario.pins.peak_c.1 + 5.0;
        assert!(!check_transient(&scenario, DEFAULT_SEED, &hot).is_empty());
    }

    #[test]
    fn checks_reject_a_perturbed_setup_sample() {
        let full = find_scenario("hot-channel-death").unwrap();
        let one_step = Scenario { steps: 1, ..full.clone() };
        let good = passing_scenario_report(&one_step, 3);
        assert!(check_setup_sample(&one_step, &good).is_empty());
        for perturb in [
            |r: &mut ScenarioReport| r.converged = false,
            |r: &mut ScenarioReport| r.steps = 0,
            |r: &mut ScenarioReport| r.worst_snr_db = f64::NAN,
            |r: &mut ScenarioReport| r.setup_ms = 0.0,
        ] {
            let mut bad = good.clone();
            perturb(&mut bad);
            assert!(!check_setup_sample(&one_step, &bad).is_empty(), "{bad:?}");
        }
    }
}
