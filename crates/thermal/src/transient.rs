//! Transient thermal simulation.
//!
//! The paper's thermal engine, IcTherm, is presented in \[23\] as an
//! *efficient transient* simulator for 3D ICs; the DATE 2015 methodology
//! only needs its steady-state mode, but a faithful substrate reproduction
//! includes the transient capability: it is what run-time studies (heating
//! latency of the MR calibration loops, activity migration) build on.
//!
//! Discretization: the same finite-volume conduction operator `A` and
//! source vector `b` as the steady solver, plus a capacity matrix
//! `C = diag(ρ·c_p·V)`, integrated with unconditionally stable backward
//! Euler:
//!
//! ```text
//! (C/Δt + A) · T_{n+1} = (C/Δt) · T_n + b
//! ```
//!
//! [`TransientSimulator`] integrates a *fixed* power map from a uniform
//! initial condition — step responses — and is a thin wrapper over the
//! one transient engine, [`TransientStepper`], run with every power group
//! at scale 1. The stepper factors the constant, SPD `A + C/Δt` matrix's
//! IC(0) preconditioner exactly once and starts every step's CG from the
//! Galerkin projection onto the last accepted fields.

use vcsel_numerics::solver::SolveOptions;
use vcsel_units::{Celsius, Meters};

use crate::{Design, Mesh, MeshSpec, ThermalError, ThermalMap, TransientStepper};

/// A probed transient trace.
#[derive(Debug, Clone)]
pub struct TransientTrace {
    /// Sample times in seconds (one per completed step).
    pub times_s: Vec<f64>,
    /// Probe temperatures per sample: `probes[p][step]` in °C.
    pub probes: Vec<Vec<f64>>,
    /// The temperature field after the final step.
    pub final_map: ThermalMap,
}

impl TransientTrace {
    /// Temperature of probe `p` at the final sample.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn final_probe(&self, p: usize) -> Celsius {
        Celsius::new(*self.probes[p].last().expect("at least one step"))
    }
}

/// Backward-Euler transient solver sharing the steady solver's FVM
/// discretization.
///
/// # Example
///
/// ```no_run
/// use vcsel_thermal::{Design, MeshSpec, TransientSimulator};
/// use vcsel_units::{Celsius, Meters};
/// # fn get(_: ()) -> (Design, MeshSpec) { unimplemented!() }
/// # let (design, spec) = get(());
/// let sim = TransientSimulator::new(Celsius::new(40.0));
/// let trace = sim.simulate(
///     &design,
///     &spec,
///     1e-3,        // 1 ms step
///     200,         // 200 steps
///     &[[Meters::ZERO, Meters::ZERO, Meters::ZERO]],
/// )?;
/// println!("probe after 0.2 s: {}", trace.final_probe(0));
/// # Ok::<(), vcsel_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TransientSimulator {
    options: SolveOptions,
    initial: Celsius,
}

/// Paints the per-cell heat capacity `ρ·c_p·V` in J/K (shared with the
/// stateful [`crate::TransientStepper`]).
pub(crate) fn paint_capacity(design: &Design, mesh: &Mesh) -> Vec<f64> {
    let mut c = vec![design.background().volumetric_heat_capacity(); mesh.cell_count()];
    for block in design.blocks() {
        let cb = block.material().volumetric_heat_capacity();
        for idx in mesh.cells_in(block.region()) {
            c[idx] = cb;
        }
    }
    for (idx, cap) in c.iter_mut().enumerate() {
        *cap *= mesh.cell_volume(idx);
    }
    c
}

impl TransientSimulator {
    /// Transient simulator starting from a uniform initial temperature.
    pub fn new(initial: Celsius) -> Self {
        Self {
            options: SolveOptions { tolerance: 1e-9, max_iterations: 50_000, relaxation: 1.6 },
            initial,
        }
    }

    /// Overrides the per-step linear-solver options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// Integrates `steps` backward-Euler steps of size `dt_s` seconds and
    /// records the cell temperatures at each `probes` location.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::BadParameter`] for a non-positive step, zero
    ///   steps, or a probe outside the domain,
    /// * plus every error the steady solver can produce (meshing, no heat
    ///   path, CG failure).
    pub fn simulate(
        &self,
        design: &Design,
        spec: &MeshSpec,
        dt_s: f64,
        steps: usize,
        probes: &[[Meters; 3]],
    ) -> Result<TransientTrace, ThermalError> {
        if steps == 0 {
            return Err(ThermalError::BadParameter {
                reason: "need at least one time step".into(),
            });
        }
        let mut stepper =
            TransientStepper::new(design, spec, self.initial, dt_s)?.with_options(self.options);
        if probes.iter().any(|&p| stepper.temperature_at(p).is_none()) {
            return Err(ThermalError::BadParameter {
                reason: "probe lies outside the design domain".into(),
            });
        }
        let groups: Vec<String> = stepper.groups().into_iter().map(str::to_owned).collect();
        let scales: Vec<(&str, f64)> = groups.iter().map(|g| (g.as_str(), 1.0)).collect();

        let mut times_s = Vec::with_capacity(steps);
        let mut probe_series = vec![Vec::with_capacity(steps); probes.len()];
        for _ in 0..steps {
            stepper.step(&scales)?;
            times_s.push(stepper.time());
            for (series, &p) in probe_series.iter_mut().zip(probes) {
                series.extend(stepper.temperature_at(p).map(Celsius::value));
            }
        }
        let final_map = stepper.into_reference_map();
        Ok(TransientTrace { times_s, probes: probe_series, final_map })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, Boundary, BoundaryCondition, BoxRegion, Material, Simulator};
    use vcsel_units::{Watts, WattsPerSquareMeterKelvin};

    fn mm(v: f64) -> Meters {
        Meters::from_millimeters(v)
    }

    fn heated_slab() -> (Design, MeshSpec) {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(2_000.0),
                ambient: Celsius::new(40.0),
            },
        );
        let src =
            BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(3.0), mm(3.0), mm(0.2)]).unwrap();
        d.add_block(Block::heat_source("s", src, Material::COPPER, Watts::new(0.5)));
        (d, MeshSpec::uniform(mm(0.5)))
    }

    #[test]
    fn transient_approaches_steady_state() {
        let (design, spec) = heated_slab();
        let steady = Simulator::new().solve(&design, &spec).unwrap();
        let probe = [mm(2.0), mm(2.0), mm(0.1)];
        // Long integration: 2000 x 5 ms = 10 s >> the slab's time constant.
        let trace = TransientSimulator::new(Celsius::new(40.0))
            .simulate(&design, &spec, 5e-3, 2_000, &[probe])
            .unwrap();
        let t_steady = steady.temperature_at(probe).unwrap().value();
        let t_final = trace.final_probe(0).value();
        assert!(
            (t_final - t_steady).abs() < 0.02 * (t_steady - 40.0),
            "transient {t_final} must land on steady {t_steady}"
        );
    }

    #[test]
    fn heating_is_monotonic_from_ambient() {
        let (design, spec) = heated_slab();
        let trace = TransientSimulator::new(Celsius::new(40.0))
            .simulate(&design, &spec, 1e-2, 50, &[[mm(2.0), mm(2.0), mm(0.1)]])
            .unwrap();
        for w in trace.probes[0].windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "implicit Euler must heat monotonically");
        }
        assert!(trace.probes[0][0] > 40.0);
    }

    #[test]
    fn lumped_cooling_time_constant() {
        // A copper block (high conductivity -> near-lumped) cooling from a
        // hot start with no power: T(t) - T_amb decays with
        // tau = C_total / (h A_top). Backward Euler at dt = tau/50 should
        // reproduce e^-1 decay at t = tau within a few percent.
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(2.0), mm(2.0), mm(2.0)]).unwrap();
        let mut d = Design::new(domain, Material::COPPER).unwrap();
        let h = 500.0;
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(h),
                ambient: Celsius::new(20.0),
            },
        );
        let volume = 2e-3f64.powi(3);
        let c_total = Material::COPPER.volumetric_heat_capacity() * volume;
        let tau = c_total / (h * 2e-3 * 2e-3);
        let dt = tau / 50.0;
        let trace = TransientSimulator::new(Celsius::new(80.0))
            .simulate(&d, &MeshSpec::uniform(mm(0.5)), dt, 50, &[[mm(1.0), mm(1.0), mm(1.0)]])
            .unwrap();
        let expected = 20.0 + 60.0 * (-1.0f64).exp();
        let got = trace.final_probe(0).value();
        assert!(
            (got - expected).abs() < 2.0,
            "lumped cooling: got {got}, expected ~{expected} (tau = {tau:.2} s)"
        );
    }

    #[test]
    fn validation() {
        let (design, spec) = heated_slab();
        let sim = TransientSimulator::new(Celsius::new(40.0));
        assert!(sim.simulate(&design, &spec, 0.0, 10, &[]).is_err());
        assert!(sim.simulate(&design, &spec, 1e-3, 0, &[]).is_err());
        assert!(sim.simulate(&design, &spec, 1e-3, 1, &[[mm(99.0), mm(0.0), mm(0.0)]]).is_err());
    }
}
