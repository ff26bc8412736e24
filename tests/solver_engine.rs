//! Solve-engine regressions on the real case-study FVM system.
//!
//! The tiny-fidelity SCC mesh mixes 60 µm cells over the ONIs with 3 mm
//! cells over the package — exactly the high-aspect-ratio conditioning the
//! IC(0) preconditioner exists for. These tests pin the engine's two core
//! claims on that system: preconditioning strength (IC(0)-CG needs at most
//! half the iterations of Jacobi-CG) and answer invariance (every
//! preconditioner and the warm-start path agree with the one-shot solver).

use vcsel_arch::{SccConfig, SccSystem};
use vcsel_thermal::{
    MultigridConfig, PreconditionerKind, Simulator, SolveContext, TransientStepper,
};
use vcsel_units::{Celsius, Watts};

fn tiny_system() -> (SccSystem, vcsel_thermal::MeshSpec) {
    let config = SccConfig { p_vcsel: Watts::from_milliwatts(4.0), ..SccConfig::tiny_test() };
    let system = SccSystem::build(&config).expect("tiny SCC builds");
    let spec = system.mesh_spec().expect("mesh spec");
    (system, spec)
}

#[test]
fn ic0_needs_at_most_half_the_jacobi_iterations_on_the_scc_mesh() {
    let (system, spec) = tiny_system();
    let mut jacobi = SolveContext::new(system.design(), &spec)
        .expect("context")
        .with_preconditioner(PreconditionerKind::Jacobi)
        .expect("jacobi");
    let mut ic0 = SolveContext::new(system.design(), &spec).expect("context");
    assert_eq!(ic0.preconditioner_name(), "ic0", "IC(0) must be the engine default");

    let map_j = jacobi.solve().expect("jacobi solves");
    let map_i = ic0.solve().expect("ic0 solves");

    let (iters_j, iters_i) = (jacobi.last_iterations(), ic0.last_iterations());
    assert!(iters_j > 0 && iters_i > 0, "both must actually iterate");
    assert!(
        2 * iters_i <= iters_j,
        "IC(0)-CG took {iters_i} iterations vs Jacobi-CG {iters_j} on {} unknowns — \
         expected at most half",
        ic0.unknowns()
    );
    // Same field either way.
    let (hot_j, hot_i) = (map_j.hottest().1.value(), map_i.hottest().1.value());
    assert!((hot_j - hot_i).abs() < 1e-6, "hottest cell: {hot_j} vs {hot_i}");
}

#[test]
fn cached_engine_matches_the_one_shot_simulator_on_the_scc_system() {
    let (system, spec) = tiny_system();
    let direct = Simulator::new().solve(system.design(), &spec).expect("one-shot solve");
    let mut ctx = SolveContext::new(system.design(), &spec).expect("context");
    let first = ctx.solve().expect("cold engine solve");
    let second = ctx.solve().expect("warm engine solve");
    assert_eq!(ctx.last_iterations(), 0, "identical warm re-solve must be free");
    for ((a, b), c) in
        direct.temperatures().iter().zip(first.temperatures()).zip(second.temperatures())
    {
        assert!((a - b).abs() < 1e-6, "one-shot {a} vs engine {b}");
        assert!((b - c).abs() < 1e-9, "warm re-solve drifted: {b} vs {c}");
    }
}

#[test]
fn threaded_and_serial_transient_steppers_agree_on_the_scc_mesh() {
    // IC(0) applies are serial, so the only threaded kernels left in a
    // transient step are the multigrid transfer/residual SpMVs that
    // `parallel_sweeps` governs. A row-partitioned SpMV computes every row
    // exactly as the serial kernel does, so switching it on must not move
    // the trajectory or the CG iteration counts on the real case-study
    // system.
    let (system, spec) = tiny_system();
    let design = system.design();
    let groups: Vec<String> = design.group_names().iter().map(|g| g.to_string()).collect();
    let scales: Vec<(&str, f64)> = groups.iter().map(|g| (g.as_str(), 1.0)).collect();
    let stepper = |parallel_sweeps: bool| {
        let config = MultigridConfig { parallel_sweeps, ..MultigridConfig::default() };
        TransientStepper::new(design, &spec, Celsius::new(40.0), 1e-2)
            .expect("stepper builds")
            .with_preconditioner(PreconditionerKind::Multigrid { config })
            .expect("multigrid builds")
    };

    let mut serial = stepper(false);
    let mut threaded = stepper(true);
    for _ in 0..10 {
        serial.step(&scales).expect("serial step");
        threaded.step(&scales).expect("threaded step");
    }
    assert!(serial.total_iterations() > 0, "the steps must actually iterate");
    assert_eq!(
        serial.total_iterations(),
        threaded.total_iterations(),
        "identical preconditioner arithmetic must give identical CG trajectories"
    );
    for (s, t) in serial.snapshot().temperatures().iter().zip(threaded.snapshot().temperatures()) {
        assert_eq!(s, t, "threaded SpMVs moved the field: serial {s} vs threaded {t}");
    }
}

#[test]
fn ssor_agrees_with_ic0_on_the_scc_system() {
    let (system, spec) = tiny_system();
    let mut ssor = SolveContext::new(system.design(), &spec)
        .expect("context")
        .with_preconditioner(PreconditionerKind::Ssor { omega: 1.2 })
        .expect("ssor");
    let mut ic0 = SolveContext::new(system.design(), &spec).expect("context");
    let map_s = ssor.solve().expect("ssor solves");
    let map_i = ic0.solve().expect("ic0 solves");
    for (a, b) in map_s.temperatures().iter().zip(map_i.temperatures()) {
        assert!((a - b).abs() < 1e-6, "SSOR {a} vs IC(0) {b}");
    }
    assert!(
        ssor.last_iterations() < 2 * ic0.last_iterations().max(1) * 10,
        "sanity: SSOR iteration count {} not runaway vs IC(0) {}",
        ssor.last_iterations(),
        ic0.last_iterations()
    );
}
