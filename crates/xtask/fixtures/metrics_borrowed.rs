// Lint fixture (not compiled): the shared-vocabulary half of
// `metrics-drift`. tests/analyze_fire.rs collects this file as crate
// `systemsim` beside fixtures/metrics.rs as crate `lsm`.

fn register(reg: &Registry) {
    let a = reg.counter("lsm.fixture.documented"); // fine: `lsm` registers this counter
    let b = reg.gauge("lsm.fixture.documented"); // expected violation (line 7): the owner's is a counter
    let c = reg.counter("lsm.fixture.stale"); // expected violation (line 8): documented, never registered by `lsm`
    let d = reg.counter("lsm.fixture.sim-only"); // expected violation (line 9): no owner at all
    let e = reg.counter("sim.fixture.own"); // fine: the simulator's own prefix
    use_all(a, b, c, d, e);
}
