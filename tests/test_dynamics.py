"""Dispersion-relation dynamics: trajectories, time of flight, the free
closed form, the quantum Newton first integral, quantum coordinate and the
Jacobi theorem, and Floyd's comparison trajectory."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

from qshje import (
    DomainError,
    Grid,
    MicrostateParams,
    ParameterError,
    PotentialSpec,
    SingularityError,
    UnitSystem,
    analytic_free_pair,
    build_field,
    make_pair,
)
from qshje.dynamics import (
    closed_form_derivatives,
    f_function,
    fiqnl_residual,
    fiqnl_residual_along,
    floyd_free_trajectory,
    free_particle_closed_form,
    integrate_trajectory,
    quantum_coordinate,
    quantum_jacobi_time,
    quantum_lagrangian_state,
    dispersion_free_trajectory,
    time_of_flight,
    trajectory_to_csv,
)

E = 0.5
SPEC_FREE = PotentialSpec.free()
SPEC_HARM = PotentialSpec.harmonic(1.0)


@pytest.fixture(scope="module")
def quantum_free_field():
    grid = Grid(-2.0, 10.0, 12001)
    pair = analytic_free_pair(E, grid)
    return build_field(pair, MicrostateParams.from_floyd(4.25, 1.0, -1.0))


@pytest.fixture(scope="module")
def classical_free_field():
    grid = Grid(-2.0, 10.0, 12001)
    pair = analytic_free_pair(E, grid)
    return build_field(pair, MicrostateParams.from_mu_nu(0.0, 0.0))


@pytest.fixture(scope="module")
def harmonic_field():
    grid = Grid(-1.4, 1.4, 5601)
    pair = make_pair(SPEC_HARM, 2.0, grid)
    return build_field(pair, MicrostateParams.from_mu_nu(0.3, -0.2))


@pytest.fixture(scope="module")
def gs_field():
    grid = Grid(-3.0, 3.0, 6001)
    pair = make_pair(SPEC_HARM, 0.5, grid)
    return build_field(pair, MicrostateParams.from_floyd(1.0, 1.0, 0.0))


# ------------------------------------------------------------ f and xdot

def test_f_free_classical_is_one(classical_free_field):
    xs = np.linspace(0.0, 5.0, 40)
    f = f_function(classical_free_field, SPEC_FREE, xs)
    assert np.max(np.abs(f - 1.0)) < 1e-10


def test_f_negative_in_forbidden_region(gs_field):
    assert f_function(gs_field, SPEC_HARM, 2.0) < 0.0
    assert f_function(gs_field, SPEC_HARM, 0.5) > 0.0


def test_f_turning_point_guard(gs_field):
    with pytest.raises(SingularityError):
        f_function(gs_field, SPEC_HARM, 1.0)


def test_velocity_classical_value(classical_free_field):
    v = classical_free_field  # P = 1, E = 0.5
    assert float(np.asarray(
        v.p_at(1.0))) == pytest.approx(1.0, abs=1e-10)
    from qshje.dynamics import velocity
    assert velocity(v, SPEC_FREE, 1.0) == pytest.approx(math.sqrt(2 * E),
                                                        abs=1e-10)


def test_velocity_zero_at_turning_point(gs_field):
    from qshje.dynamics import velocity
    assert velocity(gs_field, SPEC_HARM, 1.0) == 0.0


def test_velocity_sign_flips_in_forbidden_region(gs_field):
    from qshje.dynamics import velocity
    v_allowed = velocity(gs_field, SPEC_HARM, 0.5)
    v_forbidden = velocity(gs_field, SPEC_HARM, 1.5)
    p = gs_field.p_at(0.5)
    assert math.copysign(1, v_allowed) == math.copysign(1, p)
    assert math.copysign(1, v_forbidden) == -math.copysign(1, p)


# ------------------------------------------------------------ trajectory

def test_classical_trajectory_is_line(classical_free_field):
    traj = integrate_trajectory(classical_free_field, SPEC_FREE, 0.0,
                                (0.0, 8.0), tol=1e-11)
    line = math.sqrt(2.0 * E) * traj.t
    assert np.max(np.abs(traj.x - line)) < 1e-9


def test_trajectory_matches_closed_form(quantum_free_field):
    x0 = free_particle_closed_form(E, 2.0, 0.5, 0.0, 0.0, 0.0)
    traj = integrate_trajectory(quantum_free_field, SPEC_FREE, x0,
                                (0.0, math.pi), tol=1e-11)
    xc = free_particle_closed_form(E, 2.0, 0.5, 0.0, 0.0, traj.t)
    assert np.max(np.abs(traj.x - xc)) < 1e-6


def test_trajectory_exit_report(quantum_free_field):
    traj = integrate_trajectory(quantum_free_field, SPEC_FREE, 9.0,
                                (0.0, 50.0), tol=1e-10)
    assert traj.status == "exited_grid"
    assert traj.exit_time is not None
    assert traj.t[-1] <= traj.exit_time + 1e-12


def test_trajectory_asymptotic_turning_point(gs_field):
    # bound-state trajectories approach the turning point without crossing
    traj = integrate_trajectory(gs_field, SPEC_HARM, 0.0, (0.0, 400.0),
                                tol=1e-10)
    assert traj.status in ("turning_point_asymptotic", "completed")
    assert np.max(np.abs(traj.x)) < 1.0 + 1e-6


def test_trajectory_x0_interior_guard(gs_field):
    with pytest.raises(DomainError):
        integrate_trajectory(gs_field, SPEC_HARM, 5.0, (0.0, 1.0))


def test_dispersion_invariant_dense_output(quantum_free_field):
    traj = integrate_trajectory(quantum_free_field, SPEC_FREE, 0.2,
                                (0.0, 3.0), tol=1e-11)
    for tm in np.linspace(0.2, 2.8, 9):
        dt = 1e-5
        slope = float((traj.sol(tm + dt) - traj.sol(tm - dt))[0]) / (2 * dt)
        x = float(traj.sol(tm)[0])
        gap = slope * quantum_free_field.p_at(x) - 2.0 * E
        assert abs(gap) < 1e-7


def test_trajectory_csv(tmp_path, quantum_free_field):
    traj = integrate_trajectory(quantum_free_field, SPEC_FREE, 0.2,
                                (0.1, 2.0), tol=1e-10, n_samples=40)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    head = path.read_text().splitlines()[0]
    assert head == "t,x,xdot,p,f,hq_minus_e,fiqnl_residual_rel"


def test_trajectory_frees_field_without_gc():
    # the trajectory's x(t) holds its field; nothing may hold the trajectory
    # back in a reference cycle, or the field outlives it until a full GC pass
    grid = Grid(-1.4, 1.4, 2801)
    field = build_field(make_pair(SPEC_HARM, 2.0, grid),
                        MicrostateParams.from_mu_nu(0.3, -0.2))
    ref = weakref.ref(field)
    gc.disable()
    try:
        traj = integrate_trajectory(field, SPEC_HARM, -0.5, (0.0, 1.2),
                                    tol=1e-11, n_samples=60)
        del traj, field
        assert ref() is None
    finally:
        gc.enable()


# --------------------------------------------------------- time of flight

def test_time_of_flight_classical(classical_free_field):
    d = 3.7
    tof = time_of_flight(classical_free_field, SPEC_FREE, 0.3, 0.3 + d)
    assert tof == pytest.approx(d / math.sqrt(2.0 * E), rel=1e-10)


def test_time_of_flight_matches_ode(quantum_free_field):
    x0, x1 = 0.2, 4.1
    tof = time_of_flight(quantum_free_field, SPEC_FREE, x0, x1)
    traj = integrate_trajectory(quantum_free_field, SPEC_FREE, x0,
                                (0.0, 3.0 * tof), tol=1e-12)
    t_arr = brentq(lambda t: float(traj.sol(t)[0]) - x1, 0, traj.t[-1],
                   xtol=1e-13)
    assert abs(tof - t_arr) / t_arr < 1e-6


def test_time_of_flight_turning_point_guards(gs_field):
    with pytest.raises(SingularityError):
        time_of_flight(gs_field, SPEC_HARM, 0.5, 1.5)   # interior turning
    with pytest.raises(SingularityError):
        time_of_flight(gs_field, SPEC_HARM, 0.0, 1.0)   # endpoint turning


# ------------------------------------------------------------ closed form

def test_closed_form_classical_reduction():
    t = np.linspace(0.0, 10.0, 1001)
    x = free_particle_closed_form(E, 1.0, 0.0, 0.0, 0.0, t)
    assert np.max(np.abs(x - math.sqrt(2.0 * E) * t)) < 1e-12


def test_closed_form_period_advance():
    # over one tan period x advances by exactly pi hbar / sqrt(2mE)
    for a_const, b_const in ((2.0, 0.5), (0.7, -1.2), (-1.5, 0.3)):
        t0 = 0.37
        period = math.pi / (2.0 * E)
        x1 = free_particle_closed_form(E, a_const, b_const, 0.0, 0.0, t0)
        x2 = free_particle_closed_form(E, a_const, b_const, 0.0, 0.0,
                                       t0 + period)
        expected = math.copysign(math.pi / math.sqrt(2.0 * E), a_const)
        assert x2 - x1 == pytest.approx(expected, abs=1e-12)


def test_closed_form_degenerate_a_rejected():
    with pytest.raises(ParameterError):
        free_particle_closed_form(E, 0.0, 0.5, 0.0, 0.0, 1.0)


def test_closed_form_derivatives_match_finite_differences():
    ts = np.linspace(0.11, 2.9, 23)
    xd, xdd, _ = closed_form_derivatives(E, 2.0, 0.5, 0.0, ts)
    eps = 1e-6
    xp = free_particle_closed_form(E, 2.0, 0.5, 0.0, 0.0, ts + eps)
    xm = free_particle_closed_form(E, 2.0, 0.5, 0.0, 0.0, ts - eps)
    x0 = free_particle_closed_form(E, 2.0, 0.5, 0.0, 0.0, ts)
    assert np.max(np.abs((xp - xm) / (2 * eps) - xd)) < 1e-8
    assert np.max(np.abs((xp - 2 * x0 + xm) / eps**2 - xdd)) < 1e-3


def test_closed_form_s0_advance(quantum_free_field):
    # with (a,b,c) = (4.25, 1, -1): A = 1/a19 = s/b = 2, B = -c/(2 b) * ...
    ts = np.linspace(0.0, 6.0, 400)
    xs = free_particle_closed_form(E, 2.0, 0.5, 0.0, 0.0, ts)
    s0 = quantum_free_field.s0_at(xs)
    drift = s0 - s0[0] - 2.0 * E * ts
    assert np.max(np.abs(drift)) < 1e-8


# ------------------------------------------------------------------ fiqnl

def test_fiqnl_classical_line_exact():
    v = math.sqrt(2.0 * E)
    res = fiqnl_residual(SPEC_FREE, E, 1.3, v, 0.0, 0.0)
    assert res == 0.0


def test_fiqnl_closed_form_analytic():
    ts = np.linspace(0.07, 2.9, 200)
    xs = free_particle_closed_form(E, 2.0, 0.5, 0.0, 0.0, ts)
    xd, xdd, xddd = closed_form_derivatives(E, 2.0, 0.5, 0.0, ts)
    res = fiqnl_residual(SPEC_FREE, E, xs, xd, xdd, xddd)
    assert np.max(np.abs(res)) / E**4 < 1e-6


def test_fiqnl_harmonic_dense_output(harmonic_field):
    traj = integrate_trajectory(harmonic_field, SPEC_HARM, -0.5, (0.0, 1.2),
                                tol=1e-11, n_samples=50)
    _, rel = fiqnl_residual_along(traj)
    assert np.max(np.abs(rel[3:-3])) < 1e-3


def _fiqnl_along_per_sample(traj):
    """Reference: fiqnl_residual_along as one call of x(t) per sample."""
    delta = max(abs(traj.t[-1] - traj.t[0]) * 2e-3, 1e-6)
    t_lo = min(traj.t[0], traj.t[-1]) + 3.0 * delta
    t_hi = max(traj.t[0], traj.t[-1]) - 3.0 * delta
    stencil = np.arange(-3.0, 4.0)
    res = np.empty(traj.t.size)
    for j, tj in enumerate(traj.t):
        xs = traj.sol(min(max(tj, t_lo), t_hi) + stencil * delta)[0]
        xd = (-xs[0] / 60 + 3 * xs[1] / 20 - 3 * xs[2] / 4 + 3 * xs[4] / 4
              - 3 * xs[5] / 20 + xs[6] / 60) / delta
        xdd = (xs[0] / 90 - 3 * xs[1] / 20 + 3 * xs[2] / 2 - 49 * xs[3] / 18
               + 3 * xs[4] / 2 - 3 * xs[5] / 20 + xs[6] / 90) / delta**2
        xddd = (xs[0] / 8 - xs[1] + 13 * xs[2] / 8 - 13 * xs[4] / 8
                + xs[5] - xs[6] / 8) / delta**3
        res[j] = fiqnl_residual(traj.spec, traj.field.energy, float(xs[3]),
                                xd, xdd, xddd, traj.field.units)
    return res


def test_fiqnl_along_matches_per_sample_loop(harmonic_field):
    traj = integrate_trajectory(harmonic_field, SPEC_HARM, -0.5, (0.0, 1.2),
                                tol=1e-11, n_samples=50)
    _, rel = fiqnl_residual_along(traj)
    # x(t) is evaluated in other groups of times; each time's Newton
    # iterates on its own, so x does not move with the grouping (5.6e-17
    # measured on numpy 2.4, the residual's own rounding)
    ref = _fiqnl_along_per_sample(traj) / harmonic_field.energy**4
    assert np.max(np.abs(rel - ref)) < 1e-12


def test_csv_fiqnl_column_on_linear_trajectory(tmp_path):
    # seven-point differencing of x(t) reads O(1) here; the
    # analytic ladder reads the field's own consistency
    spec = PotentialSpec.linear(1.0)
    field = build_field(make_pair(spec, 1.5, Grid(-4.0, 4.0, 8001)),
                        MicrostateParams.from_mu_nu(0.3, -0.2))
    traj = integrate_trajectory(field, spec, -1.0, (0.0, 2.0), n_samples=300)
    path = tmp_path / "linear.csv"
    trajectory_to_csv(traj, path)
    rel = np.genfromtxt(path, delimiter=",", names=True)["fiqnl_residual_rel"]
    assert np.max(np.abs(rel[3:-3])) < 1e-3


def test_fiqnl_zero_velocity_guard():
    with pytest.raises(SingularityError):
        fiqnl_residual(SPEC_FREE, E, 0.0, 0.0, 1.0, 1.0)


# ------------------------------------------------- quantum coordinate/QJT

def test_quantum_coordinate_classical(classical_free_field):
    xh = quantum_coordinate(classical_free_field, SPEC_FREE, 0.5, 3.25)
    assert xh == pytest.approx(2.75, abs=1e-9)


def test_quantum_coordinate_monotone(quantum_free_field):
    xs = np.linspace(0.5, 4.0, 9)
    vals = [quantum_coordinate(quantum_free_field, SPEC_FREE, 0.5, x)
            for x in xs]
    assert np.all(np.diff(vals) > 0)


def test_quantum_coordinate_derivative(quantum_free_field):
    # d xhat / dx = P / sqrt(2mE)
    x = 2.3
    eps = 1e-5
    num = (quantum_coordinate(quantum_free_field, SPEC_FREE, 0.5, x + eps)
           - quantum_coordinate(quantum_free_field, SPEC_FREE, 0.5, x - eps)) \
        / (2 * eps)
    expected = quantum_free_field.p_at(x) / math.sqrt(2.0 * E)
    assert abs(num - expected) < 1e-6


def test_quantum_coordinate_forbidden_region_guard(gs_field):
    with pytest.raises(DomainError):
        quantum_coordinate(gs_field, SPEC_HARM, 0.0, 1.5)


def test_quantum_jacobi_vs_time_of_flight():
    grid = Grid(-2.0, 8.0, 8001)
    params = MicrostateParams.from_floyd(2.0, 1.0, 0.5)

    def builder(e):
        return build_field(analytic_free_pair(e, grid), params)

    field = builder(E)
    x_ref, x_t = 0.1, 2.7
    tof = time_of_flight(field, SPEC_FREE, x_ref, x_t)
    xh = quantum_coordinate(field, SPEC_FREE, x_ref, x_t)
    qjt = quantum_jacobi_time(builder, SPEC_FREE, xh, E, x_ref=x_ref)
    assert abs(qjt - tof) / tof < 1e-4


def test_quantum_jacobi_classical_params():
    grid = Grid(-2.0, 8.0, 8001)

    def builder(e):
        return build_field(analytic_free_pair(e, grid),
                           MicrostateParams.from_mu_nu(0.0, 0.0))

    field = builder(E)
    x_ref, x_t = 0.2, 3.2
    xh = quantum_coordinate(field, SPEC_FREE, x_ref, x_t)
    assert xh == pytest.approx(3.0, abs=1e-9)
    qjt = quantum_jacobi_time(builder, SPEC_FREE, xh, E, x_ref=x_ref)
    assert qjt == pytest.approx(3.0 / math.sqrt(2 * E), rel=1e-6)


def test_quantum_jacobi_richardson_order():
    grid = Grid(-2.0, 8.0, 4001)
    params = MicrostateParams.from_floyd(2.0, 1.0, 0.5)

    def builder(e):
        return build_field(analytic_free_pair(e, grid), params)

    field = builder(E)
    xh = quantum_coordinate(field, SPEC_FREE, 0.1, 2.7)
    vals = [quantum_jacobi_time(builder, SPEC_FREE, xh, E,
                                delta_e=dE, x_ref=0.1)
            for dE in (4e-3, 2e-3, 1e-3)]
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    assert d2 < d1 / 2.0   # centered differencing: successive gaps shrink >= 2x


def test_quantum_jacobi_builds_two_fields():
    grid = Grid(-2.0, 8.0, 4001)
    params = MicrostateParams.from_floyd(2.0, 1.0, 0.5)
    energies = []

    def builder(e):
        energies.append(e)
        return build_field(analytic_free_pair(e, grid), params)

    xh = quantum_coordinate(builder(E), SPEC_FREE, 0.1, 2.7)
    energies.clear()
    quantum_jacobi_time(builder, SPEC_FREE, xh, E, x_ref=0.1, delta_e=1e-3)
    assert energies == [E + 1e-3, E - 1e-3]


def test_quantum_jacobi_unbracketed_target(quantum_free_field):
    def builder(e):
        return quantum_free_field if e == E else build_field(
            analytic_free_pair(e, quantum_free_field.grid),
            quantum_free_field.params)
    with pytest.raises(DomainError):
        quantum_jacobi_time(builder, SPEC_FREE, 1e6, E, x_ref=0.1)


# ------------------------------------------------------------------ floyd

def test_floyd_classical_family():
    xs = np.linspace(0.1, 5.0, 50)
    t = floyd_free_trajectory(E, 1.5, 1.5, 0.0, xs)
    assert np.max(np.abs(t - math.sqrt(1.0 / (2 * E)) * xs)) < 1e-12
    td = dispersion_free_trajectory(E, 1.5, 1.5, 0.0, xs)
    assert np.max(np.abs(td - td[0] - (xs - xs[0]) * math.sqrt(1 / (2 * E)))) \
        < 1e-12


def test_dispersion_trajectory_continuous_at_tan_poles():
    # at the first 200 exact tan poles of k x no sample jumps by a branch
    a, b, c = 1.3, 2.0, 0.5
    xs = (np.arange(200) + 0.5) * math.pi / math.sqrt(2.0 * E)
    td = dispersion_free_trajectory(E, a, b, c, xs)
    for side in (xs - 1e-7, xs + 1e-7):
        assert np.max(np.abs(td - dispersion_free_trajectory(E, a, b, c, side))) < 1e-4


def test_dispersion_and_floyd_differ_detectably():
    xs = np.linspace(0.2, 6.0, 800)
    td = dispersion_free_trajectory(E, 2.0, 1.0, 0.5, xs)
    tf = floyd_free_trajectory(E, 2.0, 1.0, 0.5, xs)
    classical = math.sqrt(1.0 / (2 * E)) * xs
    assert np.max(np.abs(td - tf) / classical) > 1e-3


def test_formal_limit_identity():
    # x * d(t_dispersion)/dx equals Floyd's formula at every hbar
    xs = np.linspace(0.2, 6.0, 500)
    eps = 1e-6
    for hbar in (1.0, 0.5, 0.25):
        units = UnitSystem(hbar=hbar, mass=1.0)
        slope = (dispersion_free_trajectory(E, 2.0, 1.0, 0.5, xs + eps, units)
                 - dispersion_free_trajectory(E, 2.0, 1.0, 0.5, xs - eps, units)) \
            / (2 * eps)
        rhs = floyd_free_trajectory(E, 2.0, 1.0, 0.5, xs, units)
        assert np.max(np.abs(xs * slope - rhs) / np.abs(rhs)) < 1e-6


def test_dispersion_approaches_classical_under_hbar_scaling():
    xs = np.linspace(0.0, 6.0, 700)
    classical = math.sqrt(1.0 / (2 * E)) * xs
    devs = []
    for k in range(4):
        units = UnitSystem(hbar=2.0**-k, mass=1.0)
        td = dispersion_free_trajectory(E, 2.0, 1.0, 0.5, xs, units)
        devs.append(np.max(np.abs(td - td[0] - classical)))
    assert all(devs[i + 1] < devs[i] for i in range(3))


# -------------------------------------------------------- lagrangian state

def test_hamiltonian_equals_energy_along_trajectory(quantum_free_field):
    traj = integrate_trajectory(quantum_free_field, SPEC_FREE, 0.2,
                                (0.0, 4.0), tol=1e-11, n_samples=50)
    for x, v in zip(traj.x, traj.xdot):
        state = quantum_lagrangian_state(quantum_free_field, SPEC_FREE,
                                         float(x), float(v))
        assert abs(state.hamiltonian - E) / E < 1e-6


def test_lagrangian_classical_form(classical_free_field):
    state = quantum_lagrangian_state(classical_free_field, SPEC_FREE,
                                     1.0, math.sqrt(2 * E))
    assert state.f_value == pytest.approx(1.0, abs=1e-10)
    assert state.lagrangian == pytest.approx(0.5 * 2 * E, abs=1e-9)


def test_hq_plus_lq_identity(harmonic_field):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0)
        v = rng.uniform(0.3, 2.0)
        st = quantum_lagrangian_state(harmonic_field, SPEC_HARM, x, v)
        assert st.hamiltonian + st.lagrangian == pytest.approx(
            v**2 * st.f_value, rel=1e-12)


def test_first_kind_dynamic_equation_along_trajectory(harmonic_field):
    # m f xdd + (m/2) xd^2 f' + V' = 0 with differenced xdd, analytic f'
    traj = integrate_trajectory(harmonic_field, SPEC_HARM, -0.5, (0.0, 1.1),
                                tol=1e-12, n_samples=30)
    t_end = traj.t[-1]
    for tm in np.linspace(0.1 * t_end, 0.85 * t_end, 7):
        dt = 1e-4
        x = float(traj.sol(tm)[0])
        xd = float((traj.sol(tm + dt) - traj.sol(tm - dt))[0]) / (2 * dt)
        xdd = float((traj.sol(tm + dt) - 2 * traj.sol(tm)
                     + traj.sol(tm - dt))[0]) / dt**2
        eps = 1e-6
        f0 = f_function(harmonic_field, SPEC_HARM, x)
        dfdx = (f_function(harmonic_field, SPEC_HARM, x + eps)
                - f_function(harmonic_field, SPEC_HARM, x - eps)) / (2 * eps)
        res = f0 * xdd + 0.5 * xd**2 * dfdx + SPEC_HARM.derivative(x)
        assert abs(res) < 5e-4


def test_trajectory_started_at_turning_point_reports_stall(gs_field):
    traj = integrate_trajectory(gs_field, SPEC_HARM, 0.999999, (0.0, 50.0),
                                tol=1e-10)
    assert traj.status == "turning_point_asymptotic"
    assert abs(traj.x[-1]) <= 1.0 + 1e-9


def test_trajectory_converges_with_the_grid_where_p_is_peaked():
    # harmonic E = 2.2, (0.1, 0.1) on +-3.5: h max |P'/P| = 0.92 at 7001
    # points. Against 28001 points, max |dx| reads 7.2e-11 for t <= 0.5 and
    # 2.1e-7 up to the stall at the turning point (1.2e-5 and 0.87 with cubic
    # tables of P between nodes), measured on numpy 2.4
    params = MicrostateParams.from_mu_nu(0.1, 0.1)
    runs = [integrate_trajectory(build_field(make_pair(SPEC_HARM, 2.2, Grid(-3.5, 3.5, n)),
                                             params),
                                 SPEC_HARM, 0.0, (0.0, 10.0), tol=1e-12)
            for n in (7001, 28001)]
    assert all(r.status == "turning_point_asymptotic" for r in runs)
    for t_end, bound in ((0.5, 1e-9), (min(r.exit_time for r in runs), 1e-6)):
        t = np.linspace(0.0, t_end, 1001)
        assert np.max(np.abs(runs[0].sol(t)[0] - runs[1].sol(t)[0])) < bound


# ------------------------------------- the time table against other routes

def _benchmark_like_run(kind):
    """(field, spec, x0, t_span) of the trajectory benchmark's kinds, and the
    peaked harmonic field of the grid-convergence test."""
    if kind == "free":
        energy, a_big, b_big = 0.6, 2.0, 0.3
        field = build_field(analytic_free_pair(energy, Grid(-2.0, 8.0, 10001)),
                            MicrostateParams.from_floyd(a_big**2 + b_big**2, 1.0, -2.0 * b_big))
        x0 = free_particle_closed_form(energy, a_big, b_big, 0.0, 0.0, 0.0)
        return field, SPEC_FREE, x0, (0.0, math.pi / (2.0 * energy))
    if kind == "harmonic":
        half = 0.7 * math.sqrt(2.0 * 2.2)
        grid, params, x0, span = Grid(-half, half, 5601), (0.3, -0.2), 0.3, (0.0, 1.2)
    else:
        grid, params, x0, span = Grid(-3.5, 3.5, 7001), (0.1, 0.1), 0.0, (0.0, 0.5)
    field = build_field(make_pair(SPEC_HARM, 2.2, grid), MicrostateParams.from_mu_nu(*params))
    return field, SPEC_HARM, x0, span


@pytest.mark.parametrize("kind", ["harmonic", "peaked", "free"])
def test_trajectory_matches_a_dop853_reference(kind):
    # DOP853 on velocity at tol 1e-12 (tests/ode_reference.py) against the
    # inverted table, max |dx| measured on numpy 2.4: harmonic (exits the
    # grid) 7.0e-12, peaked (t <= 0.5) 1.5e-13, free 1.1e-11
    from ode_reference import dop853_x
    field, spec, x0, span = _benchmark_like_run(kind)
    traj = integrate_trajectory(field, spec, x0, span, tol=1e-11, n_samples=300)
    assert np.max(np.abs(traj.x - dop853_x(field, spec, x0, traj.t, tol=1e-12))) < 1e-9


@pytest.mark.parametrize("spec, energy, grid, params, x0, bound", [
    # the peaked field (h max |P'/P| = 0.92) and a quieter one, both to the
    # stall at the turning point x = 2.098; linear s = 1 to the grid margin
    (SPEC_HARM, 2.2, Grid(-3.5, 3.5, 7001), (0.1, 0.1), 0.0, 1e-7),
    (SPEC_HARM, 2.2, Grid(-3.5, 3.5, 7001), (-0.3, 0.2), 0.5, 1e-7),
    (PotentialSpec.linear(1.0), 1.5, Grid(-4.0, 4.0, 8001), (0.3, -0.2), -1.0, 1e-9),
], ids=["harmonic-peaked", "harmonic", "linear"])
def test_trajectory_matches_dop853_on_the_exact_pair(spec, energy, grid, params, x0, bound):
    # The table on the Numerov pair's field against DOP853 (tol 1e-12) on the
    # field of the exact pair (D_nu/V_nu, Ai/Bi): neither the kernel, nor the
    # interpolated pair, nor the integrator is shared. Max |dx| measured on
    # numpy 2.4: 3.4e-8, 5.3e-8 (to the stall, where the pair's 1e-9-level
    # error meets the fast transit), 6.3e-11; exact-pair W drift <= 3.6e-12
    from exact_pairs import exact_pair, wronskian_drift
    from ode_reference import dop853_x
    params = MicrostateParams.from_mu_nu(*params)
    exact = exact_pair(spec, energy, grid)
    assert wronskian_drift(exact) < 1e-11
    traj = integrate_trajectory(build_field(make_pair(spec, energy, grid), params), spec,
                                x0, (0.0, 10.0), tol=1e-12, n_samples=400)
    assert traj.status != "completed"
    ref = dop853_x(build_field(exact, params), spec, x0, traj.t, tol=1e-12)
    assert np.max(np.abs(traj.x - ref)) < bound


def test_free_time_of_flight_is_the_s0_advance():
    # for V = 0, t(x) = (S0(x) - S0(x0)) / 2E: S0 is the pair's turning angle,
    # no integral. Max |dt| measured on numpy 2.4: 1.6e-14 (t up to 6.8)
    field = build_field(analytic_free_pair(E, Grid(-2.0, 8.0, 10001)),
                        MicrostateParams.from_floyd(0.65, 1.0, 0.8))
    xs = np.linspace(-1.5, 7.5, 37)
    tof = np.array([time_of_flight(field, SPEC_FREE, 0.3, float(x)) for x in xs])
    assert np.max(np.abs(tof - (field.s0_at(xs) - field.s0_at(0.3)) / (2.0 * E))) < 1e-12


def test_trajectory_starting_on_a_turning_point_stays_there(gs_field):
    # +-1 are turning points and grid nodes: E - V is exactly 0 there
    for x0 in (1.0, -1.0):
        traj = integrate_trajectory(gs_field, SPEC_HARM, x0, (0.0, 1.0), tol=1e-10)
        assert traj.status == "completed" and traj.exit_time is None
        assert np.all(traj.x == x0) and np.all(traj.xdot == 0.0)


def test_trajectory_in_the_forbidden_region_leaves_the_grid(gs_field):
    # outward from x0 = 1.5 to the margin 2.998; DOP853 read t = 0.1980253658924
    traj = integrate_trajectory(gs_field, SPEC_HARM, 1.5, (0.0, 1.0), tol=1e-10)
    assert traj.status == "exited_grid"
    assert traj.exit_position == pytest.approx(2.998, abs=1e-12)
    assert traj.exit_time == pytest.approx(0.1980253658924, abs=1e-10)


def test_reversed_span_stalls_at_the_turning_point(gs_field):
    # t runs from 1 down: the flow goes to +1 and stops where E - V = 1e-9.
    # An independent integral of P / 2(E - V) to that point gives the exit;
    # DOP853's stall event read 0.9866628 (its event is ill-conditioned: an
    # ulp of x there moves t by about 2e-7)
    traj = integrate_trajectory(gs_field, SPEC_HARM, 0.3, (1.0, 0.0), tol=1e-10)
    assert traj.status == "turning_point_asymptotic"
    assert 0.5 - SPEC_HARM.value(traj.exit_position) == pytest.approx(1e-9, rel=1e-6)
    assert traj.exit_time == pytest.approx(0.9866628, abs=3e-6)
    assert np.all(np.diff(traj.x) > 0.0) and traj.x[-1] == traj.exit_position


def test_trajectory_stalls_at_a_turning_point_on_a_node():
    # the linear golden's field: x = 2 is a turning point and a grid node;
    # the stall floor is 10 tol max(|E|, 1) = 2e-10
    spec = PotentialSpec.linear(1.0)
    field = build_field(make_pair(spec, 2.0, Grid(-4.0, 6.0, 1001)),
                        MicrostateParams.from_mu_nu(0.3, -0.2))
    traj = integrate_trajectory(field, spec, 1.9, (0.0, -50.0), tol=1e-11)
    assert traj.status == "turning_point_asymptotic"
    assert traj.exit_position == pytest.approx(2.0 - 2e-10, abs=1e-15)


@pytest.mark.parametrize("field_args, x_ref, x, expected", [
    # adaptive quadrature at 1e-11 of the same field, as this function
    # computed before it read the table; the interval ends 1e-6 short of
    # the turning point sqrt(4.4), where the integrand is 1/sqrt-singular
    ((2.2, Grid(-3.5, 3.5, 7001), MicrostateParams.from_mu_nu(-0.3, 0.2)),
     0.0, math.sqrt(4.4) - 1e-6, -1.7040197508400152),
    ((2.2, Grid(-3.5, 3.5, 7001), MicrostateParams.from_mu_nu(-0.3, 0.2)),
     -math.sqrt(4.4) + 1e-6, 0.4, -1.5540193170705507),
    ((0.5, Grid(-3.0, 3.0, 6001), MicrostateParams.from_floyd(1.0, 1.0, 0.0)),
     0.2, 1.0 - 1e-6, -0.0012677721310041638),
], ids=["to-right", "from-left", "ground-state"])
def test_quantum_coordinate_up_to_a_turning_point(field_args, x_ref, x, expected):
    # measured on numpy 2.4: within 2e-14 relative of the pinned values
    energy, grid, params = field_args
    field = build_field(make_pair(SPEC_HARM, energy, grid), params)
    assert quantum_coordinate(field, SPEC_HARM, x_ref, x) == pytest.approx(expected, rel=1e-12)
