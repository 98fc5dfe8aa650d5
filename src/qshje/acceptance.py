"""Acceptance suite: one runner per criterion, each with pinned tolerances.

Every criterion returns a CriterionResult; run_all prints one PASS/FAIL
line per criterion. The CLI `accept` subcommand and the pytest module both
drive these runners.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import (
    closed_form_derivatives,
    f_function,
    fiqnl_residual,
    fiqnl_residual_along,
    floyd_free_trajectory,
    free_particle_closed_form,
    integrate_trajectory,
    quantum_coordinate,
    quantum_jacobi_time,
    dispersion_free_trajectory,
    time_of_flight,
)
from .quantization import (
    action_variable,
    bound_state,
    enumerate_microstates,
    microstate_distinctness,
    params_from_wave_coefficients,
    wave_coefficients_from_params,
)
from .reduced_action import (
    MicrostateParams,
    basic_identity_residual,
    build_field,
    qshje_residual,
    schwarzian,
)
from .schrodinger import (
    Grid,
    NATURAL_UNITS,
    PotentialSpec,
    UnitSystem,
    analytic_free_pair,
    find_bound_energies,
    integrate_schrodinger,
    make_pair,
    pair_from_solutions,
)
from .spherical import (
    AzimuthalAction,
    SphericalQuantumNumbers,
    build_triple,
    polar_equation_residual,
    total_qshje_residual,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    runtime_limit: float
    runtime: float = 0.0
    checks: list = dc_field(default_factory=list)

    def add(self, label: str, value: float, bound: float, larger_ok=False):
        ok = value > bound if larger_ok else value < bound
        self.checks.append((label, value, bound, bool(ok)))
        self.passed = self.passed and bool(ok)

    def detail(self) -> str:
        rows = []
        for label, value, bound, ok in self.checks:
            rows.append(f"    {'ok ' if ok else 'XX '}{label}: "
                        f"{value:.3e} vs {bound:.1e}")
        return "\n".join(rows)


def _result(index, name, limit) -> CriterionResult:
    return CriterionResult(index=index, name=name, passed=True,
                           runtime_limit=limit)


_FREE_E = 0.5


def criterion_1() -> CriterionResult:
    """Closed form with A=1, B=0 reduces to the classical line exactly."""
    res = _result(1, "free-particle classical reduction", 1.0)
    t = np.linspace(0.0, 10.0, 2001)
    x = free_particle_closed_form(_FREE_E, 1.0, 0.0, 0.3, 0.0, t)
    classical = 0.3 + math.sqrt(2.0 * _FREE_E) * t
    res.add("max |x - classical| (machine precision)",
            float(np.max(np.abs(x - classical))), 1e-12)
    return res


def _quantum_free_field(grid=None, energy=_FREE_E, units=NATURAL_UNITS,
                        a=4.25, b=1.0, c=-1.0):
    """Field whose S0 matches the closed form with (A, B) = (1/a19, -b19/a19)
    where a19 = b/s and b19 = c/(2s)."""
    if grid is None:
        grid = Grid(-2.0, 8.0, 10001)
    pair = analytic_free_pair(energy, grid, units)
    return build_field(pair, MicrostateParams.from_floyd(a, b, c))


def criterion_2() -> CriterionResult:
    """Integrated dispersion trajectory equals the closed form (A,B)=(2,0.5)."""
    res = _result(2, "route equivalence ODE vs closed form", 5.0)
    field = _quantum_free_field()
    spec = PotentialSpec.free()
    x0 = free_particle_closed_form(_FREE_E, 2.0, 0.5, 0.0, 0.0, 0.0)
    period = math.pi * NATURAL_UNITS.hbar / (2.0 * _FREE_E)   # one tan period
    traj = integrate_trajectory(field, spec, x0, (0.0, period), tol=1e-11,
                                n_samples=200)
    xc = free_particle_closed_form(_FREE_E, 2.0, 0.5, 0.0, 0.0, traj.t)
    res.add("max |x_ode - x_closed| over one tan period",
            float(np.max(np.abs(traj.x - xc))), 1e-6)
    return res


def criterion_3() -> CriterionResult:
    """S0 along the integrated free trajectory advances as 2E(t - t0)."""
    res = _result(3, "S0 = 2E(t-t0) along the trajectory", 5.0)
    field = _quantum_free_field()
    spec = PotentialSpec.free()
    x0 = free_particle_closed_form(_FREE_E, 2.0, 0.5, 0.0, 0.0, 0.0)
    traj = integrate_trajectory(field, spec, x0, (0.0, 6.0), tol=1e-11,
                                n_samples=400)
    s0 = field.s0_at(traj.x)
    drift = s0 - s0[0] - 2.0 * _FREE_E * (traj.t - traj.t[0])
    res.add("max |S0 - 2E(t-t0)| / hbar",
            float(np.max(np.abs(drift)) / NATURAL_UNITS.hbar), 1e-6)
    return res


def criterion_4() -> CriterionResult:
    """QSHJE residual: free pair over random parameters; harmonic pair."""
    res = _result(4, "QSHJE residual (free + harmonic)", 10.0)
    grid = Grid(0.0, 2.0 * math.pi, 6284)
    pair = analytic_free_pair(_FREE_E, grid)
    spec = PotentialSpec.free()
    xs = grid.points()[10:-10:10]
    rng = np.random.default_rng(20010)
    worst = 0.0
    count = 0
    while count < 50:
        mu, nu = rng.uniform(-2.0, 2.0, size=2)
        if abs(mu * nu - 1.0) < 1e-2:
            continue
        field = build_field(pair, MicrostateParams.from_mu_nu(mu, nu))
        worst = max(worst, float(np.max(np.abs(qshje_residual(field, spec, xs)))))
        count += 1
    res.add("free pair, 50 random (mu,nu): max |residual|", worst, 1e-7)

    hgrid = Grid(-3.0, 3.0, 6001)
    hspec = PotentialSpec.harmonic(1.0)
    hpair = make_pair(hspec, 0.5, hgrid)
    hfield = build_field(hpair, MicrostateParams.from_floyd(1.0, 1.0, 0.0))
    hx = np.linspace(-2.995, 2.995, 600)
    hres = np.max(np.abs(qshje_residual(hfield, hspec, hx)))
    res.add("harmonic ground-state pair: max |residual| / E",
            float(hres / 0.5), 1e-6)
    return res


def criterion_5() -> CriterionResult:
    """First-integral residual: analytic closed form and differenced x(t)."""
    res = _result(5, "first integral of the quantum Newton law", 10.0)
    spec = PotentialSpec.free()
    ts = np.linspace(0.07, 2.9, 200)
    xs = free_particle_closed_form(_FREE_E, 2.0, 0.5, 0.0, 0.0, ts)
    xd, xdd, xddd = closed_form_derivatives(_FREE_E, 2.0, 0.5, 0.0, ts)
    r = fiqnl_residual(spec, _FREE_E, xs, xd, xdd, xddd)
    res.add("closed form, 200 times: max |residual| / E^4",
            float(np.max(np.abs(r)) / _FREE_E**4), 1e-6)

    hgrid = Grid(-1.4, 1.4, 5601)
    hspec = PotentialSpec.harmonic(1.0)
    hpair = make_pair(hspec, 2.0, hgrid)
    hfield = build_field(hpair, MicrostateParams.from_mu_nu(0.3, -0.2))
    traj = integrate_trajectory(hfield, hspec, -0.5, (0.0, 1.2), tol=1e-11,
                                n_samples=60)
    _, rel = fiqnl_residual_along(traj)
    res.add("harmonic trajectory, dense differencing: max |residual| / E^4",
            float(np.max(np.abs(rel[3:-3]))), 1e-3)
    return res


def criterion_6() -> CriterionResult:
    """J = N h for the first five harmonic states, microstate invariant."""
    res = _result(6, "action-variable quantization J = Nh", 30.0)
    grid = Grid(-7.5, 7.5, 15001)
    spec = PotentialSpec.harmonic(1.0)
    energies = find_bound_energies(spec, grid, NATURAL_UNITS, n_max=5)
    h_planck = 2.0 * math.pi * NATURAL_UNITS.hbar
    base = MicrostateParams.from_floyd(1.0, 1.0, 0.0)
    worst = 0.0
    record0 = None
    for n, energy in enumerate(energies):
        record = bound_state(spec, grid, n, energy=energy)
        if n == 0:
            record0 = record
        j_over_h = action_variable(record.pair, base) / h_planck
        worst = max(worst, abs(j_over_h - (n + 1)))
    res.add("max |J/h - (n+1)| over n = 0..4", worst, 1e-3)

    rng = np.random.default_rng(20011)
    js = []
    for _ in range(20):
        b = rng.uniform(0.3, 3.0)
        c = rng.uniform(-2.0, 2.0)
        params = MicrostateParams.from_floyd(c * c / (4.0 * b) + 1.0, b, c)
        js.append(action_variable(record0.pair, params) / h_planck)
    res.add("J/h spread over 20 random microstate sets",
            float(max(js) - min(js)), 1e-3)
    return res


def criterion_7() -> CriterionResult:
    """Same wave function, different momenta; unbound recovery is unique."""
    res = _result(7, "microstates: shared psi, distinct P", 10.0)
    grid = Grid(-7.5, 7.5, 15001)
    spec = PotentialSpec.harmonic(1.0)
    record = bound_state(spec, grid, 0)
    sets = enumerate_microstates(record, 2)   # (b=1,c=0) and (b=2,c=1)
    f1 = build_field(record.pair, sets[0])
    f2 = build_field(record.pair, sets[1])
    p_gap, psi_gap = microstate_distinctness(f1, f2)
    res.add("normalized reconstructed psi gap", psi_gap, 1e-6)
    res.add("max |P1 - P2| / max |P1| (must exceed)",
            p_gap / float(np.max(np.abs(f1.p))), 1e-3, larger_ok=True)

    worst = 0.0
    for params in (MicrostateParams.from_floyd(2.0, 1.0, 0.5),
                   MicrostateParams.from_floyd(1.0, 3.0, -0.8),
                   MicrostateParams.from_floyd(0.7, 0.9, 0.3)):
        alpha, beta = wave_coefficients_from_params(params)
        back = params_from_wave_coefficients(alpha, beta)
        worst = max(worst, abs(back.a - params.a), abs(back.b - params.b),
                    abs(back.c - params.c))
    res.add("unbound (alpha,beta) -> (a,b,c) recovery error", worst, 1e-12)
    return res


def criterion_8() -> CriterionResult:
    """Classical limit under hbar -> hbar/2^k, fixed microstate constants."""
    res = _result(8, "classical limit (hbar sweep)", 20.0)
    spec = PotentialSpec.free()
    devs = []
    for k in range(4):
        units = UnitSystem(hbar=2.0**-k, mass=1.0)
        grid = Grid(-1.0, 10.0, 11001)
        pair = analytic_free_pair(_FREE_E, grid, units)
        field = build_field(pair, MicrostateParams.from_mu_nu(0.4, -0.3))
        traj = integrate_trajectory(field, spec, 0.0, (0.0, 8.0), tol=1e-10,
                                    n_samples=160)
        classical = traj.x[0] + math.sqrt(2.0 * _FREE_E) * traj.t
        devs.append(float(np.max(np.abs(traj.x - classical))))
    mono_traj = all(devs[i + 1] < devs[i] for i in range(3))
    res.add("free trajectory max deviation decreases monotonically "
            f"(devs={['%.4f' % d for d in devs]})",
            1.0 if mono_traj else 0.0, 0.5, larger_ok=True)

    hspec = PotentialSpec.harmonic(1.0)
    e2 = 2.0
    fdev = []
    for k in range(4):
        units = UnitSystem(hbar=2.0**-k, mass=1.0)
        grid = Grid(-1.2, 1.2, 24001)
        k_loc = math.sqrt(2.0 * units.mass * (e2 - 0.5 * grid.x_min**2)) / units.hbar
        s1 = integrate_schrodinger(hspec, e2, grid, (0.0, k_loc), units)
        s2 = integrate_schrodinger(hspec, e2, grid, (1.0, 0.0), units)
        pair = pair_from_solutions(s1, s2, hspec)
        field = build_field(pair, MicrostateParams.from_mu_nu(0.0, 0.0))
        xs = np.linspace(-0.9, 0.9, 400)
        f = f_function(field, hspec, xs)
        fdev.append(float(np.max(np.abs(f - 1.0))))
    mono_f = all(fdev[i + 1] < fdev[i] for i in range(3))
    res.add("harmonic max |f - 1| decreases monotonically "
            f"(devs={['%.4f' % d for d in fdev]})",
            1.0 if mono_f else 0.0, 0.5, larger_ok=True)
    return res


def criterion_9() -> CriterionResult:
    """Quantum Jacobi theorem agrees with the time of flight and with the
    closed-form arrival time S0/(2E), which shares nothing with the table."""
    res = _result(9, "quantum Jacobi theorem route equivalence", 10.0)
    grid = Grid(-2.0, 8.0, 10001)
    spec = PotentialSpec.free()
    a, b, c = 2.0, 1.0, 0.5
    params = MicrostateParams.from_floyd(a, b, c)

    def builder(e):
        return build_field(analytic_free_pair(e, grid), params)

    field = builder(_FREE_E)
    x_ref, x_t = 0.1, 2.7
    tof = time_of_flight(field, spec, x_ref, x_t)
    x_hat = quantum_coordinate(field, spec, x_ref, x_t)
    qjt = quantum_jacobi_time(builder, spec, x_hat, _FREE_E,
                              delta_e=1e-5 * _FREE_E, x_ref=x_ref)
    t_arr = (dispersion_free_trajectory(_FREE_E, a, b, c, x_t)
             - dispersion_free_trajectory(_FREE_E, a, b, c, x_ref))
    res.add("|QJT - TOF| / TOF", abs(qjt - tof) / tof, 1e-4)
    res.add("|closed-form arrival - TOF| / TOF", abs(t_arr - tof) / tof, 1e-4)
    res.add("|QJT - closed-form arrival| / closed form", abs(qjt - t_arr) / t_arr, 1e-4)
    return res


def criterion_10() -> CriterionResult:
    """Thesis vs Floyd free trajectories: detectably different, while the
    formal hbar->0 limit expression of the dispersion-route trajectory reproduces
    Floyd's formula exactly and the trajectory itself approaches its true
    classical limit (Floyd's cycle average) monotonically."""
    res = _result(10, "Floyd trajectory comparison", 10.0)
    a, b, c = 2.0, 1.0, 0.5
    xs = np.linspace(0.2, 6.0, 1501)
    t_d = dispersion_free_trajectory(_FREE_E, a, b, c, xs)
    t_fl = floyd_free_trajectory(_FREE_E, a, b, c, xs)
    classical = np.sqrt(1.0 / (2.0 * _FREE_E)) * xs
    res.add("max |t_dispersion - t_floyd| / t_classical (must exceed)",
            float(np.max(np.abs(t_d - t_fl) / classical)), 1e-3,
            larger_ok=True)

    # formal-limit identity: x * d(t_dispersion)/dx = t_floyd at every hbar
    worst = 0.0
    eps = 1e-6
    for k in range(4):
        units = UnitSystem(hbar=2.0**-k, mass=1.0)
        slope = (dispersion_free_trajectory(_FREE_E, a, b, c, xs + eps, units)
                 - dispersion_free_trajectory(_FREE_E, a, b, c, xs - eps, units)) \
            / (2.0 * eps)
        lhs = xs * slope
        rhs = floyd_free_trajectory(_FREE_E, a, b, c, xs, units)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    res.add("formal limit: max |x t_dispersion' - t_floyd| / |t_floyd|",
            worst, 1e-6)

    devs = []
    for k in range(4):
        units = UnitSystem(hbar=2.0**-k, mass=1.0)
        td_k = dispersion_free_trajectory(_FREE_E, a, b, c, xs, units)
        devs.append(float(np.max(np.abs(td_k - td_k[0]
                                        - classical + classical[0]))))
    mono = all(devs[i + 1] < devs[i] for i in range(3))
    res.add("dispersion-route trajectory approaches the cycle-averaged (classical) "
            f"line monotonically (devs={['%.4f' % d for d in devs]})",
            1.0 if mono else 0.0, 0.5, larger_ok=True)
    return res


def criterion_11() -> CriterionResult:
    """Spherical stack: polar residual, azimuthal linearity, total 3-D
    residual, and the separation-constant mismatch detector."""
    res = _result(11, "spherical three-dimensional stack", 30.0)
    th = np.linspace(0.1, math.pi - 0.1, 20001)
    polar_res = polar_equation_residual(np.cos(th), th,
                                        SphericalQuantumNumbers(1, 0))
    res.add("polar ell=1, m=0 transformed-equation residual",
            float(np.max(np.abs(polar_res))), 1e-5)

    qn2 = SphericalQuantumNumbers(2, 2)
    az = AzimuthalAction(qn2, MicrostateParams.from_floyd(1.0, 1.0, 0.0))
    phis = np.linspace(0.0, 2.0 * math.pi, 2001)
    m_vals = az.values(phis)
    res.add("azimuthal a=b=1,c=0: max |M - hbar m phi - const|",
            float(np.max(np.abs(m_vals - m_vals[0] - 2.0 * phis))), 1e-8)

    qn0 = SphericalQuantumNumbers(0, 0)
    classical = MicrostateParams.from_floyd(1.0, 1.0, 0.0)
    r_grid = Grid(0.5, 8.0, 7501)
    th_grid = Grid(0.35, math.pi - 0.35, 4001)
    triple = build_triple(PotentialSpec.free(), qn0, _FREE_E, r_grid, th_grid,
                          classical, classical, classical)
    rr = np.linspace(1.0, 7.0, 10)
    tt = np.linspace(0.6, math.pi - 0.6, 10)
    pp = np.linspace(0.3, 5.9, 10)
    mesh = np.meshgrid(rr, tt, pp, indexing="ij")
    total = total_qshje_residual(triple, *mesh)
    res.add("total 3-D residual / E (free, ell=0)",
            float(np.max(np.abs(total)) / _FREE_E), 1e-4)

    bad = build_triple(PotentialSpec.free(), qn0, _FREE_E, r_grid, th_grid,
                       classical, classical, classical, polar_lam_override=2.0)
    detector = float(np.max(np.abs(total_qshje_residual(bad, *mesh))))
    res.add("lambda-mismatch detector fires (must exceed)", detector, 1e-2,
            larger_ok=True)
    return res


def criterion_12() -> CriterionResult:
    """Numerics hygiene: Wronskian drift, fourth-order convergence, Mobius
    invariance of the bracket, and the basic Schwarzian identity."""
    res = _result(12, "numerics hygiene", 10.0)
    hgrid = Grid(-2.5, 2.5, 5001)
    hspec = PotentialSpec.harmonic(1.0)
    hpair = make_pair(hspec, 0.5, hgrid)
    drift = np.max(np.abs(hpair.wronskian_samples() - hpair.wronskian)) \
        / abs(hpair.wronskian)
    res.add("harmonic pair Wronskian drift", float(drift), 1e-8)
    fgrid = Grid(0.0, 2.0 * math.pi, 6284)
    fpair = make_pair(PotentialSpec.free(), _FREE_E, fgrid)
    fdrift = np.max(np.abs(fpair.wronskian_samples() - fpair.wronskian)) \
        / abs(fpair.wronskian)
    res.add("free pair Wronskian drift", float(fdrift), 1e-8)

    spec = PotentialSpec.free()

    def free_error(n_points):
        g = Grid(0.0, math.pi, n_points)
        p = make_pair(spec, _FREE_E, g, target_wronskian=1.0)
        x = g.points()
        return max(float(np.max(np.abs(p.sol1.values - np.cos(x)))),
                   float(np.max(np.abs(p.sol2.values - np.sin(x)))))

    e_coarse = free_error(101)
    e_fine = free_error(201)
    res.add("grid halving error ratio (must exceed 8)",
            e_coarse / e_fine, 8.0, larger_ok=True)

    h = 1e-3
    xs = np.arange(-400, 401) * h + 0.123
    t_base = np.arctan(xs)
    t_mobius = (2.0 * t_base + 1.0) / (t_base + 3.0)
    i = 400
    gap = abs(schwarzian(t_mobius, h, i) - schwarzian(t_base, h, i))
    res.add("Mobius invariance of the bracket", float(gap), 5e-6)

    h2 = 0.01
    xs2 = np.arange(-60, 61) * h2
    s0_lin = 1.0 * (xs2 + 0.05)
    res.add("basic identity residual, linear S0",
            abs(basic_identity_residual(s0_lin, h2, 60, hbar=1.0)), 1e-5)
    s0_arc = np.arctan(xs2 + 0.3)
    res.add("basic identity residual, arctan S0",
            abs(basic_identity_residual(s0_arc, h2, 60, hbar=1.0)), 1e-5)
    return res


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12]


def run_all(verbose: bool = False) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        start = time.perf_counter()
        result = fn()
        result.runtime = time.perf_counter() - start
        if result.runtime > result.runtime_limit:
            result.passed = False
            result.checks.append(("runtime limit", result.runtime,
                                  result.runtime_limit, False))
        results.append(result)
        if verbose:
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] criterion {result.index:2d}: {result.name} "
                  f"({result.runtime:.2f}s)")
            if not result.passed:
                print(result.detail())
    if verbose:
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} acceptance criteria passed")
    return results


if __name__ == "__main__":
    import sys
    sys.exit(0 if all(r.passed for r in run_all(verbose=True)) else 1)
