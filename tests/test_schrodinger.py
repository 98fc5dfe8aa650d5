"""Potentials, Numerov integration, solution pairs, nodes, bound states."""

import math

import numpy as np
import pytest

from qshje import (
    DomainError,
    Grid,
    IntegrationQualityError,
    MicrostateParams,
    NumericError,
    ParameterError,
    PotentialSpec,
    SearchError,
    UnitSystem,
    analytic_free_pair,
    count_nodes,
    find_bound_energies,
    integrate_schrodinger,
    make_pair,
    pair_to_csv,
    physical_bound_solution,
)
from qshje import schrodinger
from qshje.schrodinger import Solution, _numerov_values, pair_from_solutions


# ---------------------------------------------------------------- types

def test_unit_system_validation():
    with pytest.raises(ParameterError):
        UnitSystem(hbar=0.0)
    with pytest.raises(ParameterError):
        UnitSystem(mass=-1.0)


def test_grid_validation_and_spacing():
    with pytest.raises(ParameterError):
        Grid(1.0, 0.0, 100)
    with pytest.raises(ParameterError):
        Grid(0.0, 1.0, 5)
    g = Grid(0.0, 1.0, 101)
    assert g.spacing == pytest.approx(0.01)
    assert g.points().shape == (101,)
    assert np.allclose(np.diff(g.points()), g.spacing)


@pytest.mark.parametrize("build", [
    lambda: MicrostateParams.from_mu_nu(math.nan, 0.0),
    lambda: MicrostateParams.from_floyd(math.inf, 1.0, 0.0),
    lambda: UnitSystem(hbar=math.inf),
    lambda: UnitSystem(mass=math.nan),
    lambda: Grid(0.0, math.inf, 100),
    lambda: PotentialSpec.linear(math.nan),
    lambda: PotentialSpec.harmonic(math.inf),
    lambda: PotentialSpec.radial_effective(None, 2.0),
], ids=["mu_nan", "floyd_a_inf", "hbar_inf", "mass_nan", "grid_inf",
        "slope_nan", "omega_inf", "radial_no_inner"])
def test_constructors_reject_non_finite_input(build):
    with pytest.raises(ParameterError):
        build()


# ----------------------------------------------------------- potentials

def test_potential_values_trivial():
    assert PotentialSpec.free().value(3.7) == 0.0
    assert PotentialSpec.harmonic(1.0).value(2.0) == pytest.approx(2.0)
    radial = PotentialSpec.radial_effective(PotentialSpec.free(), 2.0)
    assert radial.value(1.0) == pytest.approx(1.0)
    assert PotentialSpec.linear(2.0).value(1.5) == pytest.approx(3.0)


def test_unknown_potential_kind_is_rejected_on_construction():
    with pytest.raises(ParameterError):
        PotentialSpec("bogus")


_TABLE_X = np.linspace(-3.0, 3.0, 40)
_KIND_CASES = {
    "free": (PotentialSpec.free(), -2.9, 2.9),
    "linear": (PotentialSpec.linear(1.3), -2.9, 2.9),
    "harmonic": (PotentialSpec.harmonic(1.7), -2.9, 2.9),
    "tabulated": (PotentialSpec.tabulated(_TABLE_X, np.cos(_TABLE_X) * _TABLE_X**2),
                  -2.9, 2.9),
    "radial_effective": (PotentialSpec.radial_effective(PotentialSpec.harmonic(0.9),
                                                        2.0), 0.02, 2.9),
    "polar_angle": (PotentialSpec.polar_angle(2), 0.02, 3.12),
}


@pytest.mark.parametrize("units", [UnitSystem(), UnitSystem(hbar=0.7, mass=1.3)],
                         ids=["natural", "scaled"])
@pytest.mark.parametrize("kind", sorted(_KIND_CASES))
def test_potential_scalar_path_equals_array_path_bit_for_bit(kind, units):
    spec, lo, hi = _KIND_CASES[kind]
    xs = np.random.default_rng(7).uniform(lo, hi, 400)
    for f in (spec.value, spec.derivative, spec.second_derivative):
        scalar = np.array([f(float(x), units) for x in xs])
        single = np.array([f(np.array([x]), units)[0] for x in xs])
        assert all(isinstance(f(float(x), units), float) for x in xs[:3])
        assert np.array_equal(scalar.view(np.uint64), single.view(np.uint64))


def test_potential_domain_errors():
    radial = PotentialSpec.radial_effective(PotentialSpec.free(), 2.0)
    with pytest.raises(DomainError):
        radial.value(-1.0)
    tab = PotentialSpec.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0])
    with pytest.raises(DomainError):
        tab.value(5.0)


def test_harmonic_requires_positive_omega():
    with pytest.raises(ParameterError):
        PotentialSpec.harmonic(-1.0)


def test_tabulated_roundtrip_csv(tmp_path):
    xs = np.linspace(-2.0, 2.0, 64)
    vs = 0.5 * xs**2
    path = tmp_path / "pot.csv"
    np.savetxt(path, np.column_stack([xs, vs]), delimiter=",",
               header="x,v", comments="")
    spec = PotentialSpec.tabulated_from_csv(path)
    assert spec.value(0.7) == pytest.approx(0.245, abs=1e-10)


def test_tabulated_rejects_nonfinite():
    with pytest.raises(ParameterError):
        PotentialSpec.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, np.inf, 1.0, 2.0])


# ---------------------------------------------------------- integration

def test_free_particle_matches_cosine():
    # analytic solution cos(kx) with k = sqrt(2mE)/hbar = 1
    grid = Grid(0.0, math.pi, 3143)   # spacing ~1e-3
    sol = integrate_schrodinger(PotentialSpec.free(), 0.5, grid, (1.0, 0.0))
    x = grid.points()
    i_half = grid.index_of(math.pi / 2)
    assert abs(sol.values[i_half]) < 1e-8
    assert np.max(np.abs(sol.values - np.cos(x))) < 1e-8
    assert np.max(np.abs(sol.derivs + np.sin(x))) < 1e-8


def test_constant_potential_equal_energy_gives_line():
    # V == E makes psi'' = 0: psi stays exactly 1 with zero slope
    grid = Grid(0.0, 1.0, 101)
    sol = integrate_schrodinger(PotentialSpec.linear(0.0), 0.0, grid, (1.0, 0.0))
    assert np.max(np.abs(sol.values - 1.0)) == 0.0


def test_harmonic_ground_state_profile():
    grid = Grid(-4.0, 4.0, 8001)
    x = grid.points()
    init = (math.exp(-8.0), 4.0 * math.exp(-8.0))   # e^{-x^2/2} data at -4
    sol = integrate_schrodinger(PotentialSpec.harmonic(1.0), 0.5, grid, init)
    assert np.max(np.abs(sol.values - np.exp(-x**2 / 2.0))) < 1e-7


def test_zero_init_rejected():
    with pytest.raises(ParameterError):
        integrate_schrodinger(PotentialSpec.free(), 0.5, Grid(0, 1, 21),
                              (0.0, 0.0))


def test_forbidden_region_overflow_flagged():
    # steep linear potential at low energy: growth ~ e^{kappa x} overflows
    grid = Grid(0.0, 400.0, 40001)
    with pytest.raises(NumericError) as err:
        integrate_schrodinger(PotentialSpec.linear(50.0), 0.0, grid, (1.0, 1.0))
    assert err.value.x is not None and 0.0 < err.value.x <= 400.0


def test_vanishing_numerov_coefficient_flagged():
    # h^2 w / 12 == 1 exactly at every sample: the recurrence divides by zero
    with pytest.raises(NumericError) as err:
        integrate_schrodinger(PotentialSpec.free(), -24.0, Grid(0.0, 4.0, 9),
                              (1.0, 0.0))
    assert err.value.x == 1.0


def test_from_right_matches_cosine():
    # the leftward sweep returns grid-ordered samples and d/dx derivatives
    grid = Grid(0.0, math.pi, 3143)
    x = grid.points()
    sol = integrate_schrodinger(PotentialSpec.free(), 0.5, grid,
                                (math.cos(x[-1]), -math.sin(x[-1])),
                                from_right=True)
    assert np.max(np.abs(sol.values - np.cos(x))) < 1e-8
    assert np.max(np.abs(sol.derivs + np.sin(x))) < 1e-8


def test_right_to_left_overflow_reports_grid_position():
    # the inward sweep from x_max = 45 overflows in the right forbidden
    # region; the error names the grid position, not the distance from 45
    with pytest.raises(NumericError) as err:
        physical_bound_solution(PotentialSpec.harmonic(1.0), 0.5,
                                Grid(-8.0, 45.0, 10601))
    assert err.value.x == pytest.approx(29.555, abs=1e-9)


def _numerov_loop(w, h, y0, y1, x0=0.0, renormalize=False):
    """Reference: the Numerov recurrence as a plain Python loop."""
    n = len(w)
    c = [1.0 - (h * h / 12.0) * wi for wi in w]
    y = [0.0] * n
    y[0] = y0
    y[1] = y1
    lim = 1e250
    for i in range(1, n - 1):
        yn = ((12.0 - 10.0 * c[i]) * y[i] - c[i - 1] * y[i - 1]) / c[i + 1]
        if yn > lim or yn < -lim or yn != yn:
            if not renormalize:
                raise NumericError("overflow", x=x0 + (i + 1) * h)
            for j in range(i + 1):
                y[j] *= 1e-200
            yn *= 1e-200
        y[i + 1] = yn
    return np.array(y)


@pytest.mark.parametrize("energy", [0.9, 2.2, 3.7])
@pytest.mark.parametrize("seeds", ["zero_slope", "generic"])
def test_numerov_kernel_matches_reference_loop(energy, seeds):
    # away from eigenvalues, where the growing tails do not amplify rounding
    grid = Grid(-6.0, 6.0, 6001)
    h = grid.spacing
    w = 2.0 * (0.5 * grid.points()**2 - energy)
    y0, y1 = (0.0, h) if seeds == "zero_slope" else (1.0, 0.3)
    ref = _numerov_loop(list(w), h, y0, y1)
    y = _numerov_values(w, h, y0, y1)
    assert np.max(np.abs(y - ref)) / np.max(np.abs(ref)) < 1e-10
    assert count_nodes(y) == count_nodes(ref)


# ----------------------------------------------------------------- pairs

def test_make_pair_free_matches_analytic():
    grid = Grid(0.0, math.pi, 3143)
    pair = make_pair(PotentialSpec.free(), 0.5, grid, target_wronskian=1.0)
    x = grid.points()
    assert np.max(np.abs(pair.sol1.values - np.cos(x))) < 1e-8
    assert np.max(np.abs(pair.sol2.values - np.sin(x))) < 1e-8


def test_pair_wronskian_constancy():
    grid = Grid(-2.5, 2.5, 5001)
    pair = make_pair(PotentialSpec.harmonic(1.0), 0.5, grid)
    w = pair.wronskian_samples()
    assert np.max(np.abs(w - pair.wronskian)) / abs(pair.wronskian) < 1e-8
    assert np.all(pair.sol1.values**2 + pair.sol2.values**2 > 0.0)


def test_pair_target_wronskian_scaling():
    grid = Grid(0.0, 2.0, 2001)
    pair = make_pair(PotentialSpec.free(), 0.5, grid, target_wronskian=-3.0)
    assert np.median(pair.wronskian_samples()) == pytest.approx(-3.0, rel=1e-10)


def test_dependent_pair_rejected():
    grid = Grid(0.0, 2.0, 2001)
    s = integrate_schrodinger(PotentialSpec.free(), 0.5, grid, (1.0, 0.0))
    s_copy = Solution(grid, 0.5, s.units, 2.0 * s.values, 2.0 * s.derivs)
    with pytest.raises(ParameterError):
        pair_from_solutions(s, s_copy, PotentialSpec.free())


def test_target_wronskian_nonzero():
    with pytest.raises(ParameterError):
        make_pair(PotentialSpec.free(), 0.5, Grid(0, 1, 101),
                  target_wronskian=0.0)


def test_fourth_order_convergence():
    # halving the spacing must reduce the free-pair error by >= 8x
    def err(n):
        g = Grid(0.0, math.pi, n)
        p = make_pair(PotentialSpec.free(), 0.5, g, target_wronskian=1.0)
        return np.max(np.abs(p.sol1.values - np.cos(g.points())))
    assert err(101) / err(201) > 8.0


def test_pair_csv_export(tmp_path):
    grid = Grid(0.0, 1.0, 101)
    pair = make_pair(PotentialSpec.free(), 0.5, grid)
    path = tmp_path / "pair.csv"
    pair_to_csv(pair, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,theta1,dtheta1,theta2,dtheta2"
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.allclose(data["theta1"], pair.sol1.values, atol=1e-15)


# ----------------------------------------------------------------- nodes

def test_count_nodes_examples():
    grid = Grid(-6.0, 6.0, 2001)
    x = grid.points()
    assert count_nodes(np.exp(-x**2 / 2.0)) == 0
    # n = 3 Hermite state: H3 = 8x^3 - 12x, three real roots
    h3 = (8.0 * x**3 - 12.0 * x) * np.exp(-x**2 / 2.0)
    assert count_nodes(h3) == 3
    xs = np.linspace(0.1, 2.0 * math.pi - 0.1, 1001)
    assert count_nodes(np.sin(xs)) == 1


def test_count_nodes_endpoint_and_exact_zeros():
    assert count_nodes([0.0, 1.0, 2.0, 1.0, 0.0]) == 0
    assert count_nodes([1.0, 0.0, -1.0, -2.0, -1.0]) == 1   # zero counted once
    assert count_nodes([1.0, 0.0, 1.0, 2.0, 1.0]) == 0      # touch, no crossing


# ----------------------------------------------------------- bound states

def test_harmonic_spectrum_omega_one():
    grid = Grid(-6.0, 6.0, 12001)
    energies = find_bound_energies(PotentialSpec.harmonic(1.0), grid, n_max=4)
    expected = [0.5, 1.5, 2.5, 3.5]
    assert np.max(np.abs(np.array(energies) - expected)) < 1e-6


def test_harmonic_spectrum_omega_two():
    grid = Grid(-5.0, 5.0, 10001)
    energies = find_bound_energies(PotentialSpec.harmonic(2.0), grid, n_max=2)
    assert energies[0] == pytest.approx(1.0, abs=1e-6)
    assert energies[1] == pytest.approx(3.0, abs=1e-6)


def test_harmonic_spectrum_on_wide_grid():
    # the search renormalizes several times in the long forbidden tails;
    # the sign-only history keeps every node of the early oscillations
    for grid in (Grid(-45.0, 45.0, 18001), Grid(-60.0, 60.0, 24001)):
        energies = find_bound_energies(PotentialSpec.harmonic(1.0), grid, n_max=3)
        assert np.max(np.abs(np.array(energies) - [0.5, 1.5, 2.5])) < 1e-6


def _renormalized_sweep(w, h, y0, y1):
    """A renormalizing ``_numerov_sweep`` on fresh ``_numerov_band`` buffers:
    (samples, number of 1e-200 rescales)."""
    ab, b = schrodinger._numerov_band(len(w))
    c = ab[2]
    np.multiply(w, h * h / 12.0, out=c)
    np.subtract(1.0, c, out=c)
    k = schrodinger._numerov_sweep(ab, b, h, y0, y1, renormalize=True)
    return b[:, 0], k


def test_rescale_count_carries_the_end_sample_magnitude():
    # the sweep is linear in its seed: seeds 1e-150 and 1e-300 times smaller
    # overflow later and rescale less often, yet y_N 10^(200 k) / seed agrees
    grid = Grid(-60.0, 60.0, 24001)
    h = grid.spacing
    w = 2.0 * (0.5 * grid.points()**2 - 1.0)
    logs, rescales = [], set()
    for seed in (1.0, 1e-150, 1e-300):
        y, k = _renormalized_sweep(w, h, 0.0, seed * h)
        logs.append(math.log10(abs(y[-1])) + 200.0 * k - math.log10(seed))
        rescales.add(k)
    assert len(rescales) > 1
    assert max(logs) - min(logs) < 1e-9


def test_search_sweeps_reuse_buffers_exactly():
    # the search's sweeps share one pair of buffers; each must read exactly
    # as a sweep on fresh ones, also after a sweep that rescaled
    grid = Grid(-60.0, 60.0, 24001)
    h = grid.spacing
    v = 0.5 * grid.points()**2
    shooting = schrodinger._Shooting(v, 2.0, h, *schrodinger._numerov_band(v.size))
    seen = []
    for e in (0.3, 1.0, 2.2, 0.3, 4.499, 1.0):
        y, k = _renormalized_sweep(2.0 * (v - e), h, 0.0, h)
        got = schrodinger._shoot_nodes(shooting, e)
        assert got == (count_nodes(y[1:]), float(y[-1]), k)
        seen.append(k)
    assert min(seen) > 0


# (spec, grid, levels 0-4 by bisection on the node count alone)
_DW_X = np.linspace(-3.5, 3.5, 501)
_MORSE_X = np.linspace(-1.5, 9.0, 601)
_SEARCH_WELLS = {
    "harmonic": (PotentialSpec.harmonic(1.0), Grid(-7.5, 7.5, 15001),
                 [0.49999999999106826, 1.5000000000087752, 2.5000000000120934,
                  3.5000000000018225, 4.50000000000594]),
    "double_well": (PotentialSpec.tabulated(
        _DW_X, 0.75 * (_DW_X**2 - 1.25**2)**2 + 0.15 * _DW_X),
        Grid(-3.5, 3.5, 8001),
        [1.105799699166322, 1.5789479066726702, 3.271332009756187,
         4.942202167264713, 7.011569082221024]),
    "morse": (PotentialSpec.tabulated(
        _MORSE_X, 25.0 * (1.0 - np.exp(-0.75 * _MORSE_X))**2),
        Grid(-1.5, 9.0, 11001),
        [2.58133800265699, 7.32213945420546, 11.500442298330952,
         15.11624745698472, 18.16955485244234]),
    "harmonic_wide": (PotentialSpec.harmonic(1.0), Grid(-60.0, 60.0, 24001),
                      [0.4999999999974807, 1.4999999999824487, 2.49999999993784,
                       3.4999999998476685, 4.4999999996847535]),
}


def test_bound_search_sweeps_per_level(monkeypatch):
    # bisection on the count alone needs about 47 sweeps per level and
    # closing the count's bracket in on the end sample's sign change about
    # 16; seeded at the finite-difference estimates it needs at most 10
    shoot = schrodinger._shoot_nodes
    sweeps = []

    def counted(w, h):
        sweeps.append(1)
        return shoot(w, h)

    monkeypatch.setattr(schrodinger, "_shoot_nodes", counted)
    for spec, grid, bisected in _SEARCH_WELLS.values():
        energies = find_bound_energies(spec, grid, n_max=5)
        assert np.max(np.abs(np.array(energies) - bisected)) < 1e-11
    assert len(sweeps) / (5 * len(_SEARCH_WELLS)) <= 10.0


def _shift_up(estimates):
    # each estimate moved up by 0.3 of its spacing to the next level (the
    # last by its spacing to the one below), which puts both of its seed
    # sweeps between two levels
    energies = [e for e, _ in estimates]
    gaps = np.diff(energies).tolist()
    gaps.append(gaps[-1])
    return [(e + 0.3 * gap, half) for (e, half), gap in zip(estimates, gaps)]


_SEARCH_ERRORS = [
    (PotentialSpec.free(), Grid(-6.0, 6.0, 1001), 1,
     "potential not confining on grid: scan window [1e-12, 0] empty"),
    (PotentialSpec.harmonic(1.0), Grid(-4.0, 4.0, 8001), 12,
     "state 8 not bracketed in energy window [1e-12, 8]"),
]


@pytest.mark.parametrize("perturb", [_shift_up, lambda est: est[::-1],
                                     lambda est: []],
                         ids=["shifted", "reversed", "none"])
def test_level_estimates_only_narrow_a_bracket(monkeypatch, perturb):
    # the seed sweeps only join the history, so wrong, reordered or missing
    # estimates cost sweeps but never move a level or an error
    estimate = schrodinger._level_estimates
    calls = []

    def perturbed(*args):
        calls.append(1)
        return perturb(estimate(*args))

    monkeypatch.setattr(schrodinger, "_level_estimates", perturbed)
    for spec, grid, bisected in _SEARCH_WELLS.values():
        energies = find_bound_energies(spec, grid, n_max=5)
        assert np.max(np.abs(np.array(energies) - bisected)) < 1e-11
    assert len(calls) == len(_SEARCH_WELLS)
    for spec, grid, n_max, message in _SEARCH_ERRORS:
        with pytest.raises(SearchError) as err:
            find_bound_energies(spec, grid, n_max=n_max)
        assert str(err.value) == message


def test_free_potential_has_no_bound_states():
    grid = Grid(-6.0, 6.0, 1001)
    with pytest.raises(SearchError):
        find_bound_energies(PotentialSpec.free(), grid, n_max=1)


def test_bound_solution_node_count_matches_index():
    grid = Grid(-6.5, 6.5, 13001)
    spec = PotentialSpec.harmonic(1.0)
    energies = find_bound_energies(spec, grid, n_max=3)
    for n, e in enumerate(energies):
        sol = physical_bound_solution(spec, e, grid)
        assert count_nodes(sol.values) == n


def test_hbar_scaling_spectrum():
    # E_n = (n + 1/2) hbar omega
    units = UnitSystem(hbar=0.5, mass=1.0)
    grid = Grid(-5.0, 5.0, 10001)
    energies = find_bound_energies(PotentialSpec.harmonic(1.0), grid, units,
                                   n_max=2)
    assert energies[0] == pytest.approx(0.25, abs=1e-6)
    assert energies[1] == pytest.approx(0.75, abs=1e-6)


def test_analytic_free_pair_wronskian():
    grid = Grid(0.0, 3.0, 501)
    pair = analytic_free_pair(0.5, grid)
    assert pair.wronskian == pytest.approx(-1.0)
    assert np.max(np.abs(pair.wronskian_samples() - pair.wronskian)) < 1e-12


def test_bound_search_window_exhausted():
    # states above the confinement ceiling of the window are not bracketed
    grid = Grid(-4.0, 4.0, 8001)
    with pytest.raises(SearchError) as err:
        find_bound_energies(PotentialSpec.harmonic(1.0), grid, n_max=12)
    assert "window" in str(err.value) or "bracketed" in str(err.value)
