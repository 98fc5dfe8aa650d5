"""Property tests of the shared arctan-ratio machinery: the (mu, nu) <->
(a, b, c) conversion, the 1-D field and azimuthal QSHJE, and the continued
closed form; of the bound-state search against a node-count bisection; and
of J = N h under random Floyd triples.

Examples are derandomized so every run checks the same inputs."""

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qshje import (
    Grid,
    MicrostateParams,
    PotentialSpec,
    action_variable,
    analytic_free_pair,
    bound_state,
    build_field,
    find_bound_energies,
    free_particle_closed_form,
    make_pair,
    params_convert,
    physical_bound_solution,
    qshje_residual,
)
from qshje.schrodinger import _numerov_values, count_nodes
from qshje.spherical import AzimuthalAction, SphericalQuantumNumbers

PROPERTY = settings(deadline=None, max_examples=40, derandomize=True,
                    database=None)

FREE_PAIR = analytic_free_pair(0.5, Grid(-3.0, 3.0, 2001))
X = FREE_PAIR.grid.points()[100:-100:50]

HARMONIC = PotentialSpec.harmonic(1.0)
HARMONIC_PAIR = make_pair(HARMONIC, 1.5, Grid(-1.5, 1.5, 6001))


@PROPERTY
@given(mu=st.floats(-2.0, 2.0), nu=st.floats(-2.0, 2.0))
def test_params_convert_round_trip_preserves_momentum(mu, nu):
    assume(mu * nu < 0.98)
    params = MicrostateParams.from_mu_nu(mu, nu)
    floyd = params_convert(params)
    back = params_convert(floyd)
    p = build_field(FREE_PAIR, params).p_at(X)
    for other in (floyd, back):
        q = build_field(FREE_PAIR, other).p_at(X)
        assert np.max(np.abs(q - p) / np.abs(p)) < 1e-9


_MU_NU = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
    lambda et: abs(et[0] * et[1] - 1.0) > 0.05).map(
    lambda et: MicrostateParams.from_mu_nu(*et))
_FLOYD = st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0),
                   st.floats(-0.95, 0.95)).map(
    lambda abr: MicrostateParams.from_floyd(
        abr[0], abr[1], 2.0 * abr[2] * math.sqrt(abr[0] * abr[1])))


@PROPERTY
@given(params=_MU_NU, offsets=st.lists(st.floats(0.0, 1.0), min_size=1,
                                        max_size=50))
def test_field_qshje_residual_vanishes_between_nodes(params, offsets):
    # a harmonic pair, so the bracket's P'' takes g'' = k(x) g at the exact V(x)
    field = build_field(HARMONIC_PAIR, params)
    grid = HARMONIC_PAIR.grid
    cells = np.arange(len(offsets)) * ((grid.n_points - 2) // len(offsets))
    x = grid.x_min + grid.spacing * (cells + np.array(offsets))
    scale = max(float(np.max(field.p**2)), 1.0)
    assert np.max(np.abs(qshje_residual(field, HARMONIC, x))) / scale < 1e-4


@PROPERTY
@given(ell=st.integers(0, 4), data=st.data(),
       params=st.one_of(_MU_NU, _FLOYD))
def test_azimuthal_qshje_residual_vanishes(ell, data, params):
    m_ell = data.draw(st.integers(-ell, ell))
    az = AzimuthalAction(SphericalQuantumNumbers(ell, m_ell), params)
    phis = np.linspace(0.05, 2.0 * math.pi - 0.05, 257)
    p = az.momentum(phis)
    scale = max(float(np.max(p**2)), 1.0)
    assert np.max(np.abs(az.qshje_residual(phis))) / scale < 1e-9


@PROPERTY
@given(energy=st.floats(0.05, 5.0), a_const=st.floats(0.05, 10.0),
       sign=st.sampled_from([-1.0, 1.0]), b_const=st.floats(-10.0, 10.0))
def test_closed_form_continuous_across_poles(energy, a_const, sign, b_const):
    # tau = 2 E t at the first 50 exact tan poles and 1e-9 to either side
    a_const *= sign
    taus = (np.arange(50) + 0.5) * math.pi
    x = free_particle_closed_form(energy, a_const, b_const, 0.0, 0.0,
                                  taus / (2.0 * energy))
    for side in (taus - 1e-9, taus + 1e-9):
        xs = free_particle_closed_form(energy, a_const, b_const, 0.0, 0.0,
                                       side / (2.0 * energy))
        assert np.max(np.abs(xs - x)) < 1e-3


# ----------------------------------------------------------- bound search

_QUARTIC_X = np.linspace(-3.2, 3.2, 401)
_WELLS = st.one_of(
    st.floats(0.5, 2.0).map(
        lambda omega: (PotentialSpec.harmonic(omega), 6.5 / math.sqrt(omega))),
    st.floats(0.5, 2.0).map(
        lambda c4: (PotentialSpec.tabulated(_QUARTIC_X, c4 * _QUARTIC_X**4), 3.2)))


def _bisect_on_count(count, n, lo, hi, e_tol=1e-12):
    """Oracle: the n -> n + 1 step of count(E), by bisection alone."""
    while hi - lo > max(e_tol, 1e-14 * abs(hi)):
        mid = 0.5 * (lo + hi)
        if count(mid) > n:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@PROPERTY
@given(well=_WELLS, n_points=st.integers(1001, 6001))
def test_bound_search_brackets_each_level(well, n_points):
    spec, half = well
    grid = Grid(-half, half, n_points)
    v = spec.value(grid.points())

    def count(energy):
        # nodes of the left-launched solution; these wells never overflow
        y = _numerov_values(2.0 * (v - energy), grid.spacing, 0.0, grid.spacing)
        return count_nodes(y[1:])

    for n, energy in enumerate(find_bound_energies(spec, grid, n_max=3)):
        delta = 1e-9 * max(1.0, abs(energy))
        assert count(energy - delta) <= n < count(energy + delta)
        oracle = _bisect_on_count(count, n, float(np.min(v)), min(v[0], v[-1]))
        assert abs(energy - oracle) < 1e-11


@pytest.mark.parametrize("depth", [4.0, 10.0])
def test_bound_search_resolves_doublets(depth):
    # symmetric double well a (x^2 - 2.25)^2: a = 4 splits levels 0 and 1
    # by 2.3e-4, a = 10 by 2.9e-7, below the 7.3e-7 error of the
    # Richardson estimate, so one estimate's seed sweeps bracket both levels
    xs = np.linspace(-3.5, 3.5, 501)
    spec = PotentialSpec.tabulated(xs, depth * (xs**2 - 2.25)**2)
    grid = Grid(-3.5, 3.5, 8001)
    v = spec.value(grid.points())

    def count(energy):
        y = _numerov_values(2.0 * (v - energy), grid.spacing, 0.0, grid.spacing)
        return count_nodes(y[1:])

    for n, energy in enumerate(find_bound_energies(spec, grid, n_max=4)):
        oracle = _bisect_on_count(count, n, float(np.min(v)), min(v[0], v[-1]))
        assert abs(energy - oracle) < 1e-11
        assert count_nodes(physical_bound_solution(spec, energy, grid).values) == n


# ------------------------------------------------------------ J = N h

@cache
def _harmonic_records():
    """Levels 0-2 of harmonic omega = 1 on criterion 6's grid."""
    grid = Grid(-7.5, 7.5, 15001)
    energies = find_bound_energies(HARMONIC, grid, n_max=3)
    return [bound_state(HARMONIC, grid, n, energy=e) for n, e in enumerate(energies)]


@PROPERTY
@given(b=st.floats(0.3, 3.0), c=st.floats(-2.0, 2.0))
def test_action_variable_is_n_h_under_random_floyd_triples(b, c):
    # J counts the partner's nodes whatever the microstate; the worst
    # |J/h - (n + 1)| measured over these examples is 0, so the bound
    # leaves a few ulps for other numpy and scipy builds
    params = MicrostateParams.from_floyd(c * c / (4.0 * b) + 1.0, b, c)
    for n, record in enumerate(_harmonic_records()):
        j_over_h = action_variable(record.pair, params) / (2.0 * math.pi)
        assert abs(j_over_h - (n + 1)) < 1e-14
