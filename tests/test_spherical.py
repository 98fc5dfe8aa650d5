"""Spherical decomposition: factor transforms, the three reduced actions,
and the total 3-D Hamilton-Jacobi residual with its consistency detector."""

import math

import numpy as np
import pytest

from qshje import (
    DomainError,
    Grid,
    MicrostateParams,
    ParameterError,
    PotentialSpec,
    build_field,
    make_pair,
    qshje_residual,
)
from qshje.quantization import partner_solution
from qshje.schrodinger import Solution, NATURAL_UNITS, pair_from_solutions
from qshje.spherical import (
    AzimuthalAction,
    SphericalQuantumNumbers,
    build_triple,
    component_report,
    make_polar_pair,
    make_radial_pair,
    polar_equation_residual,
    polar_transform,
    radial_transform,
    total_action,
    total_qshje_residual,
)

E = 0.5
CLASSICAL = MicrostateParams.from_floyd(1.0, 1.0, 0.0)


# -------------------------------------------------------------- numbers

def test_quantum_number_validation():
    qn = SphericalQuantumNumbers(2, -1)
    assert qn.lam == 6.0
    with pytest.raises(ParameterError):
        SphericalQuantumNumbers(-1, 0)
    with pytest.raises(ParameterError):
        SphericalQuantumNumbers(1, 2)
    with pytest.raises(ParameterError):
        SphericalQuantumNumbers(1, 0.5)   # m_ell^2 = 1/4 is not an integer


# ------------------------------------------------------------ transforms

def test_radial_transform_and_effective_potential():
    r = np.linspace(0.5, 8.0, 1001)
    chi = radial_transform(np.sin(r) / r, r)
    assert np.max(np.abs(chi - np.sin(r))) < 1e-14
    qn1 = SphericalQuantumNumbers(1, 0)
    eff = PotentialSpec.radial_effective(PotentialSpec.free(), qn1.lam)
    assert eff.value(1.0) == pytest.approx(1.0)
    qn0 = SphericalQuantumNumbers(0, 0)
    eff0 = PotentialSpec.radial_effective(PotentialSpec.free(), qn0.lam)
    assert eff0.value(1.7) == 0.0


def test_radial_transform_domain_guard():
    with pytest.raises(DomainError):
        radial_transform([1.0, 1.0], np.array([-0.5, 0.5]))


def test_free_radial_solution_satisfies_effective_equation():
    # chi = sin(r) solves the l=0 free radial equation at E = 1/2
    r = np.linspace(0.5, 8.0, 7501)
    h = r[1] - r[0]
    chi = np.sin(r)
    d2 = (chi[2:] - 2 * chi[1:-1] + chi[:-2]) / h**2
    res = -0.5 * d2 - E * chi[1:-1]
    assert np.max(np.abs(res)) < 1e-6


def test_polar_transform_values_and_guard():
    th = np.linspace(0.1, math.pi - 0.1, 101)
    ct = polar_transform(np.cos(th), th)
    assert np.max(np.abs(ct - np.sqrt(np.sin(th)) * np.cos(th))) < 1e-14
    with pytest.raises(DomainError):
        polar_transform(np.ones(3), np.array([0.0, 0.5, 1.0]))


def test_polar_equation_residual_legendre_p1():
    th = np.linspace(0.1, math.pi - 0.1, 20001)
    res = polar_equation_residual(np.cos(th), th, SphericalQuantumNumbers(1, 0))
    assert np.max(np.abs(res)) < 1e-6


def test_polar_equation_residual_l0():
    th = np.linspace(0.1, math.pi - 0.1, 20001)
    res = polar_equation_residual(np.ones_like(th), th,
                                  SphericalQuantumNumbers(0, 0))
    assert np.max(np.abs(res)) < 1e-6


# --------------------------------------------------------- radial action

def test_radial_action_classical_free():
    grid = Grid(0.5, 8.0, 7501)
    qn = SphericalQuantumNumbers(0, 0)
    k = math.sqrt(2.0 * E)
    pair = make_radial_pair(PotentialSpec.free(), qn, E, grid,
                            target_wronskian=-1.0)
    field = build_field(pair, MicrostateParams.from_floyd(
        k * k, 1.0, 0.0))
    r = grid.points()
    assert np.max(np.abs(field.s0 - field.s0[0] - k * (r - r[0]))) < 1e-8


def test_radial_action_coulomb_like_residual():
    # hydrogen-like tabulated potential, l=1 ground radial state E = -1/8
    r_tab = np.linspace(0.15, 30.0, 4000)
    inner = PotentialSpec.tabulated(r_tab, -1.0 / r_tab)
    qn = SphericalQuantumNumbers(1, 1)
    grid = Grid(0.2, 25.0, 24801)
    energy = -0.125
    pair = make_radial_pair(inner, qn, energy, grid)
    field = build_field(pair, MicrostateParams.from_mu_nu(0.2, -0.3))
    eff = PotentialSpec.radial_effective(inner, qn.lam)
    rs = np.linspace(0.5, 20.0, 200)
    res = qshje_residual(field, eff, rs)
    assert np.max(np.abs(res)) / abs(energy) < 1e-5


def test_radial_partner_route_matches_arctan_form():
    # the Wronskian-integral partner reproduces the direct arctan route
    grid = Grid(0.5, 3.0, 5001)
    r = grid.points()
    chi1 = Solution(grid, E, NATURAL_UNITS, np.sin(r), np.cos(r))
    chi2 = partner_solution(chi1, wronskian=1.0)
    spec = PotentialSpec.radial_effective(PotentialSpec.free(), 0.0)
    pair = pair_from_solutions(chi2, chi1, spec)   # sol1 = partner, sol2 = chi1
    b, c = 1.0, 0.5
    a = c**2 / (4 * b) + 1.0
    s = math.sqrt(a * b - c**2 / 4)
    field = build_field(pair, MicrostateParams.from_floyd(a, b, c))
    # direct route: Z = hbar arctan[(K b I(r) + c/2)/s], I = int dr/chi1^2,
    # with K the constructed Wronskian phi theta' - phi' theta = +1, which
    # in the pair convention W(sol1, sol2) = -K
    i_vals = chi2.values / chi1.values   # K * I by construction
    direct = np.arctan((b * i_vals + 0.5 * c) / s)
    direct = np.unwrap(direct * 2.0) / 2.0   # no nodes on the window
    gap = (field.s0 - field.s0[0]) - (direct - direct[0])
    assert np.max(np.abs(gap)) < 1e-6


def test_radial_grid_must_be_positive():
    with pytest.raises((DomainError, ParameterError)):
        make_radial_pair(PotentialSpec.free(), SphericalQuantumNumbers(0, 0),
                         E, Grid(-1.0, 5.0, 601))


# ---------------------------------------------------------- polar action

def test_polar_action_monotone_and_residual():
    qn = SphericalQuantumNumbers(1, 0)
    grid = Grid(0.2, math.pi - 0.2, 5001)
    pair = make_polar_pair(qn, grid)
    field = build_field(pair, MicrostateParams.from_mu_nu(0.1, -0.2))
    assert np.all(np.diff(field.s0) > 0) or np.all(np.diff(field.s0) < 0)
    # transformed-equation residual: 2m * 1-D QSHJE residual at E_theta
    spec = PotentialSpec.polar_angle(qn.m_ell)
    ths = np.linspace(0.3, math.pi - 0.3, 200)
    res = 2.0 * qshje_residual(field, spec, ths)
    assert np.max(np.abs(res)) < 1e-5


def test_polar_pair_window_guard():
    with pytest.raises(DomainError):
        make_polar_pair(SphericalQuantumNumbers(1, 0),
                        Grid(0.0, math.pi - 0.2, 601))


# ------------------------------------------------------- azimuthal action

def test_azimuthal_classical_linear():
    qn = SphericalQuantumNumbers(2, 2)
    phis = np.linspace(0.0, 2 * math.pi, 2001)
    m_vals = AzimuthalAction(qn, CLASSICAL).values(phis)
    assert np.max(np.abs(m_vals - m_vals[0] - 2.0 * phis)) < 1e-8


def test_azimuthal_floyd_continuous_at_tan_poles():
    # at the first 200 exact tan poles of m phi no value jumps by a branch
    az = AzimuthalAction(SphericalQuantumNumbers(3, 3),
                         MicrostateParams.from_floyd(1.3, 2.0, 0.5))
    phis = (np.arange(200) + 0.5) * math.pi / 3.0
    m_vals = az.values(phis)
    for side in (phis - 1e-7, phis + 1e-7):
        assert np.max(np.abs(m_vals - az.values(side))) < 1e-4


def test_azimuthal_residual_random_eps_tau():
    qn = SphericalQuantumNumbers(2, 2)
    rng = np.random.default_rng(11)
    phis = np.linspace(0.1, 6.1, 301)
    for _ in range(6):
        eps, tau = rng.uniform(-2, 2, 2)
        if abs(eps * tau - 1) < 0.05:
            continue
        az = AzimuthalAction(qn, MicrostateParams.from_mu_nu(eps, tau))
        assert np.max(np.abs(az.qshje_residual(phis))) < 1e-7


def test_azimuthal_m0_affine_basis():
    qn = SphericalQuantumNumbers(0, 0)
    az = AzimuthalAction(qn, MicrostateParams.from_mu_nu(0.5, -2.0))
    phis = np.linspace(0.1, 6.0, 301)
    vals = az.values(phis)
    expected = np.arctan((1.0 + 0.5 * phis) / (-2.0 + phis))
    # same derivative field (values differ by branch constants)
    dv = np.diff(vals)
    de = np.diff(np.unwrap(2.0 * expected) / 2.0)
    assert np.max(np.abs(dv - de)) < 1e-10
    assert np.max(np.abs(az.qshje_residual(phis))) < 1e-7


@pytest.mark.parametrize("m_ell", [0, 1, 2])
@pytest.mark.parametrize("params", [MicrostateParams.from_mu_nu(0.3, -0.2),
                                    MicrostateParams.from_floyd(1.3, 2.0, 0.5)],
                         ids=["mu_nu", "floyd"])
def test_azimuthal_scalar_equals_end_of_fine_array(m_ell, params):
    # M(5.0) at l = m = 2, (mu, nu) = (0.3, -0.2) once read -1.93 as a
    # scalar (principal value) but -11.35 at the end of this array
    az = AzimuthalAction(SphericalQuantumNumbers(2, m_ell), params)
    fine = az.values(np.linspace(0.05, 5.0, 20001))
    assert az.values(5.0) == pytest.approx(fine[-1], rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("m_ell", [0, 1, 2])
@pytest.mark.parametrize("params", [MicrostateParams.from_mu_nu(0.3, -0.2),
                                    MicrostateParams.from_floyd(2.0, 1.5, 0.7),
                                    MicrostateParams.from_floyd(1.0, 1.0, 0.0)],
                         ids=["mu_nu", "floyd", "floyd_classical"])
def test_azimuthal_momentum_is_derivative_of_values(m_ell, params):
    # in the (a, b, c) form the values are the tan form, so the momentum
    # must be built on (sin m phi, cos m phi), not on the cot-form order
    az = AzimuthalAction(SphericalQuantumNumbers(2, m_ell), params)
    phis = np.linspace(0.05, 2.0 * math.pi - 0.05, 2001)
    eps = 1e-6
    quotient = (az.values(phis + eps) - az.values(phis - eps)) / (2.0 * eps)
    assert np.max(np.abs(quotient - az.momentum(phis))) < 1e-6


def test_azimuthal_dependence_guard():
    with pytest.raises(ParameterError):
        AzimuthalAction(SphericalQuantumNumbers(1, 1),
                        MicrostateParams.from_mu_nu(1.0, 1.0))


# ---------------------------------------------------------- total action

@pytest.fixture(scope="module")
def free_triple():
    qn = SphericalQuantumNumbers(0, 0)
    r_grid = Grid(0.5, 8.0, 7501)
    th_grid = Grid(0.35, math.pi - 0.35, 4001)
    return build_triple(PotentialSpec.free(), qn, E, r_grid, th_grid,
                        CLASSICAL, CLASSICAL, CLASSICAL)


def test_total_action_is_component_sum(free_triple):
    r, th, ph = 2.0, 1.0, 0.7
    total = total_action(free_triple, r, th, ph)
    parts = (free_triple.radial.s0_at(r) + free_triple.polar.s0_at(th)
             + free_triple.azimuthal.values(ph))
    assert total == pytest.approx(parts, rel=1e-14)


def test_total_action_gradient_components(free_triple):
    # spherical gradient components match finite differences of the actions
    r, th, ph = 2.5, 1.2, 0.9
    eps = 1e-6
    dr = (free_triple.radial.s0_at(r + eps)
          - free_triple.radial.s0_at(r - eps)) / (2 * eps)
    assert abs(dr - free_triple.radial.p_at(r)) < 1e-6
    dth = (free_triple.polar.s0_at(th + eps)
           - free_triple.polar.s0_at(th - eps)) / (2 * eps)
    assert abs(dth - free_triple.polar.p_at(th)) < 1e-6
    dph = (free_triple.azimuthal.values(np.array([ph - eps, ph + eps])))
    num = (dph[1] - dph[0]) / (2 * eps)
    assert abs(num - free_triple.azimuthal.momentum(ph)) < 1e-6


def test_total_qshje_residual_free(free_triple):
    rr = np.linspace(1.0, 7.0, 10)
    tt = np.linspace(0.6, math.pi - 0.6, 10)
    pp = np.linspace(0.3, 5.9, 10)
    mesh = np.meshgrid(rr, tt, pp, indexing="ij")
    res = total_qshje_residual(free_triple, *mesh)
    assert np.max(np.abs(res)) / E < 1e-5


def test_lambda_mismatch_detector():
    qn = SphericalQuantumNumbers(0, 0)
    r_grid = Grid(0.5, 8.0, 3001)
    th_grid = Grid(0.35, math.pi - 0.35, 2001)
    bad = build_triple(PotentialSpec.free(), qn, E, r_grid, th_grid,
                       CLASSICAL, CLASSICAL, CLASSICAL,
                       polar_lam_override=2.0)
    res = total_qshje_residual(bad, 2.0, 1.2, 0.7)
    # injected mismatch appears as ~ hbar^2 dlambda/(2 m r^2)
    assert abs(res) > 0.1


def test_component_report_json(free_triple):
    import json
    payload = component_report(free_triple)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["radial_residual_max"] < 1e-5
    assert payload["polar_residual_max"] < 1e-4
    assert payload["azimuthal_residual_max"] < 1e-10


def test_polar_solution_combination_identity():
    # the quadratic combination of two true polar solutions vanishes:
    # each bracket is the polar equation applied to a solution
    th = np.linspace(0.3, math.pi - 0.3, 20001)
    h = th[1] - th[0]
    t1 = np.cos(th)
    # second Legendre function Q1(cos) = (cos/2) ln((1+cos)/(1-cos)) - 1
    c = np.cos(th)
    t2 = 0.5 * c * np.log((1.0 + c) / (1.0 - c)) - 1.0
    lam, m_ell = 2.0, 0.0
    a, b, cc = 2.0, 1.0, 0.5

    def bracket(t):
        d1 = (t[2:] - t[:-2]) / (2 * h)
        d2 = (t[2:] - 2 * t[1:-1] + t[:-2]) / h**2
        mid = th[1:-1]
        return d2 + (np.cos(mid) / np.sin(mid)) * d1 + \
            (lam - m_ell**2 / np.sin(mid)**2) * t[1:-1]

    combo = (b * t2[1:-1] + 0.5 * cc * t1[1:-1]) * bracket(t2) \
        + (a * t1[1:-1] + 0.5 * cc * t2[1:-1]) * bracket(t1)
    assert np.max(np.abs(combo)) < 1e-6


def test_radial_l0_reduces_to_one_dimensional_free():
    # with lam = 0 and V = 0 the radial machinery is the 1-D free case
    grid = Grid(0.5, 8.0, 4001)
    qn = SphericalQuantumNumbers(0, 0)
    params = MicrostateParams.from_floyd(2.0, 1.0, 0.5)
    radial_pair = make_radial_pair(PotentialSpec.free(), qn, E, grid)
    one_d_pair = make_pair(PotentialSpec.free(), E, grid)
    f_radial = build_field(radial_pair, params)
    f_one_d = build_field(one_d_pair, params)
    assert np.max(np.abs(f_radial.p - f_one_d.p)) < 1e-12
    assert np.max(np.abs(np.diff(f_radial.s0) - np.diff(f_one_d.s0))) < 1e-12
