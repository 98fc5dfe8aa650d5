"""Bound states: partner construction, action-variable quantization,
microstate families, unbound parameter recovery."""

import math

import numpy as np
import pytest

from qshje import (
    ConstructionError,
    Grid,
    GridNarrowError,
    MicrostateParams,
    NATURAL_UNITS,
    ParameterError,
    PotentialSpec,
    build_field,
    reconstruct_wavefunction,
)
from qshje.schrodinger import Solution
from qshje.quantization import (
    action_variable,
    bound_state,
    enumerate_microstates,
    microstate_distinctness,
    params_from_wave_coefficients,
    partner_solution,
    quantization_report,
    wave_coefficients_from_params,
)

SPEC = PotentialSpec.harmonic(1.0)
H_PLANCK = 2.0 * math.pi


@pytest.fixture(scope="module")
def wide_grid():
    return Grid(-7.5, 7.5, 15001)


@pytest.fixture(scope="module")
def records(wide_grid):
    from qshje import find_bound_energies
    energies = find_bound_energies(SPEC, wide_grid, n_max=3)
    return [bound_state(SPEC, wide_grid, n, energy=e)
            for n, e in enumerate(energies)]


# ---------------------------------------------------------------- partner

def test_partner_of_sine_window():
    # int dx/sin^2 = -cot x, so theta = sin * (-cot + C) = -cos + C sin
    grid = Grid(0.1, math.pi - 0.1, 5001)
    x = grid.points()
    phys = Solution(grid, 0.5, NATURAL_UNITS, np.sin(x), np.cos(x))
    theta = partner_solution(phys, wronskian=1.0)
    w = phys.values * theta.derivs - phys.derivs * theta.values
    assert np.max(np.abs(w - 1.0)) < 1e-10
    resid = theta.values + np.cos(x)
    c_mix = resid[2500] / np.sin(x[2500])
    assert np.max(np.abs(resid - c_mix * np.sin(x))) < 1e-8


def test_partner_ground_state(records):
    rec = records[0]
    assert rec.node_count_phys == 0
    assert rec.node_count_partner == 1
    w = rec.physical.values * rec.partner.derivs \
        - rec.physical.derivs * rec.partner.values
    w0 = np.median(w)
    assert np.max(np.abs(w - w0)) / abs(w0) < 1e-6


def test_partner_node_parity(records):
    for n, rec in enumerate(records):
        assert rec.node_count_phys == n
        assert rec.node_count_partner == n + 1


def test_partner_interior_wronskian_across_nodes(records):
    rec = records[2]   # two interior nodes of phi
    w = rec.physical.values * rec.partner.derivs \
        - rec.physical.derivs * rec.partner.values
    w0 = np.median(w)
    assert np.max(np.abs(w - w0)) / abs(w0) < 1e-6


def test_partner_node_near_boundary_rejected():
    grid = Grid(0.0, math.pi, 3001)
    x = grid.points()
    # sin(x + small shift) has a node a few samples inside the boundary
    shift = 4.0 * grid.spacing
    phys = Solution(grid, 0.5, NATURAL_UNITS, np.sin(x + shift),
                    np.cos(x + shift))
    with pytest.raises(ConstructionError):
        partner_solution(phys)


# -------------------------------------------------------- action variable

def test_action_variable_quantized(records):
    params = MicrostateParams.from_floyd(1.0, 1.0, 0.0)
    for n, rec in enumerate(records):
        j = action_variable(rec.pair, params)
        assert abs(j / H_PLANCK - (n + 1)) < 1e-3
        assert round(j / H_PLANCK) == rec.node_count_partner


def test_action_variable_contrasts_wkb(records):
    # J = N h, not the WKB (N + 1/2) h
    params = MicrostateParams.from_floyd(1.0, 1.0, 0.0)
    rec = records[0]
    j_over_h = action_variable(rec.pair, params) / H_PLANCK
    assert abs(j_over_h - round(j_over_h)) < 1e-3
    n_wkb = rec.node_count_phys + 0.5
    assert abs(j_over_h - n_wkb) > 0.4


def test_action_variable_microstate_invariance(records):
    rng = np.random.default_rng(77)
    js = []
    for _ in range(20):
        b = rng.uniform(0.3, 3.0)
        c = rng.uniform(-2.0, 2.0)
        params = MicrostateParams.from_floyd(c * c / (4 * b) + 1.0, b, c)
        js.append(action_variable(records[1].pair, params) / H_PLANCK)
    assert max(js) - min(js) < 1e-3
    assert np.mean(js) == pytest.approx(2.0, abs=1e-3)


def test_action_variable_quantized_on_peaked_momentum():
    # first excited level of a deep asymmetric double well: P*h reaches
    # ~0.9 rad per grid step, so a quadrature of P would miss N h by a
    # triple-dependent few 1e-3; J must hold for every triple regardless
    from qshje import find_bound_energies
    xs = np.linspace(-3.5, 3.5, 501)
    spec = PotentialSpec.tabulated(xs, 0.91 * (xs**2 - 2.25)**2 + 0.25 * xs)
    grid = Grid(-3.5, 3.5, 8001)
    energy = find_bound_energies(spec, grid, n_max=2)[1]
    rec = bound_state(spec, grid, 1, energy=energy)
    for a, b, c in [(1.0, 3.0, 0.0), (1.121, 2.782, 1.160), (1.0, 1.0, 0.0)]:
        j = action_variable(rec.pair, MicrostateParams.from_floyd(a, b, c))
        assert abs(j / H_PLANCK - 2.0) < 1e-3


def test_action_variable_narrow_grid_rejected():
    grid = Grid(-2.5, 2.5, 5001)
    rec = bound_state(SPEC, grid, 0, energy=0.5)
    with pytest.raises(GridNarrowError):
        action_variable(rec.pair, MicrostateParams.from_floyd(1.0, 1.0, 0.0))


def test_quantization_report_json(records):
    import json
    payload = quantization_report(records[0], MicrostateParams.from_floyd(
        1.0, 1.0, 0.0), 0)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["node_partner"] == 1
    assert abs(payload["J_over_h"] - 1.0) < 1e-3
    assert payload["params"]["form"] == "floyd"


# ------------------------------------------------------------ microstates

def test_enumerated_microstates_share_wavefunction(records):
    rec = records[0]
    sets = enumerate_microstates(rec, 2)
    fields = [build_field(rec.pair, p) for p in sets]
    p_gap, psi_gap = microstate_distinctness(fields[0], fields[1])
    assert psi_gap < 1e-6
    assert p_gap > 1e-3 * np.max(np.abs(fields[0].p))


def test_enumerated_sets_are_valid_and_distinct(records):
    sets = enumerate_microstates(records[0], 6)
    assert len({(p.a, p.b, p.c) for p in sets}) == 6
    for p in sets:
        assert p.a > 0 and p.b > 0 and p.a * p.b - p.c**2 / 4 > 0
        assert p.a - p.c**2 / (4 * p.b) == pytest.approx(1.0, abs=1e-12)


def test_distinctness_identical_params(records):
    f1 = build_field(records[0].pair, MicrostateParams.from_floyd(1, 1, 0))
    f2 = build_field(records[0].pair, MicrostateParams.from_floyd(1, 1, 0))
    p_gap, psi_gap = microstate_distinctness(f1, f2)
    assert p_gap == 0.0 and psi_gap < 1e-14


def test_unbound_distinct_coefficients_differ():
    # unlike bound microstates, distinct unbound (alpha, beta) change psi
    from qshje import analytic_free_pair
    grid = Grid(0.0, 2.0 * math.pi, 2001)
    pair = analytic_free_pair(0.5, grid)
    field = build_field(pair, MicrostateParams.from_mu_nu(0.0, 0.0))
    x = grid.points()
    psi1 = reconstruct_wavefunction(field, 1.0, 0.0, x)
    psi2 = reconstruct_wavefunction(field, 0.8, 0.3, x)

    def normalized(psi):
        psi = psi / math.sqrt(float(np.sum(np.abs(psi)**2)))
        pivot = psi[int(np.argmax(np.abs(psi)))]
        return psi * (np.conj(pivot) / abs(pivot))

    gap = np.max(np.abs(normalized(psi1) - normalized(psi2)))
    assert gap > 1e-3


# ------------------------------------------------- unbound recovery

def test_unbound_recovery_roundtrip():
    for triple in ((2.0, 1.0, 0.5), (1.0, 3.0, -0.8), (0.7, 0.9, 0.3)):
        params = MicrostateParams.from_floyd(*triple)
        alpha, beta = wave_coefficients_from_params(params)
        back = params_from_wave_coefficients(alpha, beta)
        assert (back.a, back.b, back.c) == pytest.approx(triple, abs=1e-12)


def test_unbound_recovery_is_injective():
    a1 = wave_coefficients_from_params(MicrostateParams.from_floyd(2, 1, 0.5))
    a2 = wave_coefficients_from_params(MicrostateParams.from_floyd(1, 2, 0.5))
    assert a1 != a2


def test_unbound_recovery_phase_gauge():
    params = MicrostateParams.from_floyd(2.0, 1.0, 0.5)
    alpha, beta = wave_coefficients_from_params(params)
    phase = complex(math.cos(0.7), math.sin(0.7))
    back = params_from_wave_coefficients(alpha * phase, beta * phase)
    assert (back.a, back.b, back.c) == pytest.approx(
        (params.a, params.b, params.c), abs=1e-12)


def test_unbound_recovery_guards():
    with pytest.raises(ParameterError):
        params_from_wave_coefficients(1.0, 0.0)
    with pytest.raises(ParameterError):
        # Re(alpha) <= 0 after phase fixing: unreachable from a valid triple
        params_from_wave_coefficients(-1.0, 1j)


def test_ground_state_momentum_profile(records):
    # P = hbar W/(phi^2 + theta^2) > 0 with its maximum at the well center
    field = build_field(records[0].pair, MicrostateParams.from_floyd(1, 1, 0))
    assert np.all(field.p > 0)
    x_peak = field.x[int(np.argmax(field.p))]
    assert abs(x_peak) < 0.01
