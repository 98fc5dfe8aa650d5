"""Cross-checks away from natural units, plus independent special-function
oracles for the integrator."""

import math

import numpy as np
import pytest
from scipy.special import airy

from qshje import (
    Grid,
    MicrostateParams,
    PotentialSpec,
    UnitSystem,
    bound_state,
    action_variable,
    build_field,
    find_bound_energies,
    integrate_schrodinger,
    make_pair,
    qshje_residual,
)
from qshje.dynamics import integrate_trajectory, time_of_flight, velocity


UNITS = UnitSystem(hbar=0.7, mass=2.0)


def test_harmonic_spectrum_off_natural_units():
    # E_n = (n + 1/2) hbar omega for any mass
    omega = 3.0
    grid = Grid(-3.0, 3.0, 9001)
    energies = find_bound_energies(PotentialSpec.harmonic(omega), grid,
                                   UNITS, n_max=3)
    expected = [(n + 0.5) * UNITS.hbar * omega for n in range(3)]
    assert np.max(np.abs(np.array(energies) - expected)) < 1e-6


def test_qshje_residual_off_natural_units():
    # oscillator width sqrt(hbar/(m omega)) ~ 0.34 for these units: the
    # window stays within a few widths so forbidden-region growth is mild
    spec = PotentialSpec.harmonic(3.0)
    e0 = 0.5 * UNITS.hbar * 3.0
    grid = Grid(-0.9, 0.9, 7201)
    pair = make_pair(spec, e0, grid, UNITS)
    field = build_field(pair, MicrostateParams.from_mu_nu(0.4, -0.2))
    xs = np.linspace(-0.87, 0.87, 300)
    assert np.max(np.abs(qshje_residual(field, spec, xs))) / e0 < 1e-6


def test_action_variable_off_natural_units():
    # J = N h with h = 2 pi hbar, any (hbar, m, omega)
    omega = 3.0
    # ground state decays on sqrt(hbar/(m omega)) ~ 0.34: +-2.4 is ~7 widths
    grid = Grid(-2.4, 2.4, 9601)
    spec = PotentialSpec.harmonic(omega)
    rec = bound_state(spec, grid, 1, UNITS)
    j = action_variable(rec.pair, MicrostateParams.from_floyd(1.0, 1.0, 0.0))
    assert j / (2.0 * math.pi * UNITS.hbar) == pytest.approx(2.0, abs=1e-3)


def test_free_dynamics_off_natural_units():
    energy = 1.3
    grid = Grid(-2.0, 12.0, 14001)
    pair = make_pair(PotentialSpec.free(), energy, grid, UNITS,
                     target_wronskian=-1.0)
    k_sq = 2.0 * UNITS.mass * energy / UNITS.hbar**2
    field = build_field(pair, MicrostateParams.from_floyd(k_sq, 1.0, 0.0))
    spec = PotentialSpec.free()
    v_classical = math.sqrt(2.0 * energy / UNITS.mass)
    assert velocity(field, spec, 1.0) == pytest.approx(v_classical, rel=1e-9)
    traj = integrate_trajectory(field, spec, 0.0, (0.0, 6.0), tol=1e-11)
    assert np.max(np.abs(traj.x - v_classical * traj.t)) < 1e-8
    tof = time_of_flight(field, spec, 0.5, 4.5)
    assert tof == pytest.approx(4.0 / v_classical, rel=1e-9)


def test_linear_potential_matches_airy():
    # psi'' = (2m g/hbar^2)(x - E/g) psi: Airy functions of c (x - E/g)
    g = 1.7
    energy = 0.9
    units = UnitSystem(hbar=0.8, mass=1.3)
    c = (2.0 * units.mass * g / units.hbar**2) ** (1.0 / 3.0)
    grid = Grid(-3.0, 2.5, 11001)
    x = grid.points()

    def exact(xx):
        ai, aip, _, _ = airy(c * (xx - energy / g))
        return ai, c * aip

    y0, dy0 = exact(grid.x_min)
    sol = integrate_schrodinger(PotentialSpec.linear(g), energy, grid,
                                (y0, dy0), units)
    ai_ref, aip_ref = exact(x)
    scale = np.max(np.abs(ai_ref))
    assert np.max(np.abs(sol.values - ai_ref)) / scale < 1e-9
    assert np.max(np.abs(sol.derivs - aip_ref)) / np.max(np.abs(aip_ref)) < 1e-9


def test_tabulated_bound_states():
    # harmonic sampled into a table: the spline path through the shooting
    xs = np.linspace(-6.5, 6.5, 2600)
    tab = PotentialSpec.tabulated(xs, 0.5 * xs**2)
    grid = Grid(-6.0, 6.0, 12001)
    energies = find_bound_energies(tab, grid, n_max=2)
    assert energies[0] == pytest.approx(0.5, abs=1e-5)
    assert energies[1] == pytest.approx(1.5, abs=1e-5)


def test_tabulated_table_covering_exactly_the_grid():
    # the derivative ghost point must not require samples past the table
    grid = Grid(-2.0, 2.0, 2001)
    xs = grid.points()
    tab = PotentialSpec.tabulated(xs, 0.5 * xs**2)
    sol = integrate_schrodinger(tab, 0.5, grid,
                                (math.exp(-2.0), 2.0 * math.exp(-2.0)))
    assert np.max(np.abs(sol.values - np.exp(-xs**2 / 2.0))) < 1e-7
    pair = make_pair(tab, 0.5, grid)
    drift = np.max(np.abs(pair.wronskian_samples() - pair.wronskian))
    assert drift < 1e-8


def test_radial_harmonic_bound_states():
    # 3-D oscillator, ell = 2: E = 2 n + ell + 3/2 below a centrifugal wall,
    # and one Floyd microstate quantizes each level at J = (n + 1) h
    ell = 2
    spec = PotentialSpec.radial_effective(PotentialSpec.harmonic(1.0),
                                          ell * (ell + 1))
    grid = Grid(0.02, 7.5, 15001)
    energies = find_bound_energies(spec, grid, n_max=3)
    for n, energy in enumerate(energies):
        assert abs(energy - (2 * n + ell + 1.5)) < 5e-8
        record = bound_state(spec, grid, n, energy=energy)
        j = action_variable(record.pair, MicrostateParams.from_floyd(1.0, 1.0, 0.0))
        assert abs(j / (2.0 * math.pi) - (n + 1)) < 5e-9
