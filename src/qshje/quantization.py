"""Bound-state machinery: partner solutions, the action variable J and its
quantization J = N h, and microstate families sharing one wave function.

The partner of a normalizable solution phi is built from the Wronskian
integral theta = K phi(x) * integral dx / phi^2, evaluated piecewise between
the nodes of phi. The quadratic pole of 1/phi^2 at each node is subtracted
analytically (phi'' vanishes with phi there, so there is no logarithmic
part), and the finite parts are matched across nodes so theta continues as
one smooth solution with exactly constant Wronskian.

The action variable J = closed integral of P dx is taken as 2 Delta S0, twice
the increment of the branch-unwrapped reduced action across the grid, plus an
estimate of the exponentially small tails beyond it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConstructionError, GridNarrowError, ParameterError
from .reduced_action import (
    MicrostateParams,
    ReducedActionField,
    build_field,
    reconstruct_wavefunction,
)
from .schrodinger import (
    Grid,
    NATURAL_UNITS,
    PotentialSpec,
    Solution,
    SolutionPair,
    UnitSystem,
    count_nodes,
    find_bound_energies,
    physical_bound_solution,
)

_MODULE = "quantization"

#: Largest share of J that the estimated truncated tails may carry.
_TRUNCATION_TOL = 1e-4


@dataclass
class BoundStateRecord:
    """One bound state: physical solution, divergent partner, node counts."""

    energy: float
    physical: Solution
    partner: Solution
    node_count_phys: int
    node_count_partner: int
    pair: SolutionPair


def _node_positions(values: np.ndarray, x: np.ndarray):
    """Zeros of a sampled function refined on a cubic spline, split into
    interior nodes and boundary zeros (endpoint zeros are not nodes but
    still need pole handling in the partner integral)."""
    h = x[1] - x[0]
    spline = CubicSpline(x, values)
    roots = [float(r) for r in spline.roots(extrapolate=False)]
    interior, boundary = [], []
    for r in sorted(roots):
        bucket = boundary if (r - x[0] < 4 * h or x[-1] - r < 4 * h) else interior
        if not bucket or r - bucket[-1] > 2.0 * h:
            bucket.append(r)
    return interior, boundary, spline


def partner_solution(physical: Solution, wronskian: float = 1.0) -> Solution:
    """Second solution theta with W(phi, theta) = phi theta' - phi' theta =
    ``wronskian``, via the pole-subtracted Wronskian integral."""
    phi = physical.values
    x = physical.grid.points()
    h = physical.grid.spacing
    k_const = float(wronskian)
    if k_const == 0.0:
        raise ParameterError("wronskian must be nonzero",
                             module=_MODULE, op="partner_solution")

    nodes, boundary_zeros, spline = _node_positions(phi, x)
    dspline = spline.derivative()
    for r in nodes:
        if r - x[0] < 8 * h or x[-1] - r < 8 * h:
            raise ConstructionError("node too close to the grid boundary",
                                    module=_MODULE, op="partner_solution", x=r)
    poles = nodes + boundary_zeros
    phi_n = [float(dspline(r)) for r in poles]
    for r, dp in zip(poles, phi_n):
        if abs(dp) < 1e-12:
            raise ConstructionError("degenerate zero (phi' = 0)",
                                    module=_MODULE, op="partner_solution", x=r)

    # pole-subtracted integrand: g_reg = 1/phi^2 - sum_n 1/(phi_n'^2 (x-x_n)^2).
    # phi'' vanishes with phi at each node, so g_reg has no 1/(x-x_n) part
    # and is smooth; the cancellation is only noisy right at the nodes,
    # where g_reg is re-interpolated from its neighborhood.
    with np.errstate(divide="ignore", invalid="ignore"):
        g_reg = 1.0 / phi**2
        for r, dp in zip(poles, phi_n):
            g_reg = g_reg - 1.0 / (dp**2 * (x - r)**2)
    if poles:
        bad = np.zeros_like(phi, dtype=bool)
        for r in poles:
            bad |= np.abs(x - r) < 4.0 * h
        good = ~bad
        g_reg = np.interp(x, x[good], g_reg[good])

    # cumulative integral of g_reg accumulated OUTWARD from the |phi| peak:
    # anchoring there and summing outward keeps every partial sum at full
    # relative precision, which a global antiderivative cannot do once the
    # enormous forbidden-region mass dominates the float resolution
    n_pts = x.size
    seg = np.empty(n_pts - 1)
    # fourth-order interval integrals (Euler-Maclaurin corrected trapezoid)
    seg[1:-1] = (h / 24.0) * (-g_reg[:-3] + 13.0 * g_reg[1:-2]
                              + 13.0 * g_reg[2:-1] - g_reg[3:])
    edge_spline = CubicSpline(x, g_reg)
    seg[0] = edge_spline.integrate(x[0], x[1])
    seg[-1] = edge_spline.integrate(x[-2], x[-1])
    ic = int(np.argmax(np.abs(phi)))
    i_reg = np.zeros(n_pts)
    i_reg[ic + 1:] = np.cumsum(seg[ic:])
    i_reg[:ic] = -np.cumsum(seg[:ic][::-1])[::-1]

    # antiderivative of the subtracted poles: -1/(phi_n'^2 (x - x_n)),
    # continued through each node with one integration constant -- the
    # finite-part matching that keeps theta a single smooth solution
    pole_full = np.zeros_like(x)
    phi_times_pole = np.zeros_like(x)
    for r, dp in zip(poles, phi_n):
        dx = x - r
        with np.errstate(divide="ignore", invalid="ignore"):
            pole_full = pole_full - 1.0 / (dp**2 * dx)
            # phi * pole is finite: phi/dx -> phi' at the zero
            ratio = np.where(np.abs(dx) > 1e-13, phi / np.where(dx == 0.0, 1.0, dx), dp)
        phi_times_pole = phi_times_pole - ratio / dp**2

    i_full = i_reg + pole_full
    theta = k_const * (phi * i_reg + phi_times_pole)

    dphi = physical.derivs
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_d = k_const * (dphi * i_full + 1.0 / phi)
    # repair isolated samples sitting (numerically) on a node
    broken = ~np.isfinite(theta_d)
    if np.any(broken):
        idx = np.flatnonzero(broken)
        ok = np.flatnonzero(~broken)
        theta_d[idx] = np.interp(x[idx], x[ok], theta_d[ok])
    return Solution(grid=physical.grid, energy=physical.energy,
                    units=physical.units, values=theta, derivs=theta_d)


def bound_state(spec: PotentialSpec, grid: Grid, n: int,
                units: UnitSystem = NATURAL_UNITS,
                energy: float = None) -> BoundStateRecord:
    """Record for the n-th bound state (n = 0 is the ground state):
    physical solution by two-sided shooting, partner by the Wronskian
    integral, node parity asserted."""
    if energy is None:
        energy = find_bound_energies(spec, grid, units, n_max=n + 1)[n]
    phys = physical_bound_solution(spec, energy, grid, units)
    partner = partner_solution(phys, wronskian=1.0)
    n_phys = count_nodes(phys.values)
    n_part = count_nodes(partner.values)
    if n_phys != n:
        raise ConstructionError(
            f"physical solution has {n_phys} nodes, expected {n}",
            module=_MODULE, op="bound_state")
    if n_part != n_phys + 1:
        raise ConstructionError(
            f"partner node count {n_part} != physical {n_phys} + 1",
            module=_MODULE, op="bound_state")
    # pair convention: sol1 = partner (theta), sol2 = physical (phi), so the
    # Floyd denominator a*sol2^2 + b*sol1^2 + c*sol1*sol2 = a phi^2 + b theta^2 + ...
    w = float(np.median(partner.values * phys.derivs
                        - partner.derivs * phys.values))
    pair = SolutionPair(grid=grid, energy=energy, units=units,
                        sol1=partner, sol2=phys, wronskian=w, spec=spec)
    return BoundStateRecord(energy=energy, physical=phys, partner=partner,
                            node_count_phys=n_phys, node_count_partner=n_part,
                            pair=pair)


def action_variable(pair: SolutionPair, params: MicrostateParams) -> float:
    """J = closed integral of P dx = 2 * |S0(x_max) - S0(x_min)|, with an
    exponential-envelope estimate of the truncated tails.

    P = dS0/dx keeps one sign, so the closed integral of P over the grid is
    exactly twice the increment of the branch-unwrapped S0; taking it from
    S0 avoids the quadrature error of a rule applied to a sharply peaked P.
    For a bound pair (physical + partner) J is quantized at N h regardless
    of the microstate parameters and of the pair normalization.
    """
    field = build_field(pair, params)
    x = field.x
    p_abs = np.abs(field.p)
    j_main = 2.0 * abs(float(field.s0[-1] - field.s0[0]))
    # tail estimate: P decays like exp(-2 kappa x) through the partner^2 term
    units = pair.units
    tails = 0.0
    for idx in (0, -1):
        vv = pair.v[idx]
        kappa_sq = 2.0 * units.mass * (vv - pair.energy) / units.hbar**2
        if kappa_sq <= 0.0:
            raise GridNarrowError(
                "grid end not in the forbidden region; widen the grid",
                module=_MODULE, op="action_variable", x=float(x[idx]))
        tails += 2.0 * p_abs[idx] / (2.0 * math.sqrt(kappa_sq))
    if tails > _TRUNCATION_TOL * j_main:
        raise GridNarrowError(
            f"tail contribution {tails:.3e} above {_TRUNCATION_TOL:.1e} of J; "
            "widen the grid", module=_MODULE, op="action_variable")
    return j_main + tails


def enumerate_microstates(record: BoundStateRecord,
                          count: int) -> list[MicrostateParams]:
    """Distinct (a, b, c) triples in the bound-state family
    a - c^2/(4b) = 1 (b > 0 and c free), each reconstructing the same
    physical wave function while generating distinct momenta."""
    if count < 1:
        raise ParameterError("count must be >= 1",
                             module=_MODULE, op="enumerate_microstates")
    b_ladder = [1.0, 2.0, 0.5, 1.5, 0.75, 2.5, 1.25, 3.0, 0.6, 1.8]
    c_ladder = [0.0, 1.0, -1.0, 0.5, -0.5, 1.5, -1.5, 0.25, -0.25, 2.0]
    out = []
    i = 0
    while len(out) < count:
        b = b_ladder[i % len(b_ladder)] * (1.0 + i // len(b_ladder))
        c = c_ladder[i % len(c_ladder)]
        a = c**2 / (4.0 * b) + 1.0
        out.append(MicrostateParams.from_floyd(a, b, c))
        i += 1
    return out


def microstate_distinctness(field1: ReducedActionField,
                            field2: ReducedActionField):
    """(max |P1 - P2|, max difference of the normalized reconstructed wave
    functions). Bound microstates share the wave function but not P."""
    if field1.grid != field2.grid:
        raise ParameterError("fields must share one grid",
                             module=_MODULE, op="microstate_distinctness")
    if field1.energy != field2.energy:
        raise ParameterError("fields must share one energy",
                             module=_MODULE, op="microstate_distinctness")
    p_gap = float(np.max(np.abs(field1.p - field2.p)))
    x = field1.x
    psi1 = reconstruct_wavefunction(field1, 0.5, 0.5, x)
    psi2 = reconstruct_wavefunction(field2, 0.5, 0.5, x)

    def normalized(psi):
        norm = math.sqrt(float(np.sum(np.abs(psi)**2)))
        psi = psi / norm
        # fix the global sign/phase against the largest component
        pivot = psi[int(np.argmax(np.abs(psi)))]
        return psi * (np.conj(pivot) / abs(pivot))

    psi_gap = float(np.max(np.abs(normalized(psi1) - normalized(psi2))))
    return p_gap, psi_gap


# ----------------------------------------------------------------------
# Unbound states: unique parameter recovery
# ----------------------------------------------------------------------

def wave_coefficients_from_params(params: MicrostateParams):
    """(alpha, beta) of psi = alpha*phi + beta*theta for the unbound state
    reconstructed from a Floyd triple: alpha = sqrt(a - c^2/4b) + i c/(2 sqrt b),
    beta = i sqrt b."""
    if params.form != "floyd":
        raise ParameterError("floyd form required", module=_MODULE,
                             op="wave_coefficients_from_params")
    a, b, c = params.a, params.b, params.c
    alpha = complex(math.sqrt(a - c**2 / (4.0 * b)), c / (2.0 * math.sqrt(b)))
    beta = complex(0.0, math.sqrt(b))
    return alpha, beta


def params_from_wave_coefficients(alpha, beta) -> MicrostateParams:
    """Unique Floyd triple reproducing given complex (alpha, beta), up to
    the global phase of the wave function. Microstates do not exist for
    unbound states: the recovery is one-to-one."""
    alpha = complex(alpha)
    beta = complex(beta)
    if beta == 0:
        raise ParameterError("beta = 0 leaves the triple undetermined",
                             module=_MODULE, op="params_from_wave_coefficients")
    # rotate the global phase so beta = i * |beta|
    gamma = complex(math.cos(math.pi / 2 - math.atan2(beta.imag, beta.real)),
                    math.sin(math.pi / 2 - math.atan2(beta.imag, beta.real)))
    alpha_g = alpha * gamma
    if alpha_g.real <= 0.0:
        raise ParameterError(
            "coefficients not reachable from a valid triple (Re alpha <= 0 "
            "after phase fixing)", module=_MODULE,
            op="params_from_wave_coefficients")
    b = abs(beta)**2
    c = 2.0 * math.sqrt(b) * alpha_g.imag
    a = alpha_g.real**2 + c**2 / (4.0 * b)
    return MicrostateParams.from_floyd(a, b, c)


def quantization_report(record: BoundStateRecord, params: MicrostateParams,
                        state_index: int) -> dict:
    """Report for one quantized state, as a JSON-ready dict."""
    j = action_variable(record.pair, params)
    h_planck = 2.0 * math.pi * record.pair.units.hbar
    return {
        "state_index": state_index,
        "energy": record.energy,
        "J_over_h": j / h_planck,
        "node_phys": record.node_count_phys,
        "node_partner": record.node_count_partner,
        "params": json.loads(params.to_json()),
    }
