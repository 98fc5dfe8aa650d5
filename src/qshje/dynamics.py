"""Motion from the reduced-action field.

The dispersion relation xdot * P = 2(E - V) turns a field into a velocity
law; this module integrates trajectories from it (DOP853, eighth order with
dense output), evaluates times of flight by quadrature, provides the free
particle's closed-form trajectory with analytic derivatives, the
first-integral residual of the quantum Newton law (along a trajectory from
the analytic ladder P, P', P'', V, V', V'', or by differencing the dense
output as an independent check), the quantum coordinate, the quantum
version of the Jacobi theorem, and Floyd's free trajectory for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import (
    DomainError,
    NumericError,
    ParameterError,
    SingularityError,
)
from .reduced_action import ReducedActionField, continuous_arctan_tan
from .schrodinger import NATURAL_UNITS, PotentialSpec, UnitSystem, write_csv

_MODULE = "dynamics"

#: |E - V| below this is treated as an exact turning point.
TURNING_POINT_TOL = 1e-12

#: Absolute and relative tolerance of the time-of-flight and
#: quantum-coordinate quadratures.
_QUAD_TOL = 1e-11


@dataclass(frozen=True)
class QuantumLagrangianState:
    """Kinetic-term deformation f and the quantum Lagrangian/Hamiltonian."""

    f_value: float
    lagrangian: float
    hamiltonian: float


@dataclass
class Trajectory:
    """Dense-output trajectory with termination metadata.

    status is one of "completed", "exited_grid", "turning_point_asymptotic".
    """

    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    status: str
    exit_time: float | None
    exit_position: float | None
    sol: object  # scipy OdeSolution (dense output)
    field: ReducedActionField
    spec: PotentialSpec


def f_function(field: ReducedActionField, spec: PotentialSpec, x):
    """Kinetic deformation f = P^2 / (2m (E - V)); positive in classically
    allowed regions, negative in forbidden ones."""
    m = field.units.mass
    e = field.energy
    v = spec.value(x, field.units)
    gap = e - v
    if np.any(np.abs(gap) < TURNING_POINT_TOL):
        bad = np.atleast_1d(np.asarray(x))[np.atleast_1d(np.abs(gap)) < TURNING_POINT_TOL]
        raise SingularityError("evaluation at a classical turning point",
                               module=_MODULE, op="f_function", x=float(bad.flat[0]))
    return field.p_at(x)**2 / (2.0 * m * gap)


def velocity(field: ReducedActionField, spec: PotentialSpec, x):
    """Dispersion-relation velocity xdot = 2 (E - V) / P; exactly zero at a
    classical turning point."""
    v = spec.value(x, field.units)
    return 2.0 * (field.energy - v) / field.p_at(x)


def integrate_trajectory(field: ReducedActionField, spec: PotentialSpec,
                         x0: float, t_span, tol: float = 1e-9,
                         n_samples: int = 200) -> Trajectory:
    """Integrate dx/dt = 2 (E - V(x)) / P(x) with DOP853 and dense output.

    The samples are the dense output at n_samples equispaced times, with
    xdot from the dispersion relation at each sample. Halts
    cleanly when the trajectory reaches the grid edge (reporting the exit
    time) or when it stalls on the asymptotic approach to a turning point
    (velocity collapse; the flow never crosses a turning point).
    """
    grid = field.grid
    if not (grid.x_min < x0 < grid.x_max):
        raise DomainError("x0 must lie in the grid interior",
                          module=_MODULE, op="integrate_trajectory", x=x0)
    t0, t1 = float(t_span[0]), float(t_span[1])
    margin = 2.0 * grid.spacing
    # xdot is exactly proportional to E - V; once that gap collapses to the
    # integrator's own resolution the approach to the turning point can no
    # longer be resolved and is reported instead of integrated further
    gap_floor = 10.0 * tol * max(abs(field.energy), 1.0)

    # solve_ivp leaves its solver in a reference cycle with the wrapped rhs;
    # the callbacks reach field and spec through this list, emptied on
    # return, so a field is freed with its trajectory, not at the next GC pass
    live = [field, spec]

    # the state is one coordinate: the callbacks evaluate it as a Python
    # float, which takes the field's scalar branch, and rhs returns a
    # one-element list, sparing a numpy round trip on each of the ~10^3 calls
    def rhs(t, y):
        return [velocity(*live, float(y[0]))]

    def hit_edge(t, y):
        x = float(y[0])
        return min(x - (grid.x_min + margin), (grid.x_max - margin) - x)
    hit_edge.terminal = True
    hit_edge.direction = -1

    def stalled(t, y):
        fld, spc = live
        return abs(fld.energy - spc.value(float(y[0]), fld.units)) - gap_floor
    stalled.terminal = True
    stalled.direction = -1

    try:
        res = solve_ivp(rhs, (t0, t1), [float(x0)], method="DOP853",
                        rtol=tol, atol=tol * 1e-3, dense_output=True,
                        events=(hit_edge, stalled))
    finally:
        live.clear()
    if not res.success and res.status != 1:
        raise NumericError(f"trajectory integration failed: {res.message}",
                           module=_MODULE, op="integrate_trajectory", x=x0)

    status, exit_time, exit_position = "completed", None, None
    t_end = res.t[-1]
    if res.status == 1:
        if len(res.t_events[0]):
            status = "exited_grid"
            exit_time = float(res.t_events[0][0])
            exit_position = float(res.y_events[0][0][0])
            t_end = exit_time
        elif len(res.t_events[1]):
            status = "turning_point_asymptotic"
            exit_time = float(res.t_events[1][0])
            exit_position = float(res.y_events[1][0][0])
            t_end = exit_time

    t_eval = np.linspace(t0, t_end, n_samples)
    xs = res.sol(t_eval)[0]
    vs = velocity(field, spec, xs)
    return Trajectory(t=t_eval, x=xs, xdot=vs, status=status,
                      exit_time=exit_time, exit_position=exit_position,
                      sol=res.sol, field=field, spec=spec)


def time_of_flight(field: ReducedActionField, spec: PotentialSpec,
                   x0: float, x1: float) -> float:
    """Adaptive quadrature of dt = P dx / (2 (E - V)) between x0 and x1.

    A classical turning point strictly inside the interval makes the
    integrand one-signed-singular; a turning point at an endpoint gives a
    1/(E-V) divergence that is not integrable (infinite arrival time), so
    both are rejected.
    """
    e = field.energy
    xs = np.linspace(x0, x1, 257)
    gap = e - spec.value(xs, field.units)
    if abs(gap[0]) < 1e-9 or abs(gap[-1]) < 1e-9:
        raise SingularityError(
            "turning point at an interval endpoint: time of flight diverges",
            module=_MODULE, op="time_of_flight", x=x0 if abs(gap[0]) < 1e-9 else x1)
    if np.any(gap[1:-1] * gap[0] <= 0.0):
        idx = int(np.argmax(gap[1:-1] * gap[0] <= 0.0)) + 1
        raise SingularityError("classical turning point inside the interval",
                               module=_MODULE, op="time_of_flight",
                               x=float(xs[idx]))

    def integrand(x):
        return field.p_at(x) / (2.0 * (e - spec.value(x, field.units)))

    val, _ = quad(integrand, x0, x1, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=500)
    return val


# ----------------------------------------------------------------------
# Free-particle closed form
# ----------------------------------------------------------------------

def free_particle_closed_form(energy: float, a_const: float, b_const: float,
                              x0: float, t0: float, t,
                              units: UnitSystem = NATURAL_UNITS):
    """Closed-form free trajectory
    x(t) = (hbar/sqrt(2mE)) arctan(A tan(2E(t-t0)/hbar) + B) + x0,
    continued monotonically across tan branches (adds pi*hbar/sqrt(2mE)
    per half-period)."""
    if a_const == 0.0:
        raise ParameterError("A = 0 degenerates to a constant trajectory",
                             module=_MODULE, op="free_particle_closed_form")
    if energy <= 0.0:
        raise ParameterError("free particle requires E > 0",
                             module=_MODULE, op="free_particle_closed_form")
    hbar, m = units.hbar, units.mass
    k = math.sqrt(2.0 * m * energy)
    tau = 2.0 * energy * (np.asarray(t, dtype=float) - t0) / hbar
    out = (hbar / k) * continuous_arctan_tan(tau, a_const, b_const) + x0
    return out if out.ndim else float(out)


def closed_form_derivatives(energy: float, a_const: float, b_const: float,
                            t0: float, t, units: UnitSystem = NATURAL_UNITS):
    """Analytic (xdot, xddot, xdddot) of the closed-form free trajectory."""
    hbar, m = units.hbar, units.mass
    k = math.sqrt(2.0 * m * energy)
    tau = 2.0 * energy * (np.asarray(t, dtype=float) - t0) / hbar
    wrate = 2.0 * energy / hbar
    tn = np.tan(tau)
    s2 = 1.0 + tn**2
    y = a_const * tn + b_const
    yp = a_const * s2
    ypp = 2.0 * a_const * tn * s2
    yppp = 2.0 * a_const * s2 * (3.0 * s2 - 2.0)
    den = 1.0 + y**2
    g1 = yp / den
    g2 = ypp / den - 2.0 * y * yp**2 / den**2
    g3 = (yppp / den - 6.0 * y * yp * ypp / den**2
          - 2.0 * yp**3 / den**2 + 8.0 * y**2 * yp**3 / den**3)
    c = hbar / k
    return c * wrate * g1, c * wrate**2 * g2, c * wrate**3 * g3


def dispersion_free_trajectory(energy: float, a: float, b: float, c: float, x,
                               units: UnitSystem = NATURAL_UNITS):
    """t - t0 = S0(x) / (2E) for the free particle in Floyd-form
    parameters: the trajectory implied by S0 = 2E(t - t0), i.e. by the
    dispersion relation (unlike Floyd's classical-Jacobi route)."""
    hbar, m = units.hbar, units.mass
    s = math.sqrt(a * b - c**2 / 4.0)
    k = math.sqrt(2.0 * m * energy) / hbar
    u = k * np.asarray(x, dtype=float)
    out = (hbar / (2.0 * energy)) * continuous_arctan_tan(u, b / s, 0.5 * c / s)
    return out if out.ndim else float(out)


def floyd_free_trajectory(energy: float, a: float, b: float, c: float, x,
                          units: UnitSystem = NATURAL_UNITS):
    """Floyd's free trajectory from the classical Jacobi theorem
    t - t0 = dS0/dE at fixed x:

    t - t0 = 2 sqrt(ab - c^2/4) sqrt(m/2E) x
             / (a + b + (a - b) cos(2 sqrt(2mE) x / hbar) + c sin(...)).

    The denominator is written in expanded form; it equals the
    amplitude-phase form with phase -atan2(c, a - b), which is the unique
    branch for which the formula agrees with dS0/dE for every admissible
    (a, b, c). (It is exactly x times the slope of the S0/(2E) trajectory.)
    """
    hbar, m = units.hbar, units.mass
    s = math.sqrt(a * b - c**2 / 4.0)
    arg = 2.0 * math.sqrt(2.0 * m * energy) * np.asarray(x, dtype=float) / hbar
    den = a + b + (a - b) * np.cos(arg) + c * np.sin(arg)
    out = 2.0 * s * math.sqrt(m / (2.0 * energy)) * np.asarray(x, dtype=float) / den
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# First integral of the quantum Newton law
# ----------------------------------------------------------------------

def fiqnl_residual(spec: PotentialSpec, energy: float, x, xdot, xddot,
                   xdddot, units: UnitSystem = NATURAL_UNITS):
    """Residual of the fourth-degree-in-(E-V) first integral:

    (E-V)^4 - (m xdot^2/2)(E-V)^3
      + (hbar^2/8) [ (3/2)(xddot/xdot)^2 - xdddot/xdot ] (E-V)^2
      - (hbar^2/8) [ xdot^2 V'' + xddot V' ] (E-V)
      - (3 hbar^2/16) (xdot V')^2.
    """
    xdot = np.asarray(xdot, dtype=float)
    if np.any(xdot == 0.0):
        raise SingularityError("xdot = 0 in the first-integral residual",
                               module=_MODULE, op="fiqnl_residual")
    hbar, m = units.hbar, units.mass
    v = spec.value(x, units)
    dv = spec.derivative(x, units)
    d2v = spec.second_derivative(x, units)
    gap = energy - v
    return (gap**4 - (m * xdot**2 / 2.0) * gap**3
            + (hbar**2 / 8.0) * (1.5 * (xddot / xdot)**2 - xdddot / xdot) * gap**2
            - (hbar**2 / 8.0) * (xdot**2 * d2v + xddot * dv) * gap
            - (3.0 * hbar**2 / 16.0) * (xdot * dv)**2)


def fiqnl_residual_along(traj: Trajectory):
    """FIQNL residual at the trajectory's sample times with xdot, xddot,
    xdddot obtained by fourth-order differencing of the dense output, with a
    step of 2e-3 of the sampled span (at least 1e-6).

    This checks the integrated path itself, independently of the field's
    derivatives. Rows whose seven-point stencil would leave the integrated
    span are evaluated at the nearest stencil-safe time instead (the dense
    output must not be extrapolated). Returns (absolute residuals,
    residuals relative to E^4).
    """
    field = traj.field
    delta = max(abs(traj.t[-1] - traj.t[0]) * 2e-3, 1e-6)
    t_lo = min(traj.t[0], traj.t[-1]) + 3.0 * delta
    t_hi = max(traj.t[0], traj.t[-1]) - 3.0 * delta
    centres = np.minimum(np.maximum(traj.t, t_lo), t_hi)
    stencil = np.arange(-3.0, 4.0) * delta
    x0, x1, x2, x3, x4, x5, x6 = \
        traj.sol((centres[:, None] + stencil).ravel())[0].reshape(-1, 7).T
    xd = (-x0 / 60 + 3 * x1 / 20 - 3 * x2 / 4 + 3 * x4 / 4
          - 3 * x5 / 20 + x6 / 60) / delta
    xdd = (x0 / 90 - 3 * x1 / 20 + 3 * x2 / 2 - 49 * x3 / 18
           + 3 * x4 / 2 - 3 * x5 / 20 + x6 / 90) / delta**2
    xddd = (x0 / 8 - x1 + 13 * x2 / 8 - 13 * x4 / 8 + x5 - x6 / 8) / delta**3
    res = fiqnl_residual(traj.spec, field.energy, x3, xd, xdd, xddd, field.units)
    return res, res / field.energy**4


def _flow_derivatives(field: ReducedActionField, spec: PotentialSpec, x):
    """(xdot, xddot, xdddot) of the dispersion-relation flow at x.

    The chain rule d/dt = xdot d/dx on xdot = 2 (E - V) / P gives
    xddot = xdot xdot' and xdddot = xdot (xdot'^2 + xdot xdot''), with the
    x-derivatives of xdot from P, P', P'' (the field) and V', V'' (the
    spec); nothing is differenced.
    """
    units = field.units
    p, dp, d2p = field.ladder_at(x)
    u = 2.0 * (field.energy - spec.value(x, units)) / p
    du = -(2.0 * spec.derivative(x, units) + u * dp) / p
    d2u = -(2.0 * spec.second_derivative(x, units) + 2.0 * du * dp + u * d2p) / p
    return u, u * du, u * (du**2 + u * d2u)


# ----------------------------------------------------------------------
# Quantum coordinate and quantum Jacobi theorem
# ----------------------------------------------------------------------

def quantum_coordinate(field: ReducedActionField, spec: PotentialSpec,
                       x_ref: float, x: float) -> float:
    """Deformed coordinate x_hat = integral of P/sqrt(2m(E-V)) from x_ref.

    The interval must lie inside one classically allowed region (the
    coordinate turns imaginary in forbidden regions, which is out of scope).
    """
    e = field.energy
    m = field.units.mass
    lo, hi = (x_ref, x) if x_ref <= x else (x, x_ref)
    xs = np.linspace(lo, hi, 257)
    if np.any(e - spec.value(xs, field.units) <= 0.0):
        raise DomainError(
            "interval touches a classically forbidden region; the quantum "
            "coordinate is real only in allowed regions",
            module=_MODULE, op="quantum_coordinate", x=float(lo))

    def integrand(xx):
        return field.p_at(xx) / math.sqrt(2.0 * m * (e - spec.value(xx, field.units)))

    val, _ = quad(integrand, x_ref, x, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                  limit=500)
    return val


def quantum_jacobi_time(field_builder, spec: PotentialSpec, x_hat_target: float,
                        energy: float, x_ref: float,
                        delta_e: float = None) -> float:
    """Arrival time from the quantum Jacobi theorem: the E-derivative of
    S0 at fixed quantum coordinate, by centered differencing over fields
    built at E +- delta_e with the same microstate parameters.

    field_builder(E) must return a ReducedActionField with consistent
    parameters, conventions and grid; it is called twice, at E +- delta_e.
    S0 is measured from x_ref (the origin of the quantum coordinate), which
    fixes the common time-origin convention. The arrival point is searched
    for two grid steps inside the grid ends.
    """
    if delta_e is None:
        delta_e = 1e-5 * energy
    f_plus = field_builder(energy + delta_e)
    f_minus = field_builder(energy - delta_e)
    grid = f_plus.grid
    search_window = (grid.x_min + 2 * grid.spacing,
                     grid.x_max - 2 * grid.spacing)

    def locate(field):
        def g(xx):
            return quantum_coordinate(field, spec, x_ref, xx) - x_hat_target
        lo, hi = search_window
        glo, ghi = g(lo), g(hi)
        if glo * ghi > 0.0:
            raise DomainError(
                f"x_hat target {x_hat_target} not bracketed in {search_window}",
                module=_MODULE, op="quantum_jacobi_time")
        return brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16)

    x_plus = locate(f_plus)
    x_minus = locate(f_minus)
    s_plus = f_plus.s0_at(x_plus) - f_plus.s0_at(x_ref)
    s_minus = f_minus.s0_at(x_minus) - f_minus.s0_at(x_ref)
    return float((s_plus - s_minus) / (2.0 * delta_e))


def quantum_lagrangian_state(field: ReducedActionField, spec: PotentialSpec,
                             x: float, xdot: float) -> QuantumLagrangianState:
    """f, L_q = (m/2) xdot^2 f - V and H_q = (m/2) xdot^2 f + V at a point;
    along a dispersion-relation trajectory H_q equals E."""
    m = field.units.mass
    f = f_function(field, spec, x)
    v = spec.value(x, field.units)
    kinetic = 0.5 * m * xdot**2 * f
    return QuantumLagrangianState(f_value=float(f),
                                  lagrangian=float(kinetic - v),
                                  hamiltonian=float(kinetic + v))


def trajectory_to_csv(traj: Trajectory, path):
    """Write t,x,xdot,p,f,hq_minus_e,fiqnl_residual_rel for a trajectory.

    The FIQNL column is the first-integral residual relative to E^4 at each
    sample, from the analytic ladder of ``_flow_derivatives``."""
    field, spec = traj.field, traj.spec
    p = field.p_at(traj.x)
    f = f_function(field, spec, traj.x)
    hq = 0.5 * field.units.mass * traj.xdot**2 * f + spec.value(traj.x, field.units)
    rel = fiqnl_residual(spec, field.energy, traj.x,
                         *_flow_derivatives(field, spec, traj.x),
                         field.units) / field.energy**4
    write_csv(path, "t,x,xdot,p,f,hq_minus_e,fiqnl_residual_rel",
              traj.t, traj.x, traj.xdot, p, f, hq - field.energy, rel)
