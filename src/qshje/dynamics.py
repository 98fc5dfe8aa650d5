"""Motion from the reduced-action field.

The dispersion relation xdot * P = 2(E - V) makes t(x), the integral of
P / (2(E - V)) dx, monotone between turning points: trajectories and times
of flight come from one cumulative table of it, inverted by Newton, and
with the weight 1/sqrt(2m(E - V)) the same table gives the quantum
coordinate and the quantum Jacobi theorem. Also: the free particle's closed
form with analytic derivatives, the first-integral residual of the quantum
Newton law (from the analytic ladder P, P', P'', V, V', V'', or by
differencing x(t) as an independent check), and Floyd's free trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, SingularityError
from .reduced_action import ReducedActionField, _quintic_weights, continuous_arctan_tan
from .schrodinger import NATURAL_UNITS, PotentialSpec, UnitSystem, write_csv

_MODULE = "dynamics"

#: |E - V| below this is treated as an exact turning point.
TURNING_POINT_TOL = 1e-12

#: The Gauss-Legendre rule of a table's cells, on [0, 1]. Where P is peaked
#: (harmonic E = 2.2, (0.1, 0.1), 7001 points) 8 points leave 2.0e-12 in the
#: cumulative time, 10 points 1.4e-13, as many as 12 or 16 do.
_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(10)
_GAUSS_T, _GAUSS_W = 0.5 + 0.5 * _GAUSS_T, 0.5 * _GAUSS_W
#: The pair's quintic at the rule's points from a cell's two ``_CELL`` node
#: rows, (12, cells): g1 and g2 at each point in alternate rows.
_CELL_RULE = np.kron(np.array(_quintic_weights(_GAUSS_T, 1.0 - _GAUSS_T, False))
                     [[0, 2, 4, 1, 3, 5]].T, np.eye(2))


def _rule(f):
    """The rule's sum over f's first axis, in an order no batch changes."""
    return sum(w * fk for w, fk in zip(_GAUSS_W, f))


def _newton(fun, lo, hi, x, ftol):
    """Zeros of fun(x, k) -> (f, f') for the elements k, f(lo) <= 0 <= f(hi):
    Newton from x (done if x = lo), bisecting where a step leaves the bracket,
    until |f| <= ftol or the step is at rounding level. Elements iterate apart."""
    x, lo, hi = (np.array(v, dtype=float).ravel() for v in np.broadcast_arrays(x, lo, hi))
    k = np.flatnonzero(x != lo)
    for _ in range(64):
        if not k.size:
            break
        xk = x[k]
        f, df = fun(xk, k)
        lo[k], hi[k] = np.where(f < 0.0, xk, lo[k]), np.where(f > 0.0, xk, hi[k])
        step = xk - f / df
        x[k] = np.where((step - lo[k]) * (step - hi[k]) <= 0.0, step, 0.5 * (lo[k] + hi[k]))
        k = k[(np.abs(f) > ftol) & (np.abs(x[k] - xk) > 4e-16 * np.abs(xk))]
    return x


def _reach(field, spec, x0, direction, level=0.0, margin=0.0):
    """(x, hit): the nearest x from x0 in the direction (+1 or -1) where
    |E - V|, above level at x0, falls to level (hit; the first node past it,
    then Newton on V back towards x0), or else the grid edge less margin."""
    e, units, xs, grid = field.energy, field.units, field.x, field.grid
    edge = grid.x_max - margin if direction > 0 else grid.x_min + margin
    sign = math.copysign(1.0, e - spec.value(x0, units))
    hits = np.flatnonzero((direction * (xs - x0) > 0.0)
                          & (sign * (e - spec.value(xs, units)) <= level))
    if hits.size:
        j = hits[0] if direction > 0 else hits[-1]
        near = xs[j - direction] if direction * (xs[j - direction] - x0) > 0.0 else x0
        x = float(_newton(lambda x, _: (sign * (e - spec.value(x, units)) - level,
                                        -sign * spec.derivative(x, units)),
                          xs[j], near, near, 4e-16 * (abs(e) + level))[0])
        if direction * (edge - x) > 0.0:
            return x, True
    return (edge if direction * (edge - x0) > 0.0 else x0), False


class _Table:
    """s = sign * integral from x0 of P w, rising from 0 at the nodes of
    [x0, end], with w = 1/(2(E - V)) (time) or 1/sqrt(2m(E - V)) (quantum),
    between the turning points x_t around x0: the cells' Gauss integrals,
    summed. For time, each pole c/(x_t - x), c = P(x_t)/(2 V'(x_t)), is
    integrated exactly, as c log|(x_t - a)/(x_t - b)| on [a, b]; in quantum
    cells within h of x_t, u = sqrt|x_t - x| takes out the 1/sqrt."""

    def __init__(self, field, spec, x0, end, quantum=False):
        self.field, self.spec, self.quantum = field, spec, quantum
        e, units, lo, hi = field.energy, field.units, min(x0, end), max(x0, end)
        reach = (_reach(field, spec, x0, -1), _reach(field, spec, x0, 1)) if end != x0 else ()
        self.turning = [x for x, hit in reach if hit]
        if any(lo < xt < hi for xt in self.turning) or quantum and e <= spec.value(x0, units):
            raise (DomainError if quantum else SingularityError)(
                "the interval crosses a classical turning point (the quantum "
                "coordinate is real only in allowed regions)", module=_MODULE,
                op="quantum_coordinate" if quantum else "time_of_flight", x=float(x0))
        self.poles = [] if quantum else [
            (xt, field.p_at(xt) / (2.0 * spec.derivative(xt, units))) for xt in self.turning]
        i, j = np.searchsorted(field.x, lo, "right"), np.searchsorted(field.x, hi, "left")
        k = max(i, j - 1)
        xb = np.concatenate(([lo], field.x[i:j], [hi]))
        g = np.einsum("ij,jk->ik", _CELL_RULE,   # single-threaded, unlike a BLAS product
                      np.concatenate((field._nodes[0][:, i:k], field._nodes[0][:, i + 1:k + 1])))
        cells = self._integrals(xb[1:-2], xb[2:-1], field._nodes[3] / (g[0::2]**2 + g[1::2]**2))
        ends = self._integrals(xb[[0, -2]], xb[[1, -1]]) if hi > lo else np.zeros(2)
        seg = np.concatenate((ends[:1], cells, ends[1:xb.size - 1]))
        self.x, seg = (xb, seg) if end >= x0 else (xb[::-1], -seg[::-1])
        gap = 1.0 if quantum else e - spec.value(x0, units)
        self.sign = math.copysign(1.0, (end - x0) * gap * field.p_at(x0))
        self.s = np.maximum.accumulate(self.sign * np.concatenate(([0.0], np.cumsum(seg))))

    def _weighted(self, x, p):
        """P w at x, from P = p there."""
        gap = self.field.energy - self.spec.value(x, self.field.units)
        if self.quantum:
            return p / np.sqrt(2.0 * self.field.units.mass * np.abs(gap))
        return p / (2.0 * gap)

    def _integrals(self, a, b, p=None):
        """Integrals of P w over each [a, b] inside one cell: the rule at the
        points' P = p (by default the field's) on P w less the time's poles,
        plus their exact integrals; in u near x_t for the quantum coordinate."""
        t = _GAUSS_T[:, None]
        x = a + (b - a) * t
        f = self._weighted(x, self.field.p_at(x) if p is None else p)
        out = (b - a) * _rule(f - sum(c / (xt - x) for xt, c in self.poles))
        out += sum(c * np.log((xt - a) / (xt - b)) for xt, c in self.poles)
        for xt in self.turning if self.quantum else ():
            k = np.flatnonzero(np.minimum(abs(xt - a), abs(xt - b)) < self.field.grid.spacing)
            ua, ub = np.sqrt(np.abs(xt - a[k])), np.sqrt(np.abs(xt - b[k]))
            u = ua + (ub - ua) * t
            side = np.sign(xt - a[k] + xt - b[k])
            x = xt - side * u * u
            out[k] = -2.0 * side * (ub - ua) * _rule(u * self._weighted(x, self.field.p_at(x)))
        return out

    def x_at(self, s):
        """x where the table reads s, held to [0, s[-1]]: the cell by search,
        then bracketed Newton in it from the linear guess."""
        s = np.clip(np.asarray(s, dtype=float), 0.0, self.s[-1])
        b = np.minimum(np.searchsorted(self.s, flat := s.ravel(), "right") - 1, self.s.size - 2)
        xa, xb, sa, sb = self.x[b], self.x[b + 1], self.s[b], self.s[b + 1]
        guess = xa + np.divide(flat - sa, sb - sa, out=0.0 * flat, where=sb > sa) * (xb - xa)

        def fun(x, k):
            return (sa[k] + self.sign * self._integrals(xa[k], x) - flat[k],
                    self.sign * self._weighted(x, self.field.p_at(x)))

        return _newton(fun, xa, xb, guess, 4e-16 * self.s[-1]).reshape(s.shape)


@dataclass(frozen=True)
class QuantumLagrangianState:
    """Kinetic-term deformation f and the quantum Lagrangian/Hamiltonian."""

    f_value: float
    lagrangian: float
    hamiltonian: float


@dataclass
class Trajectory:
    """Sampled trajectory with its continuous x(t) and termination metadata;
    status is "completed", "exited_grid" or "turning_point_asymptotic"."""

    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    status: str
    exit_time: float | None
    exit_position: float | None
    sol: object  # x(t) as sol(t)[0], the calling convention of an ODE solution
    field: ReducedActionField
    spec: PotentialSpec


def f_function(field: ReducedActionField, spec: PotentialSpec, x):
    """Kinetic deformation f = P^2 / (2m (E - V)); positive in classically
    allowed regions, negative in forbidden ones."""
    gap = field.energy - spec.value(x, field.units)
    bad = np.abs(np.atleast_1d(gap)) < TURNING_POINT_TOL
    if bad.any():
        raise SingularityError("evaluation at a classical turning point", module=_MODULE,
                               op="f_function", x=float(np.broadcast_to(x, bad.shape)[bad][0]))
    return field.p_at(x)**2 / (2.0 * field.units.mass * gap)


def velocity(field: ReducedActionField, spec: PotentialSpec, x):
    """Dispersion-relation velocity xdot = 2 (E - V) / P; exactly zero at a
    classical turning point."""
    return 2.0 * (field.energy - spec.value(x, field.units)) / field.p_at(x)


def integrate_trajectory(field: ReducedActionField, spec: PotentialSpec,
                         x0: float, t_span, tol: float = 1e-9,
                         n_samples: int = 200) -> Trajectory:
    """The trajectory of dx/dt = 2 (E - V(x)) / P(x) from x0 over t_span: the
    time table of x0's interval, inverted. The samples are x at n_samples
    equispaced times, with xdot from the dispersion relation; ``sol`` is
    x(t), held past the run's ends. t(x) diverges at a turning point, and
    the run stops where |E - V| falls to 10 tol max(|E|, 1), tol's only use
    ("turning_point_asymptotic"; a start within it stays put), or at the
    grid margin 2h from the edge ("exited_grid"), reporting when and where."""
    grid = field.grid
    if not (grid.x_min < x0 < grid.x_max):
        raise DomainError("x0 must lie in the grid interior",
                          module=_MODULE, op="integrate_trajectory", x=x0)
    x0, t0, t1 = float(x0), float(t_span[0]), float(t_span[1])
    forward = 1.0 if t1 >= t0 else -1.0
    gap0 = field.energy - spec.value(x0, field.units)
    gap_floor = 10.0 * tol * max(abs(field.energy), 1.0)
    end, hit = x0, None
    if abs(gap0) > gap_floor:
        # t rises along the sign of P (E - V)
        direction = int(forward * math.copysign(1.0, gap0 * field.p_at(x0)))
        end, hit = _reach(field, spec, x0, direction, gap_floor, 2.0 * grid.spacing)
    table = _Table(field, spec, x0, end)

    def sol(t):
        return table.x_at(forward * (np.asarray(t, dtype=float) - t0))[np.newaxis]

    stopped = hit is not None and abs(t1 - t0) > table.s[-1]
    t = np.linspace(t0, t0 + forward * table.s[-1] if stopped else t1, n_samples)
    x = sol(t)[0]
    status = ("turning_point_asymptotic" if hit else "exited_grid") if stopped else "completed"
    return Trajectory(t=t, x=x, xdot=velocity(field, spec, x), status=status,
                      exit_time=float(t[-1]) if stopped else None,
                      exit_position=end if stopped else None, sol=sol, field=field, spec=spec)


def time_of_flight(field: ReducedActionField, spec: PotentialSpec,
                   x0: float, x1: float) -> float:
    """The integral of dt = P dx / (2 (E - V)) from x0 to x1, from the time
    table. A turning point inside the interval or at an end (where 1/(E-V)
    is not integrable: infinite arrival time) raises SingularityError."""
    for x in (x0, x1):
        if abs(field.energy - spec.value(x, field.units)) < 1e-9:
            raise SingularityError(
                "turning point at an interval endpoint: time of flight diverges",
                module=_MODULE, op="time_of_flight", x=x)
    table = _Table(field, spec, x0, x1)
    return float(table.sign * table.s[-1])


# ---- Free-particle closed form -----------------------------------------

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
    hbar = units.hbar
    tau = 2.0 * energy * (np.asarray(t, dtype=float) - t0) / hbar
    out = (hbar / math.sqrt(2.0 * units.mass * energy)) \
        * continuous_arctan_tan(tau, a_const, b_const) + x0
    return out if out.ndim else float(out)


def closed_form_derivatives(energy: float, a_const: float, b_const: float,
                            t0: float, t, units: UnitSystem = NATURAL_UNITS):
    """Analytic (xdot, xddot, xdddot) of the closed-form free trajectory."""
    hbar = units.hbar
    c = hbar / math.sqrt(2.0 * units.mass * energy)
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
    return c * wrate * g1, c * wrate**2 * g2, c * wrate**3 * g3


def dispersion_free_trajectory(energy: float, a: float, b: float, c: float, x,
                               units: UnitSystem = NATURAL_UNITS):
    """t - t0 = S0(x) / (2E) for the free particle in Floyd-form
    parameters: the trajectory implied by S0 = 2E(t - t0), i.e. by the
    dispersion relation (unlike Floyd's classical-Jacobi route)."""
    hbar, m = units.hbar, units.mass
    s = math.sqrt(a * b - c**2 / 4.0)
    k = math.sqrt(2.0 * m * energy) / hbar
    out = (hbar / (2.0 * energy)) * continuous_arctan_tan(k * np.asarray(x, dtype=float),
                                                          b / s, 0.5 * c / s)
    return out if out.ndim else float(out)


def floyd_free_trajectory(energy: float, a: float, b: float, c: float, x,
                          units: UnitSystem = NATURAL_UNITS):
    """Floyd's free trajectory from the classical Jacobi theorem, t - t0 =
    dS0/dE at fixed x = 2 sqrt(ab - c^2/4) sqrt(m/2E) x
    / (a + b + (a - b) cos(2 sqrt(2mE) x / hbar) + c sin(...)), exactly x
    times the slope of the S0/(2E) trajectory. This expanded denominator is
    the amplitude-phase form with the one phase, -atan2(c, a - b), that
    agrees with dS0/dE for every admissible (a, b, c)."""
    hbar, m = units.hbar, units.mass
    s = math.sqrt(a * b - c**2 / 4.0)
    arg = 2.0 * math.sqrt(2.0 * m * energy) * np.asarray(x, dtype=float) / hbar
    den = a + b + (a - b) * np.cos(arg) + c * np.sin(arg)
    out = 2.0 * s * math.sqrt(m / (2.0 * energy)) * np.asarray(x, dtype=float) / den
    return out if out.ndim else float(out)


# ---- First integral of the quantum Newton law --------------------------

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
    gap = energy - spec.value(x, units)
    dv, d2v = spec.derivative(x, units), spec.second_derivative(x, units)
    return (gap**4 - (m * xdot**2 / 2.0) * gap**3
            + (hbar**2 / 8.0) * (1.5 * (xddot / xdot)**2 - xdddot / xdot) * gap**2
            - (hbar**2 / 8.0) * (xdot**2 * d2v + xddot * dv) * gap
            - (3.0 * hbar**2 / 16.0) * (xdot * dv)**2)


def fiqnl_residual_along(traj: Trajectory):
    """FIQNL residual at the trajectory's sample times, with xdot, xddot,
    xdddot by fourth-order differencing of x(t) at a step of 2e-3 of the
    sampled span (at least 1e-6): a check of the path itself, independent of
    the field's derivatives. A row whose seven-point stencil would leave the
    run is evaluated at the nearest time whose stencil does not. Returns
    (absolute residuals, residuals relative to E^4)."""
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
    """(xdot, xddot, xdddot) of the dispersion-relation flow at x: the chain
    rule d/dt = xdot d/dx on xdot = 2 (E - V) / P gives xddot = xdot xdot'
    and xdddot = xdot (xdot'^2 + xdot xdot''), with the x-derivatives of
    xdot from P, P', P'' and V', V''; nothing is differenced."""
    units = field.units
    p, dp, d2p = field.ladder_at(x)
    u = 2.0 * (field.energy - spec.value(x, units)) / p
    du = -(2.0 * spec.derivative(x, units) + u * dp) / p
    d2u = -(2.0 * spec.second_derivative(x, units) + 2.0 * du * dp + u * d2p) / p
    return u, u * du, u * (du**2 + u * d2u)


# ---- Quantum coordinate and quantum Jacobi theorem ---------------------

def quantum_coordinate(field: ReducedActionField, spec: PotentialSpec,
                       x_ref: float, x: float) -> float:
    """Deformed coordinate x_hat = integral of P/sqrt(2m(E-V)) from x_ref,
    from its table. The interval must lie inside one classically allowed
    region (in forbidden ones the coordinate turns imaginary: out of scope)."""
    table = _Table(field, spec, x_ref, x, quantum=True)
    return float(table.sign * table.s[-1])


def quantum_jacobi_time(field_builder, spec: PotentialSpec, x_hat_target: float,
                        energy: float, x_ref: float,
                        delta_e: float = None) -> float:
    """Arrival time from the quantum Jacobi theorem: the E-derivative of
    S0 at fixed quantum coordinate, by centered differencing over the fields
    field_builder(E +- delta_e) builds (called in that order; same
    microstate, conventions and grid). S0 is measured from x_ref, the origin
    of the quantum coordinate and of time. The arrival point inverts the
    coordinate's table from x_ref to a turning point or to 2h inside the grid.
    """
    if delta_e is None:
        delta_e = 1e-5 * energy

    def locate(field):
        # x_hat rises along the sign of P
        direction = int(math.copysign(1.0, x_hat_target * field.p_at(x_ref)))
        end = _reach(field, spec, x_ref, direction, 0.0, 2.0 * field.grid.spacing)[0]
        table = _Table(field, spec, x_ref, end, quantum=True)
        if abs(x_hat_target) > table.s[-1]:
            raise DomainError(f"x_hat target {x_hat_target} not bracketed",
                              module=_MODULE, op="quantum_jacobi_time")
        return float(table.x_at(abs(x_hat_target)))

    fields = [field_builder(energy + delta_e), field_builder(energy - delta_e)]
    s_plus, s_minus = (f.s0_at(locate(f)) - f.s0_at(x_ref) for f in fields)
    return float((s_plus - s_minus) / (2.0 * delta_e))


def quantum_lagrangian_state(field: ReducedActionField, spec: PotentialSpec,
                             x: float, xdot: float) -> QuantumLagrangianState:
    """f, L_q = (m/2) xdot^2 f - V and H_q = (m/2) xdot^2 f + V at a point;
    along a dispersion-relation trajectory H_q equals E."""
    f, v = f_function(field, spec, x), spec.value(x, field.units)
    kinetic = 0.5 * field.units.mass * xdot**2 * f
    return QuantumLagrangianState(float(f), float(kinetic - v), float(kinetic + v))


def trajectory_to_csv(traj: Trajectory, path):
    """Write t,x,xdot,p,f,hq_minus_e,fiqnl_residual_rel for a trajectory; the
    FIQNL column is relative to E^4, from the analytic ladder of ``_flow_derivatives``."""
    field, spec = traj.field, traj.spec
    p, f = field.p_at(traj.x), f_function(field, spec, traj.x)
    hq = 0.5 * field.units.mass * traj.xdot**2 * f + spec.value(traj.x, field.units)
    rel = fiqnl_residual(spec, field.energy, traj.x,
                         *_flow_derivatives(field, spec, traj.x),
                         field.units) / field.energy**4
    write_csv(path, "t,x,xdot,p,f,hq_minus_e,fiqnl_residual_rel",
              traj.t, traj.x, traj.xdot, p, f, hq - field.energy, rel)
