"""Stationary 1-D Schrodinger machinery.

Potentials, a fixed-step Numerov integrator that carries the first
derivative, independent solution pairs with controlled Wronskian, node
counting, and bound-state search by bisection on the node count of a
left-launched shooting solution (no log-derivative mismatch). Every
Numerov sweep is one LAPACK banded forward substitution; the search's
sweeps renormalize forbidden-region overflow and keep only the signs of
the history they rescale.

Natural units hbar = m = 1 are the default; both constants are explicit
parameters so classical-limit sweeps can rescale hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dtbtrs

from .errors import (
    DomainError,
    IntegrationQualityError,
    NumericError,
    ParameterError,
    SearchError,
)

_MODULE = "schrodinger"

#: Magnitude at which forbidden-region growth is flagged as overflow.
_OVERFLOW_LIMIT = 1e250

#: Format used for all CSV output (round-trip safe).
CSV_FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class UnitSystem:
    """hbar and particle mass, kept explicit for hbar-scaling studies."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.hbar < math.inf):
            raise ParameterError("hbar must be finite and > 0", module=_MODULE,
                                 op="UnitSystem")
        if not (0.0 < self.mass < math.inf):
            raise ParameterError("mass must be finite and > 0", module=_MODULE,
                                 op="UnitSystem")


NATURAL_UNITS = UnitSystem()


@dataclass(frozen=True)
class Grid:
    """Strictly uniform 1-D grid; the Numerov integrator relies on uniformity."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ParameterError("x_min and x_max must be finite", module=_MODULE,
                                 op="Grid")
        if not (self.x_min < self.x_max):
            raise ParameterError("x_min must be < x_max", module=_MODULE, op="Grid")
        if self.n_points < 9:
            raise ParameterError("n_points must be >= 9", module=_MODULE, op="Grid")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def index_of(self, x: float) -> int:
        """Nearest grid index of x (x must lie inside the grid)."""
        if x < self.x_min - 1e-12 or x > self.x_max + 1e-12:
            raise DomainError(f"x={x} outside grid [{self.x_min}, {self.x_max}]",
                              module=_MODULE, op="Grid.index_of", x=x)
        return int(round((x - self.x_min) / self.spacing))


class PotentialSpec:
    """Analytic or tabulated potential V(x).

    Kinds: free, linear (slope g), harmonic (frequency omega), tabulated
    (cubic-spline interpolated samples), radial_effective (inner potential
    plus the centrifugal term lam*hbar^2/(2 m r^2)), polar_angle (the
    (m_ell^2 - 1/4) hbar^2 / (2 m sin^2 theta) potential of the polar
    equation on (0, pi)).
    """

    def __init__(self, kind, *, slope=None, omega=None, xs=None, vs=None,
                 inner=None, lam=None, m_ell=None):
        self.kind = kind
        self.slope = slope
        self.omega = omega
        self.inner = inner
        self.lam = lam
        self.m_ell = m_ell
        self._spline = None
        if not all(math.isfinite(c) for c in (slope, omega, lam) if c is not None):
            raise ParameterError("potential constants must be finite",
                                 module=_MODULE, op="PotentialSpec")
        if kind == "radial_effective" and not isinstance(inner, PotentialSpec):
            raise ParameterError("radial potential requires an inner PotentialSpec",
                                 module=_MODULE, op="PotentialSpec")
        if kind == "harmonic" and not (omega and omega > 0):
            raise ParameterError("harmonic potential requires omega > 0",
                                 module=_MODULE, op="PotentialSpec")
        if kind == "tabulated":
            xs = np.asarray(xs, dtype=float)
            vs = np.asarray(vs, dtype=float)
            if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 4:
                raise ParameterError("tabulated potential needs matching 1-D x,v arrays",
                                     module=_MODULE, op="PotentialSpec")
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
                raise ParameterError("tabulated potential values must be finite",
                                     module=_MODULE, op="PotentialSpec")
            order = np.argsort(xs)
            self.xs = xs[order]
            self.vs = vs[order]
            self._spline = CubicSpline(self.xs, self.vs)

    # ---- constructors -------------------------------------------------
    @classmethod
    def free(cls):
        return cls("free")

    @classmethod
    def linear(cls, slope):
        return cls("linear", slope=float(slope))

    @classmethod
    def harmonic(cls, omega):
        return cls("harmonic", omega=float(omega))

    @classmethod
    def tabulated(cls, xs, vs):
        return cls("tabulated", xs=xs, vs=vs)

    @classmethod
    def tabulated_from_csv(cls, path):
        """Read a tabulated potential from CSV with header ``x,v``."""
        data = np.genfromtxt(path, delimiter=",", names=True)
        if data.dtype.names is None or tuple(data.dtype.names[:2]) != ("x", "v"):
            raise ParameterError(f"{path}: expected CSV header 'x,v'",
                                 module=_MODULE, op="tabulated_from_csv")
        return cls.tabulated(data["x"], data["v"])

    @classmethod
    def radial_effective(cls, inner, lam):
        if lam < 0:
            raise ParameterError("lam must be >= 0", module=_MODULE, op="radial_effective")
        return cls("radial_effective", inner=inner, lam=float(lam))

    @classmethod
    def polar_angle(cls, m_ell):
        return cls("polar_angle", m_ell=int(m_ell))

    # ---- evaluation ---------------------------------------------------
    def value(self, x, units: UnitSystem = NATURAL_UNITS):
        """V(x); accepts scalars or arrays."""
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            out = np.zeros_like(x)
        elif self.kind == "linear":
            out = self.slope * x
        elif self.kind == "harmonic":
            out = 0.5 * units.mass * self.omega**2 * x**2
        elif self.kind == "tabulated":
            if np.any(x < self.xs[0] - 1e-12) or np.any(x > self.xs[-1] + 1e-12):
                raise DomainError("x outside tabulated domain",
                                  module=_MODULE, op="potential_value",
                                  x=float(np.atleast_1d(x).flat[0]))
            out = self._spline(x)
        elif self.kind == "radial_effective":
            if np.any(x <= 0.0):
                raise DomainError("radial potential requires r > 0",
                                  module=_MODULE, op="potential_value",
                                  x=float(np.min(x)))
            out = self.inner.value(x, units) + \
                self.lam * units.hbar**2 / (2.0 * units.mass * x**2)
        elif self.kind == "polar_angle":
            if np.any(x <= 0.0) or np.any(x >= np.pi):
                raise DomainError("polar potential requires 0 < theta < pi",
                                  module=_MODULE, op="potential_value",
                                  x=float(np.min(x)))
            out = (self.m_ell**2 - 0.25) * units.hbar**2 / \
                (2.0 * units.mass * np.sin(x)**2)
        else:
            raise ParameterError(f"unknown potential kind {self.kind!r}",
                                 module=_MODULE, op="potential_value")
        return out if out.ndim else float(out)

    def derivative(self, x, units: UnitSystem = NATURAL_UNITS):
        """dV/dx, analytic except for tabulated (spline derivative)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            out = np.zeros_like(x)
        elif self.kind == "linear":
            out = np.full_like(x, self.slope)
        elif self.kind == "harmonic":
            out = units.mass * self.omega**2 * x
        elif self.kind == "tabulated":
            out = self._spline(x, 1)
        elif self.kind == "radial_effective":
            out = self.inner.derivative(x, units) - \
                self.lam * units.hbar**2 / (units.mass * x**3)
        elif self.kind == "polar_angle":
            out = -(self.m_ell**2 - 0.25) * units.hbar**2 * np.cos(x) / \
                (units.mass * np.sin(x)**3)
        else:
            raise ParameterError(f"unknown potential kind {self.kind!r}",
                                 module=_MODULE, op="potential_derivative")
        return out if out.ndim else float(out)

    def second_derivative(self, x, units: UnitSystem = NATURAL_UNITS):
        x = np.asarray(x, dtype=float)
        if self.kind in ("free", "linear"):
            out = np.zeros_like(x)
        elif self.kind == "harmonic":
            out = np.full_like(x, units.mass * self.omega**2)
        elif self.kind == "tabulated":
            out = self._spline(x, 2)
        elif self.kind == "radial_effective":
            out = self.inner.second_derivative(x, units) + \
                3.0 * self.lam * units.hbar**2 / (units.mass * x**4)
        elif self.kind == "polar_angle":
            s, c = np.sin(x), np.cos(x)
            out = (self.m_ell**2 - 0.25) * units.hbar**2 * \
                (3.0 * c**2 + s**2) / (units.mass * s**4)
        else:
            raise ParameterError(f"unknown potential kind {self.kind!r}",
                                 module=_MODULE, op="potential_second_derivative")
        return out if out.ndim else float(out)


def potential_samples(spec: PotentialSpec, x, units: UnitSystem = NATURAL_UNITS):
    """(V, V') at the points x as float arrays, the samples a SolutionPair
    carries."""
    return (np.asarray(spec.value(x, units), dtype=float),
            np.asarray(spec.derivative(x, units), dtype=float))


@dataclass
class Solution:
    """Samples of one real Schrodinger solution and its first derivative."""

    grid: Grid
    energy: float
    units: UnitSystem
    values: np.ndarray
    derivs: np.ndarray


@dataclass
class SolutionPair:
    """Two independent real solutions at one energy with constant Wronskian.

    The Wronskian convention is W = theta1*theta2' - theta1'*theta2.
    """

    grid: Grid
    energy: float
    units: UnitSystem
    sol1: Solution
    sol2: Solution
    wronskian: float
    v: np.ndarray = field(repr=False, default=None)
    dv: np.ndarray = field(repr=False, default=None)

    def wronskian_samples(self) -> np.ndarray:
        return (self.sol1.values * self.sol2.derivs
                - self.sol1.derivs * self.sol2.values)


# ----------------------------------------------------------------------
# Numerov integration
# ----------------------------------------------------------------------

def _rk4_first_step(w_of_x, x0, h, y0, dy0, n_sub=8):
    """High-order start value y(x0+h) for the Numerov recurrence."""
    hh = h / n_sub
    x, y, dy = x0, y0, dy0
    for _ in range(n_sub):
        k1v, k1d = dy, w_of_x(x) * y
        k2v = dy + 0.5 * hh * k1d
        k2d = w_of_x(x + 0.5 * hh) * (y + 0.5 * hh * k1v)
        k3v = dy + 0.5 * hh * k2d
        k3d = w_of_x(x + 0.5 * hh) * (y + 0.5 * hh * k2v)
        k4v = dy + hh * k3d
        k4d = w_of_x(x + hh) * (y + hh * k3v)
        y = y + hh / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        dy = dy + hh / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        x += hh
    return y


def _numerov_solve(c, y0, y1):
    """Numerov samples from the seeds y0, y1 by one forward substitution.

    The recurrence c[i+1] y[i+1] - (12 - 10 c[i]) y[i] + c[i-1] y[i-1] = 0
    below the two seed rows is a lower-triangular banded system of
    bandwidth 2; LAPACK ``dtbtrs`` solves it without pivoting, which is the
    recurrence itself. Returns (samples, info); info > 0 names the 1-based
    row whose coefficient c vanished, and then nothing was solved.
    """
    n = c.size
    ab = np.empty((n, 3)).T                 # Fortran-ordered band storage
    ab[0, :2] = 1.0
    ab[0, 2:] = c[2:]
    ab[1, 0] = 0.0
    ab[1, 1:] = 10.0 * c[1:] - 12.0
    ab[2] = c
    b = np.zeros((n, 1), order="F")
    b[0, 0], b[1, 0] = y0, y1
    y, info = dtbtrs(ab, b, uplo="L", overwrite_b=1)
    return y[:, 0], info


def _numerov_values(w, h, y0, y1, x0=0.0, renormalize=False):
    """Run the Numerov recurrence for psi'' = w(x) psi over the array w.

    Each sweep is one LAPACK forward substitution (``_numerov_solve``). The
    first sample beyond ``_OVERFLOW_LIMIT``, or non-finite, marks
    forbidden-region overflow. Without renormalize it is an error carrying
    the position. With renormalize (the bound-state search, which needs
    only signs) the history before it is reduced to its signs, the two
    samples at the overflow are rescaled by 1e-200 and the solve restarts
    from them; a sign-only history cannot underflow to zero and lose nodes.
    """
    c = 1.0 - (h * h / 12.0) * w
    y = np.empty(c.size)
    start, s0, s1 = 0, y0, y1
    while True:
        seg, info = _numerov_solve(c[start:], s0, s1)
        if info > 0:
            raise NumericError("Numerov coefficient 1 - h^2 w / 12 vanished; "
                               "refine the grid", module=_MODULE,
                               op="integrate_schrodinger",
                               x=x0 + (start + info - 1) * h)
        y[start:] = seg
        over = ~(np.abs(seg[2:]) <= _OVERFLOW_LIMIT)
        if not over.any():
            return y
        k = start + 2 + int(np.argmax(over))
        if not renormalize:
            raise NumericError(
                "solution overflow in classically forbidden region",
                module=_MODULE, op="integrate_schrodinger", x=x0 + k * h)
        if not np.isfinite(y[k]):           # count_nodes rejects the sweep
            return y
        y[:k - 1] = np.sign(y[:k - 1])
        start, s0, s1 = k - 1, y[k - 1] * 1e-200, y[k] * 1e-200


def _numerov_derivatives(y, w, h, dy0, w_ghost, y_ghost):
    """Fourth-order derivative samples consistent with psi'' = w psi."""
    n = y.size
    d = np.empty(n)
    d[0] = dy0
    d[1:-1] = ((1.0 - h * h * w[2:] / 6.0) * y[2:]
               - (1.0 - h * h * w[:-2] / 6.0) * y[:-2]) / (2.0 * h)
    d[-1] = ((1.0 - h * h * w_ghost / 6.0) * y_ghost
             - (1.0 - h * h * w[-2] / 6.0) * y[-2]) / (2.0 * h)
    return d


def integrate_schrodinger(spec: PotentialSpec, energy: float, grid: Grid,
                          init, units: UnitSystem = NATURAL_UNITS,
                          from_right: bool = False) -> Solution:
    """Integrate psi'' = (2m/hbar^2)(V - E) psi across the grid.

    ``init`` is (value, derivative) at x_min, or at x_max with from_right,
    which sweeps leftward with the signed step -h; the samples are
    returned in grid order either way. Fourth-order accurate; the
    derivative is carried by the integrator rather than re-differenced.
    """
    y0, dy0 = float(init[0]), float(init[1])
    if y0 == 0.0 and dy0 == 0.0:
        raise ParameterError("initial value and derivative cannot both be zero",
                             module=_MODULE, op="integrate_schrodinger")
    x = grid.points()
    h = grid.spacing
    coeff = 2.0 * units.mass / units.hbar**2
    v = np.asarray(spec.value(x, units), dtype=float)
    if not np.all(np.isfinite(v)):
        raise NumericError("non-finite potential values on grid",
                           module=_MODULE, op="integrate_schrodinger")
    w = coeff * (v - energy)
    if from_right:
        x, w, h = x[::-1], w[::-1], -h

    def w_of_x(xx):
        return coeff * (spec.value(xx, units) - energy)

    y1 = _rk4_first_step(w_of_x, x[0], h, y0, dy0)
    y = _numerov_values(w, h, y0, y1, x0=x[0])

    # ghost point one step past the last sample for its derivative;
    # tabulated potentials need only cover the grid, so fall back to
    # extrapolation
    x_ghost = x[-1] + h
    try:
        w_ghost = w_of_x(x_ghost)
    except DomainError:
        w_ghost = 2.0 * w[-1] - w[-2]
    c_nm1 = 1.0 - (h * h / 12.0) * w[-2]
    c_n = 1.0 - (h * h / 12.0) * w[-1]
    c_g = 1.0 - (h * h / 12.0) * w_ghost
    y_ghost = ((12.0 - 10.0 * c_n) * y[-1] - c_nm1 * y[-2]) / c_g

    d = _numerov_derivatives(y, w, h, dy0, w_ghost, y_ghost)
    if from_right:
        y, d = y[::-1], d[::-1]
    return Solution(grid=grid, energy=energy, units=units, values=y, derivs=d)


def _wronskian_gate(sol1: Solution, sol2: Solution, op: str,
                    drift_tol: float = 1e-6) -> float:
    """Median Wronskian of two solutions; rejects dependent solutions and a
    relative drift across the grid above drift_tol."""
    w_samples = sol1.values * sol2.derivs - sol1.derivs * sol2.values
    w_ref = float(np.median(w_samples))
    if w_ref == 0.0 or not np.isfinite(w_ref):
        raise ParameterError("solutions are dependent (zero Wronskian)",
                             module=_MODULE, op=op)
    drift = float(np.max(np.abs(w_samples - w_ref)) / abs(w_ref))
    if drift > drift_tol:
        raise IntegrationQualityError(
            f"Wronskian drift {drift:.3e} exceeds {drift_tol:.1e}; refine the grid",
            module=_MODULE, op=op)
    return w_ref


def make_pair(spec: PotentialSpec, energy: float, grid: Grid,
              units: UnitSystem = NATURAL_UNITS,
              target_wronskian: float = 1.0) -> SolutionPair:
    """Build an independent pair from initial conditions (1,0) and (0,1).

    The second solution is rescaled so the Wronskian
    theta1*theta2' - theta1'*theta2 equals ``target_wronskian`` exactly
    (integration quality permitting).
    """
    if target_wronskian == 0.0:
        raise ParameterError("target_wronskian must be nonzero",
                             module=_MODULE, op="make_pair")
    s1 = integrate_schrodinger(spec, energy, grid, (1.0, 0.0), units)
    s2 = integrate_schrodinger(spec, energy, grid, (0.0, 1.0), units)
    scale = target_wronskian / _wronskian_gate(s1, s2, "make_pair")
    s2 = Solution(grid=grid, energy=energy, units=units,
                  values=s2.values * scale, derivs=s2.derivs * scale)
    if np.any(s1.values**2 + s2.values**2 <= 0.0):
        raise NumericError("theta1^2 + theta2^2 vanished on the grid",
                           module=_MODULE, op="make_pair")
    v, dv = potential_samples(spec, grid.points(), units)
    return SolutionPair(grid=grid, energy=energy, units=units,
                        sol1=s1, sol2=s2, wronskian=target_wronskian, v=v, dv=dv)


def pair_from_solutions(sol1: Solution, sol2: Solution, spec: PotentialSpec,
                        drift_tol: float = 1e-6) -> SolutionPair:
    """Assemble a SolutionPair from two existing solutions (same grid/E)."""
    if sol1.grid != sol2.grid or sol1.energy != sol2.energy:
        raise ParameterError("solutions must share grid and energy",
                             module=_MODULE, op="pair_from_solutions")
    w_ref = _wronskian_gate(sol1, sol2, "pair_from_solutions", drift_tol)
    v, dv = potential_samples(spec, sol1.grid.points(), sol1.units)
    return SolutionPair(grid=sol1.grid, energy=sol1.energy, units=sol1.units,
                        sol1=sol1, sol2=sol2, wronskian=w_ref, v=v, dv=dv)


def analytic_free_pair(energy: float, grid: Grid,
                       units: UnitSystem = NATURAL_UNITS,
                       target_wronskian: float | None = None,
                       amplitude: float = 1.0) -> SolutionPair:
    """Exact free pair (A sin kx, A cos kx), k = sqrt(2mE)/hbar.

    Natural Wronskian is -k*A^2; target_wronskian additionally rescales
    sol2 alone. A balanced amplitude A^2 = sqrt(2m)/(hbar k sqrt(ab-c^2/4))
    realizes Floyd's normalization with equal envelopes.
    """
    if energy <= 0:
        raise ParameterError("free pair requires E > 0",
                             module=_MODULE, op="analytic_free_pair")
    k = math.sqrt(2.0 * units.mass * energy) / units.hbar
    x = grid.points()
    a0 = float(amplitude)
    s1 = Solution(grid, energy, units, a0 * np.sin(k * x),
                  a0 * k * np.cos(k * x))
    scale = 1.0
    if target_wronskian is not None:
        scale = target_wronskian / (-k * a0**2)
    s2 = Solution(grid, energy, units, scale * a0 * np.cos(k * x),
                  -scale * a0 * k * np.sin(k * x))
    return SolutionPair(grid=grid, energy=energy, units=units, sol1=s1,
                        sol2=s2, wronskian=-k * a0**2 * scale,
                        v=np.zeros_like(x), dv=np.zeros_like(x))


# ----------------------------------------------------------------------
# Nodes and bound states
# ----------------------------------------------------------------------

def count_nodes(values) -> int:
    """Number of strict sign changes between samples; endpoint zeros are
    not nodes, and an exact interior zero at a grid point counts once."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NumericError("non-finite samples", module=_MODULE, op="count_nodes")
    s = np.sign(v)
    s = s[s != 0.0]
    if s.size < 2:
        return 0
    return int(np.sum(s[1:] * s[:-1] < 0.0))


def _shoot_nodes(w, h):
    """Node count of the left-launched solution (0,1), renormalized."""
    y = _numerov_values(w, h, 0.0, h, renormalize=True)
    return count_nodes(y[1:])   # skip the endpoint zero


def find_bound_energies(spec: PotentialSpec, grid: Grid,
                        units: UnitSystem = NATURAL_UNITS,
                        n_max: int = 1, e_tol: float = 1e-12) -> list[float]:
    """First n_max bound energies by bisection on the node count alone.

    Level n is the midpoint of the bracket on which the node count of the
    left-launched solution steps from n to n + 1, bisected until it is no
    wider than max(e_tol, 1e-14 |E|). Each count is one renormalized
    Numerov sweep (``_shoot_nodes``), a LAPACK forward substitution whose
    history keeps only signs across each overflow rescale.

    The potential must confine on the grid (V large at both ends relative
    to the returned energies).
    """
    if n_max < 1:
        raise ParameterError("n_max must be >= 1", module=_MODULE,
                             op="find_bound_energies")
    x = grid.points()
    h = grid.spacing
    v = np.asarray(spec.value(x, units), dtype=float)
    coeff = 2.0 * units.mass / units.hbar**2
    e_floor = float(np.min(v)) + 1e-12
    e_ceil = float(min(v[0], v[-1]))
    if e_ceil <= e_floor + 1e-12:
        raise SearchError(
            f"potential not confining on grid: scan window [{e_floor:.6g}, {e_ceil:.6g}] empty",
            module=_MODULE, op="find_bound_energies")

    def nodes_at(e):
        return _shoot_nodes(coeff * (v - e), h)

    energies = []
    for n in range(n_max):
        lo, hi = e_floor, e_ceil
        if nodes_at(hi) <= n:
            raise SearchError(
                f"state {n} not bracketed in energy window [{e_floor:.6g}, {e_ceil:.6g}]",
                module=_MODULE, op="find_bound_energies")
        # squeeze [lo, hi] to the node-count transition n -> n+1
        if nodes_at(lo) > n:
            raise SearchError(
                f"node count at window floor already exceeds {n}",
                module=_MODULE, op="find_bound_energies")
        for _ in range(200):
            if hi - lo <= max(e_tol, 1e-14 * abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if nodes_at(mid) > n:
                hi = mid
            else:
                lo = mid
        energies.append(0.5 * (lo + hi))
    return energies


def physical_bound_solution(spec: PotentialSpec, energy: float, grid: Grid,
                            units: UnitSystem = NATURAL_UNITS) -> Solution:
    """Normalized bound-state solution at an eigenvalue: integrated inward
    from both ends and glued at the matching point (exponential-growth
    control).

    The boundary initial conditions follow the decaying exponential
    envelope, (phi, phi') = (1, +-kappa); the solution then has no
    artificial zero at the grid edge, which the partner construction of
    the quantization module relies on."""
    x = grid.points()
    h = grid.spacing
    v = np.asarray(spec.value(x, units), dtype=float)
    i_match = int(np.argmin(np.abs(v - energy)))
    i_match = min(max(i_match, 8), grid.n_points - 9)
    left_grid = Grid(grid.x_min, x[i_match], i_match + 1)
    right_grid = Grid(x[i_match], grid.x_max, grid.n_points - i_match)
    coeff = 2.0 * units.mass / units.hbar**2

    def envelope_init(v_end):
        kappa_sq = coeff * (v_end - energy)
        return (0.0, h) if kappa_sq <= 0.0 else (1.0, math.sqrt(kappa_sq))

    y_l, d_l = envelope_init(v[0])
    y_r, d_r = envelope_init(v[-1])
    sl = integrate_schrodinger(spec, energy, left_grid, (y_l, d_l), units)
    sr = integrate_schrodinger(spec, energy, right_grid, (y_r, -d_r), units,
                               from_right=True)
    if sr.values[0] == 0.0 or sl.values[-1] == 0.0:
        raise NumericError("matching point fell on a node; shift the grid",
                           module=_MODULE, op="physical_bound_solution",
                           x=x[i_match])
    scale = sl.values[-1] / sr.values[0]
    values = np.concatenate([sl.values, scale * sr.values[1:]])
    derivs = np.concatenate([sl.derivs, scale * sr.derivs[1:]])
    sq = values**2
    norm = math.sqrt(float(np.sum(np.diff(x) * (sq[1:] + sq[:-1]) / 2.0)))
    if norm == 0.0 or not math.isfinite(norm):
        raise NumericError("bound solution failed to normalize",
                           module=_MODULE, op="physical_bound_solution")
    return Solution(grid=grid, energy=energy, units=units,
                    values=values / norm, derivs=derivs / norm)


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------

def pair_to_csv(pair: SolutionPair, path):
    """Write a solution pair with header x,theta1,dtheta1,theta2,dtheta2."""
    x = pair.grid.points()
    data = np.column_stack([x, pair.sol1.values, pair.sol1.derivs,
                            pair.sol2.values, pair.sol2.derivs])
    np.savetxt(path, data, delimiter=",", fmt=CSV_FLOAT_FORMAT,
               header="x,theta1,dtheta1,theta2,dtheta2", comments="")
