"""Stationary 1-D Schrodinger machinery.

Potentials, a fixed-step Numerov integrator that carries the first
derivative, independent solution pairs with controlled Wronskian, node
counting, and the bound-state search. Every Numerov sweep is one LAPACK
banded forward substitution. The search brackets each level on the node
count of the left-launched solution and closes it in by Illinois regula
falsi on the sweep's end sample, carried across the counted 1e-200
overflow rescales (the node-count plus matching-function split of
Johnson's renormalized Numerov method, J. Chem. Phys. 69, 4678 (1978)).
Each level is seeded with two sweeps just either side of a coarse
finite-difference estimate; being sweeps like any other, they can narrow
a bracket but not change the step of the node count it closes on.

Natural units hbar = m = 1 are the default; both constants are explicit
parameters so classical-limit sweeps can rescale hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import LinAlgError, eigh_tridiagonal
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

#: Illinois step of the search: halving a kept end sample, in log10 units.
_LOG10_2 = math.log10(2.0)

#: A bound level is closed once its bracket is no wider than
#: max(_E_TOL, 1e-14 |E|).
_E_TOL = 1e-12

#: Largest relative Wronskian drift across the grid that a pair may show.
_DRIFT_TOL = 1e-6


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


#: The least positive float: x < _TINY is x <= 0.
_TINY = math.nextafter(0.0, 1.0)

#: Per kind: V, V', V'' of (spec, x, units) and the domain (lo, hi, message)
#: of x, or None (the tabulated one is set per instance). Each term is written
#: once for a float and an array: a square is a product, as np.square computes
#: it, and higher powers and sin/cos go through numpy, so both agree bit for bit.
_KINDS = {
    "free": (lambda s, x, u: 0.0,) * 3 + (None,),
    "linear": (lambda s, x, u: s.slope * x, lambda s, x, u: s.slope,
               lambda s, x, u: 0.0, None),
    "harmonic": (lambda s, x, u: 0.5 * u.mass * s.omega**2 * (x * x),
                 lambda s, x, u: u.mass * s.omega**2 * x,
                 lambda s, x, u: u.mass * s.omega**2, None),
    "tabulated": (lambda s, x, u: s._spline(x), lambda s, x, u: s._spline(x, 1),
                  lambda s, x, u: s._spline(x, 2), None),
    "radial_effective": (
        lambda s, x, u: (s.inner.value(x, u)
                         + s.lam * u.hbar**2 / (2.0 * u.mass * (x * x))),
        lambda s, x, u: (s.inner.derivative(x, u)
                         - s.lam * u.hbar**2 / (u.mass * np.power(x, 3))),
        lambda s, x, u: (s.inner.second_derivative(x, u)
                         + 3.0 * s.lam * u.hbar**2 / (u.mass * np.power(x, 4))),
        (_TINY, math.inf, "radial potential requires r > 0")),
    "polar_angle": (
        lambda s, x, u: ((s.m_ell**2 - 0.25) * u.hbar**2
                         / (2.0 * u.mass * np.square(np.sin(x)))),
        lambda s, x, u: (-(s.m_ell**2 - 0.25) * u.hbar**2 * np.cos(x)
                         / (u.mass * np.power(np.sin(x), 3))),
        lambda s, x, u: ((s.m_ell**2 - 0.25) * u.hbar**2
                         * (3.0 * np.square(np.cos(x)) + np.square(np.sin(x)))
                         / (u.mass * np.power(np.sin(x), 4))),
        (_TINY, math.nextafter(math.pi, 0.0),
         "polar potential requires 0 < theta < pi")),
}


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
        if kind not in _KINDS:
            raise ParameterError(f"unknown potential kind {kind!r}",
                                 module=_MODULE, op="PotentialSpec")
        self.kind = kind
        *self._terms, self._domain = _KINDS[kind]
        self.slope = slope
        self.omega = omega
        self.inner = inner
        self.lam = lam
        self.m_ell = m_ell
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
            self._domain = (self.xs[0] - 1e-12, self.xs[-1] + 1e-12,
                            "x outside tabulated domain")

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
    def _eval(self, order, x, units):
        """The kind's d^order V / dx^order at x: a float for a scalar x,
        else an array of x's shape. Rejects x outside the kind's domain."""
        scalar = isinstance(x, float) or np.ndim(x) == 0
        x = float(x) if scalar else np.asarray(x, dtype=float)
        if self._domain is not None:
            lo, hi, message = self._domain
            outside = (x < lo) | (x > hi)
            if outside if scalar else outside.any():
                raise DomainError(message, module=_MODULE, op="potential_value",
                                  x=x if scalar else float(x[outside][0]))
        out = self._terms[order](self, x, units)
        if scalar:
            return float(out)
        return out if np.ndim(out) else np.full(x.shape, out)

    def value(self, x, units: UnitSystem = NATURAL_UNITS):
        """V(x); accepts scalars or arrays."""
        return self._eval(0, x, units)

    def derivative(self, x, units: UnitSystem = NATURAL_UNITS):
        """dV/dx, analytic except for tabulated (spline derivative)."""
        return self._eval(1, x, units)

    def second_derivative(self, x, units: UnitSystem = NATURAL_UNITS):
        return self._eval(2, x, units)


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
    """Two independent real solutions at one energy with constant Wronskian,
    and the potential they solve.

    The Wronskian convention is W = theta1*theta2' - theta1'*theta2.
    """

    grid: Grid
    energy: float
    units: UnitSystem
    sol1: Solution
    sol2: Solution
    wronskian: float
    spec: PotentialSpec = field(repr=False)

    @cached_property
    def v(self) -> np.ndarray:
        """V on the grid."""
        return self.spec.value(self.grid.points(), self.units)

    def wronskian_samples(self) -> np.ndarray:
        return (self.sol1.values * self.sol2.derivs
                - self.sol1.derivs * self.sol2.values)


# ----------------------------------------------------------------------
# Numerov integration
# ----------------------------------------------------------------------

def _rk4_first_step(w_of_x, x0, h, y0, dy0):
    """High-order start value y(x0+h) for the Numerov recurrence: eight RK4
    substeps."""
    hh = h / 8
    x, y, dy = x0, y0, dy0
    for _ in range(8):
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


def _numerov_band(n):
    """Empty buffers of one n-point Numerov sweep: the Fortran-ordered band
    storage of its triangular system, whose row 2 the caller fills with the
    coefficients c = 1 - h^2 w / 12, and the right-hand side column that
    ``_numerov_sweep`` overwrites with the samples."""
    return np.empty((n, 3)).T, np.empty((n, 1), order="F")


def _numerov_sweep(ab, b, h, y0, y1, x0=0.0, renormalize=False):
    """Numerov samples into b[:, 0] from the seeds y0, y1 and c = ab[2].

    The recurrence c[i+1] y[i+1] - (12 - 10 c[i]) y[i] + c[i-1] y[i-1] = 0
    below the two seed rows is a lower-triangular banded system of
    bandwidth 2; LAPACK ``dtbtrs`` solves it in place without pivoting,
    which is the recurrence itself. The sweep allocates nothing of the
    grid's size, so a search that reuses the buffers does not pay for
    fresh pages on every sweep.

    The first sample beyond ``_OVERFLOW_LIMIT``, or non-finite, marks
    forbidden-region overflow. Without renormalize it is an error carrying
    the position. With renormalize (the bound-state search) the history
    before it is reduced to its signs, the two samples at the overflow are
    rescaled by 1e-200 and the solve restarts from them; a sign-only
    history cannot underflow to zero and lose nodes. Returns k, the number
    of rescales applied: the end sample's true value is y[-1] 10^(200 k).
    """
    c = ab[2]
    ab[0, 2:] = c[2:]
    np.multiply(c[1:], 10.0, out=ab[1, 1:])
    ab[1, 1:] -= 12.0
    y = b[:, 0]
    start, s0, s1, k_rescales = 0, y0, y1, 0
    while True:
        ab[0, start:start + 2] = 1.0
        ab[1, start] = 0.0
        y[start], y[start + 1] = s0, s1
        y[start + 2:] = 0.0
        x, info = dtbtrs(ab[:, start:], b[start:], uplo="L", overwrite_b=1)
        if info > 0:
            raise NumericError("Numerov coefficient 1 - h^2 w / 12 vanished; "
                               "refine the grid", module=_MODULE,
                               op="integrate_schrodinger",
                               x=x0 + (start + info - 1) * h)
        if not np.may_share_memory(x, b):   # a LAPACK wrapper that copied b
            b[start:] = x
        tail = y[start + 2:]
        # max/min are NaN when a sample is, which fails both comparisons
        if tail.size == 0 or (tail.max() <= _OVERFLOW_LIMIT
                              and tail.min() >= -_OVERFLOW_LIMIT):
            return k_rescales
        k = start + 2 + int(np.argmax(~(np.abs(tail) <= _OVERFLOW_LIMIT)))
        if not renormalize:
            raise NumericError(
                "solution overflow in classically forbidden region",
                module=_MODULE, op="integrate_schrodinger", x=x0 + k * h)
        if not np.isfinite(y[k]):           # count_nodes rejects the sweep
            return k_rescales
        np.sign(y[:k - 1], out=y[:k - 1])
        start, s0, s1 = k - 1, y[k - 1] * 1e-200, y[k] * 1e-200
        k_rescales += 1


def _numerov_values(w, h, y0, y1, x0=0.0):
    """Run the Numerov recurrence for psi'' = w(x) psi over the array w.

    One ``_numerov_sweep`` on fresh buffers; returns the samples.
    """
    ab, b = _numerov_band(len(w))
    c = ab[2]
    np.multiply(w, h * h / 12.0, out=c)
    np.subtract(1.0, c, out=c)
    _numerov_sweep(ab, b, h, y0, y1, x0=x0)
    return b[:, 0]


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
    v = spec.value(x, units)
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


def _wronskian_gate(sol1: Solution, sol2: Solution, op: str) -> float:
    """Median Wronskian of two solutions; rejects dependent solutions and a
    relative drift across the grid above _DRIFT_TOL."""
    w_samples = sol1.values * sol2.derivs - sol1.derivs * sol2.values
    w_ref = float(np.median(w_samples))
    if w_ref == 0.0 or not np.isfinite(w_ref):
        raise ParameterError("solutions are dependent (zero Wronskian)",
                             module=_MODULE, op=op)
    drift = float(np.max(np.abs(w_samples - w_ref)) / abs(w_ref))
    if drift > _DRIFT_TOL:
        raise IntegrationQualityError(
            f"Wronskian drift {drift:.3e} exceeds {_DRIFT_TOL:.1e}; refine the grid",
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
    return SolutionPair(grid=grid, energy=energy, units=units,
                        sol1=s1, sol2=s2, wronskian=target_wronskian, spec=spec)


def pair_from_solutions(sol1: Solution, sol2: Solution,
                        spec: PotentialSpec) -> SolutionPair:
    """Assemble a SolutionPair from two existing solutions (same grid/E)."""
    if sol1.grid != sol2.grid or sol1.energy != sol2.energy:
        raise ParameterError("solutions must share grid and energy",
                             module=_MODULE, op="pair_from_solutions")
    w_ref = _wronskian_gate(sol1, sol2, "pair_from_solutions")
    return SolutionPair(grid=sol1.grid, energy=sol1.energy, units=sol1.units,
                        sol1=sol1, sol2=sol2, wronskian=w_ref, spec=spec)


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
                        spec=PotentialSpec.free())


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


@dataclass(frozen=True)
class _Shooting:
    """What every sweep of one bound-state search shares: the potential
    samples v, 2m/hbar^2, the grid step and the sweep buffers
    (``_numerov_band``), which each sweep overwrites."""

    v: np.ndarray
    coeff: float
    h: float
    ab: np.ndarray
    b: np.ndarray


def _shoot_nodes(shooting, e):
    """One search sweep at energy e of the left-launched solution (0, h),
    renormalized, in the search's own buffers.

    Returns (node count, end sample y_N, k). The count skips the endpoint
    zero; y_N 10^(200 k) is the end sample's true value, k being the number
    of 1e-200 rescales, and its sign is (-1)^count.
    """
    h, c = shooting.h, shooting.ab[2]
    np.subtract(shooting.v, e, out=c)       # c = 1 - h^2 coeff (V - e) / 12
    c *= shooting.coeff
    c *= h * h / 12.0
    np.subtract(1.0, c, out=c)
    k = _numerov_sweep(shooting.ab, shooting.b, h, 0.0, h, renormalize=True)
    y = shooting.b[:, 0]
    return count_nodes(y[1:]), float(y[-1]), k


def _end_log(y_end, k):
    """log10 |y_N 10^(200 k)|, the magnitude of a sweep's true end sample."""
    return math.log10(abs(y_end)) + 200.0 * k if y_end else -math.inf


def _close_level(shoot, history, n):
    """Level n from the tightest bracket in history.

    Bisection on the node count runs until the two ends have opposite
    signs and magnitudes within a factor 10^2; then Illinois regula falsi
    on the signed end sample picks each new energy, its count decides
    which end it replaces, and a step outside the bracket falls back to
    the midpoint. history holds (E, count, y_N, k) per sweep; shoot(E)
    sweeps once, appends to it and returns the new entry.
    """
    e_lo, _, y_lo, k_lo = max((p for p in history if p[1] <= n), key=lambda p: p[0])
    e_hi, _, y_hi, k_hi = min((p for p in history if p[1] > n), key=lambda p: p[0])
    m_lo, m_hi = _end_log(y_lo, k_lo), _end_log(y_hi, k_hi)
    falsi, side = False, 0
    for _ in range(200):
        tol = max(_E_TOL, 1e-14 * abs(e_hi))
        if e_hi - e_lo <= tol:
            break
        # bisect on the count until the ends straddle one sign change of
        # comparable magnitude, where the end sample is nearly linear in E
        straddle = (y_lo > 0.0) != (y_hi > 0.0)
        falsi = falsi or (straddle and abs(m_lo - m_hi) <= 2.0)
        e = 0.5 * (e_lo + e_hi)
        if falsi and straddle:
            e_rf = e_lo + (e_hi - e_lo) / (1.0 + 10.0 ** min(m_hi - m_lo, 300.0))
            if e_lo < e_rf < e_hi:
                # a step at least tol/2 inside lets the far end move too
                e = min(max(e_rf, e_lo + 0.5 * tol), e_hi - 0.5 * tol)
        e, count, y, k = shoot(e)
        if count > n:
            e_hi, y_hi, m_hi = e, y, _end_log(y, k)
            if falsi and side > 0:
                m_lo -= _LOG10_2            # Illinois: halve the kept end
            side = 1
        else:
            e_lo, y_lo, m_lo = e, y, _end_log(y, k)
            if falsi and side < 0:
                m_hi -= _LOG10_2
            side = -1
    return 0.5 * (e_lo + e_hi)


def _level_estimates(v, coeff, h, n_max):
    """Estimates (E, half-width) of the first n_max levels from the samples v.

    Three-point finite differences on every s-th and every 2s-th sample,
    s = max(1, (N - 1) // 500), with psi = 0 at the first and last sample
    taken (the sweep's walls when 2s divides N - 1), combined by
    Richardson; the half-width is 1 % of the two grids' difference, plus
    1e-10. Empty when the coarser grid has n_max + 2 points or fewer, or
    when LAPACK fails. (Samples that are not finite never get here: the
    window-end sweeps reject them.)
    """
    s = max(1, (v.size - 1) // 500)
    if v[::2 * s].size <= n_max + 2:
        return []
    levels = []
    for step in (s, 2 * s):
        t = 1.0 / (coeff * (step * h) ** 2)
        diag = v[::step][1:-1] + 2.0 * t
        try:
            levels.append(eigh_tridiagonal(
                diag, np.full(diag.size - 1, -t), eigvals_only=True,
                select="i", select_range=(0, n_max - 1)))
        except LinAlgError:
            return []
    return [((4.0 * e_s - e_2s) / 3.0, 0.01 * abs(e_s - e_2s) + 1e-10)
            for e_s, e_2s in zip(*levels)]


def find_bound_energies(spec: PotentialSpec, grid: Grid,
                        units: UnitSystem = NATURAL_UNITS,
                        n_max: int = 1) -> list[float]:
    """First n_max bound energies by a node-count bracket closed in by
    Illinois regula falsi on the end sample of the shooting solution.

    Each sweep (``_shoot_nodes``) gives the node count and the end sample
    y_N 10^(200 k) of the left-launched solution; level n lies where the
    count steps from n to n + 1, which is where the end sample changes
    sign. Every sweep of a call is kept, so each level starts from the
    tightest bracket already seen and the window ends are swept once per
    call (``_close_level``). The level is the midpoint of its bracket once
    that is no wider than max(1e-12, 1e-14 |E|) (``_E_TOL``).

    Before any level is closed, each is seeded with one sweep either side
    of its finite-difference estimate (``_level_estimates``), usually
    close enough to start regula falsi at once. A seed sweep is only one
    more entry in the history: its node count decides which side of which
    level it lies on. An estimate that is off, out of order or missing
    costs sweeps; each level is still the same step of the count, closed
    to the same width, and every error is raised as before.

    The potential must confine on the grid (V large at both ends relative
    to the returned energies).
    """
    if n_max < 1:
        raise ParameterError("n_max must be >= 1", module=_MODULE,
                             op="find_bound_energies")
    x = grid.points()
    h = grid.spacing
    v = spec.value(x, units)
    coeff = 2.0 * units.mass / units.hbar**2
    e_floor = float(np.min(v)) + 1e-12
    e_ceil = float(min(v[0], v[-1]))
    if e_ceil <= e_floor + 1e-12:
        raise SearchError(
            f"potential not confining on grid: scan window [{e_floor:.6g}, {e_ceil:.6g}] empty",
            module=_MODULE, op="find_bound_energies")

    shooting = _Shooting(v, coeff, h, *_numerov_band(v.size))
    history = []

    def shoot(e):
        history.append((e, *_shoot_nodes(shooting, e)))
        return history[-1]

    # count(e_ceil) is the first level the window cannot bracket; say so
    # before any level is searched
    ceil_count = shoot(e_ceil)[1]
    if shoot(e_floor)[1] > 0:
        raise SearchError("node count at window floor already exceeds 0",
                          module=_MODULE, op="find_bound_energies")
    if ceil_count < n_max:
        raise SearchError(
            f"state {ceil_count} not bracketed in energy window "
            f"[{e_floor:.6g}, {e_ceil:.6g}]",
            module=_MODULE, op="find_bound_energies")
    # seed each level with a sweep either side of its estimate; a sweep only
    # adds to the history, so a wrong estimate costs two sweeps, not a level
    for e_est, half in _level_estimates(v, coeff, h, n_max):
        for e in (e_est - half, e_est + half):
            if e_floor < e < e_ceil:
                shoot(e)
    return [_close_level(shoot, history, n) for n in range(n_max)]


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
    v = spec.value(x, units)
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

#: Format used for all CSV output (round-trip safe).
CSV_FLOAT_FORMAT = "%.17g"


def write_csv(path, header, *columns):
    """Write equal-length columns under a comma-separated header, each float
    in CSV_FLOAT_FORMAT; the one CSV writer of the package. It formats
    Python floats, the bytes of np.savetxt in three quarters of its time."""
    row = ",".join([CSV_FLOAT_FORMAT] * len(columns)) + "\n"
    cells = zip(*(np.asarray(column, dtype=float).tolist() for column in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "".join(row % values for values in cells))


def pair_to_csv(pair: SolutionPair, path):
    """Write a solution pair with header x,theta1,dtheta1,theta2,dtheta2."""
    write_csv(path, "x,theta1,dtheta1,theta2,dtheta2", pair.grid.points(),
              pair.sol1.values, pair.sol1.derivs,
              pair.sol2.values, pair.sol2.derivs)
