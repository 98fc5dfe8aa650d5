"""Microstate-parameterized reduced action and its derived fields.

From an independent solution pair (theta1, theta2) and hidden-variable
constants -- (mu, nu), or Floyd's (a, b, c) -- this module builds the
continuous reduced action S0(x) = hbar * arctan(phi2/phi1) with branch
unwrapping, its conjugate momentum P = dS0/dx from the closed Wronskian
formula, the Schwarzian bracket, residuals of the quantum stationary
Hamilton-Jacobi equation (QSHJE) and of the modified-potential equation,
the Bohm quantum potential, and wave-function reconstruction.

Conventions
-----------
* Pair Wronskian: W = theta1*theta2' - theta1'*theta2.
* (mu, nu) combination: phi1 = nu*theta1 + theta2, phi2 = theta1 + mu*theta2,
  so S0 = hbar*arctan((theta1 + mu*theta2)/(nu*theta1 + theta2)).
* Floyd form: S0 = hbar*arctan((b*(theta1/theta2) + c/2)/sqrt(ab - c^2/4)),
  i.e. P = const / (a*theta2^2 + b*theta1^2 + c*theta1*theta2).
* Schwarzian bracket {T, x} = (3/2)(T''/T')^2 - T'''/T', the negative of
  the standard Schwarzian derivative. The QSHJE reads
  (1/2m) P^2 - (hbar^2/4m) {S0, x} + V - E = 0.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConversionError,
    NormalizationError,
    NumericError,
    ParameterError,
    SingularityError,
)
from .schrodinger import (
    Grid,
    PotentialSpec,
    SolutionPair,
    UnitSystem,
    write_csv,
)

_MODULE = "reduced_action"


@dataclass(frozen=True)
class MicrostateParams:
    """Hidden-variable constants selecting one trajectory per energy.

    Either the (mu, nu) form (mu*nu != 1) or Floyd's (a, b, c) form with
    a, b > 0 and ab - c^2/4 > 0.
    """

    form: str
    mu: float = None
    nu: float = None
    a: float = None
    b: float = None
    c: float = None

    def __post_init__(self):
        constants = (self.mu, self.nu, self.a, self.b, self.c)
        if not all(math.isfinite(c) for c in constants if c is not None):
            raise ParameterError("microstate constants must be finite",
                                 module=_MODULE, op="MicrostateParams")
        if self.form == "mu_nu":
            if self.mu is None or self.nu is None:
                raise ParameterError("mu_nu form requires mu and nu",
                                     module=_MODULE, op="MicrostateParams")
            if abs(self.mu * self.nu - 1.0) < 1e-12:
                raise ParameterError("mu*nu = 1 gives a dependent combination",
                                     module=_MODULE, op="MicrostateParams")
        elif self.form == "floyd":
            if self.a is None or self.b is None or self.c is None:
                raise ParameterError("floyd form requires a, b, c",
                                     module=_MODULE, op="MicrostateParams")
            if not (self.a > 0.0 and self.b > 0.0):
                raise ParameterError("floyd form requires a > 0 and b > 0",
                                     module=_MODULE, op="MicrostateParams")
            if not (self.a * self.b - self.c**2 / 4.0 > 0.0):
                raise ParameterError("floyd form requires ab - c^2/4 > 0",
                                     module=_MODULE, op="MicrostateParams")
        else:
            raise ParameterError(f"unknown params form {self.form!r}",
                                 module=_MODULE, op="MicrostateParams")

    @classmethod
    def from_mu_nu(cls, mu, nu):
        return cls(form="mu_nu", mu=float(mu), nu=float(nu))

    @classmethod
    def from_floyd(cls, a, b, c):
        return cls(form="floyd", a=float(a), b=float(b), c=float(c))

    @property
    def floyd_s(self) -> float:
        """sqrt(ab - c^2/4) for the floyd form."""
        return math.sqrt(self.a * self.b - self.c**2 / 4.0)

    def to_json(self) -> str:
        if self.form == "mu_nu":
            return json.dumps({"form": "mu_nu", "mu": self.mu, "nu": self.nu})
        return json.dumps({"form": "floyd", "a": self.a, "b": self.b, "c": self.c})

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        if d.get("form") == "mu_nu":
            return cls.from_mu_nu(d["mu"], d["nu"])
        if d.get("form") == "floyd":
            return cls.from_floyd(d["a"], d["b"], d["c"])
        raise ParameterError("params JSON must carry form mu_nu or floyd",
                             module=_MODULE, op="MicrostateParams.from_json")


def _combine(params: MicrostateParams, f1, f2):
    """The linear map of a basis pair (f1, f2) to (phi1, phi2) whose arctan
    ratio is S0/hbar; being linear, it maps derivatives the same way."""
    if params.form == "mu_nu":
        return params.nu * f1 + f2, f1 + params.mu * f2
    return f2, (params.b * f1 + 0.5 * params.c * f2) / params.floyd_s


def _momentum_ladder(hbar, w, g1, g2, dg1, dg2, gddg):
    """P = hbar w/D with D = g1^2 + g2^2, and its first two derivatives.

    w is the Wronskian g1 g2' - g1' g2 and gddg is g1 g1'' + g2 g2'', so
    D' = 2 (g1 g1' + g2 g2') and D'' = 2 (g1'^2 + g2'^2) + 2 gddg. Squares
    are products, so a float and an array give the same bits.
    """
    den = g1 * g1 + g2 * g2
    p = hbar * w / den
    dden = 2.0 * (g1 * dg1 + g2 * dg2)
    d2den = 2.0 * (dg1 * dg1 + dg2 * dg2) + 2.0 * gddg
    dp = -p * dden / den
    q = dden / den
    d2p = p * (2.0 * (q * q) - d2den / den)
    return p, dp, d2p


def _principal_angle(g1, g2) -> float:
    """Principal arctan(g2/g1), taken as +-pi/2 (the sign of g2) at g1 = 0."""
    if g1 != 0.0:
        return math.atan(g2 / g1)
    return math.copysign(math.pi / 2.0, g2)


def continuous_arctan_tan(u, a, b):
    """arctan(a tan u + b) continued monotonically across the poles of tan.

    The continued angle is the argument of cos u + i (a sin u + b cos u);
    taking out its winding sgn(a) u leaves a pi-periodic argument that
    stays inside (-pi, pi), so arctan2 needs no branch counter and has no
    jump at a pole. a must be nonzero.
    """
    s = math.copysign(1.0, a)
    u = np.asarray(u, dtype=float)
    c, sn = np.cos(u), np.sin(u)
    y = a * sn + b * c
    # (c + i y) e^{-i s u} = c^2 + s y sn + i c (y - s sn)
    return s * u + np.arctan2(c * (y - s * sn), c * c + s * y * sn)


def combine_pair(pair: SolutionPair, params: MicrostateParams):
    """Linear combinations (phi1, phi2) whose arctan ratio is S0/hbar.

    Returns (phi1, phi2, dphi1, dphi2, w_combo) where w_combo is the
    constant Wronskian phi1*phi2' - phi1'*phi2 expressed through the pair
    Wronskian: (mu*nu - 1)*W for the (mu, nu) form.
    """
    phi1, phi2 = _combine(params, pair.sol1.values, pair.sol2.values)
    dphi1, dphi2 = _combine(params, pair.sol1.derivs, pair.sol2.derivs)
    if params.form == "mu_nu":
        w_combo = (params.mu * params.nu - 1.0) * pair.wronskian
    else:
        w_combo = -params.b * pair.wronskian / params.floyd_s
    if abs(w_combo) < 1e-14 * max(1.0, abs(pair.wronskian)):
        raise ParameterError("combination is dependent (zero Wronskian)",
                             module=_MODULE, op="combine_pair")
    return phi1, phi2, dphi1, dphi2, w_combo


#: One cell of the quintic Hermite: phi1, phi2, h phi1', h phi2', h^2 phi1''/2,
#: h^2 phi2''/2 at its left node, then the same at its right node (48 bytes a node).
_CELL = struct.Struct("12d")


def _quintic_weights(t, s, slopes):
    """Quintic Hermite basis at t cells from the left node and s = 1 - t from
    the right one: the weights of the left and right values, h-slopes and
    h^2-seconds/2, in that order; with slopes, of h d/dx. Products only, so a
    float and an array give the same bits."""
    t2, s2 = t * t, s * s
    if slopes:
        w = 30.0 * t2 * s2
        return (-w, w, s2 * (1.0 + 2.0 * t - 15.0 * t2), t2 * (1.0 + 2.0 * s - 15.0 * s2),
                t * s2 * (2.0 - 5.0 * t), -t2 * s * (2.0 - 5.0 * s))
    tt, ss, t3, s3 = 1.0 + 3.0 * t, 1.0 + 3.0 * s, t2 * t, s2 * s
    return (s3 * (tt + 6.0 * t2), t3 * (ss + 6.0 * s2), t * s3 * tt, -s * t3 * ss,
            t2 * s3, t3 * s2)


class ReducedActionField:
    """Continuous reduced action S0, conjugate momentum P and derived data
    on the pair's grid, evaluated between nodes from the pair itself.

    Each combination g = phi1, phi2 is one piecewise quintic Hermite of its
    node values, slopes and g'' = k g, k = (2m/hbar^2)(V - E). Then
    P = hbar w/(g1^2 + g2^2), and S0 is the nearest node's S0 plus the angle
    (g1, g2) turns through from that node; a node returns its own S0 and P.
    """

    def __init__(self, pair: SolutionPair, params: MicrostateParams):
        self.pair = pair
        self.params = params
        self.grid: Grid = pair.grid
        self.energy: float = pair.energy
        self.units: UnitSystem = pair.units
        self.x = pair.grid.points()
        hbar = pair.units.hbar

        phi1, phi2, self.dphi1, self.dphi2, self.w_combo = combine_pair(pair, params)
        self.phi1, self.phi2 = phi1, phi2
        self.v = pair.v

        den = phi1 * phi1 + phi2 * phi2
        if np.any(den <= 0.0):
            raise NumericError("phi1^2 + phi2^2 vanished",
                               module=_MODULE, op="ReducedActionField")
        self.p = hbar * self.w_combo / den
        # branch-unwrapped arctan(phi2/phi1), its first sample the principal value
        angle = np.unwrap(np.arctan2(phi2, phi1))
        principal = _principal_angle(phi1[0], phi2[0])
        self.s0 = hbar * (angle - round((angle[0] - principal) / math.pi) * math.pi)

        step = np.diff(self.s0)
        if np.any(np.abs(step) >= 0.5 * math.pi * hbar):
            raise NumericError(
                "residual branch jump in S0; grid too coarse for unwrapping",
                module=_MODULE, op="ReducedActionField")
        if not (np.all(self.p > 0) or np.all(self.p < 0)):
            raise NumericError("P changed sign on the grid",
                               module=_MODULE, op="ReducedActionField")
        # strict monotonicity, demanded only where the increment P*h is
        # representable against |S0| in double precision (deep forbidden
        # tails underflow to exact zero steps)
        sgn = 1.0 if self.p[0] > 0 else -1.0
        scale = np.maximum(np.abs(self.s0[:-1]), 1.0)
        representable = (np.abs(self.p[:-1]) * self.grid.spacing
                         > 32.0 * np.finfo(float).eps * scale)
        if np.any(sgn * step < 0.0) or np.any((sgn * step <= 0.0) & representable):
            raise NumericError("S0 is not strictly monotone",
                               module=_MODULE, op="ReducedActionField")

    # ---- evaluation between nodes: the pair's quintic Hermite ----------
    @cached_property
    def _nodes(self):
        """The node data of ``_CELL`` as an (n, 6) array, built on first use:
        its transpose for the numpy branch, its memoryview and that of x for
        the scalar branch; then hbar w and the grid constants of _pair_at."""
        grid, h = self.grid, self.grid.spacing
        half_h2k = h * h * self.units.mass / self.units.hbar**2 * (self.v - self.pair.energy)
        nodes = np.column_stack([self.phi1, self.phi2, h * self.dphi1, h * self.dphi2,
                                 half_h2k * self.phi1, half_h2k * self.phi2])
        width = grid.x_max - grid.x_min
        return (nodes.T, memoryview(nodes), memoryview(self.x), self.units.hbar * self.w_combo,
                grid.x_min, h, grid.n_points - 1, grid.x_min - width, grid.x_max + width)

    def _pair_at(self, x, slopes=False):
        """(j, g1, g2), and (g1', g2') if slopes: j is the node nearest to x
        and (g1, g2) the quintic on the cell from j towards x, held within a
        grid length past the ends (DOP853 steps past them). The distance to
        j is exact, so a node returns its own values. A Python float takes a
        scalar branch, equal to the numpy one bit for bit."""
        rows, nodes, xs, _, x_min, h, last, lo, hi = self._nodes
        if isinstance(x, float):
            x = lo if x < lo else hi if x > hi else x
            u = (x - x_min) / h + 0.5
            j = last if u >= last else int(u) if u > 0.0 else 0
            tau = (x - xs[j]) / h
            if j == 0 or (tau >= 0.0 and j < last):
                i, t, s = j, tau, 1.0 - tau
            else:
                i, s, t = j - 1, -tau, 1.0 + tau
            a1, a2, b1, b2, c1, c2, d1, d2, e1, e2, f1, f2 = _CELL.unpack_from(nodes, 48 * i)
        else:
            x = np.clip(np.asarray(x, dtype=float), lo, hi)
            j = np.clip((x - x_min) / h + 0.5, 0.0, last).astype(np.intp)
            tau = (x - self.x[j]) / h
            left = (j == 0) | ((tau >= 0.0) & (j < last))
            i, t, s = np.where(left, j, j - 1), np.where(left, tau, 1.0 + tau), \
                np.where(left, 1.0 - tau, -tau)
            (a1, a2, b1, b2, c1, c2), (d1, d2, e1, e2, f1, f2) = rows[:, i], rows[:, i + 1]
        w0, w1, w2, w3, w4, w5 = _quintic_weights(t, s, False)
        out = (j, a1 * w0 + d1 * w1 + b1 * w2 + e1 * w3 + c1 * w4 + f1 * w5,
               a2 * w0 + d2 * w1 + b2 * w2 + e2 * w3 + c2 * w4 + f2 * w5)
        if not slopes:
            return out
        w0, w1, w2, w3, w4, w5 = _quintic_weights(t, s, True)
        return out + ((a1 * w0 + d1 * w1 + b1 * w2 + e1 * w3 + c1 * w4 + f1 * w5) / h,
                      (a2 * w0 + d2 * w1 + b2 * w2 + e2 * w3 + c2 * w4 + f2 * w5) / h)

    def p_at(self, x):
        """P(x) = hbar w/(g1^2 + g2^2) of the interpolated pair."""
        _, g1, g2 = self._pair_at(x)
        return self._nodes[3] / (g1 * g1 + g2 * g2)

    def s0_at(self, x):
        """S0(x): the nearest node's S0 plus the angle (g1, g2) turns
        through from that node's (phi1, phi2)."""
        j, g1, g2 = self._pair_at(x)
        h1, h2 = self.phi1[j], self.phi2[j]
        out = self.s0[j] + self.units.hbar * np.arctan2(g2 * h1 - g1 * h2, g1 * h1 + g2 * h2)
        return float(out) if isinstance(x, float) else out

    def ladder_at(self, x):
        """(P, P', P'') at x with g'' = k(x) g at the exact V(x) of the
        pair's potential: P is never differenced."""
        _, g1, g2, dg1, dg2 = self._pair_at(x, slopes=True)
        hbar, m = self.units.hbar, self.units.mass
        k = 2.0 * m / hbar**2 * (self.pair.spec.value(x, self.units) - self.pair.energy)
        return _momentum_ladder(hbar, self.w_combo, g1, g2, dg1, dg2, k * (g1 * g1 + g2 * g2))

    def bracket_at(self, x):
        """Schwarzian bracket {S0, x} = (3/2)(P'/P)^2 - P''/P from the
        analytic momentum derivatives."""
        p, dp, d2p = self.ladder_at(x)
        q = dp / p
        return 1.5 * (q * q) - d2p / p

    def basic_identity_residual(self, index: int):
        """Residual of the Schwarzian identity linking (S0')^2 to the
        brackets of S0 and exp(2i S0/hbar), from the field's S0 samples.

        The samples are strided to an effective spacing near 1e-2, the
        float64 sweet spot of third-derivative differencing (finer grids
        drown the h^4 truncation in eps/h^3 roundoff)."""
        h = self.grid.spacing
        stride = max(1, round(1e-2 / h))
        offset = index % stride
        s0 = self.s0[offset::stride]
        return basic_identity_residual(s0, h * stride, index // stride,
                                       self.units.hbar)


def build_field(pair: SolutionPair, params: MicrostateParams) -> ReducedActionField:
    """Construct the reduced-action field for a pair and parameter set."""
    return ReducedActionField(pair, params)


def floyd_momentum(pair: SolutionPair, params: MicrostateParams, x):
    """Floyd's momentum sqrt(2m)/(a*phi^2 + b*theta^2 + c*phi*theta).

    Requires the pair normalized to Floyd's Wronskian convention
    theta1*theta2' - theta1'*theta2 = -sqrt(2m)/(hbar*sqrt(ab - c^2/4)).
    """
    if params.form != "floyd":
        raise ParameterError("floyd_momentum requires floyd-form params",
                             module=_MODULE, op="floyd_momentum")
    units = pair.units
    s = params.floyd_s
    required = -math.sqrt(2.0 * units.mass) / (units.hbar * s)
    if abs(pair.wronskian - required) > 1e-6 * abs(required):
        raise NormalizationError(
            f"pair Wronskian {pair.wronskian:.12g} does not match Floyd "
            f"normalization; required theta1*theta2' - theta1'*theta2 = {required:.12g}",
            module=_MODULE, op="floyd_momentum")
    return build_field(pair, params).p_at(x)


def params_convert(params: MicrostateParams,
                   pair: SolutionPair = None) -> MicrostateParams:
    """Convert between (mu, nu) and (a, b, c) forms preserving P(x).

    The map is independent of the particular pair. The (a, b, c) triple is
    scale-redundant, so conversions return one canonical representative.
    mu*nu > 1 has no Floyd representation with the pair held fixed (it
    corresponds to the opposite Wronskian-normalization sign); the c = 0,
    a != b family likewise has no exact (mu, nu) representative.
    """
    if params.form == "mu_nu":
        mu, nu = params.mu, params.nu
        if mu * nu > 1.0:
            raise ConversionError(
                "mu*nu > 1 is not representable as a Floyd triple on the "
                "same pair (flip the Wronskian sign instead)",
                module=_MODULE, op="params_convert")
        return MicrostateParams.from_floyd(1.0 + mu**2, 1.0 + nu**2,
                                           2.0 * (mu + nu))
    a, b, c = params.a, params.b, params.c
    s = params.floyd_s
    if c == 0.0:
        if abs(a - b) > 1e-12 * max(a, b):
            raise ConversionError(
                "c = 0 with a != b has no exact (mu, nu) representative",
                module=_MODULE, op="params_convert")
        return MicrostateParams.from_mu_nu(0.0, 0.0)
    t = 2.0 * (b - s) / c
    nu = t
    mu = (0.5 * c - t * s) / b
    return MicrostateParams.from_mu_nu(mu, nu)


# ----------------------------------------------------------------------
# Schwarzian bracket by finite differences
# ----------------------------------------------------------------------

def schwarzian(values, spacing: float, index: int, order: int = 2):
    """Bracket {T, x} = (3/2)(T''/T')^2 - T'''/T' of sampled T at a grid
    index, by centered finite differences (order 2 or 4). Accepts real or
    complex samples."""
    t = np.asarray(values)
    n = t.size
    if order not in (2, 4):
        raise ParameterError("order must be 2 or 4", module=_MODULE, op="schwarzian")
    margin = 3
    if n < 7 or index < margin or index > n - 1 - margin:
        raise ParameterError("need at least 7 samples around the index",
                             module=_MODULE, op="schwarzian")
    h = spacing
    i = index
    if order == 2:
        d1 = (t[i + 1] - t[i - 1]) / (2.0 * h)
        d2 = (t[i + 1] - 2.0 * t[i] + t[i - 1]) / h**2
        d3 = (t[i + 2] - 2.0 * t[i + 1] + 2.0 * t[i - 1] - t[i - 2]) / (2.0 * h**3)
    else:
        d1 = (t[i - 2] - 8.0 * t[i - 1] + 8.0 * t[i + 1] - t[i + 2]) / (12.0 * h)
        d2 = (-t[i - 2] + 16.0 * t[i - 1] - 30.0 * t[i] + 16.0 * t[i + 1]
              - t[i + 2]) / (12.0 * h**2)
        d3 = (t[i - 3] - 8.0 * t[i - 2] + 13.0 * t[i - 1] - 13.0 * t[i + 1]
              + 8.0 * t[i + 2] - t[i + 3]) / (8.0 * h**3)
    if abs(d1) < 1e-12:
        raise SingularityError("first derivative below 1e-12",
                               module=_MODULE, op="schwarzian")
    return 1.5 * (d2 / d1)**2 - d3 / d1


def basic_identity_residual(s0_values, spacing: float, index: int,
                            hbar: float = 1.0):
    """Residual of (S0')^2 = (hbar^2/2) ({S0,x} - {exp(2i S0/hbar),x}),
    all brackets in the convention above, by complex finite differences.

    Written with the standard Schwarzian derivative the identity carries
    the opposite difference order; with this module's bracket the order
    shown here is the one that closes, and the residual vanishes for any
    smooth S0 with nonvanishing slope.
    """
    s0 = np.asarray(s0_values, dtype=float)
    i = index
    if i < 3 or i > s0.size - 4:
        raise ParameterError("index too close to the boundary",
                             module=_MODULE, op="basic_identity_residual")
    h = spacing
    d1 = (s0[i - 2] - 8.0 * s0[i - 1] + 8.0 * s0[i + 1] - s0[i + 2]) / (12.0 * h)
    if abs(d1) < 1e-12:
        raise SingularityError("S0 slope below 1e-12 (constant action excluded)",
                               module=_MODULE, op="basic_identity_residual")
    exp_s = np.exp(2j * s0 / hbar)
    br_s0 = schwarzian(s0, h, i, order=4)
    br_exp = schwarzian(exp_s, h, i, order=4)
    res = d1**2 - (hbar**2 / 2.0) * (br_s0 - br_exp)
    # the imaginary parts of the exponential bracket cancel identically;
    # what survives is differencing noise of the same size as the real part
    return float(np.real(res))


# ----------------------------------------------------------------------
# Residuals, quantum potential, reconstruction
# ----------------------------------------------------------------------

def qshje_residual(field: ReducedActionField, spec: PotentialSpec, x):
    """(1/2m) P^2 - (hbar^2/4m) {S0, x} + V - E with analytic P derivatives.

    Zero for any field built from true solutions with constant Wronskian;
    nonzero residual measures integration drift.
    """
    m = field.units.mass
    hbar = field.units.hbar
    p = field.p_at(x)
    bracket = field.bracket_at(x)
    v = spec.value(x, field.units)
    return p**2 / (2.0 * m) - hbar**2 / (4.0 * m) * bracket + v - field.energy


def bohm_quantum_potential(field: ReducedActionField, x, route: str = "amplitude"):
    """Bohm quantum potential V_B.

    route="amplitude": -(hbar^2/2m) A''/A with A = |P|^{-1/2};
    route="bracket":   -(hbar^2/4m) [(3/2)(P'/P)^2 - P''/P].
    The two routes are algebraically identical.
    """
    m = field.units.mass
    hbar = field.units.hbar
    p, dp, d2p = field.ladder_at(x)
    if route == "amplitude":
        app_over_a = 0.75 * (dp / p)**2 - 0.5 * d2p / p
        return -(hbar**2 / (2.0 * m)) * app_over_a
    if route == "bracket":
        return -(hbar**2 / (4.0 * m)) * (1.5 * (dp / p)**2 - d2p / p)
    raise ParameterError("route must be 'amplitude' or 'bracket'",
                         module=_MODULE, op="bohm_quantum_potential")


def modified_potential_residual(field: ReducedActionField, spec: PotentialSpec,
                                x):
    """Residual of the second-order modified-potential equation
    U + (hbar^2/8m) U''/(E-U) + (5 hbar^2/32m) (U'/(E-U))^2 - V,
    with U = V + V_B differenced numerically on the grid."""
    m = field.units.mass
    hbar = field.units.hbar
    e = field.energy
    u = field.v + bohm_quantum_potential(field, field.x)
    i = field.grid.index_of(float(x))
    if i < 2 or i > field.grid.n_points - 3:
        raise ParameterError("x too close to the grid boundary",
                             module=_MODULE, op="modified_potential_residual")
    h = field.grid.spacing
    du = (u[i + 1] - u[i - 1]) / (2.0 * h)
    d2u = (u[i + 1] - 2.0 * u[i] + u[i - 1]) / h**2
    gap = e - u[i]
    if abs(gap) < 1e-10:
        raise SingularityError("E - U vanishes at x",
                               module=_MODULE, op="modified_potential_residual",
                               x=float(x))
    v = spec.value(field.x[i], field.units)
    return (u[i] + hbar**2 / (8.0 * m) * d2u / gap
            + 5.0 * hbar**2 / (32.0 * m) * (du / gap)**2 - v)


def reconstruct_wavefunction(field: ReducedActionField, alpha, beta, x):
    """psi = |P|^{-1/2} (alpha e^{i S0/hbar} + beta e^{-i S0/hbar})."""
    if alpha == 0 and beta == 0:
        raise ParameterError("(alpha, beta) cannot both vanish",
                             module=_MODULE, op="reconstruct_wavefunction")
    hbar = field.units.hbar
    p = field.p_at(x)
    s0 = field.s0_at(x)
    amp = np.abs(p)**-0.5
    return amp * (alpha * np.exp(1j * s0 / hbar) + beta * np.exp(-1j * s0 / hbar))


def probability_current(field: ReducedActionField, alpha, beta, x):
    """Stationary probability current J = (|alpha|^2 - |beta|^2)/m * A^2 * S0'
    with A^2 = 1/P; the position dependence cancels exactly, so J is that
    constant in the shape of x."""
    return np.full(np.shape(x), (abs(alpha)**2 - abs(beta)**2) / field.units.mass)


def field_to_csv(field: ReducedActionField, path):
    """Write x, s0, p, v_b, f columns for a field."""
    x = field.x
    vb = bohm_quantum_potential(field, x)
    denom = 2.0 * field.units.mass * (field.energy - field.v)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(np.abs(denom) > 0.0, field.p**2 / denom, np.inf)
    write_csv(path, "x,s0,p,v_b,f", x, field.s0, field.p, vb, f)
