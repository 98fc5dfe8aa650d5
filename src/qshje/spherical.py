"""Three-dimensional decomposition for spherically symmetric potentials.

Separating Psi = R(r) T(theta) F(phi) and transforming each factor
(X = r R, curly-T = sqrt(sin theta) T) reduces the three separated
equations to 1-D Schrodinger problems:

* radial: effective potential V(r) + l(l+1) hbar^2 / (2 m r^2);
* polar: potential (m_l^2 - 1/4) hbar^2/(2 m sin^2 theta) at energy
  (l(l+1) + 1/4) hbar^2 / (2m);
* azimuthal: free at energy m_l^2 hbar^2 / (2m).

Each factor then gets the 1-D reduced-action construction; their sum is
the total reduced action, whose 3-D Hamilton-Jacobi residual carries the
two -hbar^2/8m correction terms produced by the quarter shifts of the
polar transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .reduced_action import (
    MicrostateParams,
    ReducedActionField,
    _combine,
    _momentum_ladder,
    _principal_angle,
    build_field,
    continuous_arctan_tan,
    qshje_residual,
)
from .schrodinger import (
    Grid,
    NATURAL_UNITS,
    PotentialSpec,
    SolutionPair,
    UnitSystem,
    make_pair,
)

_MODULE = "spherical"


@dataclass(frozen=True)
class SphericalQuantumNumbers:
    """Integer (l, m_l) with |m_l| <= l; lam = l(l+1)."""

    ell: int
    m_ell: int

    def __post_init__(self):
        if self.ell < 0 or int(self.ell) != self.ell:
            raise ParameterError("ell must be a nonnegative integer",
                                 module=_MODULE, op="SphericalQuantumNumbers")
        if abs(self.m_ell) > self.ell or int(self.m_ell) != self.m_ell:
            raise ParameterError("m_ell must be an integer with |m_ell| <= ell",
                                 module=_MODULE, op="SphericalQuantumNumbers")

    @property
    def lam(self) -> float:
        return float(self.ell * (self.ell + 1))


# ----------------------------------------------------------------------
# Factor transforms
# ----------------------------------------------------------------------

def radial_transform(r_values, r_grid):
    """X(r) = r * R(r); X satisfies the 1-D form with the effective
    potential V + lam hbar^2/(2 m r^2)."""
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("radial grid must satisfy r > 0",
                          module=_MODULE, op="radial_transform",
                          x=float(np.min(r)))
    return r * np.asarray(r_values, dtype=float)


def polar_transform(t_values, theta_grid):
    """curly-T(theta) = sqrt(sin theta) * T(theta) on the open interval
    (0, pi)."""
    th = np.asarray(theta_grid, dtype=float)
    if np.any(th <= 0.0) or np.any(th >= math.pi):
        raise DomainError("polar grid must lie strictly inside (0, pi)",
                          module=_MODULE, op="polar_transform",
                          x=float(np.min(th)))
    return np.sqrt(np.sin(th)) * np.asarray(t_values, dtype=float)


def polar_energy(qn: SphericalQuantumNumbers,
                 units: UnitSystem = NATURAL_UNITS) -> float:
    return (qn.lam + 0.25) * units.hbar**2 / (2.0 * units.mass)


def azimuthal_energy(qn: SphericalQuantumNumbers,
                     units: UnitSystem = NATURAL_UNITS) -> float:
    return qn.m_ell**2 * units.hbar**2 / (2.0 * units.mass)


def polar_equation_residual(t_values, theta_grid, qn: SphericalQuantumNumbers):
    """Second-difference residual of the transformed polar equation
    curly-T'' + (lam + 1/4) curly-T + (1/4 - m_l^2)/sin^2 curly-T = 0
    for raw T samples (boundary rows dropped)."""
    th = np.asarray(theta_grid, dtype=float)
    ct = polar_transform(t_values, th)
    h = th[1] - th[0]
    d2 = (-ct[:-4] + 16.0 * ct[1:-3] - 30.0 * ct[2:-2] + 16.0 * ct[3:-1]
          - ct[4:]) / (12.0 * h**2)
    mid = ct[2:-2]
    s = np.sin(th[2:-2])
    return d2 + (qn.lam + 0.25) * mid + (0.25 - qn.m_ell**2) / s**2 * mid


# ----------------------------------------------------------------------
# Component reduced actions: Z(r) and L(theta) are ``build_field`` of the
# radial and polar pairs; M(phi) is the same construction on the analytic
# azimuthal basis.
# ----------------------------------------------------------------------

def make_radial_pair(inner: PotentialSpec, qn: SphericalQuantumNumbers,
                     energy: float, grid: Grid,
                     units: UnitSystem = NATURAL_UNITS,
                     target_wronskian: float = 1.0) -> SolutionPair:
    if grid.x_min <= 0.0:
        raise DomainError("radial grid must start at r > 0",
                          module=_MODULE, op="make_radial_pair", x=grid.x_min)
    return make_pair(PotentialSpec.radial_effective(inner, qn.lam), energy,
                     grid, units, target_wronskian)


def make_polar_pair(qn: SphericalQuantumNumbers, grid: Grid,
                    units: UnitSystem = NATURAL_UNITS,
                    target_wronskian: float = 1.0) -> SolutionPair:
    """Pair of the transformed polar equation. L(theta) is ``build_field``
    of this pair: the arctan argument is the same whether built from T or
    curly-T solutions, since the sqrt(sin) factor cancels in the ratio."""
    if grid.x_min <= 0.0 or grid.x_max >= math.pi:
        raise DomainError("polar grid must lie strictly inside (0, pi)",
                          module=_MODULE, op="make_polar_pair", x=grid.x_min)
    return make_pair(PotentialSpec.polar_angle(qn.m_ell),
                     polar_energy(qn, units), grid, units, target_wronskian)


class AzimuthalAction:
    """M(phi) on the analytic basis {cos(m_l phi), sin(m_l phi)} (or {1, phi}
    for m_l = 0), with a closed-form continued arctan and analytic momentum.

    (eps, tau) form: M = hbar arctan[(F1 + eps F2)/(tau F1 + F2)];
    (a, b, c) form: M = hbar arctan[(b tan(m_l phi) + c/2)/sqrt(ab - c^2/4)],
    which takes the basis in the order {sin(m_l phi), cos(m_l phi)}, so that
    the momentum hbar m_l b / (s D) is the derivative of these values.
    """

    def __init__(self, qn: SphericalQuantumNumbers, params: MicrostateParams,
                 units: UnitSystem = NATURAL_UNITS):
        if params.form == "mu_nu" and abs(params.mu * params.nu - 1.0) < 1e-12:
            raise ParameterError("eps*tau = 1 gives a dependent combination",
                                 module=_MODULE, op="AzimuthalAction")
        self.qn = qn
        self.params = params
        self.units = units
        self.energy = azimuthal_energy(qn, units)

    def _basis(self, phi):
        m = self.qn.m_ell
        phi = np.asarray(phi, dtype=float)
        if m != 0:
            f1, f2 = np.cos(m * phi), np.sin(m * phi)
            d1, d2 = -m * f2, m * f1
            if self.params.form == "floyd":
                f1, f2, d1, d2 = f2, f1, d2, d1
            dd1, dd2 = -m * m * f1, -m * m * f2
        else:
            f1, f2 = np.ones_like(phi), phi
            d1, d2 = np.zeros_like(phi), np.ones_like(phi)
            dd1, dd2 = np.zeros_like(phi), np.zeros_like(phi)
        return f1, f2, d1, d2, dd1, dd2

    def _combo(self, phi):
        f1, f2, d1, d2, dd1, dd2 = self._basis(phi)
        return (*_combine(self.params, f1, f2), *_combine(self.params, d1, d2),
                *_combine(self.params, dd1, dd2))

    def values(self, phi):
        """M(phi) continued in closed form from its principal value at
        phi = 0 (from arctan(c/2s) in the (a, b, c) form), so a scalar reads
        the same as the matching sample of any array."""
        m = self.qn.m_ell
        p = self.params
        phi = np.asarray(phi, dtype=float)
        if m == 0:
            # (g1, g2) runs along a line that misses the origin, so the
            # angle it turns through from phi = 0 stays inside (-pi, pi)
            g1, g2, *_ = self._combo(phi)
            h1, h2, *_ = self._combo(0.0)
            out = _principal_angle(h1, h2) + np.arctan2(g2 * h1 - g1 * h2,
                                                        g1 * h1 + g2 * h2)
        elif p.form == "floyd":
            out = continuous_arctan_tan(m * phi, p.b / p.floyd_s,
                                        0.5 * p.c / p.floyd_s)
        else:
            # the Moebius map (1 + mu T)/(nu + T) of T = tan(m phi) is
            # a tan(m phi - u0) + b with tan u0 = 1/nu
            mu, nu = p.mu, p.nu
            u0 = math.atan(1.0 / nu) if nu != 0.0 else 0.5 * math.pi
            out = continuous_arctan_tan(m * phi - u0,
                                        (mu * nu - 1.0) / (1.0 + nu**2),
                                        (mu + nu) / (1.0 + nu**2))
        out = self.units.hbar * out
        return out if out.ndim else float(out)

    def momentum(self, phi):
        """dM/dphi from the closed Wronskian formula."""
        return self.momentum_derivatives(phi)[0]

    def momentum_derivatives(self, phi):
        """(M', M'', M''') analytic."""
        g1, g2, dg1, dg2, ddg1, ddg2 = self._combo(phi)
        return _momentum_ladder(self.units.hbar, g1 * dg2 - dg1 * g2, g1, g2,
                                dg1, dg2, g1 * ddg1 + g2 * ddg2)

    def qshje_residual(self, phi):
        """(M')^2 - (hbar^2/2) {M, phi} - m_l^2 hbar^2 (zero right side for
        m_l = 0 with the {1, phi} basis)."""
        hbar = self.units.hbar
        p, dp, d2p = self.momentum_derivatives(phi)
        bracket = 1.5 * (dp / p)**2 - d2p / p
        return p**2 - (hbar**2 / 2.0) * bracket - \
            self.qn.m_ell**2 * hbar**2


# ----------------------------------------------------------------------
# Total action and the 3-D residual
# ----------------------------------------------------------------------

@dataclass
class SphericalActionTriple:
    """Radial, polar and azimuthal reduced actions of one configuration."""

    radial: ReducedActionField
    polar: ReducedActionField
    azimuthal: AzimuthalAction
    qn: SphericalQuantumNumbers
    inner: PotentialSpec
    energy: float

    @property
    def units(self) -> UnitSystem:
        return self.radial.units


def total_action(triple: SphericalActionTriple, r, theta, phi):
    """S0(r, theta, phi) = Z(r) + L(theta) + M(phi)."""
    return (triple.radial.s0_at(r) + triple.polar.s0_at(theta)
            + triple.azimuthal.values(phi))


def total_qshje_residual(triple: SphericalActionTriple, r, theta, phi):
    """Residual of the 3-D stationary quantum Hamilton-Jacobi equation

    (1/2m)(grad S0)^2 - (hbar^2/4m)[{S0,r} + {S0,theta}/r^2
        + {S0,phi}/(r^2 sin^2 theta)] + V(r) - E
        - hbar^2/(8 m r^2) - hbar^2/(8 m r^2 sin^2 theta),

    with the spherical gradient (d_r, d_theta/r, d_phi/(r sin theta)) and
    per-coordinate brackets from the analytic component momenta."""
    m = triple.units.mass
    hbar = triple.units.hbar
    rf, pf, az = triple.radial, triple.polar, triple.azimuthal
    s2 = np.sin(theta)**2

    pr = rf.p_at(r)
    br_r = rf.bracket_at(r)
    pth = pf.p_at(theta)
    br_th = pf.bracket_at(theta)
    pph, dpph, d2pph = az.momentum_derivatives(phi)
    br_ph = 1.5 * (dpph / pph)**2 - d2pph / pph

    grad_sq = pr**2 + pth**2 / r**2 + pph**2 / (r**2 * s2)
    brackets = br_r + br_th / r**2 + br_ph / (r**2 * s2)
    v = triple.inner.value(r, triple.units)
    return (grad_sq / (2.0 * m) - hbar**2 / (4.0 * m) * brackets
            + v - triple.energy
            - hbar**2 / (8.0 * m * r**2)
            - hbar**2 / (8.0 * m * r**2 * s2))


def build_triple(inner: PotentialSpec, qn: SphericalQuantumNumbers,
                 energy: float, r_grid: Grid, theta_grid: Grid,
                 radial_params: MicrostateParams,
                 polar_params: MicrostateParams,
                 azimuthal_params: MicrostateParams,
                 units: UnitSystem = NATURAL_UNITS,
                 polar_lam_override: float = None) -> SphericalActionTriple:
    """Assemble the three component actions for one (E, l, m_l).

    polar_lam_override deliberately injects an inconsistent separation
    constant into the polar factor (consistency-detector studies); the
    default uses lam = l(l+1) everywhere.
    """
    rpair = make_radial_pair(inner, qn, energy, r_grid, units)
    radial = build_field(rpair, radial_params)
    if polar_lam_override is None:
        e_theta = polar_energy(qn, units)
    else:
        e_theta = (polar_lam_override + 0.25) * units.hbar**2 / (2.0 * units.mass)
    ppair = make_pair(PotentialSpec.polar_angle(qn.m_ell), e_theta, theta_grid,
                      units)
    polar = build_field(ppair, polar_params)
    azim = AzimuthalAction(qn, azimuthal_params, units)
    return SphericalActionTriple(radial=radial, polar=polar, azimuthal=azim,
                                 qn=qn, inner=inner, energy=energy)


def component_report(triple: SphericalActionTriple) -> dict:
    """Per-component residual maxima at 64 points of each interior window,
    as a JSON-ready dict."""
    rf, pf, az = triple.radial, triple.polar, triple.azimuthal
    res_r, res_th = (np.max(np.abs(qshje_residual(
        f, f.pair.spec, np.linspace(f.x[5], f.x[-6], 64)))) for f in (rf, pf))
    phis = np.linspace(0.05, 2.0 * math.pi - 0.05, 64)
    res_ph = np.max(np.abs(az.qshje_residual(phis)))
    return {
        "ell": triple.qn.ell,
        "m_ell": triple.qn.m_ell,
        "energy": triple.energy,
        "radial_window": [rf.x[5], rf.x[-6]],
        "polar_window": [pf.x[5], pf.x[-6]],
        "radial_residual_max": float(res_r),
        "polar_residual_max": float(res_th),
        "azimuthal_residual_max": float(res_ph),
    }

