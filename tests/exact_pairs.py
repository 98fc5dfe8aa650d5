"""Exact solution pairs of the harmonic and linear potentials, as oracles.

``exact_pair(spec, energy, grid)`` returns the pair that ``make_pair``
builds -- theta1 = (1, 0) and theta2 = (0, 1) at x_min, so W = 1 -- from
closed forms instead of the Numerov kernel (natural units):

* harmonic, omega = 1: D_nu and V_nu of sqrt(2) x with nu = E - 1/2
  (``scipy.special.pbdv`` and ``pbvv``);
* linear V = s x: Ai and Bi of (2s)^(1/3) (x - E/s) (``scipy.special.airy``).

It shares nothing with the package but the basis, so a field built on it
measures the package's field. Its own Wronskian drift is the reference's
error; ``wronskian_drift`` gives it.
"""

import math

import numpy as np
from scipy.special import airy, pbdv, pbvv

from qshje.schrodinger import NATURAL_UNITS, Solution, SolutionPair


def _closed_forms(spec, energy, x):
    """Two independent solutions and their derivatives (u, u', v, v') at x."""
    if spec.kind == "harmonic" and spec.omega == 1.0:
        z, c = math.sqrt(2.0) * x, math.sqrt(2.0)
        (u, du), (v, dv) = pbdv(energy - 0.5, z), pbvv(energy - 0.5, z)
    elif spec.kind == "linear":
        c = (2.0 * spec.slope) ** (1.0 / 3.0)
        u, du, v, dv = airy(c * (x - energy / spec.slope))
    else:
        raise ValueError(f"no exact pair for {spec.kind}")
    return u, c * du, v, c * dv


def exact_pair(spec, energy, grid) -> SolutionPair:
    """The exact pair on the grid in ``make_pair``'s basis."""
    u, du, v, dv = _closed_forms(spec, energy, grid.points())
    # theta = alpha u + beta v; the columns of the inverse give (1, 0), (0, 1)
    inv = np.linalg.inv(np.array([[u[0], v[0]], [du[0], dv[0]]]))
    sols = [Solution(grid, energy, NATURAL_UNITS, a * u + b * v, a * du + b * dv)
            for a, b in inv.T]
    return SolutionPair(grid=grid, energy=energy, units=NATURAL_UNITS,
                        sol1=sols[0], sol2=sols[1], wronskian=1.0, spec=spec)


def wronskian_drift(pair) -> float:
    """max |W(x) - 1| over the grid of an exact pair."""
    return float(np.max(np.abs(pair.wronskian_samples() - pair.wronskian)))
