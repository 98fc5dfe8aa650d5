"""DOP853 on the dispersion-relation velocity, as a reference route.

The package inverts a time-of-flight table for its trajectories; this
integrates dx/dt = ``velocity`` instead, an independent route over the same
field, for the tests to compare against.
"""

import numpy as np
from scipy.integrate import solve_ivp

from qshje.dynamics import velocity


def dop853_x(field, spec, x0, t, tol=1e-12):
    """x at the times t (from t[0], monotone) by DOP853 at rtol = tol,
    atol = tol * 1e-3, from its dense output."""
    t = np.asarray(t, dtype=float)
    res = solve_ivp(lambda _, y: [velocity(field, spec, float(y[0]))], (t[0], t[-1]),
                    [float(x0)], method="DOP853", rtol=tol, atol=tol * 1e-3,
                    dense_output=True)
    assert res.success, res.message
    return res.sol(t)[0]
