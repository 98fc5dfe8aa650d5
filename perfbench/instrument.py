"""Span wrappers around the library's module attributes, for the traced run.

Each target is replaced, in every ``qshje`` module namespace that holds it,
by a wrapper that opens a span, calls the original and closes the span. A
wrapper returns exactly what the original returns and lets every exception
through unchanged. ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import os
import sys


def _path_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


#: (module, attribute, work). ``work(args, kwargs, result)`` gives the span's
#: work figure (grid points, samples, bytes) after a successful return.
TARGETS = [
    ("qshje.schrodinger", "find_bound_energies", lambda a, k, r: len(r)),
    ("qshje.schrodinger", "_shoot_nodes", None),
    ("qshje.schrodinger", "count_nodes", None),
    ("qshje.schrodinger", "_match_mismatch", None),
    ("qshje.schrodinger", "integrate_schrodinger", lambda a, k, r: r.grid.n_points),
    ("qshje.schrodinger", "_reversed_solution", lambda a, k, r: r.grid.n_points),
    ("qshje.schrodinger", "_numerov_values", lambda a, k, r: len(r)),
    ("qshje.schrodinger", "make_pair", lambda a, k, r: r.grid.n_points),
    ("qshje.schrodinger", "analytic_free_pair", lambda a, k, r: r.grid.n_points),
    ("qshje.schrodinger", "physical_bound_solution", None),
    ("qshje.quantization", "bound_state", None),
    ("qshje.quantization", "partner_solution", None),
    ("qshje.quantization", "action_variable", None),
    ("qshje.reduced_action", "build_field", lambda a, k, r: r.x.size),
    ("qshje.dynamics", "integrate_trajectory", lambda a, k, r: r.t.size),
    ("qshje.dynamics", "velocity", None),
    ("qshje.dynamics", "f_function", None),
    ("qshje.dynamics", "fiqnl_residual_along", None),
    ("qshje.dynamics", "trajectory_to_csv", _path_bytes),
    ("qshje.spherical", "build_triple", None),
    ("qshje.spherical", "component_report", None),
    ("qshje.spherical", "total_qshje_residual", None),
    ("qshje.cli", "run_command", None),
]


def _wrap(tracer, name, fn, work):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        returned = False
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            tracer.end(idx, work(args, kwargs, result)
                       if returned and work is not None else None)
    return wrapper


def instrument(tracer):
    """Install the wrappers; returns (restore callable, missing targets)."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "qshje" or n.startswith("qshje."))]
    patched, missing = [], []
    for mod_name, attr, work in TARGETS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapper = _wrap(tracer, f"{mod_name[len('qshje.'):]}.{attr}", original, work)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))

    def restore():
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)

    return restore, missing
