"""Command-line front end.

Subcommands: pair, action, trajectory, quantize, spherical, compare-floyd,
residuals, accept, sweep. Outputs are CSV/JSON files with 17-significant-
digit floats so identical configurations produce byte-identical artifacts.
Numeric failures exit with code 3 and a machine-readable JSON error object
on stderr; configuration errors exit with code 2.

Every command that builds a field assembles its scenario -- units,
potential, grid, microstate parameters, pair -- through the same helpers.
Scenario options may come from a flat key=value config file (--config),
whose entries become the subcommand's defaults, so explicit flags win.
``sweep`` runs that scenario once per value of its one swept axis
(--hbar-list, or --params-list with entries in the --params forms),
serially, with every other flag applied to each value.
QSHJE_GRID_POINTS overrides the default grid density.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, QshjeError
from .dynamics import (
    floyd_free_trajectory,
    integrate_trajectory,
    dispersion_free_trajectory,
    trajectory_to_csv,
)
from .quantization import (
    action_variable,
    bound_state,
    enumerate_microstates,
    quantization_report,
)
from .reduced_action import (
    MicrostateParams,
    bohm_quantum_potential,
    build_field,
    field_to_csv,
    modified_potential_residual,
    qshje_residual,
)
from .schrodinger import (
    CSV_FLOAT_FORMAT,
    Grid,
    PotentialSpec,
    UnitSystem,
    analytic_free_pair,
    make_pair,
    pair_to_csv,
    write_csv,
)
from .spherical import (
    SphericalQuantumNumbers,
    build_triple,
    component_report,
    total_qshje_residual,
)

_MODULE = "cli"


def _default_grid_points() -> int:
    env = os.environ.get("QSHJE_GRID_POINTS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError(f"QSHJE_GRID_POINTS={env!r} is not an integer",
                              module=_MODULE, op="config") from exc
        if n < 9:
            raise ConfigError(f"QSHJE_GRID_POINTS={env!r} must be >= 9",
                              module=_MODULE, op="config")
        return n
    return 4001


def _number(args, name, kind=float, minimum=None):
    """The value of flag ``name`` converted by kind (float or int); a
    ConfigError naming the flag when it is not such a number or lies below
    minimum."""
    text = getattr(args, name)
    try:
        value = kind(text)
    except (TypeError, ValueError):
        value = None
    if value is None or (minimum is not None and value < minimum):
        what = "an integer" if kind is int else "a number"
        floor = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"--{name.replace('_', '-')} must be {what}{floor}, "
                          f"not {text!r}; the violated field is '{name}'",
                          module=_MODULE, op="config")
    return value


def _fmt(value: float) -> str:
    return CSV_FLOAT_FORMAT % value


def _write_json(path, payload):
    """The one JSON writer: two-space indent, sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Scenario assembly
# ----------------------------------------------------------------------

def _read_config_file(path) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{line_no}: expected key=value",
                        module=_MODULE, op="config")
                key, _, value = line.partition("=")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}",
                          module=_MODULE, op="config") from exc
    return out


_BOOLEAN_WORDS = {"true": True, "1": True, "yes": True,
                  "false": False, "0": False, "no": False}


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv) -> argparse.Namespace:
    """Make the config file's entries the chosen subcommand's defaults and
    parse argv again; flags given on the command line win. Values of on/off
    flags are read as true/false/1/0/yes/no."""
    file_vals = _read_config_file(args.config)
    for key in file_vals:
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}",
                              module=_MODULE, op="config")
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    sub = subs.choices[args.command]
    for action in sub._actions:
        if isinstance(action, argparse._StoreTrueAction) and action.dest in file_vals:
            text = file_vals[action.dest]
            if text.lower() not in _BOOLEAN_WORDS:
                raise ConfigError(
                    f"config key {action.dest!r} must be true/false/1/0/yes/no, "
                    f"not {text!r}", module=_MODULE, op="config")
            file_vals[action.dest] = _BOOLEAN_WORDS[text.lower()]
    sub.set_defaults(**file_vals)
    return parser.parse_args(argv)


def _build_units(args) -> UnitSystem:
    return UnitSystem(hbar=_number(args, "hbar"), mass=_number(args, "mass"))


def _build_potential(args) -> PotentialSpec:
    kind = args.potential
    if kind == "free":
        return PotentialSpec.free()
    if kind == "linear":
        return PotentialSpec.linear(_number(args, "slope"))
    if kind == "harmonic":
        return PotentialSpec.harmonic(_number(args, "omega"))
    if kind == "tabulated":
        if not args.table:
            raise ConfigError("tabulated potential requires --table FILE",
                              module=_MODULE, op="config")
        return PotentialSpec.tabulated_from_csv(args.table)
    if kind == "radial":
        ell = _number(args, "ell")
        lam = ell * (ell + 1.0)
        return PotentialSpec.radial_effective(PotentialSpec.free(), lam)
    raise ConfigError(f"unknown potential {kind!r}; the violated field is "
                      "'potential'", module=_MODULE, op="config")


def _build_grid(text, field) -> Grid:
    """Grid from 'lo:hi[:npoints]'; field names the option it came from."""
    parts = str(text).split(":")
    try:
        if len(parts) not in (2, 3):
            raise ValueError(f"{text!r} has {len(parts)} parts")
        x_min, x_max = float(parts[0]), float(parts[1])
        n = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise ConfigError(f"{field} must be 'lo:hi[:npoints]' ({exc}); the "
                          f"violated field is '{field}'",
                          module=_MODULE, op="config") from exc
    return Grid(x_min, x_max, _default_grid_points() if n is None else n)


def _build_params(args) -> MicrostateParams:
    """Parse --params: (mu, nu), Floyd's (a, b, c), or the free-particle
    closed-form constants (A, B), which map to the triple
    (A^2 + B^2, 1, -2B) on the analytic (sin, cos) basis."""
    text = str(args.params)
    fields = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ConfigError("params must be 'mu=..,nu=..', 'a=..,b=..,c=..' "
                              "or 'A=..,B=..'; the violated field is 'params'",
                              module=_MODULE, op="config")
        key, _, value = chunk.partition("=")
        fields[key.strip()] = float(value)
    if set(fields) == {"mu", "nu"}:
        return MicrostateParams.from_mu_nu(fields["mu"], fields["nu"])
    if set(fields) == {"a", "b", "c"}:
        return MicrostateParams.from_floyd(fields["a"], fields["b"], fields["c"])
    if set(fields) == {"A", "B"}:
        big_a, big_b = fields["A"], fields["B"]
        if big_a == 0.0:
            raise ConfigError("A must be nonzero; the violated field is "
                              "'params'", module=_MODULE, op="config")
        if getattr(args, "potential", "free") != "free":
            raise ConfigError("A=..,B=.. params apply to the free potential "
                              "only; the violated field is 'params'",
                              module=_MODULE, op="config")
        args.analytic_pair = True   # the mapping presumes the (sin, cos) basis
        return MicrostateParams.from_floyd(big_a**2 + big_b**2, 1.0,
                                           -2.0 * big_b)
    raise ConfigError("params must carry (mu, nu), (a, b, c) or (A, B); the "
                      "violated field is 'params'", module=_MODULE, op="config")


def _make_pair_for(args, spec, grid, units):
    # --wronskian defaults to the pair's natural value: -k for the analytic
    # (sin, cos) pair, +1 for the (1,0)/(0,1) Numerov pair
    target = None if args.wronskian in (None, "natural") \
        else _number(args, "wronskian")
    if args.potential == "free" and args.analytic_pair:
        return analytic_free_pair(_number(args, "energy"), grid, units,
                                  target_wronskian=target)
    return make_pair(spec, _number(args, "energy"), grid, units,
                     target_wronskian=1.0 if target is None else target)


def _setting(args):
    """Units, potential and grid of one scenario."""
    units = _build_units(args)
    return units, _build_potential(args), _build_grid(args.grid, "grid")


def _scenario(args):
    """Reduced-action field of one scenario; its pair carries the potential."""
    units, spec, grid = _setting(args)
    params = _build_params(args)
    return build_field(_make_pair_for(args, spec, grid, units), params)


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def _cmd_pair(args) -> int:
    units, spec, grid = _setting(args)
    pair_to_csv(_make_pair_for(args, spec, grid, units), args.output)
    return 0


def _cmd_action(args) -> int:
    field_to_csv(_scenario(args), args.output)
    return 0


def _parse_span(text, what):
    parts = str(text).split(":")
    try:
        if len(parts) != 2:
            raise ValueError
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{what} must be 't0:t1'; the violated field is "
                          f"'{what}'", module=_MODULE, op="config") from exc


def _integrate(args):
    span = _parse_span(args.t, "t")
    x0, tol = _number(args, "x0"), _number(args, "tol")
    n_samples = _number(args, "samples", int, 1)
    field = _scenario(args)
    return integrate_trajectory(field, field.pair.spec, x0, span, tol=tol,
                                n_samples=n_samples)


def _cmd_trajectory(args) -> int:
    traj = _integrate(args)
    trajectory_to_csv(traj, args.output)
    if traj.status != "completed":
        sys.stderr.write(json.dumps({
            "module": "dynamics", "op": "integrate_trajectory",
            "message": f"trajectory {traj.status} at t={traj.exit_time}",
            "x": traj.exit_position}) + "\n")
    return 0


def _cmd_quantize(args) -> int:
    units, spec, grid = _setting(args)
    state = _number(args, "state", int, 0)
    record = bound_state(spec, grid, state, units)
    payload = [quantization_report(record, params, state) for params in
               enumerate_microstates(record, _number(args, "microstates", int, 1))]
    _write_json(args.output, payload if len(payload) > 1 else payload[0])
    return 0


def _cmd_spherical(args) -> int:
    units = _build_units(args)
    inner = _build_potential(args)
    qn = SphericalQuantumNumbers(_number(args, "ell", int),
                                 _number(args, "m_ell", int))
    r_grid = _build_grid(args.r_window, "r_window")
    th_grid = _build_grid(args.theta_window, "theta_window")
    params = _build_params(args)
    triple = build_triple(inner, qn, _number(args, "energy"), r_grid, th_grid,
                          params, params, params, units)
    report = component_report(triple)
    rr = np.linspace(r_grid.x_min + 10 * r_grid.spacing,
                     r_grid.x_max - 10 * r_grid.spacing, 8)
    tt = np.linspace(th_grid.x_min + 10 * th_grid.spacing,
                     th_grid.x_max - 10 * th_grid.spacing, 8)
    pp = np.linspace(0.3, 5.9, 8)
    grids = np.meshgrid(rr, tt, pp, indexing="ij")
    res = total_qshje_residual(triple, *grids)
    report["total_residual_max"] = float(np.max(np.abs(res)))
    _write_json(args.output, report)
    return 0


def _cmd_compare_floyd(args) -> int:
    units = _build_units(args)
    params = _build_params(args)
    if params.form != "floyd":
        raise ConfigError("compare-floyd requires a=..,b=..,c=.. params",
                          module=_MODULE, op="config")
    energy = _number(args, "energy")
    lo, hi = _parse_span(args.x, "x")
    xs = np.linspace(lo, hi, _number(args, "samples", int, 1))
    t_dispersion = dispersion_free_trajectory(energy, params.a, params.b,
                                              params.c, xs, units)
    t_floyd = floyd_free_trajectory(energy, params.a, params.b, params.c,
                                    xs, units)
    t_classical = np.sqrt(units.mass / (2.0 * energy)) * xs
    write_csv(args.output, "x,t_dispersion,t_floyd,t_classical",
              xs, t_dispersion, t_floyd, t_classical)
    return 0


def _cmd_residuals(args) -> int:
    field = _scenario(args)
    spec, pair = field.pair.spec, field.pair
    margin = 5
    xs = field.x[margin:-margin]
    q = qshje_residual(field, spec, xs)
    vb_a = bohm_quantum_potential(field, xs, route="amplitude")
    vb_b = bohm_quantum_potential(field, xs, route="bracket")
    norm = max(abs(field.energy), 1.0)
    i_mid = pair.grid.n_points // 2
    mod = modified_potential_residual(field, spec, field.x[i_mid])
    _write_json(args.output, {
        "energy": field.energy,
        "qshje_residual_max_abs": float(np.max(np.abs(q))),
        "qshje_residual_max_rel": float(np.max(np.abs(q)) / norm),
        "bohm_routes_gap_max": float(np.max(np.abs(vb_a - vb_b))),
        "modified_potential_residual_mid_abs": float(abs(mod)),
        "modified_potential_residual_mid_rel": float(abs(mod) / norm),
        "wronskian_drift_rel": float(np.max(np.abs(
            pair.wronskian_samples() - pair.wronskian)) / abs(pair.wronskian)),
    })
    return 0


def _cmd_accept(args) -> int:
    from . import acceptance
    failed = [r for r in acceptance.run_all(verbose=True) if not r.passed]
    if failed:
        raise QshjeError("acceptance criteria failed: " + ", ".join(
            f"{r.index} ({r.name})" for r in failed), module=_MODULE, op="accept")
    return 0


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    axis_values = []
    swept = []
    if args.hbar_list:
        swept.append("hbar")
        axis_values = [float(v) for v in str(args.hbar_list).split(",") if v]
    if args.params_list:
        swept.append("params")
        axis_values = [chunk for chunk in str(args.params_list).split(";") if chunk]
    if len(swept) != 1:
        raise ConfigError("exactly one swept axis required "
                          "(--hbar-list or --params-list)",
                          module=_MODULE, op="sweep")
    if not axis_values:
        raise ConfigError("sweep list is empty", module=_MODULE, op="sweep")

    if args.mode not in ("trajectory", "quantize"):
        raise ConfigError(f"unknown sweep mode {args.mode!r}",
                          module=_MODULE, op="sweep")

    lines = []
    for value in axis_values:
        # a fresh copy per value: _build_params may set analytic_pair on it
        one = argparse.Namespace(**vars(args))
        setattr(one, swept[0], value)
        tag = _fmt(float(value)) if swept[0] == "hbar" else f'"{value}"'
        if args.mode == "trajectory":
            traj = _integrate(one)
            classical = float(one.x0) + math.sqrt(
                2.0 * float(one.energy) / float(one.mass)) * (traj.t - traj.t[0])
            dev = np.abs(traj.x - classical)
            header = "sweep_value,t,x,xdot,abs_dev_from_classical,max_dev"
            rows = [(traj.t[i], traj.x[i], traj.xdot[i], dev[i], np.max(dev))
                    for i in range(traj.t.size)]
        else:
            units, spec, grid = _setting(one)
            params = _build_params(one)
            record = bound_state(spec, grid, _number(one, "state", int, 0), units)
            j = action_variable(record.pair, params)
            header = "sweep_value,state,energy,J_over_h,node_phys,node_partner"
            rows = [(float(one.state), record.energy,
                     j / (2.0 * math.pi * units.hbar),
                     record.node_count_phys, record.node_count_partner)]
        lines += [",".join([tag] + [_fmt(float(c)) for c in row]) for row in rows]
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="flat key=value scenario file; flags override")
    sub.add_argument("--hbar", default=1.0)
    sub.add_argument("--mass", default=1.0)
    sub.add_argument("--potential", default="free",
                     choices=["free", "linear", "harmonic", "tabulated", "radial"])
    sub.add_argument("--omega", default=1.0)
    sub.add_argument("--slope", default=1.0)
    sub.add_argument("--table", default=None)
    sub.add_argument("--ell", default=0)
    sub.add_argument("--energy", default=0.5)
    sub.add_argument("--grid", default="-6.0:6.0")
    sub.add_argument("--wronskian", default="natural")
    sub.add_argument("--params", default="mu=0,nu=0")
    sub.add_argument("--analytic-pair", action="store_true", dest="analytic_pair",
                     help="use the exact (sin, cos) pair for the free potential")
    sub.add_argument("-o", "--output", default=None, required=False)


def _add_trajectory(sub):
    sub.add_argument("--x0", default=0.0)
    sub.add_argument("--t", default="0:10")
    sub.add_argument("--tol", default=1e-11)
    sub.add_argument("--samples", default=200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qshje",
                                     description="Deterministic quantum "
                                                 "trajectories from the "
                                                 "stationary quantum "
                                                 "Hamilton-Jacobi equation.")
    subs = parser.add_subparsers(dest="command")

    p_pair = subs.add_parser("pair", help="independent solution pair to CSV")
    _add_common(p_pair)

    p_action = subs.add_parser("action", help="reduced-action field to CSV")
    _add_common(p_action)

    p_traj = subs.add_parser("trajectory", help="integrate a quantum trajectory")
    _add_common(p_traj)
    _add_trajectory(p_traj)

    p_q = subs.add_parser("quantize", help="action-variable quantization report")
    _add_common(p_q)
    p_q.add_argument("--state", default=0)
    p_q.add_argument("--microstates", default=1)

    p_s = subs.add_parser("spherical", help="3-D decomposition report")
    _add_common(p_s)
    p_s.add_argument("--m-ell", default=0, dest="m_ell")
    p_s.add_argument("--r-window", default="0.5:8.0", dest="r_window")
    p_s.add_argument("--theta-window", default="0.35:2.7916", dest="theta_window")

    p_f = subs.add_parser("compare-floyd", help="dispersion-route vs Floyd trajectories")
    _add_common(p_f)
    p_f.add_argument("--x", default="0.1:6.0")
    p_f.add_argument("--samples", default=512)

    p_r = subs.add_parser("residuals", help="defining-equation residual report")
    _add_common(p_r)

    p_a = subs.add_parser("accept", help="run the acceptance suite")
    p_a.add_argument("--config", default=None)

    p_w = subs.add_parser("sweep", help="one-axis sweep to long-format CSV")
    _add_common(p_w)
    p_w.add_argument("--mode", default="trajectory",
                     choices=["trajectory", "quantize"])
    p_w.add_argument("--hbar-list", default=None, dest="hbar_list")
    p_w.add_argument("--params-list", default=None, dest="params_list")
    _add_trajectory(p_w)
    p_w.add_argument("--state", default=0)

    return parser


_HANDLERS = {
    "pair": _cmd_pair,
    "action": _cmd_action,
    "trajectory": _cmd_trajectory,
    "quantize": _cmd_quantize,
    "spherical": _cmd_spherical,
    "compare-floyd": _cmd_compare_floyd,
    "residuals": _cmd_residuals,
    "accept": _cmd_accept,
    "sweep": _cmd_sweep,
}


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags, matching the config-error code
        return int(exc.code) if exc.code else 0
    if not args.command:
        parser.print_usage()
        return 2
    try:
        if getattr(args, "config", None):
            args = _apply_config(parser, args, argv)
        if args.command not in ("accept",) and not getattr(args, "output", None):
            raise ConfigError("an --output file is required; the violated "
                              "field is 'output'", module=_MODULE, op="config")
        return _HANDLERS[args.command](args)
    except ConfigError as err:
        sys.stderr.write(json.dumps(err.to_json_dict()) + "\n")
        return 2
    except QshjeError as err:
        sys.stderr.write(json.dumps(err.to_json_dict()) + "\n")
        return 3
    except Exception as err:            # keep the 0/2/3 contract: no traceback
        sys.stderr.write(json.dumps({
            "module": _MODULE, "op": args.command,
            "message": f"{type(err).__name__}: {err}", "x": None}) + "\n")
        # a bad value or an unreadable file is an input error, like ConfigError
        return 2 if isinstance(err, (ValueError, OSError)) else 3


def main(argv=None) -> int:
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
