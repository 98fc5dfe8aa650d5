"""The three workloads: their ops on the library, and the oracles that check
every op after its timed region.

``bound``       find_bound_energies spectra, then bound_state + action_variable
                per level (Numerov search dominates).
``trajectory``  pair -> build_field -> integrate_trajectory -> trajectory_to_csv
                (dynamics and writers dominate).
``cli``         one ``python -m qshje.cli`` subprocess per op (start-up and the
                CLI layer dominate); in-process through ``run_command`` for
                the traced run.

Ops call the library through module attributes (``S.make_pair``), so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

# import_module, because the package re-exports functions named like some of
# its modules (qshje.reduced_action is also a function)
C = import_module("qshje.cli")
D = import_module("qshje.dynamics")
Q = import_module("qshje.quantization")
R = import_module("qshje.reduced_action")
S = import_module("qshje.schrodinger")

import inputs as I
from harness import CHILD_YARDSTICK, LOOP_YARDSTICK, oracle_miss

#: Oracle bounds. Spectrum: Richardson-extrapolated finite differences sit
#: within about 1e-9 of Numerov on these grids. The rest are the acceptance
#: bounds of criteria 2, 5, 6, 9 and 11.
ENERGY_TOL = 1e-7
J_TOL = 1e-3
CLOSED_FORM_TOL = 1e-6
TOF_REL_TOL = 1e-4
#: Criterion 5's bound on the interior FIQNL residual column of harmonic
#: artifacts. Reported with the count of artifacts above it, but not gated:
#: fiqnl_residual_along's seven-point stencil reads about 1e-2 when a
#: sample sits next to an RK45 step boundary, on a few percent of these
#: trajectories, so gating it would fail correct trajectories.
FIQNL_REL_TOL = 1e-3
SPHERICAL_REL_TOL = 1e-4

#: Seconds after which a CLI subprocess is killed and its op failed.
CLI_TIMEOUT_S = 60.0


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    #: check(result, ledger) -> (ok, work, error); runs outside the timed region
    check: Callable
    #: input size relative to the kind's reference size; latency samples are
    #: time / size, so ops of different sizes share one median
    size: float = 1.0


def free_closed_form(energy, a_big, b_big, t):
    """Free closed-form trajectory x(t) = (1/k) arctan(A tan(2Et) + B) in
    natural units, continued across the tan poles as the unwrapped phase of
    (cos 2Et, A sin 2Et + B cos 2Et); ``t`` must start at 0 and be dense."""
    tau = 2.0 * energy * np.asarray(t, dtype=float)
    phase = np.arctan2(a_big * np.sin(tau) + b_big * np.cos(tau), np.cos(tau))
    return np.unwrap(phase) / math.sqrt(2.0 * energy)


def _grid(spec_tuple) -> S.Grid:
    lo, hi, n = spec_tuple
    return S.Grid(float(lo), float(hi), int(n))


# ----------------------------------------------------------------------
# bound
# ----------------------------------------------------------------------

def _fd_levels(v, h, count):
    """Lowest Dirichlet eigenvalues of -u''/2 + V u by three-point finite
    differences on the interior points."""
    # imported here so the oracle's import stays out of the measured set-up
    from scipy.linalg import eigh_tridiagonal
    diag = 1.0 / h**2 + v[1:-1]
    off = np.full(diag.size - 1, -0.5 / h**2)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                            eigvals_only=True)


def reference_levels(well: dict, count: int) -> np.ndarray:
    """Oracle spectrum: (n + 1/2) omega for the analytic wells; for the
    tabulated ones, finite-difference eigenvalues on the grid and on its
    every-other-point subgrid, Richardson-extrapolated to O(h^4)."""
    if well["kind"] == "harmonic":
        return (np.arange(count) + 0.5) * well["omega"]
    lo, hi, n = well["grid"]
    x = np.linspace(lo, hi, n)
    h = x[1] - x[0]
    v = CubicSpline(well["table_x"], well["table_v"])(x)
    fine = _fd_levels(v, h, count)
    coarse = _fd_levels(v[::2], 2.0 * h, count)
    return (4.0 * fine - coarse) / 3.0


def _quantize(spec, grid, n, energy, triples):
    record = Q.bound_state(spec, grid, n, energy=energy)
    h_planck = 2.0 * math.pi * S.NATURAL_UNITS.hbar
    js = [Q.action_variable(record.pair, R.MicrostateParams.from_floyd(*t)) / h_planck
          for t in triples]
    return record.node_count_phys, record.node_count_partner, js


class Bound:
    name = "bound"
    headline = ("spectrum",)
    #: spectrum latencies are reported for criterion 6's 15001-point grid:
    #: the search is a fixed number of sweeps, each linear in the grid size
    reference_points = 15001

    def __init__(self, cycles, workdir):
        self.cycles = []
        for cycle in cycles:
            wells = []
            for well in cycle:
                spec = S.PotentialSpec.harmonic(well["omega"]) \
                    if well["kind"] == "harmonic" \
                    else S.PotentialSpec.tabulated(well["table_x"], well["table_v"])
                wells.append((well, spec, _grid(well["grid"])))
            self.cycles.append(wells)

    def ops(self, index):
        for well, spec, grid in self.cycles[index % len(self.cycles)]:
            verified = {}
            yield Op("spectrum",
                     lambda spec=spec, grid=grid: S.find_bound_energies(
                         spec, grid, n_max=I.BOUND_LEVELS),
                     lambda out, ledger, well=well, verified=verified:
                         self._check_spectrum(well, out, ledger, verified),
                     size=grid.n_points / self.reference_points)
            # a level is quantized only at an energy the oracle accepted
            for n, energy in enumerate(verified.get("energies", ())):
                yield Op("quantize",
                         lambda spec=spec, grid=grid, n=n, energy=energy,
                         triples=well["triples"][n]:
                             _quantize(spec, grid, n, energy, triples),
                         lambda out, ledger, n=n: self._check_quantize(n, out, ledger))

    @staticmethod
    def _check_spectrum(well, energies, ledger, verified):
        ref = reference_levels(well, I.BOUND_LEVELS)
        got = np.asarray(energies, dtype=float)
        if got.shape != ref.shape:
            return False, 0, oracle_miss(f"{well['name']}: {got.size} levels, "
                                         f"expected {ref.size}")
        err = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
        ledger.note_accuracy("schrodinger.energy_err_max", err, ENERGY_TOL)
        if not err < ENERGY_TOL:
            return False, 0, oracle_miss(f"{well['name']}: level error {err:.3e}")
        verified["energies"] = [float(e) for e in got]
        return True, got.size, None

    @staticmethod
    def _check_quantize(n, out, ledger):
        n_phys, n_partner, js = out
        if (n_phys, n_partner) != (n, n + 1):
            return False, 0, oracle_miss(f"level {n}: node counts {n_phys}, {n_partner}")
        err = max(abs(j - (n + 1)) for j in js)
        ledger.note_accuracy("quantization.j_err_max", err, J_TOL)
        if not err < J_TOL:
            return False, 0, oracle_miss(f"level {n}: |J/h - {n + 1}| = {err:.3e}")
        return True, 1, None

    def named_metrics(self, ledger) -> dict:
        out = {}
        for kind, name in (("spectrum", "spectrum_levels_per_s"),
                           ("quantize", "quantize_levels_per_s")):
            if ledger.clean([kind]):
                out[name] = (ledger.work([kind]) / ledger.busy_seconds([kind]), "levels/s")
        return out


# ----------------------------------------------------------------------
# trajectory
# ----------------------------------------------------------------------

class Trajectory:
    name = "trajectory"
    headline = ("trajectory",)

    def __init__(self, cycles, workdir):
        self.workdir = workdir
        self.cycles = []
        for cycle in cycles:
            ops = []
            for op in cycle:
                grid = _grid(op["grid"])
                if op["kind"] == "free":
                    a_big, b_big = op["A"], op["B"]
                    spec = S.PotentialSpec.free()
                    params = R.MicrostateParams.from_floyd(a_big**2 + b_big**2, 1.0,
                                                           -2.0 * b_big)
                    x0 = float(D.free_particle_closed_form(op["energy"], a_big, b_big,
                                                           0.0, 0.0, 0.0))
                else:
                    spec = S.PotentialSpec.harmonic(op["omega"]) \
                        if op["kind"] == "harmonic" else S.PotentialSpec.linear(op["slope"])
                    params = R.MicrostateParams.from_mu_nu(op["mu"], op["nu"])
                    x0 = op["x0"]
                ops.append((op, spec, grid, params, x0))
            self.cycles.append(ops)
        self._count = 0

    def ops(self, index):
        for op, spec, grid, params, x0 in self.cycles[index % len(self.cycles)]:
            self._count += 1
            path = os.path.join(self.workdir, f"trajectory-{self._count}.csv")
            yield Op("trajectory",
                     lambda op=op, spec=spec, grid=grid, params=params, x0=x0, path=path:
                         self._run(op, spec, grid, params, x0, path),
                     lambda out, ledger, op=op, x0=x0, path=path:
                         self._check(op, x0, path, out, ledger))

    @staticmethod
    def _run(op, spec, grid, params, x0, path):
        if op["kind"] == "free":
            pair = S.analytic_free_pair(op["energy"], grid)
        else:
            pair = S.make_pair(spec, op["energy"], grid)
        field = R.build_field(pair, params)
        traj = D.integrate_trajectory(field, spec, x0, op["t"], tol=1e-11,
                                      n_samples=op["samples"])
        D.trajectory_to_csv(traj, path)
        return traj

    @staticmethod
    def _check(op, x0, path, traj, ledger):
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        finally:
            os.remove(path)
        if data.shape != (op["samples"], 7) or not np.all(np.isfinite(data)):
            return False, 0, oracle_miss(f"artifact shape {data.shape} or non-finite values")
        t, x = data[:, 0], data[:, 1]
        if op["kind"] == "free":
            err = float(np.max(np.abs(x - free_closed_form(op["energy"], op["A"], op["B"], t))))
            ledger.note_accuracy("dynamics.closed_form_err_max", err, CLOSED_FORM_TOL)
            if not err < CLOSED_FORM_TOL:
                return False, 0, oracle_miss(f"free: |x - closed form| = {err:.3e}")
            return True, 1, None
        k = t.size // 2
        tof = D.time_of_flight(traj.field, traj.spec, x0, float(x[k]))
        err = abs(tof - (t[k] - t[0])) / abs(t[k] - t[0])
        ledger.note_accuracy("dynamics.tof_rel_err_max", err, TOF_REL_TOL)
        if not err < TOF_REL_TOL:
            return False, 0, oracle_miss(f"{op['kind']}: time-of-flight rel. error {err:.3e}")
        if op["kind"] == "harmonic":
            # reported, not gated: see FIQNL_REL_TOL
            fiq = float(np.max(np.abs(data[3:-3, 6])))
            ledger.note_accuracy("dynamics.fiqnl_rel_max", fiq, FIQNL_REL_TOL)
            ledger.note_count("dynamics.fiqnl_rel_over_bound", fiq >= FIQNL_REL_TOL)
        return True, 1, None

    def named_metrics(self, ledger) -> dict:
        if not ledger.clean(["trajectory"]):
            return {}
        lat = sorted(ledger.latencies(["trajectory"]))
        out = {"trajectory_p50_ms": (1e3 * float(np.median(lat)), "ms")}
        if len(lat) >= 100:     # ten samples beyond the 90th percentile
            out["trajectory_p90_ms"] = (1e3 * lat[(90 * len(lat) + 99) // 100 - 1], "ms")
        out["trajectories_per_s"] = (ledger.work(["trajectory"])
                                     / ledger.busy_seconds(["trajectory"]), "ops/s")
        return out


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

def _json_object(text: str):
    """The last line of ``text`` that parses as a JSON object, or None."""
    for line in reversed(text.strip().splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj
    return None


def _run_child(argv, cwd, env, timeout):
    """Run a child to completion; returns (exit code, stderr, peak RSS in
    MB). Its output goes to files so ``wait4`` can reap it and report the
    child's own resource usage."""
    err_path = os.path.join(cwd, "stderr.txt")
    with open(os.devnull, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    return proc.returncode, stderr, usage.ru_maxrss / 1024.0


class Cli:
    name = "cli"
    headline = ("trajectory", "spherical", "sweep", "repeat")

    def __init__(self, cycles, workdir, in_process=False):
        self.workdir = workdir
        self.in_process = in_process
        self.yardstick = LOOP_YARDSTICK if in_process else CHILD_YARDSTICK
        self.cycles = cycles
        self.child_rss_mb = 0.0
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(S.__file__)))
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])
        self._count = 0

    def _argv(self, op, output):
        missing = os.path.join(self.workdir, "no-such-table.csv")
        argv = [a.replace("{missing}", missing) for a in op["argv"]]
        return argv + ["-o", output]

    def ops(self, index):
        cycle = self.cycles[index % len(self.cycles)]
        reference = {}
        for op in cycle:
            self._count += 1
            output = os.path.join(self.workdir, f"cli-{self._count}.out")
            argv = self._argv(op, output)
            yield Op(op["kind"],
                     lambda argv=argv: self._run(argv),
                     lambda out, ledger, op=op, output=output, reference=reference:
                         self._check(op, output, out, ledger, reference))

    def _run(self, argv):
        if self.in_process:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = C.run_command(argv)
            return code, err.getvalue()
        code, stderr, rss = _run_child(
            [sys.executable, "-m", "qshje.cli"] + argv, self.workdir, self.env,
            CLI_TIMEOUT_S)
        self.child_rss_mb = max(self.child_rss_mb, rss)
        return code, stderr

    def _check(self, op, output, out, ledger, reference):
        code, stderr = out
        try:
            if code not in (0, 2, 3):
                return False, 0, {"class": None, "exit_code": code,
                                  "stderr_tail": stderr[-300:]}
            if code != 0:
                if _json_object(stderr) is None:
                    return False, 0, {"class": None, "exit_code": code,
                                      "stderr_tail": stderr[-300:],
                                      "message": "no JSON error object on stderr"}
                if not op["kind"].startswith("malformed."):
                    return False, 0, {"class": None, "exit_code": code,
                                      "stderr_tail": stderr[-300:]}
                return True, 1, None
            return self._check_artifact(op, output, ledger, reference)
        finally:
            if os.path.exists(output):
                os.remove(output)

    @staticmethod
    def _check_artifact(op, output, ledger, reference):
        kind = op["kind"]
        if kind.startswith("malformed."):
            return True, 1, None
        if not os.path.exists(output):
            return False, 0, oracle_miss("exit 0 without an artifact")
        with open(output, "rb") as fh:
            raw = fh.read()
        if kind == "repeat":
            if reference.get(tuple(op["argv"])) != raw:
                return False, 0, oracle_miss("repeated command wrote different bytes")
            return True, 1, None
        text = raw.decode("utf-8")
        if kind == "trajectory":
            data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
            samples = int(op["argv"][op["argv"].index("--samples") + 1])
            if data.shape != (samples, 7) or not np.all(np.isfinite(data)):
                return False, 0, oracle_miss(f"trajectory artifact shape {data.shape}")
            reference[tuple(op["argv"])] = raw
        elif kind == "sweep":
            data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
            if len(set(data[:, 0])) != op["values"] or not np.all(np.isfinite(data)):
                return False, 0, oracle_miss("sweep artifact lacks its swept values")
        elif kind == "spherical":
            report = json.loads(text)
            energy = float(op["argv"][op["argv"].index("--energy") + 1])
            rel = report["total_residual_max"] / energy
            ledger.note_accuracy("spherical.total_residual_rel_max", rel, SPHERICAL_REL_TOL)
            if not rel < SPHERICAL_REL_TOL:
                return False, 0, oracle_miss(f"spherical residual / E = {rel:.3e}")
        elif kind == "quantize":
            reports = json.loads(text)
            reports = reports if isinstance(reports, list) else [reports]
            err = max(abs(r["J_over_h"] - (op["state"] + 1)) for r in reports)
            ledger.note_accuracy("quantization.j_err_max", err, J_TOL)
            if not err < J_TOL:
                return False, 0, oracle_miss(f"quantize: |J/h - N| = {err:.3e}")
        return True, 1, None

    def named_metrics(self, ledger) -> dict:
        out = {}
        for kind in ("trajectory", "spherical", "sweep", "quantize"):
            if ledger.clean([kind]):
                out[f"cli_{kind}_s"] = (float(np.median(ledger.latencies([kind]))), "s")
        return out


WORKLOADS = {"bound": Bound, "trajectory": Trajectory, "cli": Cli}
