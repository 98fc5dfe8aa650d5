"""CLI artifacts against the committed goldens in tests/goldens/.

Each case runs one command on a coarse grid and compares its artifact with
the golden of the same name. Headers, row counts, JSON keys, strings and
counts (states, nodes, quantum numbers) must match exactly. A float may
move by at most its column's bound times the column's scale: the largest
|value| of the golden column (of the key, for JSON), or 1 where that is
larger for the rounding-level residual columns, whose values are relative
to O(1) energies. Bytes need not match across numpy versions, so each
bound stands well above the largest change that moving --energy (--omega
for quantize) by one ulp brings to its columns, measured on numpy 2.4:
1.5e-14 for the columns of a trajectory (xdot of the linear one), 4.8e-9
for the residuals (the modified-potential residual) and 1.1e-14 for every
other column. The trajectory goldens were written by DOP853 at tol 1e-11;
the inverted time table, exact to rounding on the field's C2 quintic,
reproduces them within 2.5e-10 of their scale (abs_dev_from_classical of
the trajectory sweep).

    PYTHONPATH=src python tests/test_goldens.py               # comparer report
    PYTHONPATH=src python tests/test_goldens.py --regenerate  # rewrite goldens

Regenerating the goldens is a visible diff; report the comparer's output
and the reason with it.
"""

import csv
import json
import math
import os
import sys
import tempfile

import pytest

from qshje.cli import run_command

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

#: artifact name -> command; each writes its artifact with -o appended.
CASES = {
    "pair.csv": ["pair", "--potential", "free", "--energy", "0.5",
                 "--grid", "0:3.14:101"],
    "action.csv": ["action", "--potential", "harmonic", "--omega", "1",
                   "--energy", "0.7", "--grid=-2:2:161",
                   "--params", "a=1,b=1,c=0"],
    "trajectory_free.csv": ["trajectory", "--potential", "free",
                            "--energy", "0.5", "--grid=-2:14:801",
                            "--analytic-pair", "--params", "a=2,b=1,c=0.5",
                            "--x0", "0", "--t", "0:6", "--samples", "40"],
    # leaves the grid at t = 0.87: the stalled-trajectory artifact
    "trajectory_harmonic.csv": ["trajectory", "--potential", "harmonic",
                                "--omega", "1", "--energy", "2",
                                "--grid=-1.4:1.4:561",
                                "--params", "mu=0.3,nu=-0.2", "--x0", "0.2",
                                "--t", "0:1.2", "--samples", "40"],
    "trajectory_linear.csv": ["trajectory", "--potential", "linear",
                              "--slope", "1", "--energy", "2",
                              "--grid=-4:6:1001", "--params", "mu=0.3,nu=-0.2",
                              "--x0", "0", "--t", "0:1.5", "--samples", "40"],
    "quantize.json": ["quantize", "--potential", "harmonic", "--omega", "1",
                      "--grid=-7.5:7.5:1501", "--state", "1",
                      "--microstates", "2"],
    "residuals.json": ["residuals", "--potential", "harmonic", "--omega", "1",
                       "--energy", "0.7", "--grid=-2.5:2.5:801",
                       "--params", "mu=0.3,nu=-0.2"],
    "spherical_l0.json": ["spherical", "--energy", "0.5", "--ell", "0",
                          "--m-ell", "0", "--r-window", "0.5:8.0:801",
                          "--theta-window", "0.35:2.7916:401",
                          "--params", "a=1.5,b=1,c=0.5"],
    "spherical_l1.json": ["spherical", "--energy", "0.5", "--ell", "1",
                          "--m-ell", "1", "--r-window", "0.5:8.0:801",
                          "--theta-window", "0.35:2.7916:401",
                          "--params", "a=1,b=1,c=0"],
    "compare_floyd.csv": ["compare-floyd", "--energy", "0.5",
                          "--params", "a=2,b=1,c=0.5", "--x", "0.1:6",
                          "--samples", "40"],
    "sweep_trajectory.csv": ["sweep", "--mode", "trajectory",
                             "--potential", "free", "--energy", "0.5",
                             "--grid=-2:14:801", "--analytic-pair",
                             "--params", "mu=0.3,nu=-0.2",
                             "--hbar-list", "1,0.5", "--t", "0:4",
                             "--samples", "20"],
    "sweep_quantize.csv": ["sweep", "--mode", "quantize",
                           "--potential", "harmonic", "--omega", "1",
                           "--grid=-7.5:7.5:1501", "--state", "0",
                           "--params-list", "a=1,b=1,c=0;a=2,b=1,c=1"],
}

#: Bounds on |new - golden| / scale: the columns of a trajectory (written
#: by an adaptive ODE run), the residual columns, and every other float column.
TRAJECTORY_RTOL = 1e-7
RESIDUAL_RTOL = 1e-6
RTOL = 1e-10

#: Rounding-level residual columns and keys: their scale is at least 1.
RESIDUALS = {
    "hq_minus_e", "fiqnl_residual_rel", "qshje_residual_max_abs",
    "qshje_residual_max_rel", "bohm_routes_gap_max",
    "modified_potential_residual_mid_abs", "modified_potential_residual_mid_rel",
    "wronskian_drift_rel", "radial_residual_max", "polar_residual_max",
    "azimuthal_residual_max", "total_residual_max",
}

#: Counts compared exactly.
EXACT = {"state", "state_index", "node_phys", "node_partner", "ell", "m_ell"}


def _columns_csv(path):
    """Header and {column: list of cells}; numeric cells become floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: [] for name in header}
    for row in body:
        assert len(row) == len(header), f"{path}: ragged row {row}"
        for name, cell in zip(header, row):
            try:
                cols[name].append(float(cell))
            except ValueError:
                cols[name].append(cell)
    return header, len(body), cols


def _columns_json(node, prefix="", out=None):
    """Flatten a JSON payload to {dotted key: list of leaves}, merging the
    entries of a list of reports into one column per key."""
    out = {} if out is None else out
    if isinstance(node, dict):
        for key, value in node.items():
            _columns_json(value, f"{prefix}{key}." if isinstance(value, dict)
                          else f"{prefix}{key}", out)
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for item in node:
            _columns_json(item, prefix, out)
    else:
        out.setdefault(prefix, []).extend(node if isinstance(node, list) else [node])
    return out


def _shape_json(node):
    """The payload with every leaf replaced by its type: keys, list lengths
    and leaf kinds must match exactly."""
    if isinstance(node, dict):
        return {k: _shape_json(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_shape_json(v) for v in node]
    return type(node).__name__


def _bound(case, column):
    if column in RESIDUALS:
        return RESIDUAL_RTOL
    if case.startswith(("trajectory", "sweep_trajectory")):
        return TRAJECTORY_RTOL
    return RTOL


def compare(golden_path, new_path):
    """{column: (largest |change| / scale, bound)}; raises AssertionError on
    a structural difference (header, rows, keys, strings, counts)."""
    if golden_path.endswith(".json"):
        with open(golden_path, encoding="utf-8") as fh:
            old = json.load(fh)
        with open(new_path, encoding="utf-8") as fh:
            new = json.load(fh)
        assert _shape_json(new) == _shape_json(old), "JSON keys or shape differ"
        old_cols, new_cols = _columns_json(old), _columns_json(new)
    else:
        old_header, old_rows, old_cols = _columns_csv(golden_path)
        new_header, new_rows, new_cols = _columns_csv(new_path)
        assert new_header == old_header, f"header {new_header} != {old_header}"
        assert new_rows == old_rows, f"{new_rows} rows != {old_rows}"
    out = {}
    for name, olds in old_cols.items():
        news = new_cols[name]
        leaf = name.rsplit(".", 1)[-1]
        if leaf in EXACT or not all(isinstance(v, float) for v in olds):
            assert news == olds, f"column {name!r} differs: {news} != {olds}"
            continue
        assert all(isinstance(v, float) for v in news), f"column {name!r} type"
        scale = max(abs(v) for v in olds if math.isfinite(v)) \
            if any(math.isfinite(v) for v in olds) else 0.0
        if leaf in RESIDUALS:
            scale = max(scale, 1.0)
        worst = 0.0
        for o, n in zip(olds, news):
            if not math.isfinite(o):
                assert o == n or (math.isnan(o) and math.isnan(n)), \
                    f"column {name!r}: {n} != {o}"
                continue
            change = abs(n - o)
            worst = max(worst, change / scale if scale > 0.0 else change)
        out[name] = (worst, _bound(os.path.basename(golden_path), leaf))
    return out


def _run_case(name, directory):
    path = os.path.join(directory, name)
    code = run_command(CASES[name] + ["-o", path])
    assert code == 0, f"{name}: exit code {code}"
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, tmp_path):
    new = _run_case(name, str(tmp_path))
    report = compare(os.path.join(GOLDEN_DIR, name), new)
    over = {c: w for c, (w, bound) in report.items() if w > bound}
    assert not over, f"{name}: columns beyond their bound: {over}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for case in sorted(CASES):
            _run_case(case, GOLDEN_DIR)
            print("wrote", os.path.join(GOLDEN_DIR, case))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            for case in sorted(CASES):
                rows = compare(os.path.join(GOLDEN_DIR, case), _run_case(case, tmp))
                for column, (worst, bound) in rows.items():
                    print(f"{case:24s} {column:40s} {worst:.3e} (bound {bound:.0e})")
