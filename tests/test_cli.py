"""CLI contract: artifacts, determinism, exit codes, error JSON, sweeps."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qshje
from qshje.cli import run_command


def run(argv):
    return run_command(argv)


def test_pair_command_writes_csv(tmp_path):
    out = tmp_path / "pair.csv"
    code = run(["pair", "--potential", "free", "--energy", "0.5",
                "--grid", "0:3.14:2001", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,theta1,dtheta1,theta2,dtheta2"
    assert len(lines) == 2002


def test_action_command(tmp_path):
    out = tmp_path / "field.csv"
    code = run(["action", "--potential", "harmonic", "--omega", "1",
                "--energy", "0.5", "--grid=-3:3:2001",
                "--params", "a=1,b=1,c=0", "-o", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,s0,p,v_b,f"


def test_trajectory_classical_line(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["trajectory", "--potential", "free", "--energy", "0.5",
                "--grid=-2:14:8001", "--analytic-pair",
                "--params", "mu=0,nu=0", "--x0", "0", "--t", "0:10",
                "-o", str(out)])
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    line = math.sqrt(1.0) * data["t"]
    assert np.max(np.abs(data["x"] - line)) < 1e-8
    assert np.max(np.abs(data["hq_minus_e"])) < 1e-10


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["action", "--potential", "harmonic", "--omega", "1",
            "--energy", "0.5", "--grid=-2:2:1001",
            "--params=mu=0.3,nu=-0.2"]
    assert run(argv + ["-o", str(out1)]) == 0
    assert run(argv + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_quantize_command(tmp_path):
    out = tmp_path / "quant.json"
    code = run(["quantize", "--potential", "harmonic", "--omega", "1",
                "--grid=-7.5:7.5:15001", "--state", "0", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["J_over_h"] - 1.0) < 1e-3
    assert payload["node_partner"] == 1
    assert payload["energy"] == pytest.approx(0.5, abs=1e-6)


def test_spherical_command(tmp_path):
    out = tmp_path / "sph.json"
    code = run(["spherical", "--potential", "free", "--energy", "0.5",
                "--ell", "0", "--m-ell", "0",
                "--r-window", "0.5:8.0:4001",
                "--theta-window", "0.35:2.7916:2001",
                "--params", "a=1,b=1,c=0", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["total_residual_max"] < 1e-4
    assert payload["radial_residual_max"] < 1e-5


def test_spherical_ell_2_components_agree_with_the_total(tmp_path):
    # default windows: radial_residual_max reads 5.9e-10 and the total
    # 3.0e-10 (the radial maximum read 79 with cubic tables of P between
    # nodes while the total read 5.3e-8), measured on numpy 2.4
    out = tmp_path / "sph.json"
    assert run(["spherical", "--ell", "2", "--energy", "0.8", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    for key in ("radial_residual_max", "polar_residual_max",
                "azimuthal_residual_max", "total_residual_max"):
        assert payload[key] < 1e-4 * 0.8, key


def test_compare_floyd_command(tmp_path):
    out = tmp_path / "floyd.csv"
    code = run(["compare-floyd", "--energy", "0.5",
                "--params", "a=2,b=1,c=0.5", "--x", "0.1:6.0", "-o", str(out)])
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    rel = np.abs(data["t_dispersion"] - data["t_floyd"]) / data["t_classical"]
    assert np.max(rel) > 1e-3


def test_residuals_command(tmp_path):
    out = tmp_path / "res.json"
    code = run(["residuals", "--potential", "harmonic", "--omega", "1",
                "--energy", "0.5", "--grid=-2.5:2.5:2001",
                "--params", "a=1,b=1,c=0", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["qshje_residual_max_rel"] < 1e-5
    assert payload["bohm_routes_gap_max"] < 1e-10
    assert "wronskian_drift_rel" in payload


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("potential=harmonic\nomega=1\nenergy=0.5\n"
                   "grid=-2:2:1001\nparams=a=1,b=1,c=0\n")
    out = tmp_path / "out.csv"
    code = run(["action", "--config", str(cfg), "-o", str(out)])
    assert code == 0
    # flag overrides the file value
    out2 = tmp_path / "out2.csv"
    code = run(["action", "--config", str(cfg), "--grid=-1:1:501",
                "-o", str(out2)])
    assert code == 0
    assert len(out2.read_text().splitlines()) == 502


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    out = tmp_path / "out.csv"
    code = run(["action", "--config", str(cfg), "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["module"] == "cli"


@pytest.mark.parametrize("word,analytic", [
    ("false", False), ("no", False), ("0", False),
    ("true", True), ("Yes", True), ("1", True),
])
def test_config_boolean_flag(tmp_path, word, analytic):
    flags = ["pair", "--potential", "free", "--energy", "0.7", "--grid=-2:8:2001"]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"analytic_pair={word}\n")
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    assert run(flags + ["--config", str(cfg), "-o", str(out)]) == 0
    assert run(flags + (["--analytic-pair"] if analytic else [])
               + ["-o", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_config_boolean_flag_rejects_other_words(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("analytic_pair=maybe\n")
    code = run(["pair", "--potential", "free", "--config", str(cfg),
                "-o", str(tmp_path / "out.csv")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["op"] == "config"
    assert "'analytic_pair'" in payload["message"]


def test_unknown_flag_exit_code():
    assert run(["pair", "--does-not-exist", "1"]) == 2


def test_missing_output_is_config_error(capsys):
    code = run(["pair", "--potential", "free"])
    assert code == 2
    assert "output" in json.loads(capsys.readouterr().err.strip())["message"]


def test_numeric_failure_exit_code(tmp_path, capsys):
    # no bound states in a free potential: search error -> exit 3 + JSON
    out = tmp_path / "q.json"
    code = run(["quantize", "--potential", "free", "--grid=-4:4:1001",
                "--state", "0", "-o", str(out)])
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["module"] == "schrodinger"
    assert payload["op"] == "find_bound_energies"


def test_failed_acceptance_exits_3_naming_the_criteria(monkeypatch, capsys):
    from qshje import acceptance

    def forced_failure():
        return acceptance.CriterionResult(index=7, name="forced failure",
                                          passed=False, runtime_limit=10.0)
    monkeypatch.setattr(acceptance, "CRITERIA", [forced_failure])
    assert run(["accept"]) == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["op"] == "accept"
    assert "7 (forced failure)" in payload["message"]


def test_sweep_hbar_trajectory(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--mode", "trajectory", "--potential", "free",
                "--energy", "0.5", "--grid=-1:10:6001", "--analytic-pair",
                "--params=mu=0.4,nu=-0.3", "--x0", "0", "--t", "0:8",
                "--hbar-list", "1,0.5,0.25", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sweep_value,t,x,xdot")
    maxdev = {}
    for line in lines[1:]:
        cells = line.split(",")
        maxdev[cells[0]] = float(cells[-1])
    devs = [maxdev["1"], maxdev["0.5"], maxdev["0.25"]]
    assert devs[0] > devs[1] > devs[2]


def test_sweep_requires_single_axis(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run(["sweep", "--hbar-list", "1,0.5",
                "--params-list", "mu=0,nu=0", "-o", str(out)])
    assert code == 2
    code = run(["sweep", "-o", str(out)])
    assert code == 2
    code = run(["sweep", "--hbar-list", "", "-o", str(out)])
    assert code == 2


def test_grid_points_env_override(tmp_path):
    out = tmp_path / "pair.csv"
    old = os.environ.get("QSHJE_GRID_POINTS")
    os.environ["QSHJE_GRID_POINTS"] = "501"
    try:
        code = run(["pair", "--potential", "free", "--energy", "0.5",
                    "--grid", "0:3", "-o", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 502
    finally:
        if old is None:
            os.environ.pop("QSHJE_GRID_POINTS", None)
        else:
            os.environ["QSHJE_GRID_POINTS"] = old


@pytest.mark.parametrize("value", ["-5", "2"])
def test_grid_points_env_too_small_is_config_error(tmp_path, capsys,
                                                   monkeypatch, value):
    monkeypatch.setenv("QSHJE_GRID_POINTS", value)
    code = run(["pair", "--potential", "free", "--energy", "0.5",
                "--grid", "0:3", "-o", str(tmp_path / "pair.csv")])
    payload = json.loads(capsys.readouterr().err.strip())
    assert code == 2
    assert payload["op"] == "config"
    assert "QSHJE_GRID_POINTS" in payload["message"]


def test_sweep_microstates_quantize(tmp_path):
    out = tmp_path / "micro.csv"
    sets = "a=1,b=1,c=0;a=1.125,b=2,c=1;a=1.5,b=0.5,c=-1;a=1.045,b=5,c=0.3;a=2,b=0.25,c=-1"
    code = run(["sweep", "--mode", "quantize", "--potential", "harmonic",
                "--omega", "1", "--grid=-7.5:7.5:7501", "--state", "0",
                "--params-list", sets, "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sweep_value,state,energy,J_over_h,node_phys,node_partner"
    j_col = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(j_col) == 5
    assert max(j_col) - min(j_col) < 1e-3


def test_sweep_trajectory_column_count(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["sweep", "--mode", "trajectory", "--potential", "free",
                "--energy", "0.5", "--grid=-1:10:4001", "--analytic-pair",
                "--params=mu=0.4,nu=-0.3", "--x0", "0", "--t", "0:6",
                "--hbar-list", "1,0.5", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines[0].split(",")) == len(lines[1].split(","))


def _sweep_x(path):
    # a swept params value is a quoted cell that holds commas
    rows = list(csv.DictReader(path.read_text().splitlines()))
    return np.array([float(row["x"]) for row in rows])


def test_sweep_params_list_rejects_ab_off_free(tmp_path, capsys):
    # each --params-list entry follows the --params rules, as in trajectory
    code = run(["sweep", "--potential", "harmonic", "--omega", "1",
                "--grid=-2:2:1001", "--params-list", "A=1,B=0.5",
                "-o", str(tmp_path / "s.csv")])
    assert code == 2
    assert "params" in json.loads(capsys.readouterr().err.strip())["message"]


def test_sweep_honours_wronskian(tmp_path):
    flags = ["--potential", "free", "--energy", "0.5", "--grid=-1:10:4001",
             "--params=mu=0.4,nu=-0.3", "--x0", "0", "--t", "0:6",
             "--samples", "50", "--wronskian", "2"]
    swept, single = tmp_path / "s.csv", tmp_path / "t.csv"
    assert run(["sweep", "--hbar-list", "1"] + flags + ["-o", str(swept)]) == 0
    assert run(["trajectory"] + flags + ["-o", str(single)]) == 0
    x = np.genfromtxt(single, delimiter=",", names=True)["x"]
    assert np.array_equal(_sweep_x(swept), x)


def test_sweep_ab_params_use_analytic_pair(tmp_path):
    # A=..,B=.. presumes the (sin, cos) basis in sweeps as in trajectory
    flags = ["--potential", "free", "--energy", "0.5", "--grid=-2:14:4001",
             "--x0", "0", "--t", "0:6", "--samples", "50"]
    swept, single = tmp_path / "s.csv", tmp_path / "t.csv"
    assert run(["sweep", "--params-list", "A=1,B=0.5"] + flags
               + ["-o", str(swept)]) == 0
    assert run(["trajectory", "--params", "A=1,B=0.5"] + flags
               + ["-o", str(single)]) == 0
    x = np.genfromtxt(single, delimiter=",", names=True)["x"]
    assert np.array_equal(_sweep_x(swept), x)


@pytest.mark.parametrize("argv,field", [
    (["action", "--grid=0:6:60.5"], "grid"),
    (["action", "--grid=a:1"], "grid"),
    (["action", "--grid=1"], "grid"),
    (["spherical", "--r-window", "a:b"], "r_window"),
    (["spherical", "--theta-window", "0.3:x"], "theta_window"),
])
def test_grid_parse_error_names_field(tmp_path, capsys, argv, field):
    code = run(argv + ["-o", str(tmp_path / "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["op"] == "config"
    assert f"the violated field is '{field}'" in payload["message"]


def test_trajectory_closed_form_constants(tmp_path):
    # A=1, B=0 selects the microstate whose trajectory is the classical line
    out = tmp_path / "ab.csv"
    code = run(["trajectory", "--potential", "free", "--energy", "0.5",
                "--grid=-2:14:8001", "--params", "A=1,B=0",
                "--x0", "0", "--t", "0:10", "-o", str(out)])
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert np.max(np.abs(data["x"] - data["t"])) < 1e-8


def test_trajectory_ab_params_require_free(tmp_path, capsys):
    out = tmp_path / "ab.csv"
    code = run(["trajectory", "--potential", "harmonic", "--omega", "1",
                "--energy", "0.5", "--grid=-2:2:1001", "--params", "A=1,B=0",
                "--x0", "0", "--t", "0:1", "-o", str(out)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["action", "--grid=0:6:60.5"],
    ["action", "--energy", "abc"],
    ["action", "--params", "mu=nan,nu=0"],
    ["action", "--hbar", "inf"],
    ["quantize", "--potential", "tabulated", "--table", "{missing}"],
], ids=["grid", "energy", "params_nan", "hbar_inf", "missing_table"])
def test_malformed_input_exits_with_json_error(tmp_path, capsys, argv):
    argv = [a.replace("{missing}", str(tmp_path / "missing.csv")) for a in argv]
    code = run(argv + ["-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (2, 3)
    assert isinstance(json.loads(err.strip().splitlines()[-1]), dict)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,field", [
    (["action", "--energy", "abc"], "energy"),
    (["trajectory", "--samples", "-3"], "samples"),
], ids=["energy", "samples"])
def test_value_error_names_flag(tmp_path, capsys, argv, field):
    code = run(argv + ["-o", str(tmp_path / "out")])
    payload = json.loads(capsys.readouterr().err.strip())
    assert code == 2
    assert payload["op"] == "config"
    assert payload["message"].startswith(f"--{field} must be")
    assert f"the violated field is '{field}'" in payload["message"]


def test_importing_the_cli_leaves_scipy_integrate_out():
    # trajectories invert a time table instead of calling an ODE solver or
    # an adaptive quadrature; scipy.optimize still comes in with
    # scipy.interpolate
    src = os.path.dirname(os.path.dirname(os.path.abspath(qshje.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qshje.cli; print(sorted(m for m in sys.modules"
                               " if m.startswith('scipy.integrate')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
