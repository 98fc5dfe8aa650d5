"""Seeded inputs of the three workloads, as plain data.

Every workload is a list of cycles; a cycle is a short list of op inputs in
a seeded order. The same (workload, seed) always gives the same lists. The
inputs are generated up front, before the first timed op; a run that needs
more cycles than were generated starts over from the first.

Nothing here imports qshje: the workload modules turn these records into
library objects.
"""

from __future__ import annotations

import math
import random

import numpy as np

#: Cycles generated per run; more than any run of ``--seconds`` <= 60 uses
#: for bound and cli, and enough trajectory cycles for about a minute.
CYCLES = {"bound": 8, "trajectory": 400, "cli": 16}

#: Floyd triples per quantized level (criterion 6 fans one pair out the same way).
TRIPLES_PER_LEVEL = 3
BOUND_LEVELS = 5


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    # string seeds hash through SHA-512: stable across processes and versions
    return random.Random(f"{workload}:{seed}:{cycle}")


def _floyd_triple(rng, scale=1.0):
    b = rng.uniform(0.3, 3.0)
    c = rng.uniform(-2.0, 2.0)
    return (c * c / (4.0 * b) + scale, b, c)


# ----------------------------------------------------------------------
# bound: confining wells, one spectrum op and BOUND_LEVELS quantize ops each
# ----------------------------------------------------------------------

def _bound_potentials(rng):
    """One well per grid-size stratum, 4001 to 15001 points."""
    wells = [{"name": "harmonic_w1", "kind": "harmonic", "omega": 1.0,
              "grid": (-7.5, 7.5, 15001)}]
    omega = rng.uniform(0.7, 1.6)
    half = 6.5 / math.sqrt(omega)
    wells.append({"name": "harmonic", "kind": "harmonic", "omega": omega,
                  "grid": (-half, half, 6001)})

    c4 = rng.uniform(0.5, 2.0)
    xs = np.linspace(-3.2, 3.2, 401)
    wells.append({"name": "quartic", "kind": "tabulated",
                  "grid": (-3.2, 3.2, 4001), "table_x": xs, "table_v": c4 * xs**4})

    a, b, s = rng.uniform(0.5, 1.0), rng.uniform(1.0, 1.5), rng.uniform(0.05, 0.3)
    xs = np.linspace(-3.5, 3.5, 501)
    wells.append({"name": "double_well", "kind": "tabulated",
                  "grid": (-3.5, 3.5, 8001),
                  "table_x": xs, "table_v": a * (xs**2 - b**2)**2 + s * xs})

    depth, alpha = rng.uniform(22.0, 30.0), rng.uniform(0.6, 0.9)
    xs = np.linspace(-1.5, 9.0, 601)
    wells.append({"name": "morse", "kind": "tabulated",
                  "grid": (-1.5, 9.0, 11001),
                  "table_x": xs, "table_v": depth * (1.0 - np.exp(-alpha * xs))**2})

    for well in wells:
        well["triples"] = [[_floyd_triple(rng) for _ in range(TRIPLES_PER_LEVEL)]
                           for _ in range(BOUND_LEVELS)]
    rng.shuffle(wells)
    return wells


# ----------------------------------------------------------------------
# trajectory: one free, one harmonic and one linear trajectory per cycle
# ----------------------------------------------------------------------

def _trajectory_ops(rng):
    """Two free, two harmonic and one linear trajectory. A linear one costs
    about twice the others; keeping it the minority puts the median latency
    inside the main cluster instead of at its edge."""
    def free():
        energy = rng.uniform(0.3, 1.0)
        return {"kind": "free", "energy": energy,
                "A": rng.uniform(0.5, 3.0), "B": rng.uniform(-1.0, 1.0),
                "grid": (-2.0, 8.0, 10001),
                "t": (0.0, math.pi / (2.0 * energy)),
                "samples": rng.randint(200, 400)}

    def harmonic():
        energy = rng.uniform(1.5, 3.0)
        half = 0.7 * math.sqrt(2.0 * energy)
        return {"kind": "harmonic", "omega": 1.0, "energy": energy,
                "mu": rng.uniform(-0.5, 0.5), "nu": rng.uniform(-0.5, 0.5),
                "grid": (-half, half, 5601),
                "x0": rng.uniform(-0.4 * half, 0.4 * half),
                "t": (0.0, 1.2), "samples": rng.randint(200, 400)}

    linear = {"kind": "linear", "slope": rng.uniform(0.5, 1.5),
              "energy": rng.uniform(1.0, 2.0),
              "mu": rng.uniform(-0.5, 0.5), "nu": rng.uniform(-0.5, 0.5),
              "grid": (-4.0, 4.0, 8001), "x0": rng.uniform(-2.0, 0.0),
              "t": (0.0, 2.0), "samples": rng.randint(200, 400)}
    ops = [free(), free(), harmonic(), harmonic(), linear]
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# cli: one command of each kind, the five malformed invocations, a repeat
# ----------------------------------------------------------------------

#: ROADMAP item 5: invocations that must exit 2 or 3 with a JSON error object.
MALFORMED = [
    ("grid", ["action", "--grid=0:6:60.5"]),
    ("energy", ["action", "--energy", "abc"]),
    ("params_nan", ["action", "--params", "mu=nan,nu=0"]),
    ("hbar_inf", ["action", "--hbar", "inf"]),
    ("missing_table", ["quantize", "--potential", "tabulated", "--table", "{missing}"]),
]


def _num(x: float) -> str:
    return repr(float(x))


def _cli_trajectory(rng, potential):
    if potential == "free":
        energy = rng.uniform(0.3, 1.0)
        argv = ["trajectory", "--potential", "free", "--analytic-pair",
                "--energy", _num(energy), "--grid=-2:8:10001",
                f"--params=A={_num(rng.uniform(0.5, 3.0))},B={_num(rng.uniform(-1.0, 1.0))}",
                f"--x0={_num(rng.uniform(-0.5, 0.5))}",
                f"--t=0:{_num(math.pi / (2.0 * energy))}"]
    else:
        energy = rng.uniform(1.5, 3.0)
        half = 0.7 * math.sqrt(2.0 * energy)
        argv = ["trajectory", "--potential", "harmonic", "--energy", _num(energy),
                f"--grid={_num(-half)}:{_num(half)}:5601",
                f"--params=mu={_num(rng.uniform(-0.5, 0.5))},nu={_num(rng.uniform(-0.5, 0.5))}",
                f"--x0={_num(rng.uniform(-0.4 * half, 0.4 * half))}", "--t=0:1.2"]
    return argv + ["--tol", "1e-11", "--samples", str(rng.randint(200, 400))]


def _cli_spherical(rng, ell):
    """ell = 0 with a seeded Floyd triple (criterion 11's ell), or ell = 1
    with a seeded classical triple (a = b, c = 0). Two kinds of input fall
    outside criterion 11's 1e-4 bound on total_residual_max / E: ell = 1
    with a non-classical triple (up to about 1e-3 while every component
    residual stays below 1e-5), and ell = 2 at these energies, where
    r = 0.5 lies deep under the centrifugal barrier and the radial S0
    outruns the grid (exit 3)."""
    if ell == 0:
        a, b, c = _floyd_triple(rng, scale=rng.uniform(0.5, 2.0))
        m_ell = 0
    else:
        a = b = rng.uniform(0.5, 2.0)
        c = 0.0
        m_ell = rng.randint(0, ell)
    return ["spherical", "--energy", _num(rng.uniform(0.5, 1.0)),
            "--ell", str(ell), "--m-ell", str(m_ell),
            f"--params=a={_num(a)},b={_num(b)},c={_num(c)}",
            "--r-window", "0.5:8.0:7501", "--theta-window", "0.35:2.7916:4001"]


def _cli_sweep(rng):
    return ["sweep", "--mode", "trajectory", "--hbar-list", "1,0.5,0.25,0.125",
            "--analytic-pair",
            f"--params=mu={_num(rng.uniform(-0.5, 0.5))},nu={_num(rng.uniform(-0.5, 0.5))}",
            "--grid=-1:10:11001", "--t", "0:8", "--tol", "1e-10", "--samples", "160"]


def _cli_ops(rng):
    """Twice a free and a harmonic trajectory, two spherical commands and a
    sweep; a quantize; the malformed invocations; then the first free
    trajectory again. Most commands are the well-formed product commands,
    whose latencies the headline metrics take."""
    ops = []
    for _ in range(2):
        ops += [{"kind": "trajectory", "argv": _cli_trajectory(rng, "free")},
                {"kind": "trajectory", "argv": _cli_trajectory(rng, "harmonic")},
                {"kind": "spherical", "argv": _cli_spherical(rng, 0)},
                {"kind": "spherical", "argv": _cli_spherical(rng, 1)},
                {"kind": "sweep", "argv": _cli_sweep(rng), "values": 4}]
    free = ops[0]["argv"]
    state = rng.randint(0, 2)
    quantize = ["quantize", "--potential", "harmonic",
                "--omega", _num(rng.uniform(0.8, 1.25)), "--grid=-6:6:4001",
                "--state", str(state), "--microstates", "2"]
    ops.append({"kind": "quantize", "argv": quantize, "state": state})
    ops += [{"kind": f"malformed.{name}", "argv": list(argv)} for name, argv in MALFORMED]
    rng.shuffle(ops)
    # byte identity: the free trajectory command runs again, last
    ops.append({"kind": "repeat", "argv": list(free)})
    return ops


_MAKERS = {"bound": _bound_potentials, "trajectory": _trajectory_ops,
           "cli": _cli_ops}


def generate(workload: str, seed: int, cycles: int | None = None) -> list:
    """The workload's cycles for one seed."""
    make = _MAKERS[workload]
    count = CYCLES[workload] if cycles is None else cycles
    return [make(_rng(workload, seed, c)) for c in range(count)]
