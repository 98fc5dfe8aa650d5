"""Per-layer metrics of a traced run: start-up import times and the
figures derived from the library spans.

Span-derived time and call figures are divided by the number of workload
cycles the traced phase ran, so a faster program, which fits more cycles
into the same run, does not read as more work per layer.
"""

from __future__ import annotations

from harness import has_ancestor, self_times
from instrument import TARGETS

#: Span names of the library functions the traced run wraps.
TRACED = [f"{mod[len('qshje.'):]}.{attr}" for mod, attr, _ in TARGETS]

#: Modules whose cumulative ``-X importtime`` figure is reported.
STARTUP_MODULES = ["numpy", "scipy.interpolate", "scipy.integrate",
                   "scipy.optimize", "qshje", "qshje.cli"]

#: The per-layer metrics of the result line (BENCHMARK.json ``per_layer``):
#: every one is measured on every workload. Times are never zero on any of
#: them; counts read 0 where the workload does not reach the layer. The
#: detail block of the result carries every span-derived figure.
PER_LAYER = [
    "startup.numpy.import_s",
    "startup.scipy_interpolate.import_s",
    "startup.scipy_integrate.import_s",
    "startup.scipy_optimize.import_s",
    "startup.qshje.import_s",
    "startup.qshje_cli.import_s",
    "schrodinger.self_s",
    "schrodinger.integrate_schrodinger.self_s",
    "schrodinger.integrate_schrodinger.calls",
    "schrodinger.count_nodes.calls_per_level",
    "schrodinger.integrate_schrodinger.search_calls_per_level",
    "reduced_action.build_field.calls",
    "quantization.action_variable.calls",
    "dynamics.velocity.calls_per_trajectory",
    "dynamics.f_function.calls",
]


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name not in out:
            out[name] = int(parts[1]) * 1e-6
    return out


def startup_metrics(import_seconds: dict) -> dict:
    out = {}
    for mod in STARTUP_MODULES:
        key = "startup." + mod.replace(".", "_") + ".import_s"
        out[key] = (import_seconds.get(mod, 0.0), "s")
    return out


def _per_name(spans, selfs):
    agg = {}
    for s, own in zip(spans, selfs):
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "work": 0.0})
        a["calls"] += 1
        a["self_s"] += own
        a["total_s"] += s.end - s.start
        a["work"] += s.work or 0.0
    return agg


def span_metrics(spans, cycles: int) -> dict:
    """Named per-layer metrics from library spans (names without the
    ``op.`` prefix of the benchmark's own op spans)."""
    selfs = self_times(spans)
    agg = _per_name(spans, selfs)

    def get(name, field):
        return agg.get(name, {}).get(field, 0.0)

    def count_under(name, ancestor):
        return sum(1 for i, s in enumerate(spans)
                   if s.name == name and has_ancestor(spans, i, ancestor))

    def rate(name):
        total = get(name, "total_s")
        return get(name, "work") / total if total > 0 else 0.0

    levels = get("schrodinger.find_bound_energies", "work")
    trajectories = get("dynamics.integrate_trajectory", "calls")
    per_cycle = 1.0 / max(cycles, 1)
    out = {}
    for name in TRACED + sorted(agg):
        if name.startswith("op."):
            continue
        out[f"{name}.self_s"] = (get(name, "self_s") * per_cycle, "s")
        out[f"{name}.calls"] = (get(name, "calls") * per_cycle, "count")
    for layer in sorted({n.split(".")[0] for n in TRACED}):
        out[f"{layer}.self_s"] = (per_cycle * sum(
            a["self_s"] for n, a in agg.items() if n.startswith(layer + ".")), "s")
    kinds = {s.op: s.name[3:] for s in spans if s.name.startswith("op.")}
    for kind in sorted(set(kinds.values())):
        own = [t for s, t in zip(spans, selfs)
               if s.name == "cli.run_command" and kinds.get(s.op) == kind]
        if own:
            out[f"cli.run_command.{kind}.self_s"] = (sum(own) / len(own), "s")
    out["schrodinger.count_nodes.calls_per_level"] = (
        count_under("schrodinger.count_nodes", "schrodinger.find_bound_energies")
        / levels if levels else 0.0, "count")
    out["schrodinger.integrate_schrodinger.search_calls_per_level"] = (
        count_under("schrodinger.integrate_schrodinger", "schrodinger.find_bound_energies")
        / levels if levels else 0.0, "count")
    out["dynamics.velocity.calls_per_trajectory"] = (
        count_under("dynamics.velocity", "dynamics.integrate_trajectory")
        / trajectories if trajectories else 0.0, "count")
    for name, unit in (("schrodinger.make_pair", "points/s"),
                       ("schrodinger._numerov_values", "points/s"),
                       ("reduced_action.build_field", "points/s"),
                       ("dynamics.trajectory_to_csv", "B/s")):
        out[f"{name}.{unit.split('/')[0]}_per_s"] = (rate(name), unit)
    out["cli.sweep.overlap_ratio"] = (sweep_overlap(spans), "ratio")
    return out


def sweep_overlap(spans) -> float:
    """Sum of the per-value spans that sweep's worker threads ran, divided by
    the wall time of the sweep commands (above 1 only if the pool overlaps
    work)."""
    sweep_ops = {s.op for s in spans if s.name == "op.sweep"}
    if not sweep_ops:
        return 0.0
    wall = sum(s.end - s.start for s in spans
               if s.op in sweep_ops and s.name == "cli.run_command")
    fanned = sum(s.end - s.start for s in spans
                 if s.op in sweep_ops and s.parent is not None
                 and spans[s.parent].thread != s.thread)
    return fanned / wall if wall > 0 else 0.0


def self_time_split(spans) -> dict:
    """For each op kind, the share of its traced time spent in each span's
    own code; ``op.<kind>`` is the benchmark's glue around the library."""
    selfs = self_times(spans)
    kind_of_op = {s.op: s.name[3:] for s in spans if s.name.startswith("op.")}
    totals, shares = {}, {}
    for s, own in zip(spans, selfs):
        kind = kind_of_op.get(s.op)
        if kind is None:
            continue
        if s.name.startswith("op."):
            totals[kind] = totals.get(kind, 0.0) + (s.end - s.start)
        bucket = shares.setdefault(kind, {})
        bucket[s.name] = bucket.get(s.name, 0.0) + own
    return {kind: {name: round(v / totals[kind], 4)
                   for name, v in sorted(bucket.items(), key=lambda kv: -kv[1])
                   if totals.get(kind)}
            for kind, bucket in shares.items()}
