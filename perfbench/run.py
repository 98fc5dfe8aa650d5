"""qshje benchmark: closed-loop runs of the bound, trajectory and cli workloads.

    python3 perfbench/run.py --workload bound --seed 1 --seconds 20 --trace 0

One op runs at a time; the next starts when the previous one returns. Every
op is checked against its oracle after its timed region. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it runs the same
cycles untraced and then traced, and reports the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full result, raw
per-op samples included, goes to ``.perfbench_results/`` in the checkout.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bound", "trajectory", "cli")

#: Fresh interpreters whose set-up time is measured per run; the median is
#: reported.
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workdir() -> str:
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def setup_probe(args) -> int:
    """Child of a set-up measurement: import the library, build the
    workload's inputs, then say so on stdout."""
    import qshje        # noqa: F401  first, as a user's script imports it
    import qshje.cli    # noqa: F401
    import inputs
    import workloads
    workdir = make_workdir()
    try:
        workloads.WORKLOADS[args.workload](inputs.generate(args.workload, args.seed),
                                           workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)
    return 0


def _probe_argv(args, *flags):
    return [sys.executable, *flags, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]


def measure_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its ``ready`` line, as
    measured and machine-normalised like a CLI command."""
    from harness import CHILD_YARDSTICK as yardstick
    reading = yardstick.measure()
    with tempfile.TemporaryFile(dir=ROOT / ".perfbench_work") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(_probe_argv(args), stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line.strip() != "ready":
            err.seek(0)
            raise RuntimeError("set-up probe failed: "
                               + err.read().decode("utf-8", "replace")[-2000:])
    return seconds, seconds * yardstick.typical_s / reading


def import_times(args) -> dict:
    import layers
    proc = subprocess.run(_probe_argv(args, "-X", "importtime"), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("import-time probe failed: " + proc.stderr[-2000:])
    return layers.parse_importtime(proc.stderr)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

def closed_loop(workload, ledger, seconds=None, cycles=None, tracer=None) -> int:
    """Run whole workload cycles, one op at a time, until the ops' own time
    reaches ``seconds`` (or for exactly ``cycles`` cycles). Oracles run
    between ops, outside the timed region. Returns the cycles run.

    The workload's yardstick (``harness.Yardstick``) is read around each op,
    outside its timed region, to give the op's machine-normalised time.
    """
    from harness import LOOP_YARDSTICK, describe_exception, oracle_miss

    yardstick = getattr(workload, "yardstick", LOOP_YARDSTICK)

    busy, cycle, op_id = 0.0, 0, len(ledger.records)
    while (busy < seconds) if cycles is None else (cycle < cycles):
        for op in workload.ops(cycle):
            op_id += 1
            reading = yardstick.measure()
            if tracer is not None:
                tracer.op_id = op_id
                span = tracer.begin("op." + op.kind)
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:    # the op failed; record it and go on
                out, error = None, describe_exception(exc)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
            if yardstick.both_sides:
                reading = 0.5 * (reading + yardstick.measure())
            busy += dt
            ok, work = False, 0
            if error is None:
                try:
                    ok, work, error = op.check(out, ledger)
                except Exception as exc:    # unreadable output misses the oracle
                    ok, work = False, 0
                    error = oracle_miss(f"{type(exc).__name__}: {exc}")
                if error is not None and error.get("origin") == "oracle":
                    ledger.wrong_answers += 1
            ledger.add(op.kind, op_id, dt, ok, work, error,
                       dt * yardstick.typical_s / reading, op.size)
            out = None
        cycle += 1
    return cycle


def headline_metrics(workload, ledger, norm=True) -> dict:
    """Median latency and work per second over the workload's headline op
    kinds, machine-normalised (``*_norm``) or as measured; left out when any
    of those ops failed."""
    if not ledger.clean(workload.headline):
        return {}
    lat = ledger.latencies(workload.headline, norm)
    busy = ledger.busy_seconds(workload.headline, norm)
    suffix = "_norm" if norm else ""
    return {f"op_p50_ms{suffix}": (1e3 * statistics.median(lat), "ms"),
            f"work_per_s{suffix}": (ledger.work(workload.headline) / busy, "1/s")}


def kind_table(ledger) -> dict:
    from harness import latency_block
    out = {}
    for kind in ledger.kinds():
        row = ledger.kind_summary(kind)
        lat = ledger.latencies([kind])
        if lat and row["ops_failed"] == 0:
            row["latency"] = latency_block(lat, ledger.latencies([kind], norm=True))
        out[kind] = row
    return out


def samples(ledger) -> list:
    return [[r.kind, round(r.seconds, 6), round(r.norm_seconds, 6), r.ok]
            for r in ledger.records]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def timed_run(args, workdir):
    import inputs
    import workloads
    from harness import Ledger

    setups = [measure_setup(args) for _ in range(SETUP_PROBES)]
    workload = workloads.WORKLOADS[args.workload](
        inputs.generate(args.workload, args.seed), workdir)
    ledger = Ledger()
    cycles = closed_loop(workload, ledger, seconds=args.seconds)
    rss = workload.child_rss_mb if args.workload == "cli" \
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (statistics.median(norm for _, norm in setups), "s"),
               "peak_rss_mb": (rss, "MB"),
               **headline_metrics(workload, ledger)}
    named = {"setup_wall_s": (statistics.median(wall for wall, _ in setups), "s"),
             **headline_metrics(workload, ledger, norm=False),
             **workload.named_metrics(ledger)}
    detail = {"cycles": cycles, "setup_samples_s": setups,
              "named_metrics": _pairs(named),
              "op_kinds": kind_table(ledger), "accuracy": ledger.accuracy,
              "accuracy_counts": ledger.counts, "samples": samples(ledger)}
    return _pairs(metrics), detail, ledger


def traced_run(args, workdir):
    import inputs
    import instrument
    import layers
    import workloads
    from harness import Ledger, Tracer

    startup = layers.startup_metrics(import_times(args))
    cycles_in = inputs.generate(args.workload, args.seed)
    make = workloads.WORKLOADS[args.workload]
    untraced = Ledger()
    cycles = closed_loop(make(cycles_in, workdir), untraced, seconds=args.seconds / 2)
    baseline = untraced
    extra = {}
    if args.workload == "cli":
        baseline = Ledger()
        closed_loop(make(cycles_in, workdir, in_process=True), baseline, cycles=cycles)
        extra["startup_share_s"] = {
            kind: statistics.median(untraced.latencies([kind]))
            - statistics.median(baseline.latencies([kind]))
            for kind in untraced.kinds()
            if untraced.clean([kind]) and baseline.clean([kind])}
        traced_workload = make(cycles_in, workdir, in_process=True)
    else:
        traced_workload = make(cycles_in, workdir)
    tracer = Tracer()
    ledger = Ledger()
    restore, missing = instrument.instrument(tracer)
    try:
        closed_loop(traced_workload, ledger, cycles=cycles, tracer=tracer)
    finally:
        restore()
    per_layer = {**startup, **layers.span_metrics(tracer.spans, cycles)}
    plain = headline_metrics(traced_workload, baseline)
    traced = headline_metrics(traced_workload, ledger)
    overhead = {name: (traced[name][0] - plain[name][0]) / plain[name][0]
                for name in plain if name in traced}
    detail = {"cycles": cycles, "spans": len(tracer.spans),
              "uninstrumented": missing, "per_layer": _pairs(per_layer),
              "tracing_overhead": overhead,
              "untraced_headline": _pairs(plain), "traced_headline": _pairs(traced),
              "self_time_split": layers.self_time_split(tracer.spans),
              "op_kinds": kind_table(ledger), "accuracy": ledger.accuracy,
              "accuracy_counts": ledger.counts, "samples": samples(ledger), **extra}
    return _pairs({name: per_layer[name] for name in layers.PER_LAYER}), detail, ledger


def _pairs(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def print_report(args, env, metrics, detail):
    print(f"qshje benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} cycles={detail['cycles']}")
    print("environment: " + json.dumps(env))
    print("op kinds:")
    for kind, row in detail["op_kinds"].items():
        line = f"  {kind:24s} ops_attempted={row['ops_attempted']:<5d} " \
               f"ops_failed={row['ops_failed']:<5d}"
        if "latency" in row:
            lat = row["latency"]
            line += f" p50={lat['p50_ms']:.3f} ms ({lat['p50_ms_norm']:.3f} normalised) n={lat['n']}"
            if "tail_ms" in lat:
                line += f" p{lat['tail_percentile']}={lat['tail_ms']:.3f} ms"
        print(line)
        if row["first_failure"]:
            print(f"    {row['failures_by_class']} first: "
                  + json.dumps(row["first_failure"]))
    for title, block in (("metrics", metrics),
                         ("named metrics", detail.get("named_metrics", {})),
                         ("all per-layer figures", detail.get("per_layer", {}))):
        if not block:
            continue
        print(f"{title}:")
        for name, m in block.items():
            print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print("accuracy (worst value vs oracle bound):")
    for name, a in detail["accuracy"].items():
        print(f"  {name:52s} {a['value']:.3e} vs {a['bound']:.1e}")
    for name, count in detail["accuracy_counts"].items():
        print(f"  {name:52s} {count} ops")
    if "tracing_overhead" in detail:
        print("tracing overhead: " + json.dumps(detail["tracing_overhead"]))
        print("self-time split: " + json.dumps(detail["self_time_split"]))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qshje" / "__init__.py").is_file():
        print(f"perfbench: no qshje sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import harness
    env = harness.environment(str(ROOT), args.seed)
    workdir = make_workdir()
    try:
        run = traced_run if args.trace else timed_run
        metrics, detail, ledger = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.finish_environment(env)
    failed = sum(1 for r in ledger.records if not r.ok)
    summary = {"correct": ledger.wrong_answers == 0,
               "attempted": len(ledger.records), "failed": failed,
               "metrics": metrics}
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, **summary, "detail": detail}
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(args, env, metrics, detail)
    print(f"full result: {path.relative_to(ROOT)}")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
