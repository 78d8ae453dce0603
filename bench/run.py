"""Run one benchmark workload against the qgcipher library in src/.

    python3 bench/run.py --workload bulk-file --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics.  --trace 1 spends the first half
of --seconds on an untraced pass and the second half on a traced pass, and
reports the per-layer metrics from the traced pass, the tracing overhead
(traced minus untraced end-to-end figures) and each layer's self time.  A
pass runs past its share of --seconds until it has completed a fixed number
of ops: workloads.RSS_OPS for the untraced pass, after which peak RSS is
read, and workloads.MIN_OPS for the traced one.

Every run prints its environment, a determinism digest and a table of the
workload's named metrics; the last line of stdout is one JSON object with
the metrics BENCHMARK.json lists.  The same record, and for traced runs the
spans, are written under bench/out/.  The run exits with code 2, printing no
result, when qgcipher cannot be imported.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import setup_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk-file", "authority-sim", "scramble-report")
SETUP_CHILDREN = 3          # fresh processes timed before and again after the pass
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Bench(NamedTuple):
    """What every op of a run shares: the workload seed, and the profile and
    fingerprint from set-up (the default profile after a JSON round trip)."""

    seed: int
    profile: object
    fingerprint: int


def child_setups():
    """Set-up seconds of SETUP_CHILDREN fresh child processes."""
    return [float(subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(SETUP_CHILDREN)]


def _commit():
    """The checked-out commit; None outside a git checkout.  The search for
    a repository stops at the checkout, so an enclosing one is not used."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed):
    import numpy
    from qgcipher import qgdb

    # The library's name, version and build options; its install paths say
    # nothing about how it runs.
    try:
        blas = {key: value for key, value
                in numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                if "directory" not in key}
    except (TypeError, KeyError, AttributeError):
        blas = None
    cache = getattr(qgdb, "_indexed_square", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": seed,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "table_cache": cache.cache_info()._asdict() if hasattr(cache, "cache_info") else None,
        "default_profile": json.loads(qgdb.profile_to_json(qgdb.default_profile())),
    }


def run_pass(workloads, workload, bench, tracer, first_op, seconds, floor):
    """Ops from first_op: `floor` of them whatever the time, then more until
    `seconds` have passed.  Returns the tally, the next op id and the peak RSS
    in MB once the first `floor` ops were done."""
    run = getattr(workloads, workload.replace("-", "_"))
    tally = workloads.Tally(range(first_op, first_op + workloads.MIN_OPS[workload]))
    deadline = time.perf_counter() + seconds
    next_op = run(bench, tally, tracer, first_op, 0, floor)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    next_op = run(bench, tally, tracer, next_op, deadline, 0)
    return tally, next_op, rss_mb


def _lines(metrics):
    return [f"  {name:<42} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        own_setup, profile, fingerprint = setup_probe.measure()
    except ImportError as exc:
        print(f"error: cannot import qgcipher from {setup_probe.SRC}: {exc}",
              file=sys.stderr)
        return 2

    # Set-up is timed in this process and in fresh children before and after
    # the untraced pass, so that the median spans the run's machine state.
    setups = [own_setup] + child_setups()
    import tracing
    import workloads

    bench = Bench(args.seed, profile, fingerprint)
    env = environment(args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    tally, next_op, peak_rss_mb = run_pass(workloads, args.workload, bench,
                                           tracing.NullTracer(), 0, budget,
                                           workloads.RSS_OPS[args.workload])
    named, gate = workloads.end_to_end(args.workload, tally)
    setup_s = statistics.median(setups + child_setups())
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **named}
    gate = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **gate}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "digest": tally.digest.hexdigest(),
              "attempted": tally.attempted, "failed": tally.failed,
              "ops": len(tally.times["op"])}
    report = gate
    attempted, failed = tally.attempted, tally.failed
    out = HERE / "out"
    out.mkdir(exist_ok=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest sha256:{record['digest']}")
    print(f"untraced: {record['ops']} ops, {tally.failed} of {tally.attempted} failed")
    print("\n".join(_lines(named)))

    if args.trace:
        tracer = tracing.Tracer()
        traced, _, _ = run_pass(workloads, args.workload, bench, tracer, next_op,
                                budget, workloads.MIN_OPS[args.workload])
        record["traced_digest"] = traced.digest.hexdigest()
        traced_named, traced_gate = workloads.end_to_end(args.workload, traced)
        report = tracing.layer_metrics(tracer, traced.tables, traced.sim)
        for name in ("op_p50_ms", "ops_per_s"):
            value, unit = traced_gate[name]
            report[f"trace.overhead.{name}"] = (value - gate[name][0], unit)
        attempted += traced.attempted
        failed += traced.failed
        print(f"traced digest sha256:{record['traced_digest']} ops {traced.hashed.start} "
              f"to {traced.hashed.stop - 1}")
        print(f"traced: {len(traced.times['op'])} ops, {traced.failed} of "
              f"{traced.attempted} failed; traced end-to-end figures:")
        print("\n".join(_lines(traced_named)))
        print("per layer (traced pass):")
        print("\n".join(_lines(report)))
        tracer.write(out / f"{args.workload}-seed{args.seed}-spans.jsonl")

    record.update(named=named, gate=gate, per_layer=report if args.trace else None)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
