"""Run workloads over several seeds and summarize every end-to-end metric.

    python3 bench/stability.py --runs 10 [--record LABEL]
    python3 bench/stability.py --runs 1 --seconds 5     # every metric, once

Each run is `bench/run.py --trace 0` of one workload with its own seed
(1, 2, ...) and BENCHMARK.json's run_seconds unless --seconds is given.
Every workload of BENCHMARK.json is run.  For
each metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median, which
is the figure BENCHMARK.json's bounds are checked against.  Both the gate
metrics of BENCHMARK.json and the per-workload named metrics are covered.
--record appends the summary to bench/trajectory.json.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, record


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seeds = list(range(1, args.runs + 1))
    summary, env, ok = {}, None, True
    for workload in [w["name"] for w in spec["workloads"]]:
        values, units = {}, {}
        for seed in seeds:
            result, record = run_once(workload, seed, args.seconds)
            env = env or record["env"]
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed", file=sys.stderr)
            for name, (value, unit) in {**record["named"], **record["gate"]}.items():
                values.setdefault(name, []).append(value)
                units[name] = unit
        summary[workload] = {}
        print(f"{workload}: {len(seeds)} runs of {args.seconds} s")
        for name, vals in values.items():
            if len(vals) < 2 or set(vals) == {0}:
                stats = {"median": statistics.median(vals), "values": vals}
                print(f"  {name:<20} {', '.join(f'{v:.6g}' for v in vals)} {units[name]}")
            else:
                stats = summarize(vals)
                bound = bounds.get(name)
                flag = "" if bound is None else (
                    f"  bound {bound}" + ("  OVER A THIRD" if stats["spread"] > bound / 3 else ""))
                print(f"  {name:<20} median {stats['median']:.6g} {units[name]}  "
                      f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                      f"spread {stats['spread']:.4f}{flag}")
            summary[workload][name] = {"unit": units[name], **stats}

    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append({
            "label": args.record,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "commit": env["commit"],
            "env": {k: v for k, v in env.items() if k not in ("seed", "commit")},
            "run_seconds": args.seconds,
            "seeds": seeds,
            "workloads": summary,
        })
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
