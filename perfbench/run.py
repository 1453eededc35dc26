#!/usr/bin/env python3
"""Cold-process benchmark of the quadprimes reproduction workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (perfbench/child.py) that
imports the package from ./src, so the package's lru_caches start empty as
they do for every CLI invocation.  Workloads run one at a time, one
repetition at a time.  Outputs are compared by exact equality with
perfbench/reference.json.

--trace 0 repeats the workload until --seconds have passed (at least once)
and reports the medians of wall_s, setup_s and peak_rss_mb.  --trace 1 runs
one untraced and one traced repetition and reports the per-layer metrics
listed in BENCHMARK.json, each printed with the end-to-end metric and
workloads it maps to (perfbench/manifest.json).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_SPAWNS = 3  # setup-only interpreters per run, besides one per repetition
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s


def load_json(path: str):
    with open(path) as f:
        return json.load(f)


class Runner:
    """Spawns child interpreters against the package sources in `src_dir`."""

    def __init__(self, src_dir: str, limit_s: float | None = RUN_LIMIT_S):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.deadline = None if limit_s is None else time.monotonic() + limit_s

    def spawn(self, name: str, seed: int, trace: bool) -> dict:
        """Run one child; raises RuntimeError when it fails or times out."""
        timeout = None if self.deadline is None else max(1.0, self.deadline - time.monotonic())
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, name, str(seed), "1" if trace else "0"],
                capture_output=True, text=True, timeout=timeout, env=self.env,
            )
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError(f"{name} ran past the run's time limit") from exc
        finished_at = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise RuntimeError(f"{name} printed no result:\n{proc.stderr[-2000:]}") from exc
        result["setup_s"] = result["imported_at"] - spawned_at
        result["process_s"] = finished_at - spawned_at
        result["stderr"] = proc.stderr
        return result


def leaves(value, path=""):
    """Flatten nested dicts and lists into (path, scalar) pairs."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from leaves(value[k], f"{path}/{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def compare(got, want, label: str) -> tuple[int, int]:
    """(attempted, failed) for exact equality of every reference leaf."""
    got_leaves = dict(leaves(got))
    attempted = failed = 0
    for path, value in leaves(want):
        attempted += 1
        if path not in got_leaves or got_leaves[path] != value:
            failed += 1
            print(f"mismatch {label}{path}: got {got_leaves.get(path)!r}, want {value!r}",
                  file=sys.stderr)
    return attempted, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src_dir = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src_dir, "quadprimes", "__init__.py")):
        print("error: run from the root of a quadprimes checkout (no src/quadprimes)",
              file=sys.stderr)
        return 2
    bench = load_json("BENCHMARK.json")
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))["workloads"]
    if args.workload not in reference:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    want = reference[args.workload]
    runner = Runner(src_dir)

    attempted = failed = 0

    def repetition(trace: bool) -> dict | None:
        nonlocal attempted, failed
        n_outputs = sum(1 for _ in leaves(want["outputs"]))
        try:
            rep = runner.spawn(args.workload, args.seed, trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            attempted += n_outputs
            failed += n_outputs
            return None
        a, f = compare(rep["outputs"], want["outputs"], args.workload)
        attempted += a + rep["self_checked"]
        failed += f + rep["self_failed"]
        return rep

    if args.trace:
        plain = repetition(trace=False)
        traced = repetition(trace=True)
        if plain is None or traced is None:
            return 1
        print(traced["stderr"], end="", file=sys.stderr)
        layers = traced["layers"]
        a, f = compare(traced["counts"], want["counts"], f"{args.workload} counts ")
        attempted += a
        failed += f
        layers.update(traced["import_s"])
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {}
        print(f"{'per-layer metric':48} {'value':>14} {'unit':6} moves")
        for m in bench["per_layer"]:
            value = layers.get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            moves = manifest["layers"][m["name"]]
            shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"{m['name']:48} {shown} {m['unit']:6} {moves}")
        print(f"traced wall_s {traced['wall_s']:.4f} s, untraced {plain['wall_s']:.4f} s")
        env = traced["environment"]
    else:
        reps: list[dict] = []
        setups: list[float] = []
        for _ in range(SETUP_SPAWNS):
            try:
                setups.append(runner.spawn("setup", args.seed, False)["setup_s"])
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        begun = time.monotonic()
        while True:
            rep = repetition(trace=False)
            if rep is None:
                break
            reps.append(rep)
            setups.append(rep["setup_s"])
            elapsed = time.monotonic() - begun
            if elapsed + rep["process_s"] > args.seconds:
                break
        if not reps:
            return 1
        series = {
            "wall_s": [r["wall_s"] for r in reps],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        metrics = {}
        for m in bench["end_to_end"]:
            q1, med, q3 = quartiles(series[m["name"]])
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            print(f"{m['name']:12} median {med:.4f} {m['unit']}  q1 {q1:.4f}  q3 {q3:.4f}"
                  f"  n={len(series[m['name']])}")
        env = reps[0]["environment"]

    print(f"error_rate {failed / max(attempted, 1):.3g} of {attempted} outputs attempted")
    print(f"environment {json.dumps(env)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
