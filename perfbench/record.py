#!/usr/bin/env python3
"""Record perfbench/reference.json, the outputs every benchmark run must match.

Usage, from the root of a source checkout:

    python3 perfbench/record.py

Runs every workload once untraced and once traced (seed 0), each in a fresh
interpreter, requires the two to agree exactly, and stores their outputs,
the traced run's work counts and the environment.  Re-record only when a
change is meant to alter the numbers, and say why in the change.
"""

import json
import os
import subprocess
import sys

from run import HERE, Runner, load_json


def main() -> int:
    runner = Runner(os.path.abspath("src"), limit_s=None)
    workloads = {}
    for name in load_json(os.path.join(HERE, "manifest.json"))["workloads"]:
        plain = runner.spawn(name, 0, False)
        traced = runner.spawn(name, 0, True)
        if plain["outputs"] != traced["outputs"] or plain["self_failed"] or traced["self_failed"]:
            print(f"error: {name} is not reproducible", file=sys.stderr)
            return 1
        workloads[name] = {"outputs": plain["outputs"], "counts": traced["counts"]}
        print(f"{name}: wall {plain['wall_s']:.2f} s, peak rss {plain['peak_rss_mb']:.0f} MB")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    environment = dict(plain["environment"], commit=commit.stdout.strip() or "unknown")
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump({"environment": environment, "workloads": workloads}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
