#!/usr/bin/env python3
"""Reproduce the variance-vs-delta figure data for the seven fields.

Writes one CSV per field (plus metadata sidecar) into --outdir via the CLI,
so the artifacts are byte-identical to running `quadprimes variance` by hand
with the same options.  V is taken about the second-order expected count,
the statistic criterion 6 checks.
"""

import argparse
import os
import sys

from quadprimes.cli import main as cli_main

FIELDS = ["D=-1", "D=-3", "D=-5", "D=-7", "D=2", "D=3", "D=10"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--X", type=float, default=1000.0, help="ball radius X")
    ap.add_argument("--deltas", default="0.1:0.9:0.1",
                    help="delta grid, lo:hi:step or comma list")
    ap.add_argument("--outdir", default="out/variance", help="output directory")
    ap.add_argument("--sampler", default="grid", choices=["grid", "jitter"])
    args = ap.parse_args(argv)

    os.makedirs(args.outdir, exist_ok=True)
    for field in FIELDS:
        out = os.path.join(args.outdir, f"variance_{field.replace('=', '')}.csv")
        code = cli_main([
            "variance", "--field", field, "--X", str(args.X),
            "--deltas", args.deltas, "--sampler", args.sampler, "--out", out,
        ])
        if code != 0:
            print(f"failed on {field} (exit {code})", file=sys.stderr)
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
