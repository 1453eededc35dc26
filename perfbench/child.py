"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/child.py <workload|setup> <seed> <trace 0|1>

The package is imported first, with each heavy dependency timed on its own,
so the parent can compute set-up time from its spawn timestamp and the
`imported_at` stamp (both CLOCK_MONOTONIC, which is shared by processes).
Prints one JSON object on its last line of standard output.
"""

import importlib
import sys
import time

# module -> per-layer metric; quadprimes.cli comes last, so its time is the
# package's own modules
IMPORTS = {
    "numpy": "import.numpy.s",
    "scipy.special": "import.scipy.s",
    "sympy": "import.sympy.s",
    "quadprimes.cli": "import.quadprimes.s",
}
import_s = {}
for _module, _metric in IMPORTS.items():
    _t0 = time.monotonic()
    importlib.import_module(_module)
    import_s[_metric] = time.monotonic() - _t0
imported_at = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402

from workloads import WORKLOADS, Tracer, layer_metrics, maxrss_mb, span_tree  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    result = {"imported_at": imported_at, "import_s": import_s}
    if name != "setup":
        tr = Tracer(trace)
        t0 = time.perf_counter()
        with tr.span(f"workload.{name}"):
            outputs, checked, failed = WORKLOADS[name](tr, seed)
        wall = time.perf_counter() - t0 - tr.excluded_s
        result.update(
            wall_s=wall,
            peak_rss_mb=maxrss_mb(),
            outputs=outputs,
            self_checked=checked,
            self_failed=failed,
        )
        if trace:
            result["layers"] = layer_metrics(tr)
            result["counts"] = tr.counts
            result["spans"] = tr.spans
            print(span_tree(tr), file=sys.stderr)
    import numpy, scipy, sympy  # noqa: E401  (already loaded; versions only)

    result["environment"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
