"""The four benchmark workloads and the span recorder that traces them.

Each workload calls the public `quadprimes` functions the CLI subcommands and
`scripts/*.py` call, with the arguments the acceptance criteria fix.  A
workload returns (outputs, checked, failed): the outputs the parent compares
with `reference.json`, and how many outputs it checked itself and how many
of those were wrong.

Work that is not part of the workload -- generating seeded inputs, checking
results, and the probe calls of a traced run -- runs inside `Tracer.aside`
or a probe span, and its time is left out of the workload's wall time.
"""

from __future__ import annotations

import math
import os
import resource
import tempfile
import time
from contextlib import contextmanager

import numpy as np

from quadprimes import (
    Kind,
    TestFunction,
    Sampler,
    build_grid,
    count_primes_box,
    enumerate_prime_ideals,
    load_grid,
    log_weight_box,
    make_field,
    montgomery_sum,
    residue_rk,
    save_grid,
    sieved_singular_box,
    singular_series,
    singular_sum_smoothed,
    variance_profile,
)
from quadprimes.primes import count_primes_boxes, log_weight_boxes
from quadprimes.singular_series import mobius_phi_profile
from quadprimes.statistics import zbaseline_row

CUTOFF = 10**6
VARIANCE_X = 1000.0
VARIANCE_DELTAS = [round(0.1 * k, 1) for k in range(1, 10)]  # 0.1:0.9:0.1
SMOOTHED_HS = [32.0, 64.0, 128.0, 256.0, 512.0]
MONTGOMERY_HS = [2**k for k in range(10, 18)]
MOBIUS_CUTOFFS = [2**k for k in range(10, 20)] + [10**6]
RESIDUE_BLOCKS = 128  # residue_rk's default number of character periods
GRID_EXTENT = 1500
GRID_QUERIES = 200_000


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span and count recorder; spans and counts are no-ops when off.

    A span records its name, start, end and parent span.  Probe spans time a
    library call that the workload already made inside another call, so they
    run only when tracing and are left out of the wall time, as is
    everything under `aside`.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.excluded_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "probe": probe,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_mb"] = maxrss_mb()
            self._stack.pop()
            if probe:
                self.excluded_s += rec["end"] - rec["start"]

    @contextmanager
    def aside(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - t0

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + int(n)


def _max_abs_norm(field, extent: int) -> int:
    """max |N(k1 + k2 omega)| over the box [-R, R]^2.

    The norm is a binary quadratic form, so |N(t x)| = t^2 |N(x)| and the
    maximum over the box is attained on its boundary.
    """
    R = extent
    edge = range(-R, R + 1)
    points = [(k, s) for k in edge for s in (-R, R)] + [(s, k) for k in edge for s in (-R, R)]
    return max(abs(field.element(a, b).norm()) for a, b in points)


def _traced_build_grid(tr: Tracer, field, extent: int):
    with tr.span("primes.build_grid"):
        grid = build_grid(field, extent)
    if tr.enabled:
        with tr.aside():
            W = 2 * extent + 1
            tr.count("primes.build_grid.cells", W * W)
            tr.count("primes.build_grid.sieve_len", max(_max_abs_norm(field, extent), 2) + 1)
            tr.count("primes.build_grid.table_bytes",
                     grid.prime_count.nbytes + grid.log_weight.nbytes)
    return grid


# ---------------------------------------------------------------------------
# Workloads


def variance_x1000(tr: Tracer, seed: int):
    """Criterion-6 variance rows for D=-3 and D=10, one grid build each."""
    outputs, checked, failed = {}, 0, 0
    X, deltas = VARIANCE_X, VARIANCE_DELTAS
    for D in (-3, 10):
        field = make_field(D)
        extent = math.ceil(X + X ** max(deltas)) + 2
        grid = _traced_build_grid(tr, field, extent)
        with tr.span("statistics.variance_profile"):
            rows = variance_profile(field, X, deltas, Sampler(), grid=grid)
        outputs[f"D={D}"] = [[r.E, r.V, r.ratio] for r in rows]
        if tr.enabled:
            with tr.span("statistics.Sampler.centers", probe=True):
                centers = Sampler().centers(X)
            tr.count("statistics.Sampler.centers.centers", len(centers))
            for delta, row in zip(deltas, rows):
                H = X**delta
                with tr.span("primes.count_primes_boxes", probe=True):
                    counts = count_primes_boxes(grid, centers, H)
                with tr.span("primes.log_weight_boxes", probe=True):
                    log_weight_boxes(grid, centers, H)
                tr.count("primes.count_primes_boxes.queries", len(centers))
                checked += 1
                failed += float(counts.mean()) != row.E
            del centers
        del grid  # one field's tables at a time, as with one CLI call per field
    return outputs, checked, failed


def singular_sum(tr: Tracer, seed: int):
    """Criterion 5: smoothed sums of S - 1 over dyadic H, disc then square."""
    Qi = make_field(-1)
    with tr.span("ideals.enumerate_prime_ideals"):
        ideals = enumerate_prime_ideals(Qi, CUTOFF)
    tr.count("ideals.enumerate_prime_ideals.count", len(ideals))
    with tr.span("singular_series.singular_series"):
        s1 = singular_series(Qi.element(1, 0), CUTOFF)
    outputs = {"S(1)": s1.value}
    for kind in (Kind.DISC_AUTOCORR, Kind.SQUARE_AUTOCORR):
        w = TestFunction(kind)
        sums = []
        for H in SMOOTHED_HS:
            with tr.span("singular_series.singular_sum_smoothed"):
                res = singular_sum_smoothed(Qi, w, H, CUTOFF)
            tr.count("singular_series.singular_sum_smoothed.calls", 1)
            sums.append([res.value, res.uncertainty])
            if tr.enabled:
                M = math.floor(H * w.support_radius)
                with tr.span("singular_series.sieved_singular_box", probe=True):
                    box = sieved_singular_box(Qi, M, CUTOFF)
                tr.count("singular_series.sieved_singular_box.cells", box.values.size)
                del box
                k = np.arange(-M, M + 1)
                with tr.span("smoothing.TestFunction.eval", probe=True):
                    wgrid = w.eval(k[:, None] / H, k[None, :] / H)
                tr.count("smoothing.TestFunction.eval.points", np.size(wgrid))
                del wgrid
        outputs[kind.value] = sums
    return outputs, 0, 0


def arith_sums(tr: Tracer, seed: int):
    """Criteria 3, 4 and 7 plus a large-discriminant residue: pure-Python paths."""
    outputs = {}
    montgomery = []
    for H in MONTGOMERY_HS:
        with tr.span("singular_series.montgomery_sum"):
            montgomery.append(montgomery_sum(H, CUTOFF))
    outputs["montgomery"] = montgomery
    Qi = make_field(-1)
    cutoffs = [y for y in MOBIUS_CUTOFFS if 10**3 <= y <= 10**6]
    with tr.span("ideals.enumerate_prime_ideals"):
        ideals = enumerate_prime_ideals(Qi, max(cutoffs))
    tr.count("ideals.enumerate_prime_ideals.count", len(ideals))
    with tr.span("singular_series.mobius_phi_profile"):
        outputs["mu2_phi"] = mobius_phi_profile(Qi, cutoffs)
    with tr.span("statistics.zbaseline_row"):
        z = zbaseline_row(10**5, 0.5)
    outputs["zbaseline"] = [z.H, z.E, z.V_prime, z.V_lambda, z.ratio_prime, z.ratio_lambda]
    field = make_field(-100003)
    with tr.span("singular_series.residue_rk"):
        res = residue_rk(field, 1e-8)
    tr.count("singular_series.residue_rk.terms", RESIDUE_BLOCKS * abs(field.discriminant) - 1)
    outputs["residue"] = [res.value, res.error_bound]
    return outputs, 0, 0


def grid_io(tr: Tracer, seed: int):
    """Grid persistence and the scalar query path, seeded centers and H."""
    outputs, checked, failed = {}, 0, 0
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(dir=".", prefix=".bench_tmp-") as tmp:
        path = os.path.join(tmp, "grid.bin")
        for D in (-1, 3):
            field = make_field(D)
            grid = _traced_build_grid(tr, field, GRID_EXTENT)
            with tr.aside():
                H = float(rng.uniform(2.0, 300.0))
                reach = GRID_EXTENT - H - 1.0
                centers = rng.uniform(-reach, reach, size=(GRID_QUERIES, 2))
                want_counts = count_primes_boxes(grid, centers, H).tolist()
                want_weights = log_weight_boxes(grid, centers, H).tolist()
                points = centers.tolist()
            with tr.span("primes.save_grid"):
                save_grid(grid, path)
            tr.count("primes.save_grid.file_bytes", os.path.getsize(path))
            del grid
            with tr.span("primes.load_grid"):
                loaded = load_grid(path)
            with tr.span("primes.count_primes_box"):
                counts = [count_primes_box(loaded, x1, x2, H) for x1, x2 in points]
            with tr.span("primes.log_weight_box"):
                weights = [log_weight_box(loaded, x1, x2, H) for x1, x2 in points]
            tr.count("primes.count_primes_box.queries", len(points))
            outputs[f"D={D}"] = [loaded.total_primes(), loaded.total_weight()]
            with tr.aside():
                checked += 2 * len(points)
                failed += sum(a != b for a, b in zip(counts, want_counts))
                failed += sum(a != b for a, b in zip(weights, want_weights))
            del loaded
            os.remove(path)
    return outputs, checked, failed


WORKLOADS = {
    "variance-x1000": variance_x1000,
    "singular-sum": singular_sum,
    "arith-sums": arith_sums,
    "grid-io": grid_io,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run


def _durations(tr: Tracer, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in tr.spans if s["name"] == name]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Busy time per span name, the counts, and the derived quantities.

    `statistics.variance_profile.self_est_s` is an estimate: the span minus
    the probe calls that repeat its inner work on the same centers and H.
    """
    out: dict[str, float] = {}
    for name in {s["name"] for s in tr.spans}:
        out[f"{name}.s"] = sum(_durations(tr, name))
    montgomery = _durations(tr, "singular_series.montgomery_sum")
    if montgomery:
        out["singular_series.montgomery_sum.first_s"] = montgomery[0]
    builds = [s["rss_mb"] for s in tr.spans if s["name"] == "primes.build_grid"]
    if builds:
        out["primes.build_grid.rss_mb"] = max(builds)
    if "statistics.variance_profile.s" in out:
        inner = sum(
            out.get(f"{n}.s", 0.0)
            for n in ("statistics.Sampler.centers", "primes.count_primes_boxes",
                      "primes.log_weight_boxes")
        )
        out["statistics.variance_profile.self_est_s"] = out["statistics.variance_profile.s"] - inner
    out.update(tr.counts)
    return out


def span_tree(tr: Tracer) -> str:
    """Indented text rendering of the recorded spans, in start order."""
    depth: dict[int, int] = {}
    lines = []
    for s in tr.spans:
        d = 0 if s["parent"] is None else depth[s["parent"]] + 1
        depth[s["id"]] = d
        tag = " [probe]" if s["probe"] else ""
        lines.append(f"{'  ' * d}{s['name']}{tag}: {s['end'] - s['start']:.4f} s,"
                     f" rss {s['rss_mb']:.1f} MB")
    return "\n".join(lines)
