"""Command-line front end: CSV emission, config files, metadata sidecars.

Every subcommand prints CSV (or writes it to --out with a JSON metadata sidecar
next to it).  All floats use %.12g.  Exit codes: 0 ok, 1 generic (including a
file that cannot be read or written, or a corrupt grid file), 2 bad field spec /
usage, 3 budget exceeded, 4 box query outside the grid extent.  Every error
prints one `error:` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple

import numpy as np

from . import __version__
from .errors import BudgetError, QuadPrimesError, UsageError
from .fields import parse_field_spec
from .ideals import (
    LATTICE_POINT_BUDGET,
    PRIME_BUDGET,
    IdealLattice,
    condensation_sum,
    dual_lattice_count,
    enumerate_squarefree_ideals,
    smoothed_counts,
    squarefree_ideal_levels,
    squarefree_order,
)
from .primes import build_grid, count_primes_box, load_grid, save_grid
from .singular_series import (
    DEFAULT_CUTOFF,
    montgomery_sum,
    residue_rk,
    singular_series,
    singular_sums_smoothed,
)
from .smoothing import Kind, TestFunction
from .statistics import Sampler, grid_extent, variance_profile, zbaseline_row

_DELTA_BUDGET = 1000
# Ramanujan-sum terms of one `diagnose condensation` run: 49 shifts x 2^k divisors
_CONDENSATION_BUDGET = 2_000_000
# ideals plus the lattice rows their counts walk, in one `diagnose smooth-count` run
_SMOOTH_COUNT_BUDGET = 400_000


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _emit(args, header: list[str], rows: list[tuple], meta: dict, trailer: str = ""):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    if trailer:
        lines.append(trailer)
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text)
        _write_sidecar(args, meta)
    else:
        sys.stdout.write(text)


def _write_sidecar(args, meta: dict):
    config = {k: v for k, v in vars(args).items() if not callable(v)}
    payload = {"version": __version__, "config": config, **meta}
    with open(args.out + ".meta.json", "w") as f:
        json.dump(payload, f, indent=2, default=str)
        f.write("\n")


def _parse_deltas(text: str) -> list[float]:
    try:
        if ":" not in text:
            return [float(p) for p in text.split(",")]
        lo, hi, step = (float(p) for p in text.split(":"))
        n = math.floor((hi - lo) / step + 1e-9)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"bad deltas {text!r}: expected lo:hi:step with step != 0,"
                         " or a comma list") from None
    if n < 0:
        raise UsageError(f"bad deltas {text!r}: the range is empty, as step points away from hi")
    if n + 1 > _DELTA_BUDGET:
        raise BudgetError(f"more than {_DELTA_BUDGET} deltas exceed the budget")
    return [round(lo + i * step, 12) for i in range(n + 1)]


def _parse_pair(text: str, cast):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values: {text!r}")
    return cast(parts[0]), cast(parts[1])


def _slope(xs, ys) -> float:
    return float(np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 1)[0])


# ---------------------------------------------------------------------------
# Subcommand bodies


def cmd_field_info(args) -> int:
    field = parse_field_spec(args.field)
    res = residue_rk(field, args.tol)
    _emit(
        args,
        ["field", "D", "basis", "discriminant", "rk", "rk_error_bound"],
        [(field.spec_string(), field.D, "half" if field.half else "sqrt", field.discriminant,
          res.value, res.error_bound)],
        {"method": res.method},
    )
    return 0


def cmd_residue(args) -> int:
    field = parse_field_spec(args.field)
    res = residue_rk(field, args.tol)
    _emit(
        args,
        ["field", "tol", "value", "error_bound", "method"],
        [(field.spec_string(), args.tol, res.value, res.error_bound, res.method)],
        {},
    )
    return 0


def cmd_primes(args) -> int:
    field = parse_field_spec(args.field)
    if args.action == "grid":
        if not args.out:
            raise QuadPrimesError("primes grid requires --out for the binary file")
        grid = build_grid(field, args.extent)
        save_grid(grid, args.out)
        _write_sidecar(args, {"total_primes": grid.total_primes(),
                              "total_weight": grid.total_weight()})
        return 0
    x1, x2 = args.center
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise UsageError(f"--center must be finite, got {x1},{x2}")
    if not 0 <= args.H < math.inf:
        raise UsageError(f"--H must be a finite number >= 0, got {args.H}")
    if args.grid:
        grid = load_grid(args.grid)
        if grid.field != field:
            raise QuadPrimesError("grid file was built for a different field")
    else:
        reach = max(abs(x1), abs(x2)) + args.H
        if reach == math.inf:  # finite terms whose sum overflows
            raise BudgetError(f"the box of radius {args.H} around {x1},{x2} needs an infinite grid")
        extent = math.ceil(reach) + 1
        grid = build_grid(field, extent)
    count = count_primes_box(grid, x1, x2, args.H)
    _emit(
        args,
        ["field", "center1", "center2", "H", "count"],
        [(field.spec_string(), x1, x2, args.H, count)],
        {"extent": grid.extent},
    )
    return 0


def cmd_sstar(args) -> int:
    field = parse_field_spec(args.field)
    k1, k2 = args.eta
    val = singular_series(field.element(k1, k2), args.cutoff)
    _emit(
        args,
        ["field", "eta1", "eta2", "cutoff", "value", "tail_bound"],
        [(field.spec_string(), k1, k2, val.cutoff, val.value, val.tail_bound)],
        {},
    )
    return 0


def cmd_sum_singular(args) -> int:
    field = parse_field_spec(args.field)
    w = TestFunction(Kind(args.w))
    try:
        Hs = [float(h) for h in args.H.split(",")]
    except ValueError:
        raise UsageError(f"bad --H {args.H!r}: expected comma-separated numbers") from None
    rk = residue_rk(field, 1e-8)
    rows = []
    for H, res in zip(Hs, singular_sums_smoothed(field, w, Hs, args.cutoff)):
        target = -w.value_at_zero * rk.value * math.log(H**2)
        rows.append((field.spec_string(), args.w, args.cutoff, H, res.value,
                     target, res.value / target))
    _emit(args, ["field", "w", "cutoff", "H", "sum", "target", "ratio"], rows,
          {"rk": rk.value, "rk_error_bound": rk.error_bound})
    return 0


def cmd_montgomery(args) -> int:
    if args.Hmax < 8:
        raise UsageError(f"--Hmax must be at least 8 (two rows for the slope), got {args.Hmax}")
    top = 1 << (args.Hmax.bit_length() - 1)  # the largest dyadic row
    if top > PRIME_BUDGET:
        raise BudgetError(f"--Hmax {args.Hmax} needs the row H = {top}, "
                          f"over the prime budget {PRIME_BUDGET}")
    rows = []
    H = 4
    while H <= args.Hmax:
        rows.append((H, montgomery_sum(H, args.cutoff)))
        H *= 2
    fit = [r for r in rows if r[0] >= 1024]
    if len(fit) < 3:
        fit = rows
    slope = _slope([math.log(h) for h, _ in fit], [s for _, s in fit])
    _emit(args, ["H", "sum"], rows, {"slope": slope},
          trailer="# slope vs log H: %.12g (target -0.5)" % slope)
    return 0


def cmd_variance(args) -> int:
    field = parse_field_spec(args.field)
    sampler = Sampler(kind=args.sampler)
    deltas = _parse_deltas(args.deltas)
    rows = variance_profile(field, args.X, deltas, sampler)
    res = residue_rk(field, 1e-8)
    _emit(
        args,
        ["field", "X", "delta", "H", "n_samples", "E", "V", "ratio", "target"],
        [astuple(r) for r in rows],
        {"rk": res.value, "rk_error_bound": res.error_bound,
         "sampler": args.sampler, "grid_extent": grid_extent(args.X, deltas)},
    )
    return 0


def cmd_variance_z(args) -> int:
    rows = [astuple(zbaseline_row(args.X, delta)) for delta in _parse_deltas(args.deltas)]
    _emit(args, ["X", "delta", "H", "E", "V_prime", "V_lambda",
                 "ratio_prime", "ratio_lambda"], rows, {})
    return 0


def _charge(args, field, budget: int, units: str, cost) -> np.ndarray:
    """Rows norm, a, b, c (each `ideal_lattice`'s basis) of the squarefree
    ideals of norm <= --Y, in `enumerate_squarefree_ideals`' order; BudgetError
    before a level past the budget is built, level k costing cost(k, norm, c)."""
    levels, spent = [], 0
    for k, level in enumerate(squarefree_ideal_levels(field, args.Y)):
        if (spent := spent + cost(k, level[2], level[5])) > budget:
            raise BudgetError(f"--Y {args.Y}: over {budget} {units}")
        levels.append(level)
    return np.concatenate([np.stack(level[2:]) for level in levels], 1)[:, squarefree_order(levels)]


def cmd_diagnose(args) -> int:
    field = parse_field_spec(args.field)
    name = field.spec_string()
    if args.Y < 1:
        raise UsageError(f"--Y must be at least 1, got {args.Y}")
    rows = []
    if args.topic == "dual-count":
        radii = (0.2, 0.5, 1.0, 2.0)
        # `dual_lattice_count` walks the rows v = 0 .. floor(r*det) // c, det the norm,
        # of every ideal past the unit ideal
        ideals = _charge(args, field, LATTICE_POINT_BUDGET, "lattice rows", lambda k, norm, c: sum(
            int((np.floor(r * norm).astype(np.int64) // c + 1).sum()) for r in radii) if k else 0)
        for norm, a, b, c in ideals[:, 1:].T.tolist():
            for r in radii:
                cnt = dual_lattice_count(IdealLattice(a, b, c), r)
                rows.append((name, norm, r, cnt, cnt / (norm * r * r)))
        header = ["field", "norm", "r", "count", "normalized"]
    elif args.topic == "smooth-count":
        w = TestFunction(Kind.SQUARE_AUTOCORR)
        # the ideal, and the rows v = 0 .. radius // c that its count walks; a
        # radius over the budget trips on the unit ideal, so it is clipped to fit int64
        radius = min(w.support_box(args.H), _SMOOTH_COUNT_BUDGET)
        norms, a, b, c = _charge(args, field, _SMOOTH_COUNT_BUDGET, "ideals and lattice rows",
                                 lambda k, norm, c: int((2 + radius // c).sum()))
        for n, cnt in zip(norms.tolist(), smoothed_counts(np.stack([a, 0 * a, b, c]), w, args.H)):
            rows.append((name, n, float(args.H), cnt, w.value_at_zero,
                         args.H**2 * w.fourier_at_zero / n))
        header = ["field", "norm", "H", "count", "w0", "riemann_ref"]
    else:  # condensation, the parser's last choice
        # each of the 49 shifts sums c_d over the 2^k divisors d of c
        _charge(args, field, _CONDENSATION_BUDGET, "Ramanujan-sum terms",
                lambda k, norm, c: (49 << k) * norm.size)
        for c in enumerate_squarefree_ideals(field, args.Y):
            for k1 in range(-3, 4):
                for k2 in range(-3, 4):
                    eta = field.element(k1, k2)
                    got = condensation_sum(c, eta)
                    want = c.norm if c.contains(eta) else 0
                    rows.append((name, c.norm, k1, k2, got, want, int(got == want)))
        header = ["field", "norm", "eta1", "eta2", "sum", "expected", "ok"]
    _emit(args, header, rows, {})
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value file; flags override entries")
    p.add_argument("--out", help="write CSV here (plus <out>.meta.json sidecar)")


class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as a UsageError (one `error:` line, exit 2)
    instead of printing the usage text and exiting."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadprimes",
        description="Prime statistics and singular series in quadratic fields. "
        "Exit codes: 0 ok, 1 error, 2 bad field spec or usage, 3 budget, 4 extent.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="field metadata and residue")
    p.add_argument("--field", required=True, help="D=<int>[,half]")
    p.add_argument("--tol", type=float, default=1e-8, help="residue tolerance")
    _add_common(p)
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("residue", help="residue of the Dedekind zeta at s=1")
    p.add_argument("--field", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(func=cmd_residue)

    p = sub.add_parser("primes", help="prime-element box counts and grids")
    p.add_argument("action", choices=["count", "grid"])
    p.add_argument("--field", required=True)
    p.add_argument("--center", type=lambda s: _parse_pair(s, float),
                   default=(0.0, 0.0), help="box center x1,x2")
    p.add_argument("--H", type=float, default=10.0, help="box half-width")
    p.add_argument("--extent", type=int, default=100, help="grid extent R")
    p.add_argument("--grid", help="load a saved grid instead of building one")
    _add_common(p)
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("sstar", help="singular series at one shift")
    p.add_argument("--field", required=True)
    p.add_argument("--eta", type=lambda s: _parse_pair(s, int), required=True,
                   help="coordinates k1,k2")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF,
                   help="Euler product norm cutoff P")
    _add_common(p)
    p.set_defaults(func=cmd_sstar)

    p = sub.add_parser("sum-singular", help="smoothed sum of (S(eta)-1)")
    p.add_argument("--field", required=True)
    p.add_argument("--H", required=True, help="scale(s), comma separated")
    p.add_argument("--w", choices=["square", "disc"], default="square")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    _add_common(p)
    p.set_defaults(func=cmd_sum_singular)

    p = sub.add_parser("montgomery", help="weighted rational singular sum table")
    p.add_argument("--Hmax", type=int, default=131072)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    _add_common(p)
    p.set_defaults(func=cmd_montgomery)

    p = sub.add_parser("variance", help="field variance profile vs delta")
    p.add_argument("--field", required=True)
    p.add_argument("--X", type=float, default=1000.0, help="ball radius")
    p.add_argument("--deltas", default="0.1:0.9:0.1",
                   help="lo:hi:step or comma list of exponents")
    p.add_argument("--sampler", choices=["grid", "jitter"], default="grid")
    _add_common(p)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("variance-z", help="rational-integer baselines")
    p.add_argument("--X", type=int, default=100000)
    p.add_argument("--deltas", default="0.5")
    _add_common(p)
    p.set_defaults(func=cmd_variance_z)

    p = sub.add_parser("diagnose", help="identity and lattice diagnostics (CSV)")
    p.add_argument("topic", choices=["dual-count", "smooth-count", "condensation"])
    p.add_argument("--field", default="D=-1")
    p.add_argument("--Y", type=int, default=30, help="ideal norm bound")
    p.add_argument("--H", type=float, default=50.0, help="scale for smooth-count")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


def _load_config_args(path: str) -> list[str]:
    out = []
    with open(path, errors="replace") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise QuadPrimesError(f"bad config line: {line!r}")
            key, value = (p.strip() for p in line.split("=", 1))
            out += ["--" + key.replace("_", "-"), value]
    return out


def _inject_config(argv: list[str]) -> list[str]:
    # a parser of its own finds every spelling: --config F, --config=F, --conf F
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    cfg = _load_config_args(path)
    # insert after the leading positionals so explicit flags win
    j = 0
    while j < len(argv) and not argv[j].startswith("-"):
        j += 1
    return argv[:j] + cfg + argv[j:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        return args.func(args)
    except QuadPrimesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
