import argparse
import importlib.util
import json
import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor

import cli_pins
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quadprimes import cli, ideals
from quadprimes.errors import BudgetError, UsageError
from quadprimes.cli import main
from quadprimes.fields import make_field
from quadprimes.ideals import enumerate_squarefree_ideals, ideal_lattice, squarefree_ideal_levels
from quadprimes.smoothing import Kind, TestFunction
from quadprimes.statistics import grid_extent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the whole output of `diagnose smooth-count --field D=-1 --Y 30 --H 50`
SMOOTH_COUNT_D1_Y30_H50 = """\
field,norm,H,count,w0,riemann_ref
D=-1,1,50,40000,4,40000
D=-1,2,50,20000,4,20000
D=-1,5,50,8000,4,8000
D=-1,5,50,8000,4,8000
D=-1,9,50,4446.2224,4,4444.44444444
D=-1,10,50,4000,4,4000
D=-1,10,50,4000,4,4000
D=-1,13,50,3076.9248,4,3076.92307692
D=-1,13,50,3076.9248,4,3076.92307692
D=-1,17,50,2352.9424,4,2352.94117647
D=-1,17,50,2352.9424,4,2352.94117647
D=-1,18,50,2223.112,4,2222.22222222
D=-1,25,50,1600,4,1600
D=-1,26,50,1538.464,4,1538.46153846
D=-1,26,50,1538.464,4,1538.46153846
D=-1,29,50,1379.3152,4,1379.31034483
D=-1,29,50,1379.3152,4,1379.31034483
"""

# the pin table's rows for the lattice walks and the Ramanujan sums behind the
# identity checks, by their argv after `diagnose`
DIAGNOSE_SHA256 = [(argv, cli_pins.ROW[f"diagnose {argv}"]) for argv in [
    "smooth-count --field D=-1 --Y 2000 --H 50",
    "smooth-count --field D=-3 --Y 1000 --H 7.5",
    "dual-count --field D=-1 --Y 300",
    "dual-count --field D=10 --Y 200",
    "condensation --field D=5 --Y 200",
]]


class TestFieldInfo:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "field-info", "--field", "D=5,half")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "field,D,basis,discriminant,rk,rk_error_bound"
        cells = row.split(",")
        assert cells[0:2] == ["D=5", "5"]  # canonical spec string
        assert cells[3] == "5"
        assert float(cells[4]) == pytest.approx(0.4304089409640040, abs=1e-9)

    def test_bad_field_exit_code(self, capsys):
        code, _, err = run(capsys, "field-info", "--field", "D=12")
        assert code == 2
        assert err.startswith("error:")


class TestPrimes:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "primes", "count", "--field", "D=-1",
                           "--center", "0,0", "--H", "1.5")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",4")

    def test_grid_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "g.bin")
        code, _, _ = run(capsys, "primes", "grid", "--field", "D=-1",
                         "--extent", "20", "--out", path)
        assert code == 0
        meta = json.loads(open(path + ".meta.json").read())
        assert meta["total_primes"] > 0
        code, out, _ = run(capsys, "primes", "count", "--field", "D=-1",
                           "--grid", path, "--center", "0,0", "--H", "1.5")
        assert code == 0 and out.strip().endswith(",4")

    def test_corrupt_grid_exit_code(self, capsys, tmp_path):
        path = tmp_path / "g.bin"
        run(capsys, "primes", "grid", "--field", "D=-1", "--extent", "20",
            "--out", str(path))
        path.write_bytes(path.read_bytes()[:300])
        code, out, err = run(capsys, "primes", "count", "--field", "D=-1",
                             "--grid", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_grid_of_another_field_exit_code(self, capsys, tmp_path):
        path = str(tmp_path / "g.bin")
        run(capsys, "primes", "grid", "--field", "D=-3", "--extent", "5", "--out", path)
        code, out, err = run(capsys, "primes", "count", "--field", "D=-1", "--grid", path)
        assert (code, out) == (1, "")
        assert err == "error: grid file was built for a different field\n"

    def test_extent_exit_code(self, capsys, tmp_path):
        path = str(tmp_path / "g.bin")
        run(capsys, "primes", "grid", "--field", "D=-1", "--extent", "5",
            "--out", path)
        code, _, err = run(capsys, "primes", "count", "--field", "D=-1",
                           "--grid", path, "--center", "0,0", "--H", "6")
        assert code == 4


class TestSingularCommands:
    def test_sstar_parity_zero(self, capsys):
        code, out, _ = run(capsys, "sstar", "--field", "D=-1", "--eta", "1,0",
                           "--cutoff", "1000")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[4] == "0"

    def test_montgomery_table(self, capsys):
        code, out, _ = run(capsys, "montgomery", "--Hmax", "4096",
                           "--cutoff", "10000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "H,sum"
        assert lines[-1].startswith("# slope")

    def test_sum_singular(self, capsys):
        code, out, _ = run(capsys, "sum-singular", "--field", "D=-1",
                           "--H", "16,32", "--w", "square", "--cutoff", "2000")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        ratio = float(lines[1].split(",")[-1])
        assert ratio > 0


class TestVariance:
    def test_csv_schema_and_sidecar(self, capsys, tmp_path):
        path = str(tmp_path / "v.csv")
        code, _, _ = run(capsys, "variance", "--field", "D=-1", "--X", "40",
                         "--deltas", "0.3,0.6", "--out", path)
        assert code == 0
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "field,X,delta,H,n_samples,E,V,ratio,target"
        assert len(lines) == 3
        meta = json.loads(open(path + ".meta.json").read())
        assert meta["config"]["field"] == "D=-1"
        assert "threads" not in meta["config"]
        assert meta["sampler"] == "grid"
        assert meta["grid_extent"] == grid_extent(40.0, [0.3, 0.6])
        assert "rk" in meta

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(capsys, "variance", "--field", "D=-1", "--X", "30",
            "--deltas", "0.5", "--out", a)
        run(capsys, "variance", "--field", "D=-1", "--X", "30",
            "--deltas", "0.5", "--out", b)
        assert open(a).read() == open(b).read()

    def test_default_density_output_unchanged(self, capsys):
        # the second-order output, pinned from when it was spelled
        # `--density second-order`; the one expected-count model must keep it
        want = (
            "field,X,delta,H,n_samples,E,V,ratio,target\n"
            "D=10,40,0.3,3.02425214533,6561,5.53696082914,4.0444405032,"
            "0.730444124133,0.7\n"
            "D=10,40,0.9,27.6601156872,6561,328.561804603,288.290900986,"
            "0.877432790262,0.1\n"
        )
        argv = ["variance", "--field", "D=10", "--X", "40", "--deltas", "0.3,0.9"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want

    def test_figure_script_writes_second_order_data(self, capsys, tmp_path):
        # the figure data is the statistic criterion 6 checks
        path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                            "run_variance_figures.py")
        spec = importlib.util.spec_from_file_location("run_variance_figures", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        outdir = tmp_path / "fig"
        assert script.main(["--X", "20", "--deltas", "0.3,0.9",
                            "--outdir", str(outdir)]) == 0
        by_hand = str(tmp_path / "by_hand.csv")
        code, _, _ = run(capsys, "variance", "--field", "D=10", "--X", "20",
                         "--deltas", "0.3,0.9", "--out", by_hand)
        assert code == 0
        fig = str(outdir / "variance_D10.csv")
        assert open(fig).read() == open(by_hand).read()
        assert "density" not in json.loads(open(fig + ".meta.json").read())

    @pytest.mark.parametrize("text, deltas", [
        ("0.1:0.9:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
        ("0.9:0.1:-0.1", [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]),
        ("0.05:0.95:0.1", [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]),
        ("0.3:0.9:0.2", [0.3, 0.5, 0.7, 0.9]),
        # hi is a row only when it lies on the grid lo + i*step
        ("0.1:0.9:0.3", [0.1, 0.4, 0.7]),
        ("0.1:0.86:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
    ])
    def test_delta_range_stops_at_hi(self, capsys, text, deltas):
        assert cli._parse_deltas(text) == deltas
        code, out, _ = run(capsys, "variance", "--field", "D=-1", "--X", "10", "--deltas", text)
        assert code == 0
        assert [float(row.split(",")[2]) for row in out.splitlines()[1:]] == deltas

    @pytest.mark.parametrize("text", ["0.9:0.1:0.1", "0.1:0.9:-0.1"])
    def test_empty_delta_range_named(self, text):
        with pytest.raises(UsageError, match=r"^bad deltas '.*': the range is empty"):
            cli._parse_deltas(text)

    def test_variance_z(self, capsys):
        code, out, _ = run(capsys, "variance-z", "--X", "2000",
                           "--deltas", "0.5")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("X,delta,H,E,V_prime,V_lambda")


class TestConfigAndDiagnose:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("field = D=-1\ncutoff = 500\n")
        code, out, _ = run(capsys, "sstar", "--config", str(cfg),
                           "--eta", "1,1", "--cutoff", "1000")
        assert code == 0
        # explicit --cutoff wins over the config entry
        assert out.strip().splitlines()[1].split(",")[3] == "1000"
        code, out, _ = run(capsys, "sstar", f"--config={cfg}", "--eta", "1,1")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[3] == "500"

    def test_config_comments_and_blank_lines_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# an sstar run\n\nfield = D=-1  # Q(i)\n   \ncutoff = 500\n")
        code, out, _ = run(capsys, "sstar", "--config", str(cfg), "--eta", "1,1")
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert (cells[0], cells[3]) == ("D=-1", "500")

    def test_config_line_without_equals_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("field = D=-1\ncutoff 500\n")
        code, out, err = run(capsys, "sstar", "--config", str(cfg), "--eta", "1,1")
        assert (code, out) == (1, "")
        assert err == "error: bad config line: 'cutoff 500'\n"

    def test_diagnose_condensation_all_ok(self, capsys):
        code, out, _ = run(capsys, "diagnose", "condensation", "--field",
                           "D=-1", "--Y", "10")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows and all(r.split(",")[-1] == "1" for r in rows)

    def test_diagnose_smooth_count(self, capsys):
        code, out, _ = run(capsys, "diagnose", "smooth-count", "--field", "D=-1",
                           "--Y", "30", "--H", "50")
        assert code == 0
        assert out == SMOOTH_COUNT_D1_Y30_H50

    @pytest.mark.parametrize("argv, row", DIAGNOSE_SHA256, ids=[a for a, _ in DIAGNOSE_SHA256])
    def test_diagnose_output_pinned(self, argv, row):
        assert cli_pins.failures(row) == []

    def test_diagnose_dual_count_conjugates_agree(self, capsys):
        # the two ideals of norm 5 have mirror-image dual lattices, and each
        # has 20 dual vectors of length <= 1, four of them on the circle
        code, out, _ = run(capsys, "diagnose", "dual-count", "--field", "D=-1", "--Y", "5")
        assert code == 0
        assert out.splitlines().count("D=-1,5,1,20,4") == 2


def budget_exit_row(argv):
    """A budget exit in a fresh process: exit 3 with one error line, and a peak
    RSS (VmHWM) under 150 MiB."""
    return cli_pins.Row(" ".join(argv), code=3, peak_kib=150 * 1024)


class TestHostileInputs:
    VARIANCE = ["variance", "--field", "D=-1", "--X", "10"]
    HOSTILE = [
        (VARIANCE + ["--deltas", "0.1:0.9:0"], 2),
        (VARIANCE + ["--deltas", "abc"], 2),
        (VARIANCE + ["--deltas", "0.1:0.5"], 2),
        (VARIANCE + ["--deltas", "0.1:inf:0.1"], 2),
        (VARIANCE + ["--deltas", "0.5,1.5"], 2),
        (VARIANCE + ["--deltas", "0:1:1e-300"], 3),
        (["variance", "--field", "D=-1", "--X", "-5"], 2),
        (["variance", "--field", "D=-1", "--X", "nan"], 2),
        (["variance", "--field", "D=-1", "--X", "abc"], 2),
        (VARIANCE + ["--sampler", "jitter", "--q", "0"], 2),
        (VARIANCE + ["--sampler", "jitter", "--seed", "-1"], 2),
        (VARIANCE + ["--threads", "2"], 2),
        (["variance"], 2),
        (VARIANCE + ["--config"], 2),
        (VARIANCE + ["--config", "/nonexistent/run.cfg"], 1),
        (["sstar", "--field", "D=-1", "--eta", "1,1", "--cutoff", "1"], 2),
        (["sstar", "--field", "D=-1", "--eta", "0,0"], 2),
        (["sstar", "--field", "D=-1", "--eta", "1,1", "--cutoff", "3000000"], 3),
        (["sum-singular", "--field", "D=-1", "--H", "1"], 2),
        (["sum-singular", "--field", "D=-1", "--H", "abc"], 2),
        (["sum-singular", "--field", "D=-1", "--H", "nan"], 2),
        (["montgomery", "--Hmax", "1"], 2),
        (["montgomery", "--Hmax", "7"], 2),
        (["montgomery", "--Hmax", "16", "--cutoff", "-5"], 2),
        (["montgomery", "--Hmax", "16", "--cutoff", "3000000"], 3),
        (["residue", "--field", "D=-1", "--tol", "0"], 2),
        (["field-info", "--field", "D=-1", "--tol", "-1"], 2),
        (["primes", "grid", "--field", "D=-1", "--extent", "-1",
          "--out", "/nonexistent/g.bin"], 2),
        (["diagnose", "smooth-count", "--H", "0"], 2),
        (["diagnose", "condensation", "--Y", "3000000"], 3),
        (["variance-z", "--X", "1"], 2),
        (["variance-z", "--X", "1000", "--deltas", "1.5"], 2),
        (["diagnose", "condensation", "--Y", "0"], 2),
        (["diagnose", "smooth-count", "--Y", "-5", "--H", "3"], 2),
        (["diagnose", "dual-count", "--Y", "0"], 2),
        (["residue", "--field", "D=-100000007"], 3),
        (["field-info", "--field", "D=-1000003"], 3),
        (["primes", "count", "--field", "D=-1", "--center", "nan,0"], 2),
        (["primes", "count", "--field", "D=-1", "--center", "inf,0"], 2),
        (["primes", "count", "--field", "D=-1", "--H", "nan"], 2),
        (["primes", "count", "--field", "D=-1", "--H", "inf"], 2),
        (["primes", "count", "--field", "D=-1", "--H", "-3", "--center", "10,10"], 2),
        (["variance-z", "--X", "100000000000"], 3),
        (["montgomery", "--Hmax", "100000000000"], 3),
        (["diagnose", "dual-count", "--Y", "4000"], 3),
        (["diagnose", "smooth-count", "--Y", "2", "--H", "1e18"], 3),
        (["diagnose", "smooth-count", "--Y", "2", "--H", "1e300"], 3),
        # budgets over counts of 300 to 600 digits
        (["variance", "--field", "D=-1", "--X", "1e300", "--deltas", "0.5"], 3),
        (["sum-singular", "--field", "D=-1", "--H", "1e300", "--cutoff", "1000"], 3),
        (["primes", "count", "--field", "D=-1", "--center", "0,0", "--H", "1e300"], 3),
        # V has one expected-count model, so the old switch is an unknown option
        (VARIANCE + ["--density", "second-order"], 2),
        # passes the prime budget; its 49 x 2^k Ramanujan-sum terms do not
        (["diagnose", "condensation", "--Y", "2000000"], 3),
        # each term is finite, but the grid's reach |x| + H overflows to inf
        (["primes", "count", "--field", "D=-1", "--center", "1e308,0", "--H", "1e308"], 3),
        # the residue budget refuses before the grid's 1.5 GB norm sieve is built
        (["variance", "--field", "D=-150001", "--X", "60"], 3),
        # the unit ideal's walk alone would list 6M rows
        (["diagnose", "smooth-count", "--field", "D=-1", "--Y", "5", "--H", "3000000"], 3),
        # about 1.04M squarefree ideals: the smooth-count budget ends the walk
        (["diagnose", "smooth-count", "--field", "D=-1", "--Y", "2000000", "--H", "1"], 3),
        # each box fits the box budget, the 100 together do not
        (["sum-singular", "--field", "D=-1", "--H", ",".join(["1500"] * 100), "--cutoff", "1000"],
         3),
        # finite scales whose support H * 2 overflows to inf
        (["diagnose", "smooth-count", "--Y", "2", "--H", "1e308"], 3),
        (["sum-singular", "--field", "D=-1", "--H", "1e308", "--cutoff", "1000"], 3),
        # a range whose step points away from hi holds no delta
        (VARIANCE + ["--deltas", "0.9:0.1:0.1"], 2),
        (["variance-z", "--X", "1000", "--deltas", "0.9:0.1:0.1"], 2),
    ]
    # Cases are only appended: both tests below take their ids from positions
    # in HOSTILE, so an id keeps naming the same command.

    @pytest.mark.parametrize("argv, code", HOSTILE)
    def test_one_error_line(self, capsys, argv, code):
        got, out, err = run(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200
        assert "Traceback" not in err

    @pytest.mark.parametrize("H", ["1e18", "1e300"])
    def test_smooth_count_huge_H_fails_fast(self, capsys, H):
        # the row count is checked in Python ints before any array is made
        start = time.perf_counter()
        got, out, err = run(capsys, "diagnose", "smooth-count", "--Y", "2", "--H", H)
        assert time.perf_counter() - start < 1.0
        assert (got, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_smooth_count_walk_budget_fails_fast(self, capsys):
        # the walks of the unit ideal and 1 + i at H = 10^5 would list 200001
        # rows each: the smooth-count budget refuses before either starts
        start = time.perf_counter()
        got, out, err = run(capsys, "diagnose", "smooth-count", "--Y", "2", "--H", "100000")
        assert time.perf_counter() - start < 1.0
        assert (got, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_dual_count_budget_ends_the_walk(self, capsys):
        # about 1.04M squarefree ideals have norm <= 2*10^6; the lattice-row
        # budget trips on the first level of their arrays, before any ideal is built
        start = time.perf_counter()
        got, out, err = run(capsys, "diagnose", "dual-count", "--Y", "2000000")
        assert time.perf_counter() - start < 3.0
        assert (got, out) == (3, "")
        assert err == "error: --Y 2000000: over 10000000 lattice rows\n"

    def test_smooth_count_budget_ends_the_walk(self, capsys):
        # each of about 1.04M squarefree ideals of norm <= 2*10^6 costs 4 units
        # at H = 1: the budget trips on their arrays, before any ideal is built
        start = time.perf_counter()
        got, out, err = run(capsys, "diagnose", "smooth-count", "--Y", "2000000", "--H", "1")
        assert time.perf_counter() - start < 3.0
        assert (got, out) == (3, "")
        assert err == "error: --Y 2000000: over 400000 ideals and lattice rows\n"

    def test_dual_count_precount_equals_rows_walked(self, capsys, monkeypatch):
        # each walk's rows as its own row budget counts them: with budget 0
        # it raises before listing a point
        walked = 0
        walk = ideals.lattice_half_points

        def counted(bases, radius, budget=None):
            nonlocal walked
            with pytest.raises(BudgetError) as exc:
                next(walk(bases, radius, 0))
            walked += int(re.search(r"over (\d+) lattice rows", str(exc.value))[1])
            return walk(bases, radius, budget)

        monkeypatch.setattr(ideals, "lattice_half_points", counted)
        argv = ["diagnose", "dual-count", "--field", "D=-1", "--Y", "300"]
        assert run(capsys, *argv)[0] == 0
        # the pre-count passes a budget of exactly the rows walked
        rows = walked
        monkeypatch.setattr(cli, "LATTICE_POINT_BUDGET", rows)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "LATTICE_POINT_BUDGET", rows - 1)
        assert run(capsys, *argv)[:2] == (3, "")

    @staticmethod
    def ideal_cost(topic, q, radius):
        # one ideal's cost, from its object and its lattice
        lat = ideal_lattice(q)
        if topic == "dual-count":
            rows = sum(math.floor(r * lat.det) // lat.c + 1 for r in (0.2, 0.5, 1.0, 2.0))
            return rows if q.factors else 0
        if topic == "smooth-count":
            return 2 + radius // lat.c
        return 49 << len(q.factors)

    @pytest.mark.parametrize("D", [-1, -3, 2, 3, 5, 10, -7, 17, -100003])
    def test_array_charge_equals_per_ideal_costs(self, capsys, monkeypatch, D):
        # each topic's charge, summed level by level over the arrays, against
        # the sum of its per-ideal costs; the charge then stops the command
        charged = []

        def spy(args, field, budget, units, cost):
            levels = squarefree_ideal_levels(field, args.Y)
            charged.append(sum(cost(k, norm, c) for k, (_, _, norm, c) in enumerate(levels)))
            raise BudgetError("charged")

        monkeypatch.setattr(cli, "_charge", spy)
        field, Y = make_field(D), 5000
        qs = enumerate_squarefree_ideals(field, Y)
        for topic, H in [("dual-count", 50), ("smooth-count", 1), ("smooth-count", 7.5),
                         ("condensation", 50)]:
            argv = ["diagnose", topic, "--field", f"D={D}", "--Y", str(Y), "--H", str(H)]
            assert run(capsys, *argv)[0] == 3
            radius = TestFunction(Kind.SQUARE_AUTOCORR).support_box(H)
            assert charged.pop() == sum(self.ideal_cost(topic, q, radius) for q in qs)

    def test_huge_field_budget_fails_fast(self, capsys):
        # the squarefree check would trial-divide up to sqrt|D| = 10^9
        start = time.perf_counter()
        got, out, err = run(capsys, "field-info", "--field", "D=-1000000000000000003")
        assert time.perf_counter() - start < 1.0
        assert (got, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [argv for argv, code in HOSTILE if code == 3])
    def test_budget_exit_bounds_memory(self, argv):
        # each budget exit in a fresh process, which reports its own peak (VmHWM):
        # a budget must refuse before the work it bounds allocates
        assert cli_pins.failures(budget_exit_row(argv)) == []

    def test_montgomery_hmax_checked_before_any_row(self, capsys, monkeypatch):
        def summed(H, cutoff):
            pytest.fail("a Montgomery row computed before the --Hmax budget check")

        monkeypatch.setattr(cli, "montgomery_sum", summed)
        got, out, err = run(capsys, "montgomery", "--Hmax", str(2**21))
        assert (got, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "--Hmax" in err
        # the largest row of 2^21 - 1 is 2^20, inside the prime budget
        monkeypatch.setattr(cli, "montgomery_sum", lambda H, cutoff: 0.0)
        assert run(capsys, "montgomery", "--Hmax", str(2**21 - 1))[0] == 0


def command(line):
    """A command line as the parser reads it, so that two spellings of one command
    (`--field D=-1` or its default) compare equal; a usage error stays its text."""
    try:
        return vars(cli.build_parser().parse_args(line.split()))
    except UsageError:
        return line


def checks(row):
    """What a pin-table row checks: all of it but its id, its lines as parsed."""
    return {**vars(row), "id": None, "lines": [command(line) for line in row.lines]}


# the rows that a test above runs already, checking the same: the diagnose digests,
# and the budget exits that test_budget_exit_bounds_memory bounds
CHECKED_ABOVE = [checks(row) for _, row in DIAGNOSE_SHA256] + [
    checks(budget_exit_row(argv)) for argv, code in TestHostileInputs.HOSTILE if code == 3]
PINNED = [row for row in cli_pins.ROWS if checks(row) not in CHECKED_ABOVE]


class TestPinnedOutputs:
    """The pin table's rows through `cli.main`: the outputs that CI's runtime job
    checks through the installed entry point."""

    @pytest.fixture(scope="class")
    def children(self, request):
        # the selected rows that run in a child process, started together, two at a
        # time and the largest peak bound first, so that they run while the other rows
        # run here: row id -> future
        rows = [item.callspec.params["row"] for item in request.session.items
                if item.cls is TestPinnedOutputs and item.originalname == "test_row"]
        rows.sort(key=lambda row: -(row.peak_kib or 0))
        with ThreadPoolExecutor(2) as pool:
            yield {row.id: pool.submit(cli_pins.failures, row) for row in rows
                   if cli_pins.in_child(row) and not cli_pins.skip_reason(row)}

    @pytest.mark.parametrize("row", PINNED, ids=[row.id for row in PINNED])
    def test_row(self, children, row):
        if cli_pins.skip_reason(row):
            pytest.skip(cli_pins.skip_reason(row))
        found = children[row.id].result() if row.id in children else cli_pins.failures(row)
        assert found == []

    def test_every_command_has_a_row(self):
        # each subcommand, or each choice of its positional argument (a `primes`
        # action, a `diagnose` topic), begins a command line of some row
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        commands = []
        for name, parser in sub.choices.items():
            choices = [a.choices for a in parser._actions if not a.option_strings and a.choices]
            commands += [f"{name} {c}" for c in choices[0]] if choices else [name]
        lines = [line + " " for row in cli_pins.ROWS for line in row.lines]
        assert [c for c in commands if not any(s.startswith(c + " ") for s in lines)] == []
        assert len(cli_pins.ROW) == len(cli_pins.ROWS)  # ids are unique


# malformed values for the CLI fuzz, by the kind of option they are given to
NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1", "3000000", str(10**30), f"-{10**30}", "1e300",
           "", "abc"]
LISTS = NUMBERS + [",", "1,", "0.5,", ",0.5", "0:1:0", "0.1:0.9:0", "1:0:0.5", "0.5:0.5:1"]
PAIRS = ["nan,0", "0,inf", "-inf,1", "1", "1,2,3", ",", "1,", f"{10**30},0", "0,0", "", "a,b"]
FIELDS = ["D=", "D=abc", "D=0", "D=1", "D=4", "D=-4", "D=nan", f"D={10**30}", "D=-1000003",
          "D=-3,half", "D=2,half", "D=5,full", "X=5", ""]
CHOICES = ["", "circle", "nan"]

# every subcommand with small valid values, and the kind of each option;
# "{tmp}" is replaced by a fresh directory
FUZZ_COMMANDS = {
    ("field-info",): {"--field": ("D=-3", FIELDS), "--tol": ("1e-8", NUMBERS)},
    ("residue",): {"--field": ("D=-3", FIELDS), "--tol": ("1e-8", NUMBERS)},
    ("primes", "count"): {"--field": ("D=-1", FIELDS), "--center": ("1,1", PAIRS),
                          "--H": ("2", NUMBERS), "--extent": ("20", NUMBERS)},
    ("primes", "grid"): {"--field": ("D=-1", FIELDS), "--extent": ("10", NUMBERS),
                         "--out": ("{tmp}/g.bin", ["{tmp}", "{tmp}/missing/g.bin", ""])},
    ("sstar",): {"--field": ("D=-1", FIELDS), "--eta": ("1,1", PAIRS),
                 "--cutoff": ("1000", NUMBERS)},
    ("sum-singular",): {"--field": ("D=-1", FIELDS), "--H": ("4", LISTS),
                        "--w": ("square", CHOICES), "--cutoff": ("1000", NUMBERS)},
    ("montgomery",): {"--Hmax": ("64", NUMBERS), "--cutoff": ("1000", NUMBERS)},
    ("variance",): {"--field": ("D=-1", FIELDS), "--X": ("8", NUMBERS),
                    "--deltas": ("0.5", LISTS), "--sampler": ("grid", CHOICES)},
    ("variance-z",): {"--X": ("1000", NUMBERS), "--deltas": ("0.5", LISTS)},
    ("diagnose", "dual-count"): {"--field": ("D=-1", FIELDS), "--Y": ("5", NUMBERS)},
    ("diagnose", "smooth-count"): {"--field": ("D=-1", FIELDS), "--Y": ("5", NUMBERS),
                                   "--H": ("3", NUMBERS)},
    ("diagnose", "condensation"): {"--field": ("D=-1", FIELDS), "--Y": ("5", NUMBERS)},
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


def check_exit_contract(capsys, command, values, tmp):
    """Run one command line; it must exit 0-4 with at most one `error:`
    line on stderr, the whole of stderr when it fails, and no traceback."""
    argv = list(command)
    for option, value in values.items():
        argv += [option, value.replace("{tmp}", tmp)]
    code, _, err = run(capsys, *argv)
    assert code in range(5), argv
    assert "Traceback" not in err and err.count("error:") <= 1, argv
    if code:
        assert err.startswith("error:") and err.count("\n") == 1, argv


class TestCliFuzz:
    """Every subcommand, given malformed values, keeps the exit-code
    contract: a documented code and one `error:` line, never a traceback."""

    def test_each_malformed_value(self, capsys, fuzz_dir):
        for command, options in FUZZ_COMMANDS.items():
            for option, (_, malformed) in options.items():
                for value in malformed:
                    values = {o: v for o, (v, _) in options.items()}
                    values[option] = value
                    check_exit_contract(capsys, command, values, fuzz_dir)

    # `run` drains capsys after every command, so one capsys serves all inputs
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_combinations(self, capsys, fuzz_dir, data):
        command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
        options = FUZZ_COMMANDS[command]
        values = {o: data.draw(st.sampled_from([v, *malformed]), label=o)
                  for o, (v, malformed) in options.items()}
        check_exit_contract(capsys, command, values, fuzz_dir)
