"""The pinned outputs of the `quadprimes` CLI, and the one runner that checks them.

Each row of `ROWS` runs its command lines in order in one fresh directory and
pins what they give: every exit code, the sha256 of their stdout (joined), of
every file they leave there (each `--out` file and its `.meta.json` sidecar),
and substrings that name the headline values in plain sight.  A row may also
bound the peak RSS (VmHWM) of the process that runs it, or run on one CPU;
such a row, and a row whose lines must share one process, runs in a child
process of its own (`CHILD`).

`failures(row)` runs a row in-process through `quadprimes.cli.main`, as the
tier-1 tests do; `failures(row, entry_point=True)` runs it through the
installed `quadprimes` command.  Run as a script, this module checks every
row through the entry point and exits 1 if any fails:

    pip install . && python tests/cli_pins.py

A change that moves a pinned output edits its row here and names the row
(its id) in CHANGES.md.  The module uses the standard library only.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

EMPTY = hashlib.sha256(b"").hexdigest()

# longdouble is 80-bit on x86-64 and another width elsewhere: the rows whose
# bytes read a longdouble sum (grid weights, and the V they give) pin x86-64's
X86_64 = platform.machine().lower() in ("x86_64", "amd64")
X86_64_REASON = "its bytes read x86-64 longdouble sums (ROADMAP item 4)"

# a child that runs its arguments as command lines in one process, then prints
# their exit codes and its own peak RSS in KiB on its last line: VmHWM, the
# high-water mark of its process image since exec (ru_maxrss carries the
# spawning process's peak across exec on Linux)
CHILD = ("import sys, quadprimes.cli; "
         "codes = [quadprimes.cli.main(a.split()) for a in sys.argv[1:]]; "
         "print(*codes, *[s.split()[1] for s in open('/proc/self/status') if s[:6] == 'VmHWM:'])")
# the same, pinned first to one of the CPUs it may use
ONE_CPU = "import os; os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1]); "


class Row:
    """Command lines run in order in one fresh directory, and what they must give.

    `code` is every line's exit code; `stdout` the sha256 of their stdout;
    `files` the sha256 of each file left in the directory, which holds no
    other; `has` substrings of the stdout or a file, a substring listed k
    times occurring at least k times.  `peak_kib` bounds the running
    process's VmHWM; `one_cpu` pins it to one CPU; `one_process` runs the
    lines in one process also through the entry point.  An `x86_64` row is
    skipped on other machines (`X86_64_REASON`)."""

    def __init__(self, *lines, code=0, stdout=EMPTY, files=None, has=(), peak_kib=None,
                 one_cpu=False, one_process=False, x86_64=False, id=None):
        self.lines, self.id, self.code, self.stdout = lines, id or lines[0], code, stdout
        self.files, self.has, self.peak_kib = files or {}, has, peak_kib
        self.one_cpu, self.one_process, self.x86_64 = one_cpu, one_process, x86_64


ROWS = [
    Row("residue --field D=-3",
        stdout="fac23085424f6b4aaf1dadb3d4791fb6719e363e3a0bc030b2ce8c8ad8490a21"),
    # D alone names the field: ',half' is the same field where D forces it, else exit 2
    Row("field-info --field D=5,half --out half.csv", files={
        "half.csv": "5d21b1eabd2764a2052645c007b009dbd56f4cc5e24885b5d85ed2bb69710b28",
        "half.csv.meta.json": "665e41530fe52f04ddc569ffb0d5db39077fda9465b0eb4bbb78740bd89572c6"}),
    Row("field-info --field D=5 --out plain.csv", files={
        "plain.csv": "5d21b1eabd2764a2052645c007b009dbd56f4cc5e24885b5d85ed2bb69710b28",
        "plain.csv.meta.json": "7036670e9f377e22878dfcc7d127763fa1687cc13d312bd77a3c19be754b251f"}),
    Row("field-info --field D=3,half", code=2),
    # a grid in the half basis round-trips through its file
    Row("primes grid --field D=-3 --extent 30 --out g3.bin",
        "primes count --field D=-3 --grid g3.bin --center 3,1 --H 7.5",
        id="primes grid D=-3 extent 30, count from its file", x86_64=True,
        stdout="e59b79722047d7522196a707637b03af63b0c2b22ac06f3ab9de521d8dab6fa9", files={
        "g3.bin": "fe05db63eb2e3bd6d358b4b4ef92e5d24d6d16d88620591dbfb021dacaf1ae9e",
        "g3.bin.meta.json": "adaad003a9f82fea389f17560a4d3f3aff2f966782681eff1605a37d27592ecd"},
        has=("D=-3,3,1,7.5,96",)),
    # grid files bit for bit: two fields with b = 0 and two with b = -1 in omega's minimal
    # polynomial
    Row("primes grid --field D=-1 --extent 100 --out g-1.bin", x86_64=True, files={
        "g-1.bin": "d2a645bb2999fa0612c976dab305471058395f1e9f44d9bc718330ef6b09de30",
        "g-1.bin.meta.json": "f94d7254833306b57888de6ac3be79ef0ac4cae495d8b12e9d1b9a3af8bd7553"}),
    Row("primes grid --field D=-3 --extent 100 --out g-3.bin", x86_64=True, files={
        "g-3.bin": "82d6198dec252b6930795139d92b0164329fcc324f14cd6270655d57aa62fc1b",
        "g-3.bin.meta.json": "bb8aa0975885d53b8a09b4bd190b340cbe1653d849339b1bf81dfc02ec30b7b4"}),
    Row("primes grid --field D=10 --extent 100 --out g10.bin", x86_64=True, files={
        "g10.bin": "fed7759883d6ed67eb176f0566c2fb6a855df160ebf70a60eb331a51de746f0f",
        "g10.bin.meta.json": "eff968b6d911645c231ce395c67b1c2138b07fd80afbfe7b7108c37cc87ebc37"}),
    Row("primes grid --field D=5 --extent 100 --out g5.bin", x86_64=True, files={
        "g5.bin": "7091016ed28e2171b28065ac71fae8b642811338dfff7dd1213ce133c887ead8",
        "g5.bin.meta.json": "556a146badb9bc33d77c7def448d641f15ff4423da7224883cc84bcd9c10df12"}),
    Row("residue --field D=-100003",
        stdout="eaf80a336ebbffd251526b79cd0fe72af40b42a4720f3e62363de03b4a27e840",
        has=(",0.387443130763,",)),
    Row("residue --field D=10",
        stdout="6877b31b836fdd0f9d99e3d354b5e4409628f2cc38ff0df8e8b15dee686e4f4d",
        has=(",1.15008652285,",)),
    # a real field's residue sums its character moments in int64 limbs
    Row("residue --field D=99989",
        stdout="d638aca053628e6cdad47a12428c6c55c0e3ba043be6f7ee1ab88fb5a1b51710",
        has=(",0.604496527376,",)),
    Row("diagnose dual-count --field D=-1 --Y 2000000", code=3),
    # budgets refuse in bounded memory: exit 3 under 150 MiB. The point budget:
    Row("diagnose smooth-count --field D=-1 --Y 5 --H 3000000", code=3, peak_kib=153600),
    # the condensation term budget
    Row("diagnose condensation --field D=-1 --Y 2000000", code=3, peak_kib=153600),
    # the smooth-count budget ends the walk over about 1.04M ideals
    Row("diagnose smooth-count --field D=-1 --Y 2000000 --H 1", code=3, peak_kib=153600),
    # 100 scales of radius 3000 pass the box budget one by one, not the scale-list budget
    Row("sum-singular --field D=-1 --H " + ",".join(["1500"] * 100) + " --cutoff 1000",
        id="sum-singular --field D=-1 --H 1500 x100 --cutoff 1000", code=3, peak_kib=153600),
    # the two ideals of norm 5 give two equal rows
    Row("diagnose dual-count --field D=-1 --Y 5",
        stdout="db6caa65041798b7b5a4fe6587f98e7b0e39ec3bf75d08c1e6cb55996f90425f",
        has=("D=-1,5,1,20,4", "D=-1,5,1,20,4")),
    Row("diagnose smooth-count --field D=-1 --Y 30 --H 50",
        stdout="9bc9663fa399e3d0dfc280395ce86d06c098466c2cd035c616096a62ce8b5fa3",
        has=("D=-1,9,50,4446.2224,4,4444.44444444",)),
    # the lattice walks and the Ramanujan sums behind the identity checks
    Row("diagnose smooth-count --field D=-1 --Y 2000 --H 50",
        stdout="29345489afed8659ab78130fc0dfe488e9bd8a700683a349de87db64471aa94d"),
    Row("diagnose smooth-count --field D=-3 --Y 1000 --H 7.5",
        stdout="5842115f1f61514282d0cc91475ed3894466c2fbb5af888bdb2cc3a5d418de2c"),
    # one walk sums every ideal's count: here one lattice over about 11 chunks and 54
    # small ones, under 10% over the 49,300 KiB of the walks one ideal at a time
    Row("diagnose smooth-count --field D=-1 --Y 100 --H 300", peak_kib=54230,
        stdout="b9e11280a1ede667917ef53aea18c43c426438748b81bf1f2e931261aa6b7bb2"),
    Row("diagnose smooth-count --field D=10 --Y 3000 --H 3.5",
        stdout="7915825c7a46c6cc93db1d40d002468c2b981e9a6ce40fe91b6aa79516294008"),
    Row("diagnose smooth-count --field D=-1 --Y 20000 --H 1",
        stdout="1a24aec22e7faf17dd75bf87509784e8a09f80e50422d626cf242115f0fd1eef"),
    # the point budget holds for each lattice: the unit lattice alone crosses it
    Row("diagnose smooth-count --field D=-1 --Y 1 --H 1200", code=3),
    Row("diagnose dual-count --field D=-1 --Y 300",
        stdout="70eaa75a6f22942c25f138d727123713f5a1c08e4ebdfc443dc3c17617c2704c"),
    Row("diagnose dual-count --field D=10 --Y 200",
        stdout="36d55b3bf05ce14e9aaf69409e2bc1168cb8c44e108073392de45cc5f4c63fa5"),
    Row("diagnose condensation --field D=5 --Y 200",
        stdout="790020ef1f3085987f0f5ebb0ec049a17928fe7dd514ec047d88004be232c49f"),
    Row("sum-singular --field D=-1 --H 32 --w disc --cutoff 1000",
        stdout="3eea1679f430280c477efdd29bc8b22cdf8389a9a9d87c4a3a03c596ccc95e28"),
    Row("sum-singular --field D=-1 --H 64 --w disc --cutoff 100000",
        stdout="c91120400da754f7e6fdca5771d040abfafc57a6d15f893d16036878026f223a",
        has=(",-23.389162634,",)),
    Row("sum-singular --field D=10 --H 64 --w square --cutoff 100000",
        stdout="168af46eeda15e8d4335c83a9cad5276cd801bec064f8e8a9063f4f263ef4a86",
        has=(",-33.5115737866,",)),
    # both weights in one process print the same sums: the second call of each field is
    # unfolded from the region the first one sieved (D=-1 at its radius, D=10 at a smaller one)
    Row("sum-singular --field D=-1 --H 64 --w square --cutoff 100000",
        "sum-singular --field D=-1 --H 32,64 --w disc --cutoff 100000",
        "sum-singular --field D=10 --H 128 --w disc --cutoff 100000",
        "sum-singular --field D=10 --H 64 --w square --cutoff 100000",
        id="sum-singular, four calls sharing the box cache", one_process=True,
        stdout="6b50efaa52f79e7394d6299b11d3f232e327f2cd245e14b3e08414146f48d399",
        has=(",-23.389162634,", ",-33.5115737866,")),
    # criterion 5's disc sums keep one sieved quadrant and weigh and sum a few box rows at a
    # time, with no array of the box
    Row("sum-singular --field D=-1 --H 32,64,128,256,512 --w disc --cutoff 1000000"
        " --out crit5.csv", peak_kib=102400, files={
        "crit5.csv": "90107c43a677c635e4064461ef36866868578b2e08877ea1f3b479c6d5d6c665",
        "crit5.csv.meta.json": "11ed037b1e00b4ed0a7fb6f437975490e383991e4ad51a4273da2a0a43b720de"},
        has=(",-33.4957645634,",)),
    Row("primes grid --field D=-1 --extent 60 --out grid.bin",
        "primes count --field D=-1 --grid grid.bin --center 11,0 --H 7.5",
        id="primes grid D=-1 extent 60, count from its file", x86_64=True,
        stdout="ab410d70287f26654c9e103c606d0879875abb7cd51534dac8e673cf23f222d3", files={
        "grid.bin": "9c37c6ccac91d5ee3df7acfeffacb5fdc540ea5c4524705bbe2bc06b90a9374c",
        "grid.bin.meta.json": "1e4e797203ad1ded21278458edacd5234cfc6535e30488599bff0299545d9cf4"},
        has=("D=-1,11,0,7.5,56",)),
    Row("primes count --field D=-1 --center 11,0 --H 2.9999999999999996 --extent 20",
        stdout="86151900fb2548066d4ce8b1b64c0bfb25b0845f2b9e0977bb77150558f94768",
        has=("D=-1,11,0,3,5",)),
    # criterion 6's D=10 rows build a grid of two tables, its weight the model, and sum V's
    # squares a few center rows at a time, with no array of the centers
    Row("variance --field D=10 --X 1000 --out v.csv", peak_kib=204800, x86_64=True, files={
        "v.csv": "9984892297bc627cd132c48bd910245a0b26dcc8e5dffa51454551ba709e01c4",
        "v.csv.meta.json": "069ef4171d7ddcf773b248ca62db29d361ff3e3de133c6c130389f1e2aec0076"},
        has=(",16535.2331542,",)),
    # X = 2000: 16M centers
    Row("variance --field D=-3 --X 2000 --out v2k.csv", peak_kib=665600, x86_64=True, files={
        "v2k.csv": "f8074de0d4c282a7539c5126b28d5cb8bc0ab71ab6f424d9bbdd86fe4be4d7ab",
        "v2k.csv.meta.json": "4ef5c30c099879865f133ccdb4782289adcdf1776a4b83caae78522061dabda1"},
        has=(",20631.8446249,",)),
    # the residue budget refuses before the grid's norm sieve is built
    Row("variance --field D=-150001 --X 60", code=3, peak_kib=153600),
    Row("variance --field D=-3 --X 20 --deltas 0.5", x86_64=True,
        stdout="6237e358cba9036932e33bf17f29d91cd96818dcf6c6bde74f07dd64684e1554"),
    Row("variance --field D=-3 --X 20 --deltas 0.5 --sampler jitter", x86_64=True,
        stdout="bc85f3e7456a5d3be304575723ff1f6ba1a64212299ad54ec72904827cff3502",
        has=(",3.2446448875,",)),
    Row("variance --field D=10 --X 60 --deltas 0.3,0.9", x86_64=True,
        stdout="8ffd9d08182df423c56986f65a7880505e15885cadb851feabe96294c7ca7d99",
        has=(",366.512582962,",)),
    # V has one expected-count model: the old switch is a usage error
    Row("variance --field D=-1 --X 8 --density second-order", code=2),
    # the strips run on every CPU, or on one worker when pinned: same bytes
    Row("variance --field D=10 --X 60 --deltas 0.3,0.9 --out a.csv", x86_64=True, files={
        "a.csv": "8ffd9d08182df423c56986f65a7880505e15885cadb851feabe96294c7ca7d99",
        "a.csv.meta.json": "399c68869d5e06dcf30019e2b128a52bfb92c983997453e45172e0798d0b7c44"},
        has=(",366.512582962,",)),
    Row("variance --field D=10 --X 60 --deltas 0.3,0.9 --out a.csv",
        id="variance --field D=10 --X 60 --deltas 0.3,0.9 --out a.csv on one CPU",
        one_cpu=True, x86_64=True, files={
            "a.csv": "8ffd9d08182df423c56986f65a7880505e15885cadb851feabe96294c7ca7d99",
            "a.csv.meta.json": "399c68869d5e06dcf30019e2b128a52bfb92c983997453e45172e0798d0b7c44"},
        has=(",366.512582962,",)),
    Row("sstar --field D=-7 --eta 6,4 --cutoff 100000",
        stdout="467a2dcdc7a2bf6b7c62314818632e9d198b5c8df752ba850cdd17f8c489b3e5",
        has=(",3.87205026341,",)),
    Row("sstar --field D=17 --eta 2,0 --cutoff 100000",
        stdout="ec878939ca70bca6403777f01a1a16416020314580e6ccde85c0e5a6668d3e27",
        has=(",3.81164461282,",)),
    Row("sstar --field D=-3 --eta 2,0 --cutoff 100000",
        stdout="7b6c70778a3c3a8575ae59d6b471665ca73d3bea4270ee9524ea68e1ed0748d6",
        has=(",0.91678919202,",)),
    # |d| = 100003 exceeds the 9592 primes up to 10^5: (d|p) by Euler's criterion, not the period
    Row("sstar --field D=-100003 --eta 2,0 --cutoff 100000",
        stdout="ea53e73a1802a4e8a482ceb970fdb8e599ec17bfcb8534c4a13de1243fce9c2c",
        has=(",1.26075541332,",)),
    Row("montgomery --Hmax 131072",
        stdout="4935ef6e17c7d077cd07fdc21ad227440e298bac64c1b42330f6e460edfb23d9",
        has=("131072,-6.04673102827",)),
    # a delta range whose step points away from hi is empty: a usage error, not an empty table
    Row("variance-z --X 1000 --deltas 0.9:0.1:0.1", code=2),
]
ROW = {row.id: row for row in ROWS}


def skip_reason(row):
    """Why `row` cannot hold on this machine, or None."""
    return X86_64_REASON if row.x86_64 and not X86_64 else None


def in_child(row, entry_point=False):
    """Whether `row` runs in a child process of its own."""
    return bool(row.peak_kib or row.one_cpu or entry_point and row.one_process)


def _in_process(lines, cwd):
    from quadprimes import cli

    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            codes = [cli.main(line.split()) for line in lines]
    finally:
        os.chdir(home)
    return codes, out.getvalue().encode(), err.getvalue().encode(), None


def _in_child(row, cwd, entry_point):
    env = None
    if not entry_point:  # the package this process imports
        from quadprimes import cli

        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
    code = ONE_CPU + CHILD if row.one_cpu else CHILD
    child = subprocess.run([sys.executable, "-c", code, *row.lines], cwd=cwd, env=env,
                           capture_output=True)
    if child.returncode:  # a traceback: the child printed no codes
        return [child.returncode], child.stdout, child.stderr, None
    head, sep, last = child.stdout[:-1].rpartition(b"\n")
    *codes, peak = map(int, last.split())
    return codes, head + sep, child.stderr, peak


def _run(row, entry_point):
    """Run `row` in a fresh directory: its exit codes, stdout, stderr, peak
    RSS in KiB (None unless a child reported it) and the bytes of each file
    it left, by name."""
    with tempfile.TemporaryDirectory() as cwd:
        if in_child(row, entry_point):
            codes, out, err, peak = _in_child(row, cwd, entry_point)
        elif entry_point:
            runs = [subprocess.run(["quadprimes", *line.split()], cwd=cwd, capture_output=True)
                    for line in row.lines]
            codes, peak = [r.returncode for r in runs], None
            out, err = b"".join(r.stdout for r in runs), b"".join(r.stderr for r in runs)
        else:
            codes, out, err, peak = _in_process(row.lines, cwd)
        files = {}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name), "rb") as f:
                files[name] = f.read()
    return codes, out, err, peak, files


def failures(row, entry_point=False) -> list[str]:
    """What `row` gives that its pins do not, one line each: empty when it passes."""
    codes, out, err, peak, files = _run(row, entry_point)
    found = []
    if codes != [row.code] * len(row.lines):
        found.append(f"exit codes {codes}, want {row.code}; stderr {err[-300:]!r}")
    if row.code and [e[:6] for e in err.splitlines()] != [b"error:"] * len(row.lines):
        found.append(f"stderr is not one error: line per command: {err[:200]!r}")
    if hashlib.sha256(out).hexdigest() != row.stdout:
        found.append(f"stdout sha256 {hashlib.sha256(out).hexdigest()}, want {row.stdout}")
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    for name in sorted(set(digests) | set(row.files)):
        if digests.get(name) != row.files.get(name):
            found.append(f"{name} sha256 {digests.get(name)}, want {row.files.get(name)}")
    blob = out + b"".join(files.values())
    found += [f"{s!r} occurs {blob.count(s.encode())} times, want {row.has.count(s)}"
              for s in dict.fromkeys(row.has) if blob.count(s.encode()) < row.has.count(s)]
    if row.peak_kib and (peak is None or peak >= row.peak_kib):
        found.append(f"peak RSS (VmHWM) {peak} KiB, bound {row.peak_kib} KiB")
    return found


def main() -> int:
    failed = 0
    for row in ROWS:
        if skip_reason(row):
            print(f"skip {row.id}: {skip_reason(row)}")
            continue
        found = failures(row, entry_point=True)
        failed += bool(found)
        print(f"{'FAIL' if found else 'ok  '} {row.id}", *(f"\n     {f}" for f in found), sep="")
    print(f"{len(ROWS)} rows, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
