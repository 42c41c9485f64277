"""Record the CLI contract outputs of the gridfourier on PYTHONPATH, or compare two records.

Usage:  python tools/cli_snapshot.py OUTDIR
        python tools/cli_snapshot.py --compare A B

Runs a fixed list of contract argvs, each as ``python -m gridfourier``
in a fresh interpreter, and writes for argv number k the files
``k.argv``, ``k.stdout``, ``k.stderr`` and ``k.exit`` into OUTDIR.  Two
trees are byte-identical on the contract when ``diff -r`` finds nothing
between their snapshots.

``--compare A B`` reads two such directories and prints one line per
argv, saying whether its exit code, stderr and stdout match.  Where a
``verify`` stdout differs and both sides are JSON reports, it then prints
each (check, field) that moved with its value in A and in B.  Where any
other stdout differs and both sides are CSV tables with the same header
and row count, it prints each moved column with its count of moved rows
and its largest absolute and relative change, and otherwise says which
of the two differs.  It exits 0 when every file matches and 1 otherwise.
"""

import csv
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

_ORDERS = ",".join(str(N) for N in range(1, 65))
_SHORT_ORDERS = ",".join(str(N) for N in range(1, 17))
_TERM_NAMES = (*(f"cos:{k}" for k in range(1, 6)), *(f"trig:{k}" for k in range(-4, 5)), "expcos")


def _random_verify_argvs(count: int, seed: int) -> list[list[str]]:
    """``count`` verify argvs with random combos, grid sizes, mode limit and seed.

    Each draws, in this order: 1-3 functions, each a combo of 1-3 terms
    ``c*name`` with c uniform in [-2, 2] rounded to 3 places; then 1-4 grid
    sizes in 1 .. 700, a mode limit in 2 .. 40 and a seed in 0 .. 2^40.
    """
    rng = random.Random(seed)
    argvs = []
    for _ in range(count):
        functions = [
            "combo:" + "+".join(f"{round(rng.uniform(-2, 2), 3)}*{rng.choice(_TERM_NAMES)}"
                                for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        grid_sizes = [rng.randint(1, 700) for _ in range(rng.randint(1, 4))]
        argvs.append(["verify", "--functions", ",".join(functions),
                      "--grid-sizes", ",".join(map(str, grid_sizes)),
                      "--mode-limit", str(rng.randint(2, 40)), "--seed", str(rng.randint(0, 2**40))])
    return argvs


ARGVS = (
    ["verify"],
    ["verify", "--seed", "7", "--functions", "cos:1,expcos,combo:0.731*trig:0+1.9*cos:2",
     "--grid-sizes", "3,5,64,100"],
    ["verify", "--seed", "7", "--functions", "cos:1,expcos,combo:0.731*trig:0+1.9*cos:2",
     "--grid-sizes", "3,5,64,100", "--epsilons", "0.5,0.05"],
    ["verify", "--tolerance", "dft_identity_2=1e-30"],
    ["verify", "--functions", "combo:-1.5*expcos+0.25*trig:3,cos:7", "--grid-sizes", "3,9,50,333"],
    ["converge", "--function", "expcos", "--N", _ORDERS],
    ["converge", "--function", "combo:0.7*trig:0+1.3*cos:2", "--N", _ORDERS],
    ["spectrum", "--function", "expcos", "--n", "4096"],
    ["spectrum", "--function", "combo:1e308*cos:1+1e308*cos:1", "--n", "4"],
    ["rescale-demo", "--a", "0", "--b", "3", "--function", "exp-cos-period", "--N", "8"],
    ["rescale-demo", "--a=-1.234", "--b", "2.5", "--function", "cos-period", "--N", "64"],
    ["converge", "--function", "combo:-0.5*trig:-3+2*expcos", "--N", _SHORT_ORDERS],
    ["spectrum", "--function", "combo:0.5*trig:0+-0.5*cos:2", "--n", "64"],
    ["verify", "--functions", "combo:0.5*trig:0+-0.5*cos:2,trig:-2", "--grid-sizes", "4,16"],
    # refused inputs: one argv per distinct error message
    ["verify", "--grid-sizes", "4,x"],
    ["verify", "--grid-sizes", ","],
    ["verify", "--epsilons", "0"],
    ["verify", "--tolerance", "ftc"],
    ["verify", "--tolerance", "nosuch=1"],
    ["verify", "--functions", "nosuch"],
    ["verify", "--mode-limit", "1"],
    ["verify", "--seed", "-1"],
    ["verify", "--format", "xml"],
    ["converge", "--function", "cos:1", "--N", "3,2"],
    ["converge", "--function", "cos:1", "--samples", "1"],
    ["converge", "--function", "combo:nan*cos:1", "--N", "1"],
    ["spectrum", "--function", "cos:1", "--n", "0"],
    ["spectrum", "--function", "trig:2000000"],
    ["rescale-demo", "--a", "0", "--b", "0"],
    ["rescale-demo", "--a", "0", "--b", "5e-324"],
    ["rescale-demo", "--a", "0", "--b", "1", "--function", "nosuch"],
    # the largest converge table admitted at 3 points (N = 699050 is the
    # largest N whose 3 x (2N+1) phase cells fit in 2^22), and the first
    # one refused before allocating
    ["converge", "--function", "cos:1", "--samples", "2", "--N", "1,1000,100000,699050"],
    ["converge", "--function", "cos:1", "--samples", "2", "--N", "699051"],
    # the alias fold over each function's support: modes near the 10^6 cap,
    # and the union of expcos's modes |m| <= 32 with the mode 100
    ["verify", "--functions", "trig:100000,trig:1000000,trig:-999999,cos:1000000"],
    ["verify", "--functions", "combo:1*expcos+1*trig:100"],
    # a symbol sweep whose largest size is above its default range, and the
    # two-point grid, where the derivative at the left end reads both values
    ["verify", "--grid-sizes", "1,2,513,1000"],
    # a sweep whose sizes past 512 fill several blocks, a sup-error table of
    # 3 modes, and a point count that leaves the last column chunk part full
    ["verify", "--grid-sizes", "5,777,4096"],
    ["verify", "--mode-limit", "3"],
    ["converge", "--function", "expcos", "--samples", "1000", "--N", "1,7,64"],
    # spectrum tables of one row, of the largest admitted size, and of
    # 1533 = 3 x 511 rows, which end on a boundary of the writer's chunks
    ["spectrum", "--function", "cos:1", "--n", "1"],
    ["spectrum", "--function", "expcos", "--n", "65536"],
    ["spectrum", "--function", "expcos", "--n", "767"],
    # one symbol-sweep size of 65537 pairs, spread over 33 blocks
    ["verify", "--functions", "cos:1", "--grid-sizes", "65536"],
    # the largest rescale table admitted: 257 points over 257 column chunks
    # of 1 point each
    ["rescale-demo", "--a", "0", "--b", "3", "--function", "exp-cos-period", "--N", "8159"],
    # the argv form of the benchmark's rescale-quadrature ops
    ["rescale-demo", "--function", "exp-cos-period", "--N", "64", "--a=-0.75", "--b=2.125"],
    # engine configs: a sweep of five sizes, then 40 random suites
    ["verify", "--grid-sizes", "3,5,64,100,1000", "--seed", "7"],
    *_random_verify_argvs(40, seed=21),
    # refused configs whose messages no argv above pins: no function names,
    # and a tolerance override that is not > 0
    ["verify", "--functions", ","],
    ["verify", "--tolerance", "ftc=-1"],
    # a Simpson sum of |f''| that passes the largest float unless its terms
    # are scaled first, though M = 4*pi*1e304 does not
    ["verify", "--functions", "combo:1e304*cos:1"],
    # large constants, whose transform rounds the vanishing modes m != 0 to
    # the scale of the constant, and a tiny H over a huge constant
    ["verify", "--functions", "combo:10000*trig:0", "--grid-sizes", "3,100,333,1000"],
    ["verify", "--functions", "combo:1e5*trig:0", "--grid-sizes", "5"],
    ["verify", "--functions", "combo:9.316692462759197e+19*trig:0", "--grid-sizes", "5"],
    ["verify", "--functions",
     "combo:8.195055023835682e-121*cos:222142+1.0755043539175863e+266*trig:0", "--grid-sizes", "7"],
    # open false fails: alias_oracle from the mode 3488 on, and the sampled
    # decay constants of cos:k at n = k (decay_H and g2_bound, then F_bound)
    ["verify", "--functions", "trig:3488"],
    ["verify", "--functions", "cos:1024", "--grid-sizes", "1024"],
    ["verify", "--functions", "cos:2048", "--grid-sizes", "2048"],
    # refused ranges, finiteness and sizes whose library messages no argv
    # above pins: a grid size below and above [1, 65536], a non-finite epsilon
    # and tolerance, a truncation order of 0, and a rescale order below 0 and
    # one above the phase-cell limit
    ["verify", "--grid-sizes", "0"],
    ["verify", "--grid-sizes", "65537"],
    ["verify", "--epsilons", "inf"],
    ["verify", "--tolerance", "ftc=inf"],
    ["converge", "--function", "cos:1", "--N", "0"],
    ["rescale-demo", "--a", "0", "--b", "1", "--N", "-1"],
    ["rescale-demo", "--a", "0", "--b", "1", "--N", "8160"],
    # a verify whose tail checks are all vacuous, and one whose tail grids
    # are also grid sizes of the suite
    ["verify", "--epsilons", "1e-300"],
    ["verify", "--grid-sizes", "4,16,64,256,4096"],
    # two names that sample to the same bits, so every worst case on a catalog
    # cell ties across the two cells and goes to the first one named
    ["verify", "--functions", "cos:1,combo:1*cos:1"],
    ["verify", "--functions", "combo:1*cos:1,cos:1"],
    # 100000 exact coefficients of expcos, nearly all of orders whose Bessel
    # series never starts
    ["converge", "--function", "expcos", "--samples", "2", "--N", "100000"],
    # two epsilons that share one tail grid off the grid sizes, and a suite
    # whose grid sizes hold neither tail grid
    ["verify", "--epsilons", "0.01,0.02"],
    ["verify", "--grid-sizes", "3,100", "--epsilons", "0.1,0.01"],
    # a largest order whose 4097 phase cells per point pass the 2^12 of a
    # column chunk, so that each chunk holds the 1 point it must
    ["converge", "--function", "expcos", "--samples", "64", "--N", "4094,4095,4096"],
    # the largest grid, where dft_identity_2 fails on the FFT's rounding of
    # the second difference, and a one-point grid, where the limit checks
    # fail their fixed budget (ROADMAP items 6 and 10); both exit 1
    ["verify", "--grid-sizes", "65536", "--seed", "9"],
    ["verify", "--grid-sizes", "1"],
)


def _moved_fields(old: bytes, new: bytes) -> list[str]:
    """Lines ``check.field: old -> new`` for each report field that differs, in check order."""
    try:
        reports = [{r["check_name"]: r for r in json.loads(side)["reports"]} for side in (old, new)]
    except (ValueError, KeyError, TypeError):
        return ["  stdout is not a verify JSON report on both sides"]
    lines = []
    for check in dict.fromkeys([*reports[0], *reports[1]]):
        a, b = (side.get(check, {}) for side in reports)
        for field in dict.fromkeys([*a, *b]):
            if a.get(field) != b.get(field):
                lines.append(f"  {check}.{field}: {json.dumps(a.get(field))} -> "
                             f"{json.dumps(b.get(field))}")
    return lines


def _moved_columns(old: bytes, new: bytes) -> list[str]:
    """Lines ``column: k of n rows moved, ...`` for each CSV column that differs, in header order."""
    (head_a, *rows_a), (head_b, *rows_b) = (
        list(csv.reader(io.StringIO(side.decode()))) or [[]] for side in (old, new)
    )
    if head_a != head_b:
        return [f"  CSV headers differ: {','.join(head_a)!r} -> {','.join(head_b)!r}"]
    if len(rows_a) != len(rows_b):
        return [f"  CSV row counts differ: {len(rows_a)} -> {len(rows_b)}"]
    lines = []
    for j, column in enumerate(head_a):
        moved = [(a[j], b[j]) for a, b in zip(rows_a, rows_b) if a[j] != b[j]]
        if not moved:
            continue
        line = f"  {column}: {len(moved)} of {len(rows_a)} rows moved"
        try:
            changes = [(abs(float(y) - float(x)), abs(float(x))) for x, y in moved]
        except ValueError:
            lines.append(line + ", not all of them numbers")
            continue
        largest = max(change for change, _ in changes)
        relative = max(change / size if size else math.inf for change, size in changes)
        lines.append(f"{line}, largest change {largest:.6g}, largest relative change {relative:.6g}")
    return lines


def compare(a: Path, b: Path) -> int:
    """Print per argv whether A and B match; 0 when all match, else 1."""
    differs = False
    for argv_file in sorted(a.glob("*.argv")):
        k = argv_file.stem
        same = {
            part: (a / f"{k}.{part}").read_bytes() == (b / f"{k}.{part}").read_bytes()
            for part in ("argv", "exit", "stderr", "stdout")
        }
        differs |= not all(same.values())
        marks = ", ".join(f"{part} {'same' if ok else 'DIFFERS'}" for part, ok in same.items())
        print(f"{k} {argv_file.read_text().strip()}: {marks}")
        if not same["stdout"]:
            moved = _moved_fields if argv_file.read_text().startswith("verify") else _moved_columns
            for line in moved((a / f"{k}.stdout").read_bytes(), (b / f"{k}.stdout").read_bytes()):
                print(line)
    return 1 if differs else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    for k, args in enumerate(ARGVS):
        proc = subprocess.run(
            [sys.executable, "-m", "gridfourier", *args], capture_output=True, check=False
        )
        (outdir / f"{k:02d}.argv").write_text(" ".join(args) + "\n")
        (outdir / f"{k:02d}.stdout").write_bytes(proc.stdout)
        (outdir / f"{k:02d}.stderr").write_bytes(proc.stderr)
        (outdir / f"{k:02d}.exit").write_text(f"{proc.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
