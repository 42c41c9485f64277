import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gridfourier import cli, continuous_fourier, verification
from gridfourier.cli import main
from gridfourier.continuous_fourier import rescale
from gridfourier.discrete_fourier import discrete_coefficients
from gridfourier.functions import bound_constants, get_function
from gridfourier.grid import build_grid, sample
from gridfourier.verification import SuiteConfig, run_spectrum_decay

SMALL_VERIFY = [
    "verify",
    "--functions", "cos:1",
    "--grid-sizes", "4",
    "--mode-limit", "3",
    "--epsilons", "0.5",
    "--seed", "7",
]

REPORT_FIELDS = ["check_name", "status", "worst_residual", "worst_location", "tolerance_used"]
LOCATION_FIELDS = ["function", "n", "m", "x"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_small_config(capsys):
    code, out, _ = run_cli(SMALL_VERIFY, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    reports = payload["reports"]
    assert len(reports) == 16
    for report in reports:
        assert list(report) == REPORT_FIELDS
        assert list(report["worst_location"]) == LOCATION_FIELDS
        assert report["status"] == "pass"


def test_verify_scales_checks_against_continuum_values(capsys):
    # alias_oracle, coeff_convergence and integral_darboux divide by
    # max(1, max|f|), so a large but accurate function passes them
    code, out, _ = run_cli(["verify", "--functions", "combo:1e300*cos:1"], capsys)
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["status"] for r in reports] == ["pass"] * 16


def test_verify_tiny_epsilon_makes_tail_check_vacuous(capsys):
    # 2H/eps overflows to inf; math.floor(inf) used to raise OverflowError
    # and exit 1, the code of a verification failure
    code, out, _ = run_cli(["verify", "--epsilons", "5e-324"], capsys)
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["status"] for r in reports] == ["pass"] * 16


def test_verify_rejects_mode_limit_below_every_m_test_order(capsys):
    # m_test_domination used to pass with residual 0.0 and no location
    code, out, err = run_cli(["verify", "--mode-limit", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "mode_limit" in err


def test_verify_defaults_are_the_suite_defaults(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_lemma_suite", lambda cfg: seen.append(cfg) or [])
    code, _, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert seen == [SuiteConfig()]


def test_verify_rejects_zero_grid_size(capsys):
    code, _, err = run_cli(["verify", "--grid-sizes", "0"], capsys)
    assert code == 2
    assert "0" in err


def test_verify_rejects_unknown_function(capsys):
    code, _, err = run_cli(SMALL_VERIFY[:2] + ["nosuch"] + SMALL_VERIFY[3:], capsys)
    assert code == 2
    assert "nosuch" in err


def test_verify_rejects_bad_format(capsys):
    code, _, _ = run_cli(SMALL_VERIFY + ["--format", "xml"], capsys)
    assert code == 2


def test_verify_rejects_bad_tolerance(capsys):
    code, _, _ = run_cli(SMALL_VERIFY + ["--tolerance", "dft_identity_2"], capsys)
    assert code == 2
    code, _, _ = run_cli(SMALL_VERIFY + ["--tolerance", "nosuch=1e-3"], capsys)
    assert code == 2
    code, _, _ = run_cli(SMALL_VERIFY + ["--tolerance", "ftc=-1"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "flag, value, bad",
    [
        ("--tolerance", "ftc=nan", "nan"),
        ("--tolerance", "ftc=inf", "inf"),
        ("--epsilons", "nan", "nan"),
        ("--epsilons", "0.1,inf", "inf"),
    ],
)
def test_verify_rejects_non_finite_numbers(capsys, flag, value, bad):
    # nan used to be reported as a failed check and inf made a check vacuous
    what = {"--tolerance": "tolerance override for ftc", "--epsilons": "epsilon"}[flag]
    code, out, err = run_cli(SMALL_VERIFY + [flag, value], capsys)
    assert (code, out, err) == (2, "", f"error: invalid {what}: {bad} (must be finite and > 0)\n")


@pytest.mark.parametrize("weight", ["nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--grid-sizes", "4", "--mode-limit", "3", "--functions"],
        ["converge", "--N", "1,2", "--samples", "64", "--function"],
        ["spectrum", "--n", "8", "--function"],
    ],
    ids=["verify", "converge", "spectrum"],
)
def test_non_finite_function_weight_is_usage_error(capsys, command, weight):
    # converge and spectrum used to print nan rows with exit 0
    name = f"combo:{weight}*cos:1"
    code, out, err = run_cli(command + [name], capsys)
    assert code == 2
    assert out == ""
    assert name in err


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--grid-sizes", "4", "--mode-limit", "3", "--functions"],
        ["converge", "--N", "1,2", "--samples", "64", "--function"],
        ["spectrum", "--n", "4", "--function"],
    ],
    ids=["verify", "converge", "spectrum"],
)
def test_non_finite_function_values_are_usage_error(capsys, command):
    # finite weights whose sum overflows: spectrum printed nan rows with
    # exit 0 and verify failed with "cannot convert float NaN to integer"
    # and printed RuntimeWarnings first
    name = "combo:1e308*cos:1+1e308*cos:1"
    code, out, err = run_cli(command + [name], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "combo:1e+308*cos:1+1e+308*cos:1" in err


def test_verify_forced_failure(capsys):
    code, out, _ = run_cli(SMALL_VERIFY + ["--tolerance", "dft_identity_2=1e-30"], capsys)
    assert code == 1
    failing = [r for r in json.loads(out)["reports"] if r["status"] == "fail"]
    assert [r["check_name"] for r in failing] == ["dft_identity_2"]


def test_verify_byte_identical_reruns(capsys):
    # every subcommand, not only verify, promises byte-identical reruns
    for argv in (
        SMALL_VERIFY,
        ["converge", "--function", "expcos", "--N", "1,2,4,8", "--samples", "256"],
        ["spectrum", "--function", "combo:0.7*trig:0+1.3*cos:2", "--n", "16"],
        ["rescale-demo", "--a=-1.234", "--b=2.5", "--function", "exp-cos-period", "--N", "8"],
    ):
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first, argv
        assert first == second, argv


def test_verify_worker_count_does_not_change_output(capsys, monkeypatch):
    monkeypatch.setenv("FOURIER_WORKERS", "1")
    _, serial, _ = run_cli(SMALL_VERIFY, capsys)
    monkeypatch.setenv("FOURIER_WORKERS", "4")
    _, threaded, _ = run_cli(SMALL_VERIFY, capsys)
    assert serial == threaded


@pytest.mark.parametrize("bad", ["abc", "0", "-2"])
def test_invalid_worker_env(capsys, monkeypatch, bad):
    monkeypatch.setenv("FOURIER_WORKERS", bad)
    code, _, err = run_cli(SMALL_VERIFY, capsys)
    assert code == 2
    assert "FOURIER_WORKERS" in err


@pytest.mark.parametrize(
    "flags, workers, message",
    [
        (["--grid-sizes", "4,x", "--mode-limit", "1"], "0",
         "error: --grid-sizes: not an integer: 'x'\n"),
        (["--mode-limit", "1"], "0", "error: FOURIER_WORKERS must be >= 1, got 0\n"),
        (["--mode-limit", "1"], None, "error: mode_limit must be >= 2, got 1\n"),
        (["--functions", "nosuch", "--seed", "-1"], None,
         "error: seed must be nonnegative, got -1\n"),
    ],
    ids=["flag-before-env", "env-before-config", "config", "config-before-function-names"],
)
def test_verify_reports_flag_then_env_then_config_errors(capsys, monkeypatch, flags, workers,
                                                         message):
    if workers is None:
        monkeypatch.delenv("FOURIER_WORKERS", raising=False)
    else:
        monkeypatch.setenv("FOURIER_WORKERS", workers)
    code, out, err = run_cli(["verify", *flags], capsys)
    assert (code, out, err) == (2, "", message)


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(SMALL_VERIFY + ["--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert json.loads(raw)["schema"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        SMALL_VERIFY,
        ["converge", "--function", "cos:1", "--N", "1,2"],
        ["spectrum", "--function", "cos:1", "--n", "4"],
        ["rescale-demo", "--a", "0", "--b", "1", "--N", "2"],
    ],
)
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv, target):
    out_path = tmp_path if target == "directory" else tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out: ")
    assert err.count("\n") == 1


def test_verify_folds_high_degree_polynomials_up_to_their_degree(capsys):
    functions = "trig:33,cos:40,trig:341,trig:-341,cos:1000,combo:0.5*trig:40+2*cos:100"
    code, out, _ = run_cli(["verify", "--functions", functions], capsys)
    reports = json.loads(out)["reports"]
    assert code == 0
    assert len(reports) == 16
    assert all(r["status"] == "pass" for r in reports)


def test_verify_folds_a_combo_of_expcos_and_a_high_mode(capsys):
    # the fold reads the union of expcos's modes |m| <= 32 and the mode 100
    code, out, _ = run_cli(["verify", "--functions", "combo:1*expcos+1*trig:100"], capsys)
    reports = json.loads(out)["reports"]
    assert code == 0
    assert len(reports) == 16
    assert all(r["status"] == "pass" for r in reports)


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("args", [
    ["--functions", "combo:10000*trig:0", "--grid-sizes", "3,100,333,1000"],
    ["--functions", "combo:1e5*trig:0", "--grid-sizes", "5"],
    ["--functions", "combo:9.316692462759197e+19*trig:0", "--grid-sizes", "5"],
    ["--functions", "combo:8.195055023835682e-121*cos:222142+1.0755043539175863e+266*trig:0",
     "--grid-sizes", "7"],
], ids=["1e4-constant", "1e5-constant", "9.3e19-constant", "tiny-H-over-a-huge-constant"])
def test_verify_reads_large_constants_against_their_rounding(capsys, args):
    # the transform's rounding of a large constant is budgeted by its own scale,
    # and a tiny H neither overflows the decay ratio nor warns
    code, out, err = run_cli(["verify", *args], capsys)
    reports = json.loads(out, parse_constant=_refuse_constant)["reports"]
    assert (code, err) == (0, "")
    assert [r["status"] for r in reports] == ["pass"] * 16


def test_converge_trig(capsys):
    code, out, _ = run_cli(
        ["converge", "--function", "trig:2", "--N", "1,2,3", "--samples", "256"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,sup_error,m_test_bound"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert float(rows[0][1]) > 0.5
    assert float(rows[1][1]) <= 1e-11
    assert float(rows[2][1]) <= 1e-11


def test_converge_expcos_dominated(capsys):
    code, out, _ = run_cli(
        ["converge", "--function", "expcos", "--N", "2,4,8", "--samples", "256"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    errs = [float(r[1]) for r in rows]
    bounds = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert all(e <= b for e, b in zip(errs, bounds))


def test_converge_validation(capsys):
    assert run_cli(["converge", "--function", "nosuch"], capsys)[0] == 2
    assert run_cli(["converge", "--function", "cos:1", "--N", "3,2"], capsys)[0] == 2
    assert run_cli(["converge", "--function", "cos:1", "--N", "0,1"], capsys)[0] == 2
    assert run_cli(["converge", "--function", "cos:1", "--samples", "1"], capsys)[0] == 2


_OVERSIZED = [
    # (2048 + 1) x (2*1024 + 1) cells, just above the 2**22 limit
    (["converge", "--function", "cos:1", "--N", "1,1024"], "--samples/--N",
     "samples=2048 and N=1024 need a 4198401-cell phase matrix, above the limit of 4194304"),
    (["converge", "--function", "cos:1", "--N", "1,2", "--samples", str(10**12)], "--samples/--N",
     "samples=1000000000000 and N=2 need a 5000000000005-cell phase matrix, "
     "above the limit of 4194304"),
    (["converge", "--function", "cos:1", "--N", str(10**12)], "--samples/--N",
     "samples=2048 and N=1000000000000 need a 4098000000002049-cell phase matrix, "
     "above the limit of 4194304"),
    (["spectrum", "--function", "cos:1", "--n", str(2**16 + 1)], "--n",
     "grid size 65537 outside [1, 65536]"),
    (["spectrum", "--function", "cos:1", "--n", str(10**12)], "--n",
     "grid size 1000000000000 outside [1, 65536]"),
    (["verify", "--grid-sizes", f"4,{2**16 + 1}"], "--grid-sizes",
     "grid size 65537 outside [1, 65536]"),
    (["verify", "--grid-sizes", str(10**12)], "--grid-sizes",
     "grid size 1000000000000 outside [1, 65536]"),
    # 257 x (2*8160 + 1) cells, just above the 2**22 limit
    (["rescale-demo", "--a", "0", "--b", "1", "--N", "8160"], "--N",
     "257 points and N=8160 need a 4194497-cell phase matrix, above the limit of 4194304"),
    (["rescale-demo", "--a", "0", "--b", "1", "--N", str(10**12)], "--N",
     "257 points and N=1000000000000 need a 514000000000257-cell phase matrix, "
     "above the limit of 4194304"),
]


@pytest.mark.parametrize(
    "argv, flag, message", _OVERSIZED,
    ids=[f"argv{k}-{flag}" for k, (_, flag, _) in enumerate(_OVERSIZED)],
)
def test_oversized_tables_are_rejected_before_allocation(argv, flag, message, capsys,
                                                         monkeypatch):
    # flag names the input that sets the table's size; the refusal is the library's
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for module, name in [(continuous_fourier, "_phase_chunks"),
                         (continuous_fourier, "_coefficient_vector"),
                         (verification, "sample"), (verification, "discrete_coefficients"),
                         (cli, "run_lemma_suite")]:
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _demo_reconstruct(N: int):
    scaled = rescale(cli._demo_function("cos-period", 0.0, 1.0), 0.0, 1.0)
    return scaled.reconstruct(N, np.linspace(0.0, 1.0, cli._RESCALE_DEMO_POINTS))


@pytest.mark.parametrize(
    "argv, owner",
    [
        (["verify", "--grid-sizes", "0"], lambda: SuiteConfig(grid_sizes=[0])),
        (["verify", "--grid-sizes", "65537"], lambda: SuiteConfig(grid_sizes=[65537])),
        (["verify", "--epsilons", "0"], lambda: SuiteConfig(epsilons=[0.0])),
        (["verify", "--epsilons", "inf"], lambda: SuiteConfig(epsilons=[math.inf])),
        (["verify", "--tolerance", "ftc=inf"],
         lambda: SuiteConfig(tolerance_overrides={"ftc": math.inf})),
        (["converge", "--function", "cos:1", "--N", "3,2"],
         lambda: verification.run_convergence("cos:1", [3, 2])),
        (["converge", "--function", "cos:1", "--N", "0"],
         lambda: verification.run_convergence("cos:1", [0])),
        (["converge", "--function", "cos:1", "--samples", "1"],
         lambda: verification.run_convergence("cos:1", [1, 2, 4, 8, 16, 32], 1)),
        (["converge", "--function", "cos:1", "--samples", "2", "--N", "699051"],
         lambda: verification.run_convergence("cos:1", [699051], 2)),
        (["spectrum", "--function", "cos:1", "--n", "0"],
         lambda: verification._decay_table("cos:1", 0)),
        (["rescale-demo", "--a", "0", "--b", "1", "--N", "-1"], lambda: _demo_reconstruct(-1)),
        (["rescale-demo", "--a", "0", "--b", "1", "--N", "8160"],
         lambda: _demo_reconstruct(8160)),
    ],
    ids=["grid-size-0", "grid-size-65537", "epsilon-0", "epsilon-inf", "tolerance-inf",
         "N-decreasing", "N-0", "samples-1", "phase-cells", "n-0", "rescale-N--1",
         "rescale-phase-cells"],
)
def test_each_refused_flag_prints_the_message_of_the_library_rule_that_owns_it(
        argv, owner, capsys):
    with pytest.raises(ValueError) as refused:
        owner()
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {refused.value}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--function", "cos:1", "--n", "1"],
        ["spectrum", "--function", "expcos", "--n", "4"],
        ["spectrum", "--function", "expcos", "--n", "4096"],
        ["converge", "--function", "expcos", "--N", "1,2,4,8", "--samples", "256"],
        ["rescale-demo", "--a=-1.234", "--b=2.5", "--function", "exp-cos-period", "--N", "8"],
    ],
    ids=["spectrum-1", "spectrum-4", "spectrum-4096", "converge", "rescale-demo"],
)
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    _, stdout, _ = run_cli(argv, capsys)
    path = tmp_path / "table.csv"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert (code, out, err) == (0, "", "")
    raw = path.read_bytes()
    assert raw == stdout.encode()
    assert b"\r" not in raw


def _row_by_row(header, rows):
    # the per-row formatting that the chunked writer replaces
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "chunks, offset",
    [(0, 0), *((chunks, offset) for chunks in (1, 2, 3) for offset in (-1, 0, 1))],
)
def test_table_writer_chunk_boundaries(capsys, chunks, offset):
    # the rows come as a one-shot iterator; no rows writes the header alone
    count = chunks * cli._CHUNK_ROWS + offset
    rows = [(k - 3, (k - 3) / 7.0, math.ldexp(1.0, k - 1074)) for k in range(count)]
    cli._write_table("k,third,tiny", "%d,%.17g,%.17g\n", iter(rows), None)
    assert capsys.readouterr().out == _row_by_row("k,third,tiny", rows)


@pytest.mark.parametrize(
    "chunks, offset",
    [(2, -1), (1, 0), (3, 0), (2, 1)],
    ids=["one less than 2 chunks", "1 chunk", "3 chunks", "one more than 2 chunks"],
)
def test_spectrum_rows_around_a_chunk_multiple(capsys, chunks, offset):
    # a spectrum table has 2n - 1 rows and the chunk is odd, so a whole table
    # is an odd number of chunks, or an even number plus or minus one row
    count = chunks * cli._CHUNK_ROWS + offset
    n = (count + 1) // 2
    assert 2 * n - 1 == count
    code, out, _ = run_cli(["spectrum", "--function", "expcos", "--n", str(n)], capsys)
    assert code == 0
    assert out == _row_by_row("m,abs_coeff,decay_bound", run_spectrum_decay("expcos", n))
    assert len(out.splitlines()) == 1 + count


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spectrum_rows_with_a_tiny_chunk(capsys, monkeypatch, n):
    # chunks of 3 rows: 5, 7 and 9 rows, and chunks that start at m = 1
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    code, out, _ = run_cli(["spectrum", "--function", "expcos", "--n", str(n)], capsys)
    assert code == 0
    assert out == _row_by_row("m,abs_coeff,decay_bound", run_spectrum_decay("expcos", n))


def test_percent_format_is_format_17g():
    # the writer formats a chunk with one % on "%.17g" repeated
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    values += [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    got = ("%.17g\n" * len(values)) % tuple(values)
    assert got == "".join(format(v, ".17g") + "\n" for v in values)


def test_spectrum_writer_memory_does_not_grow_with_n(monkeypatch):
    # with the spectrum already computed, writing its 131071 rows holds a
    # few chunks, not the table
    n = 2**16
    f = get_function("expcos")
    consts = bound_constants(f)
    spectrum = discrete_coefficients(sample(f, build_grid(n)))
    monkeypatch.setattr(verification, "bound_constants", lambda g: consts)
    monkeypatch.setattr(verification, "sample", lambda g, grid: None)
    monkeypatch.setattr(verification, "discrete_coefficients", lambda gf: spectrum)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["spectrum", "--function", "expcos", "--n", str(n)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


@pytest.mark.parametrize("n, keep", [(65536, 10), (4, 0)], ids=["mid-stream", "before the flush"])
def test_spectrum_reader_closing_early_keeps_exit_0(n, keep):
    # the rows are written in chunks; a reader that stops after 10 bytes, or
    # closes before a small table leaves the output buffer, must not turn into
    # a BrokenPipeError traceback or another exit code
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as by default
    proc = subprocess.Popen(
        [sys.executable, "-m", "gridfourier", "spectrum", "--function", "expcos", "--n", str(n)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head == b"m,abs_coeff"[:keep]
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--function", "expcos", "--n", "4096"],
        ["converge", "--function", "cos:1", "--N", "1,2"],
        SMALL_VERIFY,
    ],
    ids=["spectrum", "converge", "verify"],
)
def test_out_write_error_is_usage_error(capsys, argv):
    # /dev/full opens but refuses every write: for spectrum, in mid-stream
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    code, out, err = run_cli(argv + ["--out", "/dev/full"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--functions", "nosuch"],
        ["converge", "--function", "nosuch"],
        ["spectrum", "--function", "nosuch"],
        ["rescale-demo", "--a", "0", "--b", "1", "--function", "nosuch"],
        ["spectrum", "--function", "combo:1e308*cos:1+1e308*cos:1", "--n", "4"],
    ],
    ids=["verify", "converge", "spectrum", "rescale-demo", "spectrum-overflow"],
)
def test_refused_input_writes_no_out_file(tmp_path, capsys, argv):
    # every input check runs before the --out file is opened
    path = tmp_path / "table.csv"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


def test_spectrum_cosine(capsys):
    code, out, _ = run_cli(["spectrum", "--function", "cos:1", "--n", "8"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,abs_coeff,decay_bound"
    assert len(lines) == 16  # 15 nonzero modes
    rows = {int(r[0]): (float(r[1]), float(r[2])) for r in (line.split(",") for line in lines[1:])}
    assert rows[1][0] == pytest.approx(1.0, abs=1e-12)
    assert all(abs_c <= bound for abs_c, bound in rows.values())


def test_spectrum_constant(capsys):
    code, out, _ = run_cli(["spectrum", "--function", "trig:0", "--n", "8"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert all(float(r[1]) <= 1e-12 for r in rows)


def test_spectrum_validation(capsys):
    assert run_cli(["spectrum", "--function", "nosuch"], capsys)[0] == 2
    assert run_cli(["spectrum", "--function", "cos:1", "--n", "0"], capsys)[0] == 2


def test_rescale_demo_unit_interval(capsys):
    code, out, _ = run_cli(
        ["rescale-demo", "--a", "0", "--b", "1", "--function", "cos-period", "--N", "4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,f,reconstruction,abs_error"
    assert len(lines) == 258  # 257 sample points
    max_err = max(float(line.split(",")[3]) for line in lines[1:])
    assert max_err <= 1e-10


def test_rescale_demo_matches_circle_model(capsys):
    code, out, _ = run_cli(
        ["rescale-demo", "--a", "-1", "--b", "1", "--function", "exp-cos-period", "--N", "8"],
        capsys,
    )
    assert code == 0
    # on [-1, 1] the demo function is exp(cos(pi(x+1))) = exp(-cos(pi x));
    # at this order the reconstruction is far inside 1e-10 of the sample
    max_err = max(float(line.split(",")[3]) for line in out.strip().split("\n")[1:])
    assert max_err <= 1e-6


def test_rescale_demo_agrees_with_circle_model(capsys):
    # on [-1, 1] the demo reconstruction must reproduce the circle-model
    # truncation error at the same sample points
    import math

    import numpy as np

    from gridfourier import sup_error
    from gridfourier.functions import SmoothPeriodicFunction

    code, out, _ = run_cli(
        ["rescale-demo", "--a", "-1", "--b", "1", "--function", "exp-cos-period", "--N", "8"],
        capsys,
    )
    assert code == 0
    demo_err = max(float(line.split(",")[3]) for line in out.strip().split("\n")[1:])

    circle = SmoothPeriodicFunction(
        name="exp-neg-cos",
        eval=lambda x: np.exp(-np.cos(np.pi * x)),
        d1=None,
        d2=None,
        exact_coefficient=None,
    )
    # 256 sample intervals -> the demo's 257 equispaced points
    assert abs(demo_err - sup_error(circle, 8, 256)) <= 1e-10


def test_rescale_demo_validation(capsys):
    assert run_cli(["rescale-demo", "--a", "0", "--b", "0"], capsys)[0] == 2
    assert run_cli(["rescale-demo", "--a", "1", "--b", "0"], capsys)[0] == 2
    assert run_cli(
        ["rescale-demo", "--a", "0", "--b", "1", "--function", "nosuch"], capsys
    )[0] == 2


@pytest.mark.parametrize(
    "a, b, bad",
    [
        ("nan", "1", "nan"),
        ("0", "nan", "nan"),
        ("0", "inf", "inf"),
        ("-inf", "0", "inf"),
        ("-1e308", "1e308", "1e+308"),
        ("0", "5e-324", "5e-324"),
    ],
)
def test_rescale_demo_rejects_non_finite_interval(capsys, a, b, bad):
    # a NaN end passed the old b <= a test and printed nan rows with exit 0;
    # a length that overflows, or a period so short that the demo function
    # is non-finite on the grid, is a usage error too
    code, out, err = run_cli(["rescale-demo", f"--a={a}", f"--b={b}", "--N", "2"], capsys)
    assert code == 2
    assert out == ""
    assert bad in err


@pytest.mark.filterwarnings("error")
def test_rescale_demo_on_a_huge_interval_is_finite(capsys):
    # the maps between [a, b] and [-1, 1] halve before scaling by the length:
    # at b = 1e308, L * (t + 1) overflowed and the run failed on cos(inf)
    code, out, err = run_cli(["rescale-demo", "--a", "0", "--b", "1e308", "--N", "1"], capsys)
    assert (code, err) == (0, "")
    rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
    assert len(rows) == 257
    assert all(math.isfinite(value) for row in rows for value in row)
    assert rows[-1][0] == 1e308


def test_unknown_subcommand_usage_error(capsys):
    assert run_cli(["nosuch-command"], capsys)[0] == 2
    assert run_cli([], capsys)[0] == 2


def test_exit_codes_through_subprocess():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "gridfourier.cli"] + SMALL_VERIFY,
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1


def test_run_freezes_the_heap_before_main_and_main_alone_never_does(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert run_cli(["spectrum", "--function", "cos:1", "--n", "4"], capsys)[0] == 0
    assert calls == []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert calls == ["freeze", "main"]


def test_python_m_gridfourier_exits_with_the_import_heap_frozen(tmp_path):
    # a sitecustomize on the path registers its atexit probe before
    # gridfourier is imported, so the probe runs after the command
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen={gc.get_freeze_count()}\\n'))\n"
    )
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "gridfourier", "spectrum", "--function", "cos:1", "--n", "4"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"m,abs_coeff,decay_bound\n")
    assert proc.stderr.startswith(b"frozen=") and proc.stderr.count(b"\n") == 1
    assert int(proc.stderr[len(b"frozen="):]) > 0
