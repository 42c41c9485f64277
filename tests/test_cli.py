import json
import os
import subprocess
import sys

import pytest

from gridfourier.cli import main

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
    code, out, err = run_cli(SMALL_VERIFY + [flag, value], capsys)
    assert code == 2
    assert out == ""
    assert flag in err and bad in err


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


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(SMALL_VERIFY + ["--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert json.loads(raw)["schema"] == 1


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        # (2048 + 1) x (2*1024 + 1) cells, just above the 2**22 limit
        (["converge", "--function", "cos:1", "--N", "1,1024"], "--samples/--N"),
        (["converge", "--function", "cos:1", "--N", "1,2", "--samples", str(10**12)], "--samples/--N"),
        (["converge", "--function", "cos:1", "--N", str(10**12)], "--samples/--N"),
        (["spectrum", "--function", "cos:1", "--n", str(2**16 + 1)], "--n"),
        (["spectrum", "--function", "cos:1", "--n", str(10**12)], "--n"),
        (["verify", "--grid-sizes", f"4,{2**16 + 1}"], "--grid-sizes"),
        (["verify", "--grid-sizes", str(10**12)], "--grid-sizes"),
        # 257 x (2*8160 + 1) cells, just above the 2**22 limit
        (["rescale-demo", "--a", "0", "--b", "1", "--N", "8160"], "--N"),
        (["rescale-demo", "--a", "0", "--b", "1", "--N", str(10**12)], "--N"),
    ],
)
def test_oversized_tables_are_rejected_before_allocation(argv, flag, capsys, monkeypatch):
    import gridfourier.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(cli, "run_convergence", refuse)
    monkeypatch.setattr(cli, "run_spectrum_decay", refuse)
    monkeypatch.setattr(cli, "run_lemma_suite", refuse)
    monkeypatch.setattr(cli, "rescale", refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag}: ")


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
        endpoint_value=math.e,
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
