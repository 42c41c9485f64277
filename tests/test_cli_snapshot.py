import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "cli_snapshot", Path(__file__).resolve().parent.parent / "tools" / "cli_snapshot.py"
)
cli_snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_snapshot)


def _report(residual: float) -> bytes:
    reports = [
        {"check_name": "ftc", "status": "pass", "worst_residual": 0.0},
        {"check_name": "inversion", "status": "pass", "worst_residual": residual},
    ]
    return (json.dumps({"schema": 1, "reports": reports}, indent=2) + "\n").encode()


def _snapshot(root: Path, verify_stdout: bytes, table_stdout: bytes = b"m\n1\n") -> Path:
    root.mkdir()
    for k, argv, stdout in (("00", "verify", verify_stdout), ("01", "spectrum --n 4", table_stdout)):
        (root / f"{k}.argv").write_text(argv + "\n")
        (root / f"{k}.stdout").write_bytes(stdout)
        (root / f"{k}.stderr").write_bytes(b"")
        (root / f"{k}.exit").write_text("0\n")
    return root


def test_compare_identical_snapshots_exits_0(tmp_path, capsys):
    a = _snapshot(tmp_path / "a", _report(1e-16))
    b = _snapshot(tmp_path / "b", _report(1e-16))
    assert cli_snapshot.compare(a, b) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "00 verify: argv same, exit same, stderr same, stdout same",
        "01 spectrum --n 4: argv same, exit same, stderr same, stdout same",
    ]


def test_compare_names_each_moved_verify_field(tmp_path, capsys):
    a = _snapshot(tmp_path / "a", _report(1e-16))
    b = _snapshot(tmp_path / "b", _report(2e-16))
    assert cli_snapshot.compare(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "00 verify: argv same, exit same, stderr same, stdout DIFFERS",
        "  inversion.worst_residual: 1e-16 -> 2e-16",
        "01 spectrum --n 4: argv same, exit same, stderr same, stdout same",
    ]


def test_compare_names_each_moved_csv_column(tmp_path, capsys):
    table = b"N,sup_error,m_test_bound\n1,0.25,4.0\n2,0.125,2.0\n4,0.0625,1.0\n"
    moved = b"N,sup_error,m_test_bound\n1,0.25,3.0\n2,0.125,2.0\n4,0.0625,0.75\n"
    a = _snapshot(tmp_path / "a", _report(1e-16), table)
    b = _snapshot(tmp_path / "b", _report(1e-16), moved)
    c = _snapshot(tmp_path / "c", _report(1e-16), b"N,sup_error\n1,0.25\n")
    d = _snapshot(tmp_path / "d", _report(1e-16), table + b"8,0.03125,0.5\n")
    assert [cli_snapshot.compare(a, other) for other in (b, c, d)] == [1, 1, 1]
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert lines == [
        "  m_test_bound: 2 of 3 rows moved, largest change 1, largest relative change 0.25",
        "  CSV headers differ: 'N,sup_error,m_test_bound' -> 'N,sup_error'",
        "  CSV row counts differ: 3 -> 4",
    ]
