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


def _snapshot(root: Path, verify_stdout: bytes) -> Path:
    root.mkdir()
    for k, argv, stdout in (("00", "verify", verify_stdout), ("01", "spectrum --n 4", b"m\n1\n")):
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
