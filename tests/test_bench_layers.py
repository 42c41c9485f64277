import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gridfourier.verification import CHECK_NAMES

_SPEC = importlib.util.spec_from_file_location(
    "bench_layers", Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
)
bench_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_layers)


def test_layers_are_the_in_process_layers_and_runner_layers_name_real_checks():
    layers = bench_layers._layers()
    assert tuple(layers) == bench_layers.IN_PROCESS_LAYERS
    assert set(bench_layers.RUNNER_CHECKS) <= set(layers)
    for layer, checks in bench_layers.RUNNER_CHECKS.items():
        assert set(checks) <= set(CHECK_NAMES), layer
        # one list of candidates per distinct runner of the layer's checks
        assert all(rows for rows in layers[layer]()), layer


def _git_bytes(*args: str, cwd: Path = bench_layers.ROOT) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, check=True).stdout


def _commit(repo: Path, message: str) -> None:
    _git_bytes("add", "--all", cwd=repo)
    _git_bytes("-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
               "commit", "-q", "--no-verify", "-m", message, cwd=repo)


def _files(src: Path) -> dict:
    """Path relative to src's parent -> bytes, of every file but the byte-compiled ones."""
    return {
        path.relative_to(src.parent).as_posix(): path.read_bytes()
        for path in src.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    }


@pytest.mark.skipif(
    subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench_layers.ROOT, capture_output=True)
    .returncode != 0,
    reason="not a git checkout",
)
def test_snapshot_of_a_tree_holds_exactly_its_src_files_byte_compiled(tmp_path):
    tree = bench_layers._git("rev-parse", "HEAD:src")
    src = bench_layers._snapshot(tree, tmp_path / "copy")
    files = _files(src)
    paths = bench_layers._git("ls-tree", "-r", "--name-only", "HEAD", "src").splitlines()
    assert sorted(files) == sorted(paths)
    for path in paths:
        assert files[path] == _git_bytes("show", f"HEAD:{path}"), path
        if path.endswith(".py"):
            assert Path(importlib.util.cache_from_source(str(src.parent / path))).is_file(), path


def test_the_change_tree_is_the_working_src_with_untracked_files_and_stays_fixed(tmp_path):
    # in a repository of its own, so that no object is written into this one's
    repo = tmp_path / "repo"
    package = repo / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "kept.py").write_text("A = 1\n")
    (package / "edited.py").write_text("B = 1\n")
    (repo / ".gitignore").write_text("*.log\n")
    _git_bytes("init", "-q", cwd=repo)
    _commit(repo, "base")
    (package / "edited.py").write_text("B = 2\n")
    (package / "new.py").write_text("C = 3\n")
    (package / "run.log").write_text("ignored\n")
    status = _git_bytes("status", "--porcelain", cwd=repo)

    tree = bench_layers._working_tree(tmp_path / "index", repo)
    # an edit after the tree is named reaches neither its id nor its copy
    (package / "edited.py").write_text("B = 4\n")
    assert tree != bench_layers._git("rev-parse", "HEAD:src", cwd=repo)
    assert _git_bytes("status", "--porcelain", cwd=repo) == status  # the real index is untouched
    src = bench_layers._snapshot(tree, tmp_path / "copy", repo)
    assert _files(src) == {
        "src/pkg/kept.py": b"A = 1\n",
        "src/pkg/edited.py": b"B = 2\n",
        "src/pkg/new.py": b"C = 3\n",
    }
    assert bench_layers._working_tree(tmp_path / "index2", repo) != tree
    # committed, the named state is the commit's src tree
    (package / "edited.py").write_text("B = 2\n")
    _commit(repo, "change")
    assert bench_layers._git("rev-parse", "HEAD:src", cwd=repo) == tree


def test_every_timed_process_goes_through_launch_and_each_command_gives_three_rows(
    tmp_path, monkeypatch
):
    launches = []

    def fake_launch(cmd, env, tmp):
        launches.append((env["PYTHONPATH"], cmd))
        reply = {"seconds": 0.25, "code": 0, "maxrss_kib": 2048, "cpu_s": 0.5, "stdout": ""}
        if "--child" in cmd:
            layer = cmd[-1]
            names = (("import_numpy", "import_own", "verify_first")
                     if layer == bench_layers.IMPORTS else (layer,))
            reply["stdout"] = json.dumps(dict.fromkeys(names, 0.125)) + "\n"
        return reply

    monkeypatch.setattr(bench_layers, "_launch", fake_launch)
    srcs = {"change": tmp_path / "a", "parent": tmp_path / "b"}
    runs = 5
    results = bench_layers._measure(srcs, runs, str(tmp_path))

    commands = bench_layers.COMMANDS
    rows = {"import_numpy", "import_own", "verify_first", *bench_layers.IN_PROCESS_LAYERS}
    rows |= {f"{stem}_{kind}" for stem in commands
             for kind in ("process_s", "process_cpu_s", "rss_mb")}
    assert len(rows) == 32
    for tree in srcs:
        assert set(results[tree]) == rows
        assert results[tree]["rescale_8159_rss_mb"] == 2.0
        assert results[tree]["rescale_8159_process_cpu_s"] == 0.5
        assert results[tree]["verify_first"] == 0.125

    children = (bench_layers.IMPORTS, *bench_layers.IN_PROCESS_LAYERS)
    expected = Counter()
    for src in srcs.values():
        for layer in children:
            expected[(str(src), (sys.executable, str(bench_layers.TOOL), "--child", layer))] = (
                runs + 1)
        for args in commands.values():
            expected[(str(src), (sys.executable, "-m", "gridfourier", *args))] = (
                bench_layers.PROCESS_REPEATS * (runs + 1))
    assert Counter((path, tuple(cmd)) for path, cmd in launches) == expected

    # the trees alternate launch by launch, and the one that goes first flips each round
    per_round = 2 * (len(children) + bench_layers.PROCESS_REPEATS * len(commands))
    assert len(launches) == per_round * (runs + 1)
    first, second = (str(src) for src in srcs.values())
    for i, (path, _) in enumerate(launches):
        leader, follower = (first, second) if i // per_round % 2 == 0 else (second, first)
        assert path == (leader if i % 2 == 0 else follower), i


def test_launch_returns_the_stdout_and_usage_of_a_process_and_raises_on_failure(tmp_path):
    env = dict(os.environ)
    reply = bench_layers._launch([sys.executable, "-c", "print('x')"], env, str(tmp_path))
    assert reply["stdout"] == "x\n"
    assert reply["code"] == 0
    assert reply["maxrss_kib"] > 0
    assert reply["cpu_s"] >= 0
    failing = [sys.executable, "-c", "import sys; sys.stderr.write('no luck'); sys.exit(3)"]
    with pytest.raises(RuntimeError, match="exited 3: no luck"):
        bench_layers._launch(failing, env, str(tmp_path))
