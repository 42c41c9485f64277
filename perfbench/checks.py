"""Output checks for the four CLI commands, with the benchmark's own oracles.

Each checker takes the command's argv and stdout bytes and returns None
when the output is correct, or a one-line reason when it is not.  The
oracles are independent of gridfourier: catalog functions are evaluated
here with numpy, and coefficients come from ``np.fft`` on a 2n-point
grid.  Nothing is compared against saved bytes, so a transform that moves
residuals in their last bits still passes while a wrong number does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The 16 checks and their default tolerances as shipped by the library;
# a report with any other tolerance (a loosened budget) is a failure.
VERIFY_TOLERANCES = {
    "inversion": 1e-10,
    "ftc": 1e-12,
    "product_rule": 1e-12,
    "parts": 1e-12,
    "dft_identity_1": 1e-10,
    "dft_identity_2": 1e-9,
    "psi_lower": 1e-9,
    "phi_psi_mag": 1e-12,
    "F_bound": 1e-9,
    "g2_bound": 1e-9,
    "decay_H": 1.0,
    "tail_eps": 1.0,
    "alias_oracle": 1e-12,
    "coeff_convergence": 1e-10,
    "integral_darboux": 1e-10,
    "m_test_domination": 1e-9,
}

CONVERGE_SUP_TOL = 1e-10
SPECTRUM_REL_TOL = 1e-12
RESCALE_POINTS = 257
RESCALE_ERROR_TOL = 1e-9
_ORACLE_GRID = 256


def _flag(argv: list[str], name: str) -> str:
    for pos, item in enumerate(argv):
        if item == name:
            return argv[pos + 1]
        if item.startswith(name + "="):
            return item[len(name) + 1 :]
    raise KeyError(name)


def evaluate(name: str, x: np.ndarray) -> np.ndarray:
    """Catalog function ``name`` at the points x (trig, cos, expcos, combo)."""
    if name.startswith("combo:"):
        total = np.zeros(x.shape, dtype=np.complex128)
        for term in name[len("combo:") :].split("+"):
            weight, sub = term.split("*", 1)
            total = total + float(weight) * evaluate(sub, x)
        return total
    if name == "expcos":
        return np.exp(np.cos(np.pi * x)) + 0j
    kind, k = name.split(":")
    if kind == "trig":
        return np.exp(1j * np.pi * int(k) * x)
    if kind == "cos":
        return np.cos(np.pi * int(k) * x) + 0j
    raise ValueError(f"no oracle for {name!r}")


def grid_coefficients(name: str, n: int) -> np.ndarray:
    """ghat(m) = (1/n) sum_j f(j/n) exp(-i pi j m / n) for m = -n .. n-1, by FFT.

    With p = j + n the kernel is exp(-2 pi i p m / 2n) * (-1)^m, so
    ghat(m) = (-1)^m / n * fft(values)[m mod 2n].
    """
    values = evaluate(name, np.arange(-n, n) / n)
    modes = np.arange(-n, n)
    spectrum = np.fft.fft(values)[modes % (2 * n)]
    return np.where(modes % 2 == 0, 1.0, -1.0) * spectrum / n


def _csv(stdout: bytes, header: str):
    text = stdout.decode("utf-8")
    if not text.endswith("\n") or "\r" in text:
        return None, "output is not LF-terminated lines"
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return None, f"header {lines[0]!r} != {header!r}"
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return None, f"unparsable row: {exc}"
    if rows.size and not np.all(np.isfinite(rows)):
        return None, "non-finite value in table"
    return rows, None


def check_verify(argv: list[str], stdout: bytes) -> str | None:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"verify output is not JSON: {exc}"
    reports = payload.get("reports", [])
    names = [r.get("check_name") for r in reports]
    if names != sorted(VERIFY_TOLERANCES):
        return f"verify reports {names}, expected the 16 checks in name order"
    for r in reports:
        name, residual, tol = r["check_name"], r["worst_residual"], r["tolerance_used"]
        if r["status"] != "pass":
            return f"{name}: status {r['status']}"
        if tol != VERIFY_TOLERANCES[name]:
            return f"{name}: tolerance_used {tol} != default {VERIFY_TOLERANCES[name]}"
        if not (isinstance(residual, float) and math.isfinite(residual) and residual <= tol):
            return f"{name}: worst_residual {residual} exceeds tolerance {tol}"
    return None


def check_converge(argv: list[str], stdout: bytes) -> str | None:
    rows, err = _csv(stdout, "N,sup_error,m_test_bound")
    if err:
        return err
    orders = [int(v) for v in _flag(argv, "--N").split(",")]
    if rows.shape != (len(orders), 3) or list(rows[:, 0]) != orders:
        return "N column differs from the requested orders"
    if np.any(rows[:, 1] > rows[:, 2]):
        N = int(rows[np.argmax(rows[:, 1] - rows[:, 2]), 0])
        return f"sup_error exceeds m_test_bound at N={N}"
    name = _flag(argv, "--function")
    samples = int(_flag(argv, "--samples")) if "--samples" in argv else 2048
    xs = np.linspace(-1.0, 1.0, samples + 1)
    coeffs = grid_coefficients(name, _ORACLE_GRID)
    f = evaluate(name, xs)
    # the reconstruction at x = 1 is taken at -1, by periodicity
    phase_x = np.where(xs == 1.0, -1.0, xs)
    partial = 0.5 * coeffs[_ORACLE_GRID] * np.ones_like(f)
    N_max = orders[-1]
    oracle = np.empty(N_max + 1)
    for N in range(1, N_max + 1):
        partial = partial + 0.5 * (
            coeffs[_ORACLE_GRID + N] * np.exp(1j * np.pi * N * phase_x)
            + coeffs[_ORACLE_GRID - N] * np.exp(-1j * np.pi * N * phase_x)
        )
        oracle[N] = np.max(np.abs(f - partial))
    gap = np.abs(rows[:, 1] - oracle[orders])
    if np.any(gap > CONVERGE_SUP_TOL):
        return f"sup_error differs from the FFT oracle by {gap.max():.3e}"
    return None


def check_spectrum(argv: list[str], stdout: bytes) -> str | None:
    rows, err = _csv(stdout, "m,abs_coeff,decay_bound")
    if err:
        return err
    n = int(_flag(argv, "--n"))
    modes = np.array([m for m in range(-n, n) if m != 0], dtype=float)
    if rows.shape != (2 * n - 1, 3) or not np.array_equal(rows[:, 0], modes):
        return "m column does not cover every nonzero mode -n .. n-1"
    oracle = np.abs(grid_coefficients(_flag(argv, "--function"), n))
    oracle = np.delete(oracle, n)
    gap = np.abs(rows[:, 1] - oracle)
    if np.any(gap > SPECTRUM_REL_TOL * (1.0 + oracle.max())):
        return f"abs_coeff differs from the FFT oracle by {gap.max():.3e}"
    if np.any(rows[:, 1] > rows[:, 2]):
        return f"abs_coeff exceeds decay_bound at m={int(rows[np.argmax(rows[:, 1] - rows[:, 2]), 0])}"
    return None


def check_rescale(argv: list[str], stdout: bytes) -> str | None:
    rows, err = _csv(stdout, "x,f,reconstruction,abs_error")
    if err:
        return err
    if rows.shape != (RESCALE_POINTS, 4):
        return f"expected {RESCALE_POINTS} rows, got {rows.shape[0]}"
    a, b = float(_flag(argv, "--a")), float(_flag(argv, "--b"))
    if np.any(np.abs(rows[:, 0] - np.linspace(a, b, RESCALE_POINTS)) > 1e-12 * (1 + abs(a) + abs(b))):
        return "x column is not the equispaced grid on [a, b]"
    worst = rows[:, 3].max()
    if worst > RESCALE_ERROR_TOL:
        return f"abs_error {worst:.3e} exceeds {RESCALE_ERROR_TOL}"
    return None


CHECKERS = {
    "verify": check_verify,
    "converge": check_converge,
    "spectrum": check_spectrum,
    "rescale-demo": check_rescale,
}


def check_output(argv: list[str], returncode: int, stdout: bytes) -> str | None:
    """Reason the op failed, or None; argv[0] is the subcommand."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return CHECKERS[argv[0]](argv, stdout)
    except (AttributeError, KeyError, ValueError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
