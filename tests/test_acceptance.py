"""Acceptance gate: one test per criterion, at the stated scales and tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test also prints its own summary line.
"""

import json
import time

import numpy as np
import pytest

from gridfourier import (
    GridFunction,
    bound_constants,
    build_grid,
    coefficient,
    combine,
    cosine,
    decay_bound_check,
    discrete_coefficients,
    exp_cos,
    get_function,
    integrate,
    invert,
    m_test_majorant,
    sample,
    shift_to_zero_endpoints,
    sup_error,
    tail_sum,
    tail_threshold,
    trig_monomial,
)
from gridfourier.cli import main
from gridfourier.discrete_calculus import ftc_residual, parts_residual, product_rule_residual
from gridfourier.functions import DEFAULT_CATALOG
from gridfourier.spectral_bounds import (
    _uniform_maxima,
    dft_identity_residual_arrays,
    forward_symbol,
)
from gridfourier.verification import random_grid_function

from _oracles import alias_fold

SEED = 42
CATALOG = [get_function(name) for name in DEFAULT_CATALOG]


def _report(criterion, detail=""):
    print(f"acceptance criterion {criterion}: PASS {detail}")


def test_criterion_01_discrete_inversion():
    elapsed_at_256 = 0.0
    for n in (1, 2, 4, 16, 64, 256):
        start = time.perf_counter()
        for rep in range(32):
            gf = random_grid_function(SEED, "inversion", n, rep)
            back = invert(discrete_coefficients(gf))
            err = float(np.max(np.abs(back.values - gf.values)))
            assert err <= 1e-10 * (1.0 + gf.max_abs()), f"n={n} rep={rep}: {err:.3e}"
        if n == 256:
            elapsed_at_256 = time.perf_counter() - start
    assert elapsed_at_256 <= 30.0, f"n=256 roundtrips took {elapsed_at_256:.1f}s"
    _report(1, f"(n=256 block in {elapsed_at_256:.2f}s)")


def test_criterion_02_discrete_calculus_lemmas():
    for n in (2, 8, 32, 128):
        for rep in range(64):
            u = random_grid_function(SEED, "calculus", n, rep, part=0)
            v = random_grid_function(SEED, "calculus", n, rep, part=1)
            su, sv = u.max_abs(), v.max_abs()
            assert abs(ftc_residual(u)) <= 1e-11 * n * su
            assert product_rule_residual(u, v).max_abs() <= 1e-11 * n * su * sv
            assert abs(parts_residual(u, v)) <= 1e-11 * n * su * sv
    _report(2)


def test_criterion_03_dft_identity():
    def check(gf, label, n):
        r1, r2 = dft_identity_residual_arrays(gf)
        scale = 1.0 + gf.max_abs()
        worst1 = float(np.max(np.abs(r1)))
        worst2 = float(np.max(np.abs(r2)))
        assert worst1 <= 1e-10 * scale, f"{label} n={n}: r1={worst1:.3e}"
        assert worst2 <= 1e-9 * scale, f"{label} n={n}: r2={worst2:.3e}"

    for n in (4, 16, 64):
        for f in CATALOG:
            check(sample(f, build_grid(n)), f.name, n)
        for rep in range(8):
            check(random_grid_function(SEED, "dft", n, rep), f"random:{rep}", n)
    _report(3)


def test_criterion_04_symbol_lower_bound():
    for n in range(1, 513):
        modes = np.arange(-n, n)
        sq = np.abs(forward_symbol(n, modes)) ** 2
        floor = 4.0 * modes.astype(float) ** 2 * (1.0 - 1e-9)
        bad = np.nonzero(sq < floor)[0]
        assert bad.size == 0, f"n={n}: first violation at m={int(bad[0]) - n}"
    _report(4)


def test_criterion_05_uniform_boundedness():
    zero_endpoint = [
        shift_to_zero_endpoints(cosine(1)),                    # cos(pi x) + 1
        combine([(0.5, trig_monomial(0)), (-0.5, cosine(2))]),  # sin^2(pi x)
        shift_to_zero_endpoints(exp_cos()),                     # exp(cos(pi x)) - 1/e
    ]
    for f in zero_endpoint:
        assert abs(complex(f.eval(1.0))) <= 1e-12 and abs(complex(f.eval(-1.0))) <= 1e-12, f.name
        c = bound_constants(f)
        for n in (4, 32, 256):
            max_F, _, max_g2, _ = _uniform_maxima(sample(f, build_grid(n)))
            F_slack = 5.0 * c.D + 1e-9 - max_F
            second_hat_slack = c.M + 2.0 * c.B + 1e-9 - max_g2
            assert F_slack >= 0 and second_hat_slack >= 0, (
                f"{f.name} n={n}: F slack {F_slack:.3e}, "
                f"second-difference slack {second_hat_slack:.3e}"
            )
    _report(5)


def test_criterion_06_coefficient_decay():
    for f in CATALOG:
        H = bound_constants(f).H
        for n in (4, 16, 64, 256):
            spec = discrete_coefficients(sample(f, build_grid(n)))
            check = decay_bound_check(spec, H)
            assert check.passed, (
                f"{f.name} n={n}: ratio {check.worst_ratio:.4f} at m={check.worst_m}"
            )
    _report(6)


def test_criterion_07_tail_threshold():
    checked = 0
    for f in CATALOG:
        H = bound_constants(f).H
        for eps in (0.1, 0.01):
            threshold = tail_threshold(H, eps)
            n = 256 if threshold <= 256 else 4096
            L = int(np.floor(threshold)) + 1
            if L > n - 1:
                continue  # no admissible range below this grid size
            spec = discrete_coefficients(sample(f, build_grid(n)))
            pos = tail_sum(spec, L, n - 1)
            neg = tail_sum(spec, -(n - 1), -L)
            assert pos < eps, f"{f.name} eps={eps}: positive tail {pos:.3e}"
            assert neg < eps, f"{f.name} eps={eps}: negative tail {neg:.3e}"
            checked += 1
    assert checked >= 5  # the rule must actually bite for most catalog entries
    _report(7, f"({checked} non-vacuous ranges)")


def test_criterion_08_finite_mode_convergence():
    f = exp_cos()
    sizes = (4, 8, 16, 32, 64)
    for m in (0, -1, 1, -2, 2):
        exact = coefficient(f, m)
        gaps = [
            abs(discrete_coefficients(sample(f, build_grid(n))).coeff(m) - exact) for n in sizes
        ]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-10, f"m={m}: gaps {gaps}"
        assert gaps[-1] <= 1e-10, f"m={m}: gap at n=64 is {gaps[-1]:.3e}"
    _report(8)


def test_criterion_09_grid_integral_convergence():
    f = exp_cos()
    gap = abs(integrate(sample(f, build_grid(64))) - coefficient(f, 0))
    assert gap <= 1e-10, f"integral gap {gap:.3e}"
    _report(9, f"(gap {gap:.1e})")


def test_criterion_10_mtest_domination():
    for f in CATALOG:
        H = bound_constants(f).H
        errors = []
        for N in (2, 4, 8, 16, 32):
            err = sup_error(f, N, 2048)
            bound = m_test_majorant(H, N)
            assert err <= bound + 1e-9, f"{f.name} N={N}: {err:.3e} > {bound:.3e}"
            errors.append(err)
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12, f"{f.name}: sup errors not nonincreasing: {errors}"
    _report(10)


def test_criterion_11_aliasing_oracle():
    rng = np.random.default_rng(SEED)
    polys = [trig_monomial(0), trig_monomial(5), trig_monomial(-12), cosine(7)]
    for _ in range(4):
        weights = rng.uniform(-1, 1, 25) + 1j * rng.uniform(-1, 1, 25)
        polys.append(combine([(w, trig_monomial(k)) for w, k in zip(weights, range(-12, 13))]))
    for f in polys:
        for n in (4, 8, 16):
            spec = discrete_coefficients(sample(f, build_grid(n)))
            for m in range(-n, n):
                diff = abs(spec.coeff(m) - alias_fold(f, n, m, 32))
                assert diff <= 1e-12, f"{f.name} n={n} m={m}: {diff:.3e}"
    _report(11)


def test_criterion_12_cli_contract(capsys):
    code = main(["verify"])
    first = capsys.readouterr().out
    assert code == 0
    reports = json.loads(first)["reports"]
    assert len(reports) == 16
    assert all(r["status"] == "pass" for r in reports)

    code = main(["verify", "--tolerance", "dft_identity_2=1e-30"])
    forced = capsys.readouterr().out
    assert code == 1
    failing = [r["check_name"] for r in json.loads(forced)["reports"] if r["status"] == "fail"]
    assert failing == ["dft_identity_2"]

    code = main(["verify"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second, "verify output not byte-identical across reruns"
    _report(12)
