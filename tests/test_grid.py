import math

import numpy as np
import pytest

from gridfourier import GridFunction, build_grid, integrate, sample, trig_monomial


def test_smallest_grids():
    g1 = build_grid(1)
    assert np.allclose(g1.points(), [-1.0, 0.0])
    g2 = build_grid(2)
    assert np.allclose(g2.points(), [-1.0, -0.5, 0.0, 0.5])


def test_grid_n4_shape():
    g = build_grid(4)
    pts = g.points()
    assert len(pts) == 8
    assert np.allclose(np.diff(pts), 0.25)
    assert g.size * g.cell_width == pytest.approx(2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 37])
def test_grid_invariants(n):
    g = build_grid(n)
    pts = g.points()
    assert len(pts) == 2 * n
    assert pts[0] == -1.0
    assert pts[-1] == (n - 1) / n
    assert np.allclose(np.diff(pts), 1.0 / n)


@pytest.mark.parametrize("bad", [0, -1, -37])
def test_rejects_degenerate_grid(bad):
    with pytest.raises(ValueError):
        build_grid(bad)


def test_sample_constant():
    gf = sample(lambda x: 1.0, build_grid(2))
    assert np.allclose(gf.values, 1.0)


def test_sample_identity():
    gf = sample(lambda x: x, build_grid(4))
    assert np.allclose(gf.values, [-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75])


def test_sample_complex_exponential():
    # exp(i pi x) at x = -1, -1/2, 0, 1/2
    gf = sample(trig_monomial(1), build_grid(2))
    assert np.allclose(gf.values, [-1.0, -1.0j, 1.0, 1.0j], atol=1e-15)


def test_sample_propagates_failure():
    def broken(x):
        raise ArithmeticError("bad function")

    with pytest.raises(ArithmeticError):
        sample(broken, build_grid(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_sample_rejects_non_finite_values(bad):
    def f(x):
        return bad if x == 0.5 else x

    with pytest.raises(ValueError, match=r"non-finite value at x=0\.5 on the n=4 grid"):
        sample(f, build_grid(4))


@pytest.mark.parametrize("n", [1, 3, 16])
def test_integrate_constant_is_total_measure(n):
    assert integrate(sample(lambda x: 1.0, build_grid(n))) == pytest.approx(2.0)
    assert integrate(sample(lambda x: 2.5j, build_grid(n))) == pytest.approx(5.0j)


def test_integrate_identity():
    # arithmetic series: (1/4) * sum_{j=-4}^{3} j/4 = -1/4
    assert integrate(sample(lambda x: x, build_grid(4))) == pytest.approx(-0.25, abs=1e-15)


def test_integrate_zero():
    gf = GridFunction(build_grid(5), np.zeros(10))
    assert integrate(gf) == 0


def test_integrate_linear():
    rng = np.random.default_rng(11)
    for n in (2, 9, 32):
        g = build_grid(n)
        u = GridFunction(g, rng.uniform(-1, 1, 2 * n) + 1j * rng.uniform(-1, 1, 2 * n))
        v = GridFunction(g, rng.uniform(-1, 1, 2 * n) + 1j * rng.uniform(-1, 1, 2 * n))
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        lhs = integrate(a * u + b * v)
        rhs = a * integrate(u) + b * integrate(v)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_step_semantics():
    g = build_grid(4)
    gf = sample(lambda x: x, g)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1, 1, 50):
        j = int(np.floor(4 * x))
        assert gf.value_at(float(x)) == gf.at(j)
    # any point inside cell j maps back to the cell value
    assert gf.value_at(-0.999) == gf.at(-4)
    assert gf.value_at(0.26) == gf.at(1)
    # x = 1 wraps by periodicity
    assert gf.value_at(1.0) == gf.at(-4)


def test_values_are_frozen():
    gf = sample(lambda x: x, build_grid(2))
    with pytest.raises(ValueError):
        gf.values[0] = 5.0


def test_constructor_copies_the_callers_array():
    values = np.arange(4, dtype=np.complex128)
    gf = GridFunction(build_grid(2), values)
    values[0] = 9.0
    assert gf.values.tolist() == [0, 1, 2, 3]
    assert values.flags.writeable


def test_adopted_arrays_are_read_only():
    grid = build_grid(2)
    values = np.arange(4, dtype=np.complex128)
    gf = GridFunction._adopt(grid, values)
    assert gf.values is values
    for result in (gf, gf + gf, gf - 1, 2 * gf, gf * gf, -gf):
        assert not result.values.flags.writeable
        with pytest.raises(ValueError):
            result.values[0] = 5.0
    with pytest.raises(ValueError, match="expected 4 values for n=2, got 3"):
        GridFunction._adopt(grid, np.zeros(3, dtype=np.complex128))


class _Held:
    """An evaluator that returns an array it keeps."""

    name = "held"

    def __init__(self, n):
        self.values = np.arange(2 * n, dtype=np.complex128)

    def eval(self, xs):
        return self.values


def test_sample_copies_an_array_its_function_holds():
    f = _Held(2)
    gf = sample(f, build_grid(2))
    assert f.values.flags.writeable
    f.values[0] = 9.0
    assert gf.values[0] == 0.0


def test_sample_copies_a_broadcast_constant():
    class Constant:
        name = "constant"

        def eval(self, xs):
            return 2.0

    gf = sample(Constant(), build_grid(3))
    assert gf.values.tolist() == [2.0] * 6
    assert gf.values.strides == (16,)  # not the broadcast view of one value
    assert not gf.values.flags.writeable


def test_sample_takes_over_a_new_array():
    gf = sample(trig_monomial(1), build_grid(4))
    assert gf.values.base is None
    assert not gf.values.flags.writeable


def test_sample_takes_over_the_array_of_a_scalar_callable():
    gf = sample(lambda x: x * x, build_grid(8))
    assert gf.values.base is None
    assert gf.values.tolist() == [(j / 8) ** 2 for j in range(-8, 8)]


def test_value_count_must_match_grid():
    with pytest.raises(ValueError):
        GridFunction(build_grid(3), np.ones(5))


def test_mixed_grid_arithmetic_rejected():
    u = sample(lambda x: x, build_grid(2))
    v = sample(lambda x: x, build_grid(3))
    with pytest.raises(ValueError):
        _ = u + v
    with pytest.raises(ValueError):
        _ = u * v
