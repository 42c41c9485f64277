"""The contract of the 11 immutable records, and the import they avoid.

Every record is built by position and by keyword with the same result,
refuses assignment, keeps its field order and validation messages, and
copies with changes through ``replace``.  ``LemmaReport.to_dict`` keeps
the key order the verify JSON bytes depend on.
"""

import copy
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from gridfourier import (
    BoundConstants,
    ConvergenceRow,
    DecayCheck,
    Grid,
    GridFunction,
    LemmaReport,
    RescaledFunction,
    SmoothPeriodicFunction,
    Spectrum,
    SuiteConfig,
    WorstLocation,
    get_function,
)
from gridfourier._record import Record
from gridfourier.verification import Check, _Suite

TRIG = get_function("trig:1")

# record class -> its field names in order, and one value per field
RECORDS = {
    Grid: (("n",), (4,)),
    GridFunction: (("grid", "values"), (Grid(2), np.arange(4.0))),
    Spectrum: (("n", "coefficients"), (2, np.arange(4.0))),
    SmoothPeriodicFunction: (
        ("name", "eval", "d1", "d2", "exact_coefficient", "endpoint_value", "support"),
        ("trig:1", TRIG.eval, TRIG.d1, TRIG.d2, TRIG.exact_coefficient, -1 + 0j, (1,)),
    ),
    BoundConstants: (("B", "D", "M", "W", "H"), (1.0, 2.0, 3.0, 15.0, 3.75)),
    ConvergenceRow: (("N", "sup_error", "m_test_bound"), (3, 0.25, 0.5)),
    RescaledFunction: (("pulled", "a", "b"), (TRIG, 0.0, 3.0)),
    DecayCheck: (("worst_ratio", "worst_m", "passed"), (0.5, -3, True)),
    SuiteConfig: (
        ("function_names", "grid_sizes", "mode_limit", "epsilons", "seed", "tolerance_overrides"),
        (("cos:1",), (4,), 8, (0.1,), 3, {"ftc": 1e-9}),
    ),
    WorstLocation: (("function", "n", "m", "x"), ("expcos", 64, -2, 0.5)),
    LemmaReport: (
        ("check_name", "status", "worst_residual", "worst_location", "tolerance_used"),
        ("ftc", "pass", 1e-13, WorstLocation("random:0", 4), 1e-12),
    ),
}
# the fields that have a default, and the default
DEFAULTS = {
    SmoothPeriodicFunction: {"support": None},
    SuiteConfig: {
        "function_names": ("cos:1", "trig:1", "trig:3", "expcos"),
        "grid_sizes": (4, 16, 64, 256),
        "mode_limit": 32,
        "epsilons": (0.1, 0.01),
        "seed": 42,
        "tolerance_overrides": {},
    },
    WorstLocation: {"function": None, "n": None, "m": None, "x": None},
}
IDS = [cls.__name__ for cls in RECORDS]


def _build(cls):
    names, values = RECORDS[cls]
    return cls(*values)


def _same_fields(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y, name


def test_import_leaves_dataclasses_and_json_unloaded():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, gridfourier.cli; print('dataclasses' in sys.modules, 'json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_the_eleven_records_share_one_base():
    assert len(RECORDS) == 11
    # besides them, only the check table's rows and the suite context
    assert set(Record.__subclasses__()) == set(RECORDS) | {Check, _Suite}


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_assigning_or_deleting_a_field_raises(cls):
    names, values = RECORDS[cls]
    record = _build(cls)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_have_no_instance_dict(cls):
    assert not hasattr(_build(cls), "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    names, values = RECORDS[cls]
    _same_fields(cls(*values), cls(**dict(zip(names, values))), names)
    # half by position, the rest by keyword
    k = len(names) // 2
    _same_fields(cls(*values[:k], **dict(zip(names[k:], values[k:]))), cls(*values), names)


@pytest.mark.parametrize("cls", DEFAULTS, ids=[cls.__name__ for cls in DEFAULTS])
def test_defaults_fill_missing_arguments_by_position_and_keyword(cls):
    names, values = RECORDS[cls]
    required = len(names) - len(DEFAULTS[cls])
    by_position = cls(*values[:required])
    by_keyword = cls(**dict(zip(names[:required], values[:required])))
    for record in (by_position, by_keyword):
        for name, default in DEFAULTS[cls].items():
            assert getattr(record, name) == default


def test_suite_configs_get_their_own_overrides_dict():
    a, b = SuiteConfig(), SuiteConfig()
    assert a.tolerance_overrides == {} and a.tolerance_overrides is not b.tolerance_overrides


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_construction_refuses_bad_arguments(cls):
    names, values = RECORDS[cls]
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values[:1], **{names[0]: values[0]})
    if cls not in DEFAULTS:
        with pytest.raises(TypeError):
            cls(*values[:-1])


@pytest.mark.parametrize("cls", [Grid, WorstLocation, BoundConstants], ids=lambda c: c.__name__)
def test_equal_fields_mean_equal_records_and_hashes(cls):
    names, values = RECORDS[cls]
    a, b = cls(*values), cls(*copy.deepcopy(values))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    changed = a.replace(**{names[-1]: values[-1] + 1})
    assert changed != a


def test_records_of_other_classes_are_never_equal():
    assert Grid(4) != 4
    assert WorstLocation("f", 4, 3, None) != ("f", 4, 3, None)
    assert ConvergenceRow(4, 0.5, 0.5) != DecayCheck(4, 0.5, 0.5)


@pytest.mark.parametrize("cls", [GridFunction, Spectrum], ids=lambda c: c.__name__)
def test_array_records_compare_values_exactly_and_stay_unhashable(cls):
    names, values = RECORDS[cls]
    a = cls(*values)
    assert a == cls(*copy.deepcopy(values))
    assert not a != cls(*copy.deepcopy(values))
    assert a != a.replace(**{names[1]: values[1] + 1e-15})
    with pytest.raises(TypeError):
        hash(a)


def test_grid_functions_on_other_grids_are_unequal():
    assert GridFunction(Grid(2), np.zeros(4)) != GridFunction(Grid(1), np.zeros(2))
    assert Spectrum(2, np.zeros(4)) != Spectrum(1, np.zeros(2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Grid(0), "grid needs n >= 1, got n=0"),
        (lambda: Grid(2.5), "grid size must be an integer, got 2.5"),
        (lambda: Grid(True), "grid size must be an integer, got True"),
        (lambda: GridFunction(Grid(2), [1, 2, 3]), "expected 4 values for n=2, got 3"),
        (lambda: Spectrum(0, []), "spectrum needs n >= 1, got n=0"),
        (lambda: Spectrum(2.0, np.zeros(4)), "spectrum size must be an integer, got 2.0"),
        (lambda: Spectrum(2, [1]), "expected 4 coefficients for n=2, got 1"),
        (lambda: BoundConstants(1.0, -1.0, 1.0, 1.0, 1.0),
         "D must be finite and nonnegative, got -1.0"),
        (lambda: BoundConstants(1.0, 1.0, 1.0, 1.0, float("inf")),
         "H must be finite and nonnegative, got inf"),
        (lambda: ConvergenceRow(1, -0.5, 1.0), "row entries must be nonnegative"),
        (lambda: ConvergenceRow(1, 0.5, -1.0), "row entries must be nonnegative"),
        (lambda: ConvergenceRow(1, math.nan, 1.0), "row entries must be nonnegative"),
        (lambda: ConvergenceRow(1, 1.0, math.nan), "row entries must be nonnegative"),
        (lambda: Grid(4).replace(n=0), "grid needs n >= 1, got n=0"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_post_init_normalizes_fields():
    assert type(Grid(np.int64(3)).n) is int
    assert type(Spectrum(np.int64(2), np.zeros(4)).n) is int
    values = np.arange(4.0)
    gf = GridFunction(Grid(2), values)
    assert gf.values.dtype == np.complex128 and not gf.values.flags.writeable
    assert gf.values is not values


def test_replace_copies_with_changes():
    f = TRIG.replace(exact_coefficient=None)
    assert f.exact_coefficient is None and TRIG.exact_coefficient is not None
    _same_fields(f, TRIG, ("name", "eval", "d1", "d2", "endpoint_value", "support"))
    assert WorstLocation("f", 4).replace(m=-1) == WorstLocation("f", 4, -1)
    with pytest.raises(TypeError):
        Grid(4).replace(size=8)


def test_repr_names_every_field_in_order():
    assert repr(WorstLocation("f", 4, 3)) == "WorstLocation(function='f', n=4, m=3, x=None)"
    assert repr(Grid(4)) == "Grid(n=4)"


@pytest.mark.parametrize("cls", [Grid, WorstLocation, LemmaReport, BoundConstants],
                         ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    record = _build(cls)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record


def test_lemma_report_to_dict_keeps_key_order():
    report = LemmaReport("psi_lower", "pass", -0.25, WorstLocation(None, 7, -3), 1e-9)
    expected = {
        "check_name": "psi_lower",
        "status": "pass",
        "worst_residual": -0.25,
        "worst_location": {"function": None, "n": 7, "m": -3, "x": None},
        "tolerance_used": 1e-9,
    }
    d = report.to_dict()
    assert d == expected
    assert list(d) == list(expected)
    assert list(d["worst_location"]) == list(expected["worst_location"])
    assert json.dumps(d) == (
        '{"check_name": "psi_lower", "status": "pass", "worst_residual": -0.25, '
        '"worst_location": {"function": null, "n": 7, "m": -3, "x": null}, '
        '"tolerance_used": 1e-09}'
    )
    assert WorstLocation("f", 4, 3, 0.5).to_dict() == {"function": "f", "n": 4, "m": 3, "x": 0.5}
