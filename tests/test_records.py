"""The immutable records keep the behaviour of frozen dataclasses.

Every record is a slotted class on `helpzc.records.Record`, built by the
base's constructor from its fields or by an `__init__` that validates or
gives defaults and ends in the base's; these tests pin what callers rely
on: value equality within one class only, field hashing, immutability, a
field repr, copy and pickle, and the validation each constructor runs.  The
records are found, not listed: every subclass of Record in a helpzc module
must have a fixture in `fields_of`.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpzc
from helpzc.chartables import ClassInfo
from helpzc.cli import Command, Option
from helpzc.constraints import (
    AggVar,
    CharRow,
    Constants,
    ConstraintError,
    EpsVar,
    Layout,
    PATuple,
    PAVector,
)
from helpzc.cyclotomics import ONE, root_of_unity
from helpzc.intsolve import (
    Aborted,
    Finite,
    Infeasible,
    Infinite,
    LinSystem,
    Optimal,
    Parametrization,
    Unbounded,
)
from helpzc.records import Record
from helpzc.verify import (
    DriverError,
    ShortcutProved,
    SolutionStore,
    SolverOptions,
    Verdict,
)


def fields_of(cls):
    """Fresh field values for one instance of cls; two calls give equal,
    not identical, values."""
    return _fixtures()[cls]


def _fixtures():
    pa2 = PAVector(2, ((1, 1),))
    layout = (
        (0, 3, 1, 2),
        ("ord0", "ord1", "ord0", "ord1"),
        (0, 1, 1, 0),
        (2, 2),
    )
    return {
        ClassInfo: ("2a", 2, 15),
        PAVector: (4, ((1, 2), (3, -1))),
        PATuple: (4, ((2, pa2), (4, PAVector(4, ((3, 1),))))),
        CharRow: ("ord1", 1, (ONE, root_of_unity(4))),
        EpsVar: (3, "4a"),
        AggVar: (5,),
        Layout: layout,
        Constants: (Layout(*layout), (1, 1, 1, 1)),
        LinSystem: (
            ("x", "y"),
            (((1, 1), 1),),
            ((1, 1), 1),
            3,
            (
                ((3, 0), 0, None),
                ((0, 3), 0, None),
                ((1, 2), 1, Constants(Layout(*layout), (1, 1))),
            ),
        ),
        Finite: (((1, 0), (0, 1)),),
        Infinite: ((1, -1),),
        Aborted: (7,),
        Optimal: (Fraction(1, 2), (Fraction(1, 2), Fraction(0))),
        Unbounded: ((Fraction(1), Fraction(-2)),),
        Infeasible: (),
        Parametrization: ((1, 0), ((1, -1),), (((1,), 0), ((-1,), -1)), "lattice"),
        SolverOptions: (False, True, True, 5),
        ShortcutProved: ("nilpotent",),
        Verdict: (True, None, SolutionStore("C4"), ((8, "node budget"),)),
        Option: ("N", "search node budget per system", int, 3, False),
        Command: ("print facts", (("bundle", str),), ("--store",), len),
    }


def _all_records():
    """Every subclass of Record, at any depth, that a helpzc module defines,
    once every helpzc module is imported."""
    for module in pkgutil.iter_modules(helpzc.__path__):
        importlib.import_module(f"helpzc.{module.name}")
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("helpzc."):
                found.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


RECORDS = _all_records()

records = pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)

# the records that only store their fields, so the base builds them
BASE_BUILT = [cls for cls in RECORDS if "__init__" not in vars(cls)]


def test_every_record_has_a_fixture():
    assert sorted(c.__name__ for c in RECORDS) == sorted(c.__name__ for c in _fixtures())


def test_records_that_only_store_their_fields_write_no_constructor():
    assert {c.__name__ for c in BASE_BUILT} == {
        "ClassInfo", "CharRow", "EpsVar", "AggVar", "Layout", "Constants",
        "Finite", "Infinite",
        "Aborted", "Optimal", "Unbounded", "Infeasible", "Parametrization",
        "ShortcutProved", "Command",
    }


@pytest.mark.parametrize("cls", BASE_BUILT, ids=lambda c: c.__name__)
def test_base_constructor_takes_each_field_once(cls):
    values = fields_of(cls)
    named = dict(zip(cls.__slots__, values))
    record = cls(*values)
    assert cls(**named) == record
    assert cls(*values[:1], **dict(list(named.items())[1:])) == record
    bad = [((*values, None), {}), (values, {"extra": 1})]
    if values:
        bad += [
            (values[:-1], {}),
            (values, {cls.__slots__[0]: values[0]}),
            ((), dict(list(named.items())[1:])),
        ]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@records
def test_fields_are_slots_in_constructor_order(cls):
    record = cls(*fields_of(cls))
    assert [getattr(record, f) for f in cls.__slots__] == list(fields_of(cls))
    assert isinstance(record, Record) and not hasattr(record, "__dict__")


@records
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = cls(*fields_of(cls)), cls(*fields_of(cls))
    assert a == b and not a != b
    if cls is Verdict:
        # the solution store is mutable and unhashable, so a verdict is too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(fields_of(cls)))


@records
def test_same_fields_in_another_class_compare_unequal(cls):
    record = cls(*fields_of(cls))
    twin_cls = type("Twin", (Record,), {"__slots__": cls.__slots__})
    twin = object.__new__(twin_cls)
    for f, v in zip(cls.__slots__, fields_of(cls)):
        object.__setattr__(twin, f, v)
    assert twin._values() == record._values()
    assert record != twin and twin != record
    assert record != tuple(fields_of(cls))


@records
def test_records_are_immutable(cls):
    record = cls(*fields_of(cls))
    for f in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        with pytest.raises(AttributeError):
            delattr(record, f)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, f) for f in cls.__slots__] == list(fields_of(cls))


@records
def test_repr_shows_class_and_fields(cls):
    record = cls(*fields_of(cls))
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for f, v in zip(cls.__slots__, fields_of(cls)):
        assert f"{f}={v!r}" in text


def test_repr_matches_the_dataclass_format():
    assert repr(PAVector(2, ((1, 1),))) == "PAVector(order=2, entries=((1, 1),))"
    assert repr(Infeasible()) == "Infeasible()"
    assert repr(SolverOptions()) == (
        "SolverOptions(shortcuts=True, use_brauer=True, p_constant=False,"
        " max_nodes=10000000)"
    )


@records
def test_deepcopy_and_pickle_round_trip(cls):
    record = cls(*fields_of(cls))
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is cls and again == record


def test_defaults_and_keywords():
    assert SolverOptions(max_nodes=3) == SolverOptions(True, True, False, 3)
    v = Verdict(proved=False, shortcut="solvable", store=None)
    assert v.obstructions == ()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: PAVector(2, ((1, 2),)), ConstraintError),  # sums to 2
        (lambda: PATuple(6, ((4, PAVector(4, ((1, 1),))),)), ConstraintError),
        (lambda: LinSystem(("x", "y"), (((1,), 0),)), ValueError),
        (lambda: LinSystem(("x", "y"), (), ((1,), 1)), ValueError),
        (lambda: LinSystem(("x", "y"), (), ((1, -1), 1)), ValueError),
        (
            lambda: LinSystem(("x",), (), None, 2, (((1, 1), 0, "mu"),)),
            ValueError,
        ),
        (lambda: LinSystem(("x",), (), None, 0), ValueError),
        (lambda: SolverOptions(max_nodes=-1), DriverError),
    ],
    ids=[
        "pa-vector-sum", "pa-tuple-level", "lin-system-arity",
        "lin-system-norm-arity", "lin-system-negative-weight",
        "lin-system-congruence-arity", "lin-system-modulus", "negative-budget",
    ],
)
def test_constructors_still_validate(build, error):
    with pytest.raises(error):
        build()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every command pays helpzc's import, so it must stay light; -S keeps
    # whatever site-packages hooks this interpreter has out of the count
    src = str(Path(helpzc.__file__).resolve().parent.parent)
    code = (
        "import sys, helpzc.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "[]"
