"""The value contract of the result types: equality, hash, repr, immutability,
copies, pickling, keyword construction and validation, each checked on one
instance of every ``Record`` subclass as the library hands it out, and on
the relation rows that the clique oracles in ``tests/oracles.py`` take."""

import copy
import dataclasses
import pickle

import pytest

from skewlab.bitstring import BitString, Family
from skewlab.counting import gamma_distribution, monte_carlo_tail
from skewlab.graphs import Partition, as_partition
from skewlab.record import Record
from skewlab.report import Table, sandwich_check
from skewlab.solver import ExtremalResult, exact_M
from skewlab.sperner import max_antichain, projection_bound_check
from oracles import CliqueInstance

INSTANCES = [
    BitString(3, 5),
    Family.from_literals(["01", "10"]),
    gamma_distribution(3),
    monte_carlo_tail(8, 100, 1),
    as_partition([2, 3]),
    Table(("n", "size"), ((3, 5),)),
    sandwich_check(3),
    CliqueInstance(3, (0b010, 0b001, 0)),
    exact_M(3),
    max_antichain(4),
    projection_bound_check(5),
]


def fields(record: Record) -> dict[str, object]:
    return {name: getattr(record, name) for name in type(record).__slots__}


def test_every_record_type_is_covered():
    """The library's ten record types, and the oracles' relation rows."""
    library = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("skewlab.")}
    assert {type(r) for r in INSTANCES} == library | {CliqueInstance} and len(library) == 10


@pytest.mark.parametrize("record", INSTANCES, ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    values = fields(record)
    twin = cls(**values)  # keyword construction in field order
    assert twin == record and not twin != record and twin is not record
    if cls is ExtremalResult:  # its witness is a list
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    # the repr a frozen dataclass with these fields prints
    reference = dataclasses.make_dataclass(cls.__name__, list(values), frozen=True)
    assert repr(record) == repr(reference(**values))

    # same fields, another type: never equal, in either order
    other = object.__new__(type("Other", (Record,), {"__slots__": cls.__slots__}))
    for name, value in values.items():
        object.__setattr__(other, name, value)
    assert record != other and other != record
    assert record != tuple(values.values())

    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert fields(record) == values

    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


@pytest.mark.parametrize("args, kwargs", [
    ((1, [0], 0.0, 9), {}),  # too many positional fields
    ((1, [0]), {}),  # elapsed_ms missing
    ((1, [0], 0.0), {"size": 1}),  # size given twice
    ((1, [0], 0.0), {"stats": None}),  # unknown keyword
    ((), {"size": 1, "witness": [0], "elapsed": 0.0}),  # unknown in place of a missing one
])
def test_record_constructor_takes_each_field_once(args, kwargs):
    with pytest.raises(TypeError) as info:
        ExtremalResult(*args, **kwargs)
    assert str(info.value) == ("ExtremalResult takes the fields (size, witness, elapsed_ms), "
                               "each once, by position or keyword")


def test_records_with_one_field_changed_differ():
    assert BitString(3, 5) != BitString(3, 4) and BitString(3, 5) != BitString(4, 5)
    result = exact_M(2)
    assert result != ExtremalResult(result.size, result.witness[::-1], result.elapsed_ms)
    assert ExtremalResult(1, witness=[0], elapsed_ms=0.0) == ExtremalResult(1, [0], 0.0)


@pytest.mark.parametrize("build, message", [
    (lambda: BitString(length=0, bits=0), "length must be in [1, 64], got 0"),
    (lambda: BitString(length=2, bits=4), "bits 0b100 out of range for length 2"),
    (lambda: Family(length=65, masks=()), "length must be in [1, 64], got 65"),
    (lambda: Family(length=2, masks=(2, 1)), "masks must be strictly ascending in [0, 2^2)"),
    (lambda: Partition(parts=()), "a partition needs at least one part"),
    (lambda: Partition(parts=(2, 0)), "every part must be >= 1, got (2, 0)"),
    (lambda: Table(columns=("a",), rows=((1, 2),)), "row width does not match column count"),
    (lambda: CliqueInstance(count=0, rows=()), "element count must be in [1, 4096], got 0"),
    (lambda: CliqueInstance(count=2, rows=(2,)), "rows length must equal element count"),
    (lambda: CliqueInstance(count=2, rows=(1, 0)), "row 0 holds itself or an index outside [0, 2)"),
])
def test_record_validation(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
