"""The package's value classes: equality, hashing, repr, immutability, copies and ``__match_args__``."""

import copy
import pickle

import pytest

from touchard import (
    DyckWord,
    MotzkinDecomposition,
    MotzkinWord,
    PathDrawing,
    TouchardDecomposition,
    motzkin_rhs,
    touchard_rhs,
)
from touchard.render import Step
from touchard.verify import VerifyConfig

UP, DOWN = Step(1, "neutral"), Step(-1, "neutral")

# (make, a different value of the same class, repr, __match_args__, every compared field in order)
VALUES = {
    "Word": (
        lambda: DyckWord("UD"), lambda: DyckWord("UUDD"),
        "DyckWord('UD')", ("text",), ("text",),
    ),
    "TouchardDecomposition": (
        lambda: TouchardDecomposition((1, 4), DyckWord("UD"), (False, True)),
        lambda: TouchardDecomposition((1, 4), DyckWord("UD"), (True, True)),
        "TouchardDecomposition(positions=(1, 4), core=DyckWord('UD'), colors=(False, True))",
        ("positions", "core", "colors"), ("positions", "core", "colors"),
    ),
    "MotzkinDecomposition": (
        lambda: MotzkinDecomposition((2,), MotzkinWord("UD")),
        lambda: MotzkinDecomposition((1,), MotzkinWord("UD")),
        "MotzkinDecomposition(red_positions=(2,), core=MotzkinWord('UD'))",
        ("red_positions", "core"), ("red_positions", "core"),
    ),
    "PathDrawing": (
        lambda: PathDrawing([UP, DOWN]), lambda: PathDrawing([UP, UP, DOWN, DOWN]),
        "PathDrawing(steps=(Step(dy=1, color='neutral'), Step(dy=-1, color='neutral')))",
        ("steps",), ("steps",),
    ),
    "IdentityReport": (
        lambda: touchard_rhs(3), lambda: motzkin_rhs(3),
        "IdentityReport(n=3, lhs=14, rhs=14, per_k_terms=(8, 6), holds=True)",
        ("n", "lhs", "per_k_terms"), ("n", "lhs", "rhs", "per_k_terms", "holds"),
    ),
    "VerifyConfig": (
        lambda: VerifyConfig(), lambda: VerifyConfig(output_format="ndjson"),
        "VerifyConfig(max_identity_n=200, max_census_n=9, max_roundtrip_len=10, output_format='text')",
        ("max_identity_n", "max_census_n", "max_roundtrip_len", "output_format"),
        ("max_identity_n", "max_census_n", "max_roundtrip_len", "output_format"),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_class(name):
    make, make_other, text, match_args, fields = VALUES[name]
    value, twin = make(), make()
    assert repr(value) == text
    assert type(value).__match_args__ == match_args

    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(tuple(getattr(value, field) for field in fields))
    assert value != make_other()
    for other_name, (make_foreign, *_) in VALUES.items():
        assert (value == make_foreign()) is (other_name == name)

    for field in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text

    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)
        assert repr(clone) == text



CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda value: pickle.loads(pickle.dumps(value))}


def altered(value, **fields):
    """``value`` with ``fields`` written past its frozen ``__setattr__``, as a tampered pickle would restore them."""
    value.__dict__.update(fields)
    return value


@pytest.mark.parametrize("clone", CLONES)
def test_copies_and_pickles_are_built_by_the_checking_constructor(clone):
    clone = CLONES[clone]
    with pytest.raises(ValueError, match="falls below the axis at step 1"):
        clone(altered(PathDrawing([UP, DOWN]), steps=(DOWN, UP)))
    with pytest.raises(ValueError, match="max_census_n must be a non-negative int, not -1"):
        clone(altered(VerifyConfig(), max_census_n=-1))
    # The report's rhs and holds are derived again from the fields it is built from.
    report = clone(altered(touchard_rhs(3), lhs=15))
    assert (report.lhs, report.rhs, report.holds) == (15, 14, False)
