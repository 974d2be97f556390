"""``Leaf``, ``Just``, ``Diagnostic`` and ``FlatLine`` behave as the frozen dataclasses they stand for.

Each is checked against a frozen dataclass of the same name and fields
(``helpers.REFERENCE_DATACLASSES``). Values leave NaN out: on Python 3.13
a dataclass compares its fields one by one, so ``nan == nan`` decides
there, while dtry's values compare their fields as one tuple on every
Python (see ``test_core.TestNodeContract``).
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtry.core import Leaf
from dtry.formats import Diagnostic
from dtry.maybe import Just

from helpers import REFERENCE_DATACLASSES

FIELDS = st.one_of(
    st.sampled_from([0, 1, 1.0, True, -0.0, "", "a", None, (1,), [1], []]),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
)


@st.composite
def values(draw):
    """A class of ``REFERENCE_DATACLASSES`` and field values for it."""
    cls = draw(st.sampled_from(list(REFERENCE_DATACLASSES)))
    return cls, tuple(draw(FIELDS) for _ in cls.__match_args__)


def both(cls, fields):
    """The value of ``cls`` with ``fields``, and the reference dataclass's."""
    return cls(*fields), REFERENCE_DATACLASSES[cls](*fields)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def frozen_errors(value, field):
    """The message of each refused set and delete, of ``field`` and of a new attribute."""
    messages = []
    for attempt in (
        lambda: setattr(value, field, 0),
        lambda: delattr(value, field),
        lambda: setattr(value, "other", 0),
        lambda: delattr(value, "other"),
    ):
        with pytest.raises(FrozenInstanceError) as info:
            attempt()
        messages.append(str(info.value))
    return messages


@given(values(), values())
def test_repr_eq_and_hash_as_the_dataclass(a, b):
    (cls, fields), (other_cls, other_fields) = a, b
    ours, ref = both(cls, fields)
    assert repr(ours) == repr(ref)
    assert hash_or_error(ours) == hash_or_error(ref)
    pairs = [both(other_cls, other_fields)]
    if len(other_fields) == len(fields):  # the same fields in the other class, and the other's in this one
        pairs += [both(cls, other_fields), both(other_cls, fields)]
    pairs += [(other, other) for other in (fields, fields[0], None, "x", object())]
    for theirs, ref_theirs in pairs:
        assert (ours == theirs) == (ref == ref_theirs)
        assert (ours != theirs) == (ref != ref_theirs)
        assert (theirs == ours) == (ref_theirs == ref)


@given(values())
def test_copies_and_pickles_are_equal_values(a):
    cls, fields = a
    ours, _ = both(cls, fields)
    clones = [copy.copy(ours), copy.deepcopy(ours)]
    clones += [pickle.loads(pickle.dumps(ours, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is cls and clone == ours and repr(clone) == repr(ours)


@given(values())
def test_frozen_as_the_dataclass(a):
    cls, fields = a
    ours, ref = both(cls, fields)
    for field in cls.__match_args__:
        assert frozen_errors(ours, field) == frozen_errors(ref, field)
    assert repr(ours) == repr(ref)  # nothing was set or deleted
    assert not hasattr(ours, "__dict__")


@pytest.mark.parametrize("cls", list(REFERENCE_DATACLASSES), ids=lambda c: c.__name__)
def test_fields_by_name(cls):
    assert cls.__match_args__ == REFERENCE_DATACLASSES[cls].__match_args__
    fields = dict(zip(cls.__match_args__, range(len(cls.__match_args__))))
    assert cls(**fields) == cls(*fields.values())


def test_class_patterns_read_the_fields():
    match Leaf(1), Diagnostic("E_SYNTAX", 3, "m"):
        case Leaf(value), Diagnostic(code, line, message):
            assert (value, code, line, message) == (1, "E_SYNTAX", 3, "m")
        case _:
            pytest.fail("no pattern matched")


@pytest.mark.parametrize("cls", [Leaf, Just], ids=lambda c: c.__name__)
def test_subscripted_classes_make_values(cls):
    ours, ref = cls[int](3), REFERENCE_DATACLASSES[cls][int](3)
    assert ours == cls(3) and repr(ours) == repr(ref)
