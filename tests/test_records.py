"""The package's nine records are NamedTuples with the value semantics of
frozen dataclasses.

Root, ReductiveType, RealFormDescriptor, CharacterSum, Step, Report,
CensusRow, Census and Configuration: each is a NamedTuple whose fields are
its annotations in order, compared, hashed and shown in full, and none can
be assigned to.  CensusRow and Census keep their defaults (provenance
"generic", no conjugators), and the census's rows are built by position.
"""

import pytest

from kleinfour.autos import CharacterSum
from kleinfour.identify import ReductiveType
from kleinfour.realform import RealFormDescriptor
from kleinfour.rootsys import Root
from kleinfour.verify import Census, CensusRow, Configuration, Report, Step

RECORDS = [Root, ReductiveType, RealFormDescriptor, CharacterSum, Step, Report,
           CensusRow, Census, Configuration]


def _fields(cls):
    return list(cls.__annotations__)


def _record(cls):
    """A record with a distinct hashable stand-in in every field."""
    return cls(*(f"{name}-value" for name in _fields(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_and_hash_ignore_exactly_the_uncompared_fields(cls):
    """No field is left out: == and hash are the tuple's, over every field,
    so a copy with any one field changed is unequal."""
    assert issubclass(cls, tuple) and cls._fields == tuple(_fields(cls))
    record = _record(cls)
    assert record == _record(cls) and hash(record) == hash(_record(cls))
    for name in _fields(cls):
        other = record._replace(**{name: "changed"})
        assert getattr(other, name) == "changed"
        assert other != record and not other == record, name


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    record = _record(cls)
    for name in _fields(cls) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    assert record == _record(cls)


def test_repr_is_the_dataclass_text():
    """The texts a frozen dataclass printed for these records, every field shown."""
    assert repr(Root((1, 0, -1), 0)) == "Root(coords=(1, 0, -1), height=0)"
    assert repr(ReductiveType.make([("A", 1), ("D", 5)], 1)) == (
        "ReductiveType(summands=(('D', 5), ('A', 1)), center_dim=1)")
    assert repr(Step("signature", [30, 16], [30, 16], "derived", True)) == (
        "Step(claim='signature', computed=[30, 16], expected=[30, 16], "
        "provenance='derived', passed=True)")
    row = CensusRow("torus:0,1,0,0,0,0", "inner", 38, "A5+A1", "sigma1", True, "a",
                    ("torus:1,0,0,0,0,0", "torus:0,0,1,0,0,0"))
    assert repr(row) == (
        "CensusRow(descriptor='torus:0,1,0,0,0,0', kind='inner', fixed_dim=38, "
        "fixed_type='A5+A1', label='sigma1', trace_identity_ok=True, automorphism='a', "
        "provenance=('torus:1,0,0,0,0,0', 'torus:0,0,1,0,0,0'))")
    assert repr(Census((), {}, {}, {}, 64, 16, ("x",))) == (
        "Census(rows=(), inner_counts={}, outer_counts={}, realform_names={}, "
        "twist_candidates=64, twist_involutions=16, conjugators=('x',))")


def test_census_rows_default_to_generic_provenance_and_reject_bad_fields():
    assert CensusRow._field_defaults == {"provenance": "generic"}
    assert Census._field_defaults == {"conjugators": ()}
    assert Configuration._field_defaults == {}
    row = CensusRow("d", "inner", 38, "A5+A1", "sigma1", True, automorphism=None)
    assert row.provenance == "generic"
    for args, kwargs in (((), {}), (tuple(range(9)), {}), (tuple(range(8)), {"extra": 1})):
        with pytest.raises(TypeError):
            CensusRow(*args, **kwargs)
    with pytest.raises(TypeError, match="multiple values for argument 'descriptor'"):
        CensusRow("d", "inner", 38, "A5+A1", "sigma1", True, None, descriptor="x")
    with pytest.raises(TypeError, match="multiple values for argument 'rows'"):
        Census((), {}, {}, {}, 64, 16, rows=(1,))
