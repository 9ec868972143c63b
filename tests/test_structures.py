import copy
import json
import pickle

import pytest

from henkin.fraenkel import EqType, FraenkelError, SymbolicPredicate
from henkin.groups import Group, Permutation, PrincipalNormal
from henkin.schemas import SchemaId
from henkin.syntax import SignatureError
from henkin.structures import (
    Assignment,
    CapExceeded,
    Structure,
    StructureError,
    Table,
    all_tables,
    assignment_from_dict,
    assignment_to_dict,
    equality_table,
    load_structure,
    save_structure,
    standard_structure,
    structure_from_dict,
    structure_to_dict,
)
from henkin.syntax import ind, pred


class TestTable:
    def test_row_major_order(self):
        t = Table.from_function(2, 2, lambda p: p == (0, 1))
        assert t.bits == (False, True, False, False)
        assert t((0, 1)) and not t((1, 0))
        assert t.bitstring() == "0100"

    def test_round_trip_bitstring(self):
        t = Table.from_bitstring(3, 2, "101010101")
        assert Table.from_bitstring(3, 2, t.bitstring()) == t

    def test_tuples_inverse(self):
        t = Table.from_tuples(3, 2, [(0, 1), (2, 2)])
        assert t.tuples() == frozenset({(0, 1), (2, 2)})

    def test_size_checked(self):
        with pytest.raises(StructureError):
            Table(2, 2, (True,) * 3)
        with pytest.raises(StructureError):
            Table.from_bitstring(2, 1, "2x")

    def test_equality_table(self):
        t = equality_table(3)
        assert t.tuples() == frozenset({(i, i) for i in range(3)})

    def test_hashes_as_its_fields(self):
        # so sets and dicts of tables iterate in the same order as tuples would
        for t in all_tables(2, 2):
            assert hash(t) == hash((t.size, t.arity, t.bits))

    def test_all_tables_counts_and_cap(self):
        assert len(all_tables(2, 1)) == 4
        assert len(all_tables(2, 2)) == 16
        with pytest.raises(CapExceeded):
            all_tables(3, 2, cap=100)


class TestStructure:
    def test_standard_counts(self):
        s = standard_structure(("a", "b", "c"), 2)
        assert len(s.domains[1]) == 8 and len(s.domains[2]) == 512

    def test_validation(self):
        with pytest.raises(StructureError):
            Structure((), {1: frozenset(all_tables(1, 1))})
        with pytest.raises(StructureError):
            Structure(("a", "a"), {1: frozenset(all_tables(2, 1))})
        with pytest.raises(StructureError):
            Structure(("a",), {1: frozenset()})
        with pytest.raises(StructureError):
            Structure(("a",), {1: frozenset(all_tables(2, 1))})

    def test_extensional_domains_deduplicate(self):
        t1 = Table.from_bitstring(2, 1, "10")
        t2 = Table(2, 1, (True, False))
        s = Structure(("a", "b"), {1: frozenset([t1, t2])})
        assert len(s.domains[1]) == 1

    def test_domain_sorted_deterministic(self):
        s = standard_structure(("a", "b"), 1)
        assert [t.bitstring() for t in s.domain(1)] == ["00", "01", "10", "11"]

    def test_equal_by_value_and_unhashable(self):
        s = standard_structure(("a", "b"), 1)
        assert s == standard_structure(("a", "b"), 1) != standard_structure(("a", "c"), 1)
        with pytest.raises(TypeError):
            hash(s)
        assert repr(Structure(("a",), {1: [Table(1, 1, (True,))]})) == (
            "Structure(individuals=('a',), domains={1: frozenset({Table(size=1, arity=1, "
            "bits=(True,))})})"
        )

    def test_label_index(self):
        s = standard_structure(("a", "b"), 1)
        assert s.label_index("b") == 1
        with pytest.raises(StructureError):
            s.label_index("z")


class TestSerialization:
    def test_structure_round_trip(self, tmp_path, std2):
        path = tmp_path / "s.json"
        save_structure(std2, path)
        assert load_structure(path) == std2

    def test_documented_format(self, tmp_path):
        doc = {"individuals": ["a", "b"], "domains": {"1": ["10", "11"]}}
        s = structure_from_dict(doc)
        assert len(s.domains[1]) == 2
        out = structure_to_dict(s)
        assert out["domains"]["1"] == ["10", "11"]

    def test_extra_keys_ignored(self):
        doc = {
            "individuals": ["a"],
            "domains": {"1": ["1"]},
            "group": {"generators": []},
        }
        assert structure_from_dict(doc).size == 1

    def test_assignment_round_trip(self, std2):
        a = Assignment({ind(1): 1, pred(0, 2): equality_table(2)})
        doc = assignment_to_dict(a, std2)
        assert doc == {"individuals": {"x1": "b"}, "predicates": {"A0^2": "1001"}}
        assert assignment_from_dict(json.loads(json.dumps(doc)), std2) == a


class TestAssignment:
    def test_type_checks(self):
        with pytest.raises(StructureError):
            Assignment({ind(1): equality_table(2)})
        with pytest.raises(StructureError):
            Assignment({pred(0, 1): equality_table(2)})

    def test_equal_by_value_and_unhashable(self):
        assert Assignment({ind(1): 1}) == Assignment({ind(1): 1}) != Assignment({ind(1): 0})
        with pytest.raises(TypeError):
            hash(Assignment({}))


@pytest.mark.parametrize(
    "value",
    [
        Table(2, 1, (True, False)),
        Permutation((1, 0, 2)),
        Group.symmetric(3),
        EqType((0, "p", 1)),
        SchemaId("ac", n=2),
    ],
    ids=lambda value: type(value).__name__,
)
def test_copies_and_pickles_rebuild_through_new(monkeypatch, value):
    """A copy or unpickled value is validated again, like one built anew."""
    cls, new, calls = type(value), type(value).__new__, []

    def counting(cls, *args):
        calls.append(args)
        return new(cls, *args)

    monkeypatch.setattr(cls, "__new__", counting)
    twins = (copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
    assert all(twin == value and type(twin) is cls for twin in twins)
    assert calls == [tuple(value)] * 2


# a valid value, one field, a bad value for it, and the error it raises
INVALID_FIELDS = [
    (Table(2, 1, (True, False)), "bits", (True,), StructureError),
    (Assignment({ind(1): 0}), "values", {"x1": 0}, StructureError),
    (EqType((0, "p")), "entries", (1, "p"), FraenkelError),
    (SymbolicPredicate(1, ["p"], 1), "mask", 99, FraenkelError),
    (Permutation((1, 0)), "mapping", (0, 0), StructureError),
    (Group.symmetric(2), "elements", (), StructureError),
    (PrincipalNormal((Group.trivial(2),)), "generators", (), StructureError),
    (SchemaId("ac"), "family", "bogus", SignatureError),
]


@pytest.mark.parametrize(
    "value, field, bad, error", INVALID_FIELDS, ids=[type(c[0]).__name__ for c in INVALID_FIELDS]
)
def test_make_and_replace_validate(value, field, bad, error):
    """``_make`` and ``_replace`` build through the validating constructor."""
    cls = type(value)
    assert cls._make(value) == value and type(cls._make(value)) is cls
    with pytest.raises(error):
        value._replace(**{field: bad})
    with pytest.raises(error):
        cls._make(bad if name == field else old for name, old in zip(cls._fields, value))
