import json

import pytest

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
