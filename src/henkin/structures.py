"""Finite predicate structures: a universe of labelled individuals plus, for
each arity, an explicit set of truth tables serving as the predicate domain.

A table over a universe of size k stores its k^n truth values row-major in
lexicographic order of argument tuples, matching the serialized bitstring
format: position of (i1, ..., in) is i1*k^(n-1) + ... + in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping

from .syntax import Var

DEFAULT_TABLE_CAP = 65536


class StructureError(Exception):
    """Ill-formed structure, table, or assignment."""


class CapExceeded(Exception):
    """A configured resource cap would be exceeded."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what}: needs {needed}, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


@dataclass(frozen=True, order=True)
class Table:
    """Truth table of an n-ary predicate over a universe of ``size`` individuals."""

    size: int
    arity: int
    bits: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))
        if self.size < 1:
            raise StructureError("table needs a nonempty universe")
        if self.arity < 1:
            raise StructureError("table arity must be >= 1")
        if len(self.bits) != self.size**self.arity:
            raise StructureError(
                f"table of arity {self.arity} over {self.size} individuals "
                f"needs {self.size ** self.arity} entries, got {len(self.bits)}"
            )

    def __call__(self, point: tuple[int, ...]) -> bool:
        if len(point) != self.arity:
            raise StructureError(f"expected {self.arity} arguments, got {len(point)}")
        idx = 0
        for i in point:
            if not 0 <= i < self.size:
                raise StructureError(f"individual index {i} out of range")
            idx = idx * self.size + i
        return self.bits[idx]

    @classmethod
    def from_function(cls, size: int, arity: int, fn) -> "Table":
        return cls(size, arity, tuple(fn(p) for p in product(range(size), repeat=arity)))

    @classmethod
    def from_tuples(cls, size: int, arity: int, tuples: Iterable[tuple[int, ...]]) -> "Table":
        accepted = set(tuple(t) for t in tuples)
        return cls.from_function(size, arity, lambda p: p in accepted)

    @classmethod
    def constant(cls, size: int, arity: int, value: bool) -> "Table":
        return cls(size, arity, (bool(value),) * (size**arity))

    @classmethod
    def from_bitstring(cls, size: int, arity: int, s: str) -> "Table":
        if not isinstance(s, str) or set(s) - {"0", "1"}:
            raise StructureError(f"bitstring must be a string of 0 and 1: {s!r}")
        return cls(size, arity, tuple(c == "1" for c in s))

    def bitstring(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def tuples(self) -> frozenset[tuple[int, ...]]:
        """The relation: all argument tuples mapped to true."""
        return frozenset(
            p for p, b in zip(product(range(self.size), repeat=self.arity), self.bits) if b
        )

    def complement(self) -> "Table":
        return Table(self.size, self.arity, tuple(not b for b in self.bits))


def equality_table(size: int) -> Table:
    return Table.from_function(size, 2, lambda p: p[0] == p[1])


def all_tables(size: int, arity: int, *, cap: int = DEFAULT_TABLE_CAP) -> list[Table]:
    """Every n-ary table over the universe, in increasing bit order."""
    count = 2 ** (size**arity)
    if count > cap:
        raise CapExceeded(f"pred_{arity} over {size} individuals", count, cap)
    return [
        Table(size, arity, bits) for bits in product((False, True), repeat=size**arity)
    ]


@dataclass(frozen=True, eq=True)
class Structure:
    """A finite predicate structure: individuals plus per-arity table domains."""

    individuals: tuple[str, ...]
    domains: Mapping[int, frozenset[Table]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "individuals", tuple(str(a) for a in self.individuals))
        object.__setattr__(
            self, "domains", {int(n): frozenset(ts) for n, ts in self.domains.items()}
        )
        if not self.individuals:
            raise StructureError("the universe must be nonempty")
        if len(set(self.individuals)) != len(self.individuals):
            raise StructureError("individual labels must be distinct")
        for n, tables in self.domains.items():
            if n < 1:
                raise StructureError(f"domain arity must be >= 1, got {n}")
            if not tables:
                raise StructureError(f"domain of arity {n} must be nonempty")
            for t in tables:
                if t.arity != n or t.size != len(self.individuals):
                    raise StructureError(f"table {t.bitstring()} does not fit arity {n}")
        object.__setattr__(
            self, "_sorted", {n: tuple(sorted(ts)) for n, ts in self.domains.items()}
        )
        object.__setattr__(
            self, "_index", {a: i for i, a in enumerate(self.individuals)}
        )

    # dict-valued fields make the generated hash unusable; structures are
    # compared by value only.
    __hash__ = None  # type: ignore[assignment]

    @property
    def size(self) -> int:
        return len(self.individuals)

    @property
    def max_arity(self) -> int:
        return max(self.domains)

    def domain(self, arity: int) -> tuple[Table, ...]:
        """The arity-n domain in increasing table order."""
        try:
            return self._sorted[arity]  # type: ignore[attr-defined]
        except KeyError:
            raise StructureError(f"no domain of arity {arity}") from None

    def label_index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise StructureError(f"unknown individual {label!r}") from None


def standard_structure(
    labels: Iterable[str], max_arity: int, *, table_cap: int = DEFAULT_TABLE_CAP
) -> Structure:
    """The full structure: every table of every arity up to ``max_arity``."""
    labels = tuple(labels)
    domains = {
        n: frozenset(all_tables(len(labels), n, cap=table_cap))
        for n in range(1, max_arity + 1)
    }
    return Structure(labels, domains)


# ---------------------------------------------------------------------------
# Assignments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class Assignment:
    """Partial explicit assignment; unmentioned variables fall back to the
    evaluator's deterministic defaults (first individual, least table)."""

    values: Mapping[Var, object]

    def __post_init__(self) -> None:
        vals = dict(self.values)
        for var, value in vals.items():
            if not isinstance(var, Var):
                raise StructureError(f"assignment keys must be variables, got {var!r}")
            if var.is_individual:
                if not isinstance(value, int):
                    raise StructureError(f"{var} needs an individual index, got {value!r}")
            else:
                if not isinstance(value, Table) or value.arity != var.arity:
                    raise StructureError(f"{var} needs a table of arity {var.arity}")
        object.__setattr__(self, "values", vals)

    __hash__ = None  # type: ignore[assignment]

    def get(self, var: Var):
        return self.values.get(var)

    def variables(self) -> tuple[Var, ...]:
        return tuple(sorted(self.values))


# ---------------------------------------------------------------------------
# Serialization.
#
# Structure files are JSON documents:
#   {"individuals": ["a", "b"],
#    "domains": {"1": ["10", "01"], "2": ["1001"]}}
# with one bitstring per table, row-major lexicographic.  Extra keys (e.g.
# "group", "filter" for model specifications) are preserved by loaders that
# need them and ignored here.
#
# Assignment files map variable names to labels and bitstrings:
#   {"individuals": {"x1": "a"}, "predicates": {"A0^2": "1001"}}
# ---------------------------------------------------------------------------


def structure_to_dict(structure: Structure) -> dict:
    return {
        "individuals": list(structure.individuals),
        "domains": {
            str(n): [t.bitstring() for t in structure.domain(n)]
            for n in sorted(structure.domains)
        },
    }


def json_shape(data, what: str, kind: type = dict, error: type[Exception] = StructureError):
    """``data`` itself if it has the JSON shape ``kind`` (``dict`` for an
    object, ``list`` for an array), else ``error``."""
    if not isinstance(data, kind):
        shape = "an object" if kind is dict else "an array"
        raise error(f"{what} must be {shape}, got {type(data).__name__}")
    return data


def structure_from_dict(data: dict) -> Structure:
    data = json_shape(data, "structure document")
    if "individuals" not in data or "domains" not in data:
        raise StructureError("structure document needs individuals and domains")
    individuals = tuple(json_shape(data["individuals"], "individuals", list))
    domains = {}
    for key, bitstrings in json_shape(data["domains"], "domains").items():
        n = int(key)
        domains[n] = frozenset(
            Table.from_bitstring(len(individuals), n, s)
            for s in json_shape(bitstrings, f"domain {key}", list)
        )
    return Structure(individuals, domains)


def load_structure(path: str | Path) -> Structure:
    with open(path, encoding="utf-8") as fh:
        return structure_from_dict(json.load(fh))


def save_structure(structure: Structure, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(structure_to_dict(structure), fh, indent=2, sort_keys=True)
        fh.write("\n")


def assignment_to_dict(assignment: Assignment, structure: Structure) -> dict:
    individuals = {}
    predicates = {}
    for var in assignment.variables():
        value = assignment.get(var)
        if var.is_individual:
            individuals[str(var)] = structure.individuals[value]  # type: ignore[index]
        else:
            predicates[str(var)] = value.bitstring()  # type: ignore[union-attr]
    return {"individuals": individuals, "predicates": predicates}


def assignment_from_dict(data: dict, structure: Structure) -> Assignment:
    from .parser import parse_var

    data = json_shape(data, "assignment document")
    values: dict[Var, object] = {}
    for name, label in json_shape(data.get("individuals", {}), "individuals").items():
        var = parse_var(name)
        if not var.is_individual:
            raise StructureError(f"{name} is not an individual variable")
        values[var] = structure.label_index(label)
    for name, bitstring in json_shape(data.get("predicates", {}), "predicates").items():
        var = parse_var(name)
        if not var.is_predicate:
            raise StructureError(f"{name} is not a predicate variable")
        values[var] = Table.from_bitstring(structure.size, var.arity, bitstring)
    return Assignment(values)
