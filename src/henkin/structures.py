"""Finite predicate structures: a universe of labelled individuals plus, for
each arity, an explicit set of truth tables serving as the predicate domain.

A table over a universe of size k stores its k^n truth values row-major in
lexicographic order of argument tuples, matching the serialized bitstring
format: position of (i1, ..., in) is i1*k^(n-1) + ... + in.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from itertools import islice, permutations, product
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

from .parser import parse_var
from .syntax import Var, integers

# the default caps live here, so that the CLI's parser needs neither fraenkel nor groups
DEFAULT_TABLE_CAP = 65536
DEFAULT_PRED_CAP = 200_000  # symbolic candidates and mask words (fraenkel)
DEFAULT_GROUP_CAP = 10_000  # group elements (groups)


class StructureError(Exception):
    """Ill-formed structure, table, or assignment."""


class CapExceeded(Exception):
    """A configured resource cap would be exceeded."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what}: needs {needed}, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


def value_tuple(name: str, fields: str) -> type:
    """``namedtuple(name, fields)`` for a value type that validates in
    ``__new__``: its ``_make``, and so ``_replace``, build through the
    subclass's constructor instead of around it."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Table(value_tuple("Table", "size arity bits")):
    """Truth table of an n-ary predicate over a universe of ``size`` individuals."""

    __slots__ = ()

    def __new__(cls, size: int, arity: int, bits: Iterable[bool]) -> Table:
        bits = tuple(map(bool, bits))
        size, arity = integers(StructureError, "table size and arity must be integers", size, arity)
        if size < 1:
            raise StructureError("table needs a nonempty universe")
        if arity < 1:
            raise StructureError("table arity must be >= 1")
        if len(bits) != size**arity:
            raise StructureError(
                f"table of arity {arity} over {size} individuals "
                f"needs {size ** arity} entries, got {len(bits)}"
            )
        return tuple.__new__(cls, (size, arity, bits))

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


@lru_cache(maxsize=4096)
def preimage_points(mapping: tuple[int, ...], arity: int) -> tuple[int, ...]:
    """The row-major index of each point's preimage under the permutation
    ``mapping`` of the universe: the image of a table under it reads its
    bits at these indices."""
    size = len(mapping)
    inverse = sorted(range(size), key=mapping.__getitem__)
    indices = [0]
    for _ in range(arity):  # one argument at a time, row-major
        indices = [i * size + j for i in indices for j in inverse]
    return tuple(indices)


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


class Structure:
    """A finite predicate structure: individuals plus per-arity table domains.
    Structures compare by value and, as they hold dicts, are unhashable."""

    def __init__(self, individuals: Iterable[str], domains: Mapping[int, Iterable[Table]]):
        self.individuals = tuple(str(a) for a in individuals)
        self.domains = {int(n): frozenset(ts) for n, ts in domains.items()}
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
        self._sorted = {n: tuple(sorted(ts)) for n, ts in self.domains.items()}
        self._rows = {n: tuple(t.bits for t in ts) for n, ts in self._sorted.items()}
        self._by_bits = {n: {r: j for j, r in enumerate(rs)} for n, rs in self._rows.items()}
        self._index = {a: i for i, a in enumerate(self.individuals)}
        self._columns: dict[int, tuple[int, ...]] = {}
        self._automorphisms: tuple | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.individuals, self.domains) == (other.individuals, other.domains)

    def __repr__(self) -> str:
        return f"Structure(individuals={self.individuals!r}, domains={self.domains!r})"

    @property
    def size(self) -> int:
        return len(self.individuals)

    def domain(self, arity: int) -> tuple[Table, ...]:
        """The arity-n domain in increasing table order."""
        try:
            return self._sorted[arity]
        except KeyError:
            raise StructureError(f"no domain of arity {arity}") from None

    def rows(self, arity: int) -> tuple[tuple[bool, ...], ...]:
        """The bits of the tables of ``domain(arity)``, empty if it has none."""
        return self._rows.get(arity, ())

    def by_bits(self, arity: int) -> dict[tuple[bool, ...], int]:
        """The arity-n domain's positions by bits, empty if it has none."""
        return self._by_bits.get(arity, {})

    def columns(self, arity: int) -> tuple[int, ...]:
        """The arity-n domain by row-major point: bit j of entry i is bit i
        of the j-th table of ``domain(arity)``.  Computed on first use."""
        columns = self._columns
        if arity not in columns:
            # a point's bits over the tables, last table first, read as a binary numeral
            digits = ("".join(map("01".__getitem__, reversed(c))) for c in zip(*self.rows(arity)))
            columns[arity] = tuple(int(d, 2) for d in digits)
        return columns[arity]

    def automorphisms(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """The permutations of the universe but the identity, in
        ``permutations`` order, that map every domain onto itself, each as
        its ``image_maps``.  Computed on first use."""
        if self._automorphisms is None:
            perms = islice(permutations(range(self.size)), 1, None)
            self._automorphisms = tuple(filter(None, map(self.image_maps, perms)))
        return self._automorphisms

    def image_maps(self, mapping: tuple[int, ...]) -> dict[int, tuple[int, ...]] | None:
        """Each value's image under the permutation ``mapping`` of the
        universe, per pool: 0 for the universe, else the positions of
        ``domain(n)``.  None at the first table whose image is missing."""
        maps = {0: tuple(mapping)}
        try:
            for n, rows in self._rows.items():
                points = preimage_points(maps[0], n)
                pick = itemgetter(*points) if len(points) > 1 else tuple  # one point: identity
                maps[n] = tuple(map(self._by_bits[n].__getitem__, map(pick, rows)))
        except KeyError:
            return None
        return maps

    def label_index(self, label: str) -> int:
        try:
            return self._index[label]
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


class Assignment(value_tuple("Assignment", "values")):
    """Partial explicit assignment; unmentioned variables fall back to the
    evaluator's deterministic defaults (first individual, least table).
    As it holds a dict, it is unhashable."""

    __slots__ = ()

    def __new__(cls, values: Mapping[Var, object]) -> Assignment:
        vals = dict(values)
        for var, value in vals.items():
            if not isinstance(var, Var):
                raise StructureError(f"assignment keys must be variables, got {var!r}")
            if var.is_individual:
                if not isinstance(value, int):
                    raise StructureError(f"{var} needs an individual index, got {value!r}")
            else:
                if not isinstance(value, Table) or value.arity != var.arity:
                    raise StructureError(f"{var} needs a table of arity {var.arity}")
        return tuple.__new__(cls, (vals,))

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
# Assignment files map variable names to labels and bitstrings, and take
# no other keys:
#   {"individuals": {"x1": "a"}, "predicates": {"A0^2": "1001"}}
# ---------------------------------------------------------------------------

ASSIGNMENT_KEYS = ("individuals", "predicates")


def structure_to_dict(structure: Structure) -> dict:
    return {
        "individuals": list(structure.individuals),
        "domains": {
            str(n): [t.bitstring() for t in structure.domain(n)]
            for n in sorted(structure.domains)
        },
    }


def json_shape(
    data, what: str, kind: type = dict, error: type[Exception] = StructureError, keys=()
):
    """``data`` itself if it has the JSON shape ``kind`` (``dict`` for an
    object, ``list`` for an array) and no key outside ``keys`` if those are
    given, else ``error``."""
    if not isinstance(data, kind):
        shape = "an object" if kind is dict else "an array"
        raise error(f"{what} must be {shape}, got {type(data).__name__}")
    if keys and not set(data) <= set(keys):
        raise error(f"{what} takes only the keys {', '.join(keys)}, got {', '.join(sorted(data))}")
    return data


def json_labels(data) -> tuple[str, ...]:
    """The labels of an ``individuals`` array, which must all be strings."""
    labels = tuple(json_shape(data, "individuals", list))
    for label in labels:
        if not isinstance(label, str):
            raise StructureError(f"individual labels must be strings, got {type(label).__name__}")
    return labels


def structure_from_dict(data: dict) -> Structure:
    data = json_shape(data, "structure document")
    if "individuals" not in data or "domains" not in data:
        raise StructureError("structure document needs individuals and domains")
    individuals = json_labels(data["individuals"])
    domains = {}
    for key, bitstrings in json_shape(data["domains"], "domains").items():
        try:
            n = int(key)
        except ValueError:
            n = None
        # one spelling per arity: "01" or " 1" would merge with "1"
        if n is None or str(n) != key:
            raise StructureError(f"domain key {key!r} is not an arity")
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


def json_var(name: str, error: type[Exception] = StructureError) -> Var:
    """The variable a document key names, which must be spelled as it
    prints: ``x01`` would merge with ``x1``."""
    var = parse_var(name)
    if str(var) != name:
        raise error(f"variable key {name!r} is not spelled {str(var)!r}")
    return var


def assignment_from_dict(data: dict, structure: Structure) -> Assignment:
    data = json_shape(data, "assignment document", keys=ASSIGNMENT_KEYS)
    values: dict[Var, object] = {}
    for name, label in json_shape(data.get("individuals", {}), "individuals").items():
        var = json_var(name)
        if not var.is_individual:
            raise StructureError(f"{name} is not an individual variable")
        if not isinstance(label, str):
            raise StructureError(f"individual labels must be strings, got {type(label).__name__}")
        values[var] = structure.label_index(label)
    for name, bitstring in json_shape(data.get("predicates", {}), "predicates").items():
        var = json_var(name)
        if not var.is_predicate:
            raise StructureError(f"{name} is not a predicate variable")
        values[var] = Table.from_bitstring(structure.size, var.arity, bitstring)
    return Assignment(values)
