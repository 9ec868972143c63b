"""Finite permutation groups acting on a structure's individuals, the induced
action on tables and assignments, symmetry and stabilizer subgroups, subgroup
filters, and the permutation-model builder.

The action on an n-ary table moves the relation forward: the image table
holds at a tuple exactly when the original held at the preimage tuple.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .evaluate import att, evaluate, resolve
from .structures import (
    Assignment,
    CapExceeded,
    DEFAULT_GROUP_CAP,
    DEFAULT_TABLE_CAP,
    Structure,
    StructureError,
    Table,
    json_labels,
    json_shape,
    preimage_points,
    value_tuple,
)
from .syntax import Formula, Var


class Permutation(value_tuple("Permutation", "mapping")):
    """A bijection on {0, ..., degree-1}, stored as the image array."""

    __slots__ = ()

    def __new__(cls, mapping: Iterable[int]) -> Permutation:
        mapping = tuple(mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise StructureError(f"not a permutation: {mapping}")
        return tuple.__new__(cls, (mapping,))

    @property
    def degree(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def apply_tuple(self, point: Iterable[int]) -> tuple[int, ...]:
        return tuple(self.mapping[i] for i in point)

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: apply ``other`` first, then this one."""
        return Permutation(tuple(self.mapping[other.mapping[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its least element."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            i = self.mapping[start]
            while i != start:
                cycle.append(i)
                seen[i] = True
                i = self.mapping[i]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return tuple(out)


def cycles_string(perm: Permutation, labels: Sequence[str]) -> str:
    """One-line cycle notation over the given labels; identity prints ``()``."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(labels[i] for i in c) + ")" for c in cycles)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def perm_from_cycles(text: str, labels: Sequence[str]) -> Permutation:
    """Parse one-line cycle notation such as ``(a b)(c d)`` over the labels."""
    if not isinstance(text, str):
        raise StructureError(f"cycle notation must be a string, got {type(text).__name__}")
    index = {a: i for i, a in enumerate(labels)}
    stripped = text.replace(" ", "")
    body = "".join(m.group(0) for m in _CYCLE_RE.finditer(text))
    if stripped != body.replace(" ", ""):
        raise StructureError(f"bad cycle notation: {text!r}")
    mapping = list(range(len(labels)))
    moved: set[int] = set()
    for m in _CYCLE_RE.finditer(text):
        names = m.group(1).split()
        if not names:
            continue
        try:
            cycle = [index[name] for name in names]
        except KeyError as exc:
            raise StructureError(f"unknown individual in cycle: {exc}") from None
        if len(set(cycle)) != len(cycle) or moved & set(cycle):
            raise StructureError(f"repeated individual in cycle notation: {text!r}")
        moved |= set(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            mapping[a] = b
    return Permutation(tuple(mapping))


class Group(value_tuple("Group", "degree elements")):
    """A finite permutation group, materialized as its full element set.
    Closure under composition is not checked: it would cost ``order**2``
    compositions."""

    __slots__ = ()

    def __new__(cls, degree: int, elements: Iterable[Permutation]) -> Group:
        elements = frozenset(elements)
        if any(e.degree != degree for e in elements):
            raise StructureError(f"group elements must all have degree {degree}")
        if Permutation.identity(degree) not in elements:
            raise StructureError("a group needs at least the identity")
        return tuple.__new__(cls, (degree, elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def from_generators(
        cls, degree: int, generators: Iterable[Permutation], *, cap: int = DEFAULT_GROUP_CAP
    ) -> "Group":
        """Close the generators under composition (finite, so under inverses too)."""
        gens = [g for g in generators]
        for g in gens:
            if g.degree != degree:
                raise StructureError("generator degree mismatch")
        elements = {Permutation.identity(degree)}
        frontier = [Permutation.identity(degree)]
        while frontier:
            e = frontier.pop()
            for g in gens:
                p = g.compose(e)
                if p not in elements:
                    elements.add(p)
                    if len(elements) > cap:
                        raise CapExceeded("group closure", len(elements), cap)
                    frontier.append(p)
        return cls(degree, frozenset(elements))

    @classmethod
    def trivial(cls, degree: int) -> "Group":
        return cls(degree, frozenset({Permutation.identity(degree)}))

    @classmethod
    def symmetric(cls, degree: int, *, cap: int = DEFAULT_GROUP_CAP) -> "Group":
        if factorial(degree) > cap:
            raise CapExceeded("symmetric group", factorial(degree), cap)
        return cls(degree, frozenset(Permutation(p) for p in permutations(range(degree))))

    @classmethod
    def alternating(cls, degree: int, *, cap: int = DEFAULT_GROUP_CAP) -> "Group":
        full = cls.symmetric(degree, cap=cap * 2)
        return cls(degree, frozenset(p for p in full.elements if p.is_even()))

    def is_subgroup_of(self, other: "Group") -> bool:
        return self.elements <= other.elements

    def intersect(self, other: "Group") -> "Group":
        return Group(self.degree, self.elements & other.elements)

    def conjugated(self, perm: Permutation) -> "Group":
        inv = perm.inverse()
        return Group(
            self.degree, frozenset(perm.compose(g).compose(inv) for g in self.elements)
        )

    def is_normal_in(self, other: "Group") -> bool:
        return all(self.conjugated(g).elements == self.elements for g in other.elements)


# ---------------------------------------------------------------------------
# Actions.
# ---------------------------------------------------------------------------


def act_on_predicate(perm: Permutation, table: Table) -> Table:
    """Image table: holds at a tuple iff the original holds at its preimage."""
    if perm.degree != table.size:
        raise StructureError("permutation degree does not match the table's universe")
    index_map = preimage_points(perm.mapping, table.arity)
    return Table(table.size, table.arity, tuple(table.bits[j] for j in index_map))


def act_on_assignment(
    perm: Permutation, assignment: Assignment, structure: Structure | None = None
) -> Assignment:
    """Componentwise action: individuals map through the permutation, tables
    through the predicate action.

    When a structure is supplied, an image table falling outside its domain
    is an error rather than being accepted silently.
    """
    values: dict[Var, object] = {}
    for var, value in assignment.values.items():
        if var.is_individual:
            values[var] = perm(value)  # type: ignore[arg-type]
        else:
            image = act_on_predicate(perm, value)  # type: ignore[arg-type]
            if structure is not None and image.bits not in structure.by_bits(var.arity):
                raise StructureError(f"image of {var} under the permutation leaves the structure")
            values[var] = image
    return Assignment(values)


def symmetry_subgroup(group: Group, table: Table) -> Group:
    """All group elements whose action fixes the table."""
    return Group(
        group.degree,
        frozenset(p for p in group.elements if act_on_predicate(p, table) == table),
    )


def pointwise_stabilizer(group: Group, points: Iterable[int]) -> Group:
    """All group elements fixing every listed individual."""
    points = tuple(points)
    return Group(
        group.degree,
        frozenset(p for p in group.elements if all(p(i) == i for i in points)),
    )


def structure_closed_under(structure: Structure, perm: Permutation) -> bool:
    """Whether every domain is carried into itself by the permutation."""
    if perm.degree != structure.size:
        raise StructureError("permutation degree does not match the structure's universe")
    return structure.image_maps(perm.mapping) is not None


# ---------------------------------------------------------------------------
# Filters of subgroups.
# ---------------------------------------------------------------------------


class Filter:
    """Base for subgroup filters.  A filter is its normal core: a subgroup
    belongs iff it contains the core.  A filter without fields equals every
    filter of its kind, and hashes as its empty tuple of fields."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def core(self, group: Group) -> Group:
        """The least member over the acting group: here the trivial group."""
        return Group.trivial(group.degree)


class AllSubgroups(Filter):
    """Every subgroup belongs; yields the full standard structure."""


class FiniteSupports(Filter):
    """Subgroups containing the pointwise stabilizer of some finite set.

    Over a finite universe the stabilizer of the whole universe is trivial,
    so every subgroup qualifies and this filter is degenerate here; reports
    flag it.
    """


class PrincipalNormal(value_tuple("PrincipalNormal", "generators"), Filter):
    """The filter of subgroups containing the normal core of the generating
    family, the family being closed under conjugation first."""

    __slots__ = ()

    def __new__(cls, generators: Iterable[Group]) -> PrincipalNormal:
        generators = tuple(generators)
        if not generators:
            raise StructureError("a principal filter needs at least one generating subgroup")
        degrees = {g.degree for g in generators}
        if len(degrees) != 1:
            raise StructureError("generating subgroups must share a degree")
        return tuple.__new__(cls, (generators,))

    def core(self, group: Group) -> Group:
        return principal_core(self, group)


@lru_cache(maxsize=128)
def principal_core(filt: PrincipalNormal, group: Group) -> Group:
    """Intersection of the conjugation closure of the generating family."""
    family: set[Group] = set()
    for k in filt.generators:
        if not k.is_subgroup_of(group):
            raise StructureError("filter generator is not a subgroup of the acting group")
        for g in group.elements:
            family.add(k.conjugated(g))
    core = group
    for k in family:
        core = core.intersect(k)
    return core


def filter_contains(filt: Filter, group: Group, subgroup: Group) -> bool:
    """Membership of the subgroup in the filter over the acting group."""
    if not subgroup.is_subgroup_of(group):
        raise StructureError("membership is only defined for subgroups of the acting group")
    return filt.core(group).is_subgroup_of(subgroup)


def filter_degenerate(filt: Filter, group: Group) -> bool:
    """Whether the filter unintendedly admits every subgroup of this (finite)
    acting group; the everything-filter itself is not flagged."""
    return not isinstance(filt, AllSubgroups) and filt.core(group).order == 1


# ---------------------------------------------------------------------------
# Permutation models.
# ---------------------------------------------------------------------------


def _orbits(group: Group, arity: int) -> list[int]:
    """The orbit number of each row-major tuple under the group, orbits
    numbered in the order of their least tuple."""
    maps = [preimage_points(p.mapping, arity) for p in group.elements]
    orbit = [-1] * group.degree**arity
    count = 0
    for start in range(len(orbit)):
        if orbit[start] < 0:
            for index_map in maps:
                orbit[index_map[start]] = count
            count += 1
    return orbit


def build_permutation_model(
    labels: Sequence[str],
    group: Group,
    filt: Filter,
    max_arity: int,
    *,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> Structure:
    """The structure whose arity-n domain holds exactly the tables whose
    symmetry subgroup belongs to the filter: the tables invariant under the
    filter's core, assembled as unions of core orbits.  A trivial core gives
    the full standard structure.
    """
    labels = tuple(labels)
    size = len(labels)
    if group.degree != size:
        raise StructureError("group degree does not match the universe")
    if max_arity < 1:
        raise StructureError(f"a model needs max arity >= 1, got {max_arity}")
    core = filt.core(group)
    fixed = [sum(p(i) == i for i in range(size)) for p in core.elements]
    domains: dict[int, frozenset[Table]] = {}
    for n in range(1, max_arity + 1):
        # Burnside: the orbits of n-tuples, counted before any is built
        count = sum(k**n for k in fixed) // core.order
        if 2**count > table_cap:
            raise CapExceeded(f"invariant tables of arity {n}", 2**count, table_cap)
        rows = product((False, True), repeat=count)
        if count < size**n:  # else every orbit is one tuple, in row-major order
            rows = map(itemgetter(*_orbits(core, n)), rows)
        domains[n] = frozenset(Table(size, n, bits) for bits in rows)
    return Structure(labels, domains)


# ---------------------------------------------------------------------------
# Property checks: truth and definability transport along a permutation, and
# the stabilizer lower bound for defined predicates.
# ---------------------------------------------------------------------------


class TransportReport(NamedTuple):
    """Outcome of the transport check for one (structure, permutation,
    assignment, formula) quadruple."""

    applicable: bool
    reason: str | None
    truth_preserved: bool | None
    att_transported: bool | None


def check_transport(
    structure: Structure,
    perm: Permutation,
    assignment: Assignment,
    formula: Formula,
) -> TransportReport:
    """Check that acting on the assignment preserves truth, and that the
    defined predicate of the acted assignment is the acted defined predicate.

    Requires the structure to be closed under the permutation; otherwise the
    check is reported inapplicable rather than failed.
    """
    if not structure_closed_under(structure, perm):
        return TransportReport(False, "structure is not closed under the permutation", None, None)
    moved = act_on_assignment(perm, assignment, structure)
    truth_preserved = evaluate(structure, moved, formula) == evaluate(
        structure, assignment, formula
    )
    xs = tuple(sorted(v for v in formula.free_vars if v.is_individual))
    att_transported = None
    # the definability transport needs the distinguished variables to occur
    # only free; otherwise only the truth property applies
    if xs and not any(v in formula.bound_vars for v in xs):
        left = att(structure, formula, xs, moved).table
        right = act_on_predicate(perm, att(structure, formula, xs, assignment).table)
        att_transported = left == right
    return TransportReport(True, None, truth_preserved, att_transported)


class StabilizerReport(NamedTuple):
    """Outcome of the stabilizer lower bound for one defined predicate."""

    holds: bool
    bound_order: int
    sym_order: int
    subgroup_choices: tuple[tuple[str, str], ...]
    degenerate_filter: bool


def check_stabilizer_bound(
    structure: Structure,
    formula: Formula,
    variables: Iterable[Var],
    assignment: Assignment,
    group: Group,
    filt: Filter,
) -> StabilizerReport:
    """Verify that the defined predicate's symmetry subgroup contains the
    intersection of the parameter subgroups.

    For each free predicate parameter the subgroup is its full symmetry
    subgroup when that lies in the filter, else the filter's normal core;
    free individual parameters contribute their pointwise stabilizer; with
    no individual parameters the whole group enters the intersection.
    """
    variables = tuple(variables)
    defined = att(structure, formula, variables, assignment)
    free = formula.free_vars
    pred_params = tuple(sorted(v for v in free if v.is_predicate))
    ind_params = tuple(sorted(v for v in free if v.is_individual and v not in variables))

    choices: list[tuple[str, str]] = []
    bound = group
    for var in pred_params:
        table = structure.domain(var.arity)[resolve(structure, assignment, var)]
        sym = symmetry_subgroup(group, table)
        if filter_contains(filt, group, sym):
            piece, choice = sym, "sym"
        else:
            piece, choice = filt.core(group), "filter-core"
        choices.append((str(var), choice))
        bound = bound.intersect(piece)
    if ind_params:
        points = {resolve(structure, assignment, v) for v in ind_params}
        bound = bound.intersect(pointwise_stabilizer(group, points))
    sym_att = symmetry_subgroup(group, defined.table)
    return StabilizerReport(
        holds=bound.is_subgroup_of(sym_att),
        bound_order=bound.order,
        sym_order=sym_att.order,
        subgroup_choices=tuple(choices),
        degenerate_filter=filter_degenerate(filt, group),
    )


# ---------------------------------------------------------------------------
# Model specifications: structure files extended with group and filter keys.
# ---------------------------------------------------------------------------


class ModelSpec(NamedTuple):
    labels: tuple[str, ...]
    group: Group
    filt: Filter


def model_spec_from_dict(data: dict, *, group_cap: int = DEFAULT_GROUP_CAP) -> ModelSpec:
    """Read ``individuals``, ``group: {generators: [...]}`` and ``filter:
    {kind, generators?}`` from a structure document, whose only other key is ``domains``."""
    data = json_shape(data, "model spec", keys=("individuals", "domains", "group", "filter"))
    labels = json_labels(data.get("individuals"))
    group_doc = json_shape(data.get("group", {}), "group", keys=("generators",))
    generators = json_shape(group_doc.get("generators", []), "generators", list)
    gens = [perm_from_cycles(text, labels) for text in generators]
    if gens:
        group = Group.from_generators(len(labels), gens, cap=group_cap)
    else:
        group = Group.symmetric(len(labels), cap=group_cap)
    fdata = json_shape(data.get("filter", {"kind": "all"}), "filter", keys=("kind", "generators"))
    kind = fdata.get("kind", "all")
    if kind == "all":
        filt: Filter = AllSubgroups()
    elif kind == "finite-supports":
        filt = FiniteSupports()
    elif kind == "principal-normal":
        texts = json_shape(fdata.get("generators", []), "filter generators", list)
        sub_gens = [perm_from_cycles(text, labels) for text in texts]
        if not sub_gens:
            raise StructureError("principal-normal filter needs generators")
        filt = PrincipalNormal((Group.from_generators(len(labels), sub_gens, cap=group_cap),))
    else:
        raise StructureError(f"unknown filter kind {kind!r}")
    return ModelSpec(labels, group, filt)
