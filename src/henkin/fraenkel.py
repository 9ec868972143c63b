"""Finite-support predicates over a countably infinite atom universe,
represented symbolically.

A predicate is stored as its least finite support (a set of named atoms)
plus a bit mask of the equality types it accepts.  The equality type of an
argument tuple relative to a support records which positions carry which
support atoms and which positions share a fresh atom; two tuples have the
same type exactly when a permutation fixing the support pointwise maps one
to the other, so the representation captures precisely the predicates
invariant under every such permutation, each in exactly one way.

Quantification is decided by finite reduction: an individual quantifier
needs only the atoms supporting the current bindings plus one fresh atom,
and a predicate quantifier is stratified by a support-size bound.  Results
that involve a predicate quantifier are always labelled stratified.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, filterfalse, permutations, product
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .evaluate import compile_formula
from .schemas import CHOICE_H, SchemaId, choice_h_parts
from .structures import (
    ASSIGNMENT_KEYS,
    CapExceeded,
    DEFAULT_PRED_CAP,
    Table,
    json_shape,
    json_var,
    value_tuple,
)
from .syntax import EQ, Exists, Forall, Formula, Var, integers, reaches


class FraenkelError(Exception):
    """Bad symbolic predicate, atom name, or binding."""


_ATOM_NAME_RE = re.compile(r"[a-z][a-z0-9]*\Z")
_FRESH_TOKEN_RE = re.compile(r"f\d+\Z")
_FRESH_NAMES = tuple(f"u{i}" for i in range(1, 65))  # the first names fresh_atoms draws


def check_atom_name(name: str) -> str:
    if not _ATOM_NAME_RE.match(name):
        raise FraenkelError(f"bad atom name {name!r}: want [a-z][a-z0-9]*")
    if _FRESH_TOKEN_RE.match(name):
        raise FraenkelError(f"atom name {name!r} collides with fresh-class tokens f<k>")
    return name


def fresh_atoms(count: int, avoid: Iterable[str] = ()) -> tuple[str, ...]:
    """Deterministic fresh atoms u1, u2, ... skipping any in ``avoid``, a set read as it is."""
    avoid = avoid if isinstance(avoid, (set, frozenset)) else set(avoid)
    out: list[str] = []
    i = 0
    while len(out) < count:
        name = _FRESH_NAMES[i] if i < len(_FRESH_NAMES) else f"u{i + 1}"
        if name not in avoid:
            out.append(name)
        i += 1
    return tuple(out)


class EqType(value_tuple("EqType", "entries")):
    """Canonical equality type: each entry is a support atom name or a fresh
    class number, classes numbered in first-occurrence order."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[str | int]) -> EqType:
        entries = tuple(entries)
        seen = 0
        for e in entries:
            if isinstance(e, int):
                if e < 0 or e > seen:
                    raise FraenkelError(f"non-canonical fresh classes in {entries}")
                if e == seen:
                    seen += 1
            elif not isinstance(e, str):
                raise FraenkelError(f"bad type entry {e!r}")
        return tuple.__new__(cls, (entries,))

    @property
    def arity(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return type_string(self)


def type_string(t: EqType) -> str:
    """Serialized form: support atoms by name, fresh classes as f1, f2, ..."""
    return ",".join(e if isinstance(e, str) else f"f{e + 1}" for e in t.entries)


def type_from_string(s: str) -> EqType:
    entries: list[str | int] = []
    for token in s.split(","):
        token = token.strip()
        if _FRESH_TOKEN_RE.match(token):
            entries.append(int(token[1:]) - 1)
        else:
            entries.append(check_atom_name(token))
    return EqType(tuple(entries))


def classify(atoms: Sequence[str], support: Iterable[str]) -> EqType:
    """The equality type of an atom tuple relative to a support set."""
    sup = set(support)
    classes: dict[str, int] = {}
    entries: list[str | int] = []
    for a in atoms:
        if a in sup:
            entries.append(a)
        else:
            entries.append(classes.setdefault(a, len(classes)))
    return EqType(tuple(entries))


MAX_TYPES = 1 << 16  # equality types per arity and support; a mask has a bit for each
_MASK_TYPES = 17  # the most per support where a quantifier runs over masks: arity 2 at stratum 3


@lru_cache(maxsize=1024)
def enumerate_types(arity: int, support: tuple[str, ...]) -> tuple[EqType, ...]:
    """All canonical equality types of the arity over the support, in a fixed
    order: support atoms first at each position, then existing classes, then
    a new class."""
    out: list[EqType] = []
    _extend_types(out, arity, support, [], 0)
    return tuple(out)


def _extend_types(out: list, arity: int, support: tuple[str, ...], entries: list, next_class: int):
    """Appends the types extending ``entries`` (not nested, which would make a cycle)."""
    if len(entries) == arity:
        if len(out) == MAX_TYPES:
            raise CapExceeded(f"equality types of arity {arity}", MAX_TYPES + 1, MAX_TYPES)
        out.append(EqType(tuple(entries)))
        return
    for a in support:
        _extend_types(out, arity, support, entries + [a], next_class)
    for k in range(next_class):
        _extend_types(out, arity, support, entries + [k], next_class)
    _extend_types(out, arity, support, entries + [next_class], next_class + 1)


@lru_cache(maxsize=1024)
def _type_positions(arity: int, support: tuple[str, ...]) -> dict[EqType, int]:
    return {t: k for k, t in enumerate(enumerate_types(arity, support))}


@lru_cache(maxsize=4096)
def _type_index(support: tuple[str, ...], atoms: tuple[str, ...]) -> int:
    """The position of the atoms' equality type in ``enumerate_types``."""
    return _type_positions(len(atoms), support)[classify(atoms, support)]


class SymbolicPredicate(value_tuple("SymbolicPredicate", "arity support mask")):
    """A finite-support predicate, built from any support and the accepted
    equality types (or their mask), and stored canonical: ``support`` is the
    least support, sorted, and bit k of ``mask`` is set iff the predicate
    holds of the tuples of the k-th type of ``enumerate_types(arity,
    support)``.  Two predicates are equal iff they denote the same relation."""

    __slots__ = ()

    def __new__(cls, arity: int, support: Iterable[str], accepted: Iterable[EqType] | int):
        support = tuple(sorted({check_atom_name(a) for a in support}))
        (arity,) = integers(FraenkelError, "symbolic predicate arity must be an integer", arity)
        if arity < 1:
            raise FraenkelError("symbolic predicates need arity >= 1")
        positions = _type_positions(arity, support)
        mask = 0
        if isinstance(accepted, int):
            if not 0 <= accepted < 1 << len(positions):
                raise FraenkelError(f"mask {accepted} out of range for {len(positions)} types")
            mask = accepted
        else:
            for t in accepted:
                if t not in positions:
                    raise FraenkelError(f"type {t} is not of arity {arity} over {list(support)}")
                mask |= 1 << positions[t]
        return tuple.__new__(cls, (arity, *_least(arity, support, mask)))

    @property
    def accepted(self) -> frozenset[EqType]:
        types = enumerate_types(self.arity, self.support)
        return frozenset(t for k, t in enumerate(types) if self.mask >> k & 1)

    def __str__(self) -> str:
        types = "{" + "; ".join(sorted(map(type_string, self.accepted))) + "}"
        return f"pred{self.arity}[{','.join(self.support)}]{types}"


def denotes(sigma: SymbolicPredicate, atoms: Sequence[str]) -> bool:
    """Membership of an atom tuple in the denoted predicate."""
    if len(atoms) != sigma.arity:
        raise FraenkelError(f"expected {sigma.arity} atoms, got {len(atoms)}")
    return bool(sigma.mask >> _type_index(sigma.support, tuple(atoms)) & 1)


def equality_symbolic() -> SymbolicPredicate:
    return SymbolicPredicate(2, (), frozenset({EqType((0, 0))}))


def full_symbolic(arity: int) -> SymbolicPredicate:
    return SymbolicPredicate(arity, (), frozenset(enumerate_types(arity, ())))


def empty_symbolic(arity: int) -> SymbolicPredicate:
    return SymbolicPredicate(arity, (), frozenset())


def cofinite_set(excluded: Iterable[str]) -> SymbolicPredicate:
    """The arity-1 predicate holding every atom except the named ones."""
    names = tuple(sorted(set(excluded)))
    return SymbolicPredicate(1, names, frozenset({EqType((0,))}))


# ---------------------------------------------------------------------------
# Minimal supports, on masks.  ``enumerate_types`` sees support atoms only by
# position, so these tables are per arity and support size, not per names.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _drop_groups(arity: int, size: int, position: int) -> tuple[int, ...]:
    """Entry j is the mask of the types over ``size`` support atoms that
    read as the j-th type over the support without the atom at
    ``position``, that atom counted as one more fresh atom."""
    support = tuple(map(str, range(size)))
    smaller = support[:position] + support[position + 1 :]
    positions = _type_positions(arity, smaller)
    groups = [0] * len(positions)
    for k, t in enumerate(enumerate_types(arity, support)):
        groups[positions[classify(t.entries, smaller)]] |= 1 << k
    return tuple(groups)


def _drop(mask: int, groups: tuple[int, ...]) -> int | None:
    """The mask over the smaller support when the dropped atom is inessential,
    that is when every group is wholly accepted or wholly rejected; else None."""
    smaller = 0
    for j, group in enumerate(groups):
        hit = mask & group
        if hit == group:
            smaller |= 1 << j
        elif hit:
            return None
    return smaller


def _least(arity: int, support: tuple[str, ...], mask: int) -> tuple[tuple[str, ...], int]:
    """The mask over the sorted support, as ``(support, mask)`` over the least
    support.  An atom drops from any support holding the least one iff it
    lies outside the least one, so one pass over the atoms drops them all."""
    position = 0
    while position < len(support):
        smaller = _drop(mask, _drop_groups(arity, len(support), position))
        if smaller is None:
            position += 1
        else:
            support, mask = support[:position] + support[position + 1 :], smaller
    return support, mask


@lru_cache(maxsize=256)
def _width(arity: int, size: int) -> int:
    """The number of equality types of the arity over ``size`` support atoms."""
    return len(enumerate_types(arity, tuple(map(str, range(size)))))


@lru_cache(maxsize=64)
def _non_minimal_masks(arity: int, size: int) -> frozenset[int]:
    """The masks over ``size`` support atoms from which some atom drops: the
    unions of the drop groups of one position.  There are at most ``size``
    times as many as the masks over one atom fewer."""
    out: set[int] = set()
    for position in range(size):
        unions = [0]
        for group in _drop_groups(arity, size, position):
            unions += [u | group for u in unions]
        out.update(unions)
    return frozenset(out)


@lru_cache(maxsize=32)
def _columns(width: int) -> tuple[int, ...]:
    """Entry t has bit i set iff mask i over ``width`` types accepts the t-th."""
    if not width:
        return ()
    half = 1 << width - 1  # the masks over one type fewer, repeated above them
    return tuple(c | c << half for c in _columns(width - 1)) + ((1 << half) - 1 << half,)


# ---------------------------------------------------------------------------
# Stratified evaluation.
# ---------------------------------------------------------------------------


class SymbolicVerdict(NamedTuple):
    """Truth value over the symbolic universe; stratified marks that some
    predicate quantifier was bounded by the support-size stratum."""

    truth: bool
    stratified: bool
    support_bound: int


def _atom_pool(values: Iterable[object], fresh: int) -> list[str]:
    """The sorted atoms of the bound values (atoms, predicate and mask
    supports; ``None`` is a variable out of scope), then ``fresh`` new ones."""
    atoms: set[str] = set()
    for value in values:
        if isinstance(value, str):
            atoms.add(value)
        elif value is not None:
            atoms.update(value.support if isinstance(value, SymbolicPredicate) else value)
    return [*sorted(atoms), *fresh_atoms(fresh, atoms)]


def _candidate_predicates(arity: int, pool: Sequence[str], support_bound: int):
    """Every symbolic predicate of the arity whose support is a subset of the
    pool of size at most the bound, each once, under its least support, in
    the order of first occurrence when every mask is listed under every
    support (supports by size, then in ``combinations`` order)."""
    new = tuple.__new__
    for size in range(min(support_bound, len(pool)) + 1):
        skip, masks = _non_minimal_masks(arity, size).__contains__, 1 << _width(arity, size)
        for sup in combinations(pool, size):
            sup = tuple(sorted(sup))
            for mask in filterfalse(skip, range(masks)):
                yield new(SymbolicPredicate, (arity, sup, mask))


class _Charge:
    """The work and label of one call of a ``_SymbolicRun``, held by the run's
    closures instead of the run or its semantics, so a dropped run is freed at
    once.  ``pred_cap`` bounds the work: a search charges 1 per candidate it
    draws and ``flat`` the 64-bit words of each mask int it runs, both before
    the work.  Reaching a predicate quantifier marks the call stratified."""

    def __init__(self, pred_cap: int):
        self.pred_cap, self.enumerated, self.stratified = pred_cap, 0, False

    def count(self, units: int) -> None:
        """Charges work about to run; past ``pred_cap``, needs one more than the cap."""
        self.enumerated += units
        if self.enumerated > self.pred_cap:
            self.enumerated = self.pred_cap + 1
            what = "symbolic candidates and 64-bit mask words"
            raise CapExceeded(what, self.enumerated, self.pred_cap)


class _SymbolicSemantics:
    """The atom universe as ``compile_formula`` reads it, with one pool
    closure and one column table per arity.  Individuals are atom names,
    predicates ``SymbolicPredicate``s.  A quantifier's pool is the sorted
    atoms of the bindings in scope, then fresh atoms ``u<k>`` not among them,
    drawn through ``fresh_atoms``: one for an individual, and for a predicate
    ``support_bound`` but at most ``pred_cap + 1``, as the support-1
    candidates over those already pass the cap.  A bridged predicate
    existential searches ``section`` instead, at most one candidate, uncharged."""

    def __init__(self, support_bound: int, pred_cap: int):
        self.support_bound, self.charge = support_bound, _Charge(pred_cap)
        self.pools, self.columns = {}, {}

    @staticmethod
    def atom(p: int, args: tuple[int, ...]):
        point = itemgetter(*args) if len(args) > 1 else lambda env: (env[args[0]],)

        def holds(env: list) -> int:
            sigma = env[p]
            return sigma.mask >> _type_index(sigma.support, point(env)) & 1

        return holds

    def column(self, p: int, args: tuple[int, ...]):
        """The masks over the support in slot ``p`` accepting the args, as ``flat`` runs them."""
        if (arity := len(args)) not in self.columns:
            self.columns[arity] = _columns(_width(arity, self.support_bound))
        columns = self.columns[arity]
        point = itemgetter(*args) if len(args) > 1 else lambda env: (env[args[0]],)
        return lambda env: columns[_type_index(env[p], point(env))]

    def pool(self, var: Var):
        if (arity := var.arity) not in self.pools:
            charge, bound = self.charge, self.support_bound
            fresh = min(bound, charge.pred_cap + 1)

            def predicates(env: list):
                charge.stratified = True
                for sigma in _candidate_predicates(arity, _atom_pool(env, fresh), bound):
                    charge.count(1)
                    yield sigma

            self.pools[arity] = predicates if arity else lambda env: _atom_pool(env, 1)
        return self.pools[arity]

    def flat(self, g: Forall | Exists, k: int, compile: Callable):
        """Decides ``Q V . phi``, ``phi`` the operand of ``V`` without the
        invariant one; declines with None when ``phi`` has a predicate
        quantifier, which covers ``V`` under one, or equates ``V`` with
        another variable, or ``V`` has arity over 2 or over ``_MASK_TYPES``
        types per support.  ``phi`` runs once per
        support of the stratum's size, bit i for the i-th mask over it, the
        support's atoms in the pools inside (exact, as a pool needs the
        bindings' atoms and one fresh one), until a run decides.  Each run
        first charges the 64-bit words of its mask int."""
        v, phi, b = g.var, g.body, self.support_bound
        if (
            v.arity > 2
            or _width(v.arity, min(b, _MASK_TYPES)) > _MASK_TYPES
            or any(u.is_predicate for u in phi.bound_vars)
            or any(w != v and w.arity == v.arity for w in phi.free_vars)  # V = W may occur
            and reaches(v, phi, lambda f: f[0] == EQ and {v} < f.free_vars)
        ):
            return None
        universal, full = isinstance(g, Forall), (1 << (1 << _width(v.arity, b))) - 1
        body, flip, words = compile(full), full if universal else 0, max(1, full.bit_length() >> 6)
        charge = self.charge

        def decide(env: list) -> bool:
            charge.stratified, saved = True, env[k]

            def run(support: tuple[str, ...]) -> int:
                charge.count(words)
                env[k] = tuple(sorted(support))
                return body(env) ^ flip

            decided = any(map(run, combinations(_atom_pool(env, b), b)))
            env[k] = saved
            return decided != universal

        return decide

    def section(self, s: int, xs: tuple[int, ...], m: int):
        """A closure from the environment to a bridged range: the section of
        the predicate ``env[s]`` at the atoms ``env[x]``, over its minimal
        support, or ``()`` when that support exceeds the stratum.  It is exact:
        the minimal support lies inside the predicate's support plus the
        atoms, hence inside any quantifier's pool, and every support of the
        section contains it."""
        charge, bound = self.charge, self.support_bound

        def section(env: list) -> tuple[SymbolicPredicate, ...]:
            charge.stratified = True
            sigma, atoms = env[s], tuple(env[x] for x in xs)
            support = tuple(sorted(set(sigma.support).union(atoms)))
            fresh = fresh_atoms(m, avoid=support)
            mask = 0
            for k, t in enumerate(enumerate_types(m, support)):
                ys = tuple(e if isinstance(e, str) else fresh[e] for e in t.entries)
                mask |= denotes(sigma, atoms + ys) << k
            value = SymbolicPredicate(m, support, mask)
            return (value,) if len(value.support) <= bound else ()

        return section


class _SymbolicRun:
    """A formula compiled over the atom universe, called with its parameters' values."""

    def __init__(self, formula: Formula, params: Sequence[Var], support_bound: int, pred_cap: int):
        self.semantics = _SymbolicSemantics(support_bound, pred_cap)
        self.body, env = compile_formula(formula, self.semantics, params)
        self.unset = env[len(params) :]

    enumerated = property(lambda self: self.semantics.charge.enumerated)
    stratified = property(lambda self: self.semantics.charge.stratified)

    def __call__(self, values: Sequence[object]) -> SymbolicVerdict:
        # a fresh environment per call: a cap hit leaves slots set, and pools read every slot
        charge = self.semantics.charge
        charge.enumerated, charge.stratified = 0, False
        truth = bool(self.body([*values, *self.unset]))
        return SymbolicVerdict(truth, charge.stratified, self.semantics.support_bound)


def symbolic_evaluate(
    formula: Formula,
    binding: Mapping[Var, object],
    support_bound: int,
    *,
    pred_cap: int = DEFAULT_PRED_CAP,
) -> SymbolicVerdict:
    """Truth of the formula over the symbolic atom universe.

    Individual quantifiers are decided exactly: the atoms supporting the
    current bindings plus one fresh atom per quantifier suffice.  Predicate
    quantifiers range over symbolic predicates with support size at most
    ``support_bound`` drawn from the binding atoms plus fresh ones; any such
    quantifier marks the verdict stratified.  Every binding entry counts
    toward the atoms, whether or not the formula mentions its variable.
    """
    for var, value in binding.items():
        if var.is_individual:
            if not isinstance(value, str):
                raise FraenkelError(f"{var} needs an atom name, got {value!r}")
            check_atom_name(value)
        else:
            if not isinstance(value, SymbolicPredicate) or value.arity != var.arity:
                raise FraenkelError(f"{var} needs a symbolic predicate of arity {var.arity}")
    missing = formula.free_vars - set(binding)
    if missing:
        names = ", ".join(sorted(map(str, missing)))
        raise FraenkelError(f"binding does not cover free variables: {names}")
    if support_bound < 0:
        raise FraenkelError("support bound must be >= 0")
    run = _SymbolicRun(formula, tuple(binding), support_bound, pred_cap)
    return run(tuple(binding.values()))


def truncate_predicate(sigma: SymbolicPredicate, atoms: Sequence[str]) -> Table:
    """The finite table induced on an explicit atom universe."""
    order = list(atoms)
    return Table.from_function(
        len(order),
        sigma.arity,
        lambda point: denotes(sigma, tuple(order[i] for i in point)),
    )


# ---------------------------------------------------------------------------
# Linear-order testing.
#
# The axioms are quantifier-free conditions over at most three atoms at a
# time, so the support atoms plus three fresh atoms decide them.  Checks run
# on the precomputed type indices of all pool pairs; the reported failure is
# the first in the order transitivity, antisymmetry, then totality.
# ---------------------------------------------------------------------------


class OrderVerdict(NamedTuple):
    is_order: bool
    failed_axiom: str | None
    witness: tuple[str, ...] | None


class _OrderContext(NamedTuple):
    pool: tuple[str, ...]
    pair_type: tuple[tuple[int, ...], ...]
    transitivity: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]  # i != j: types of (i, j), (j, i)


@lru_cache(maxsize=256)
def _order_context(support: tuple[str, ...]) -> _OrderContext:
    pool = support + fresh_atoms(3, avoid=support)
    k = len(pool)
    pair_type = tuple(tuple(_type_index(support, (a, b)) for b in pool) for a in pool)
    transitivity: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for i, j, l in product(range(k), repeat=3):
        transitivity.setdefault((pair_type[i][j], pair_type[j][l], pair_type[i][l]), (i, j, l))
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j in permutations(range(k), 2):
        pairs.setdefault((pair_type[i][j], pair_type[j][i]), (i, j))
    return _OrderContext(pool, pair_type, tuple(transitivity.items()), tuple(pairs.items()))


def _order_check(mask: int, ctx: _OrderContext) -> tuple[str, tuple[str, ...]] | None:
    """First failing axiom with an atom witness, or None for a linear order."""
    pool, _, transitivity, pairs = ctx  # one unpacking per mask
    for (tij, tjl, til), (i, j, l) in transitivity:
        if mask >> tij & 1 and mask >> tjl & 1 and not mask >> til & 1:
            return "transitivity", (pool[i], pool[j], pool[l])
    for (tij, tji), (i, j) in pairs:
        if mask >> tij & 1 and mask >> tji & 1:
            return "antisymmetry", (pool[i], pool[j])
    for (tij, tji), (i, j) in pairs:
        if not mask >> tij & 1 and not mask >> tji & 1:
            return "totality", (pool[i], pool[j])
    return None


def is_linear_order(sigma: SymbolicPredicate) -> OrderVerdict:
    """Decide whether the binary predicate strictly linearly orders the atoms.

    Checks transitivity, antisymmetry and totality on distinct atoms.  A
    failure carries concrete witness atoms.  Irreflexivity, and so the
    reflexive reading, needs no check: two fresh atoms have one equality
    type in both orders, so every predicate fails antisymmetry or totality
    on them.
    """
    if sigma.arity != 2:
        raise FraenkelError("linear-order testing needs a binary predicate")
    failed = _order_check(sigma.mask, _order_context(sigma.support))
    return OrderVerdict(False, *failed) if failed else OrderVerdict(True, None, None)


class SweepBucket(NamedTuple):
    support_size: int
    support: tuple[str, ...]
    predicate_count: int
    failure_counts: dict[str, int]


class SweepReport(NamedTuple):
    max_support: int
    total_predicates: int
    linear_orders_found: int
    all_swap_witnessed: bool
    buckets: list[SweepBucket]


def wellorder_counterexample_sweep(
    max_support: int = 3, *, cap: int = DEFAULT_PRED_CAP
) -> SweepReport:
    """Exhaust every canonical binary symbolic predicate with support size up
    to the bound and test each for being a linear order.

    One canonical support per size is enough: any other support of that size
    is an atom renaming away.  Every predicate must fail, each failure
    confirmed by the two-fresh-atom swap argument.
    """
    if max_support < 0:
        raise FraenkelError(f"support bound must be >= 0, got {max_support}")
    buckets: list[SweepBucket] = []
    total = 0
    found = 0
    swapped = True
    for size in range(max_support + 1):
        support = tuple(f"p{i}" for i in range(1, size + 1))
        ctx = _order_context(support)
        count = 1 << _width(2, size)
        if total + count > cap:
            raise CapExceeded("sweep predicates", total + count, cap)
        # swap argument: both orientations of the pool's last, fresh pair
        # share a type, so on every predicate either both hold (antisymmetry
        # fails there) or neither does (totality fails there)
        swapped = swapped and ctx.pair_type[-2][-1] == ctx.pair_type[-1][-2]
        failures: dict[str, int] = {}
        for mask in range(count):
            result = _order_check(mask, ctx)
            axiom = "none" if result is None else result[0]
            failures[axiom] = failures.get(axiom, 0) + 1
        found += failures.get("none", 0)
        total += count
        buckets.append(SweepBucket(size, support, count, failures))
    return SweepReport(
        max_support=max_support,
        total_predicates=total,
        linear_orders_found=found,
        all_swap_witnessed=swapped and not found,
        buckets=buckets,
    )


# ---------------------------------------------------------------------------
# Choice instances over the symbolic universe.
# ---------------------------------------------------------------------------


class ChoiceInstanceReport(NamedTuple):
    """Outcome of a bridged-choice instance check.

    ``witnessed`` carries an explicit uniform predicate; ``vacuous`` means
    the antecedent already failed at this stratum; ``inconclusive`` must not
    be read as a refutation, only as the search bound running out.
    """

    status: str
    witness: SymbolicPredicate | None
    support_bound: int
    candidates_tried: int
    cap_hit: bool


def check_choice_instance_sigma0(
    n: int,
    m: int,
    payload: Formula,
    support_bound: int = 2,
    *,
    pred_cap: int = DEFAULT_PRED_CAP,
) -> ChoiceInstanceReport:
    """Search for a uniform witness for the bridged choice axiom over the
    symbolic universe.

    The antecedent is evaluated at the given stratum; if it holds, candidate
    witnesses are enumerated over fresh supports of size up to the same
    bound (the payload mentions no atoms, so nothing larger can be forced)
    and each is verified against the witness matrix.  At most ``pred_cap``
    candidates are tried.
    """
    antecedent, svar, matrix = choice_h_parts(SchemaId(CHOICE_H, n, m, payload))
    if not symbolic_evaluate(antecedent, {}, support_bound, pred_cap=pred_cap).truth:
        return ChoiceInstanceReport("vacuous", None, support_bound, 0, False)
    verify = _SymbolicRun(matrix, (svar,), support_bound, pred_cap)
    tried = 0
    fresh = fresh_atoms(min(support_bound, pred_cap + 1))
    for candidate in _candidate_predicates(n + m, fresh, support_bound):
        if tried >= pred_cap:
            return ChoiceInstanceReport("inconclusive", None, support_bound, tried, True)
        tried += 1
        if verify((candidate,)).truth:
            return ChoiceInstanceReport("witnessed", candidate, support_bound, tried, False)
    return ChoiceInstanceReport("inconclusive", None, support_bound, tried, False)


# The documented instance suite driven by the acceptance tests: payloads in
# x1 (the distinguished tuple) and A0^m (the set to choose), each with a
# small-support uniform witness.
CHOICE_SUITE: tuple[tuple[str, int, int, str], ...] = (
    ("singleton", 1, 1, "all x2 . (A0^1 x2 <-> x2 = x1)"),
    ("contains-point", 1, 1, "A0^1 x1"),
    ("complement-of-point", 1, 1, "all x2 . (A0^1 x2 <-> ~(x2 = x1))"),
    ("everything", 1, 1, "all x2 . A0^1 x2"),
    ("nothing", 1, 1, "all x2 . ~(A0^1 x2)"),
    ("nonempty", 1, 1, "ex x2 . A0^1 x2"),
    ("exactly-the-point", 1, 1, "A0^1 x1 & (all x2 . (A0^1 x2 -> x2 = x1))"),
    ("misses-something", 1, 1, "ex x2 . ~(A0^1 x2)"),
    ("diagonal-pair", 1, 2, "all x2 . all x3 . (A0^2 x2 x3 <-> (x2 = x1 & x3 = x1))"),
    ("pair-of-points", 2, 1, "all x3 . (A0^1 x3 <-> (x3 = x1 | x3 = x2))"),
)


# ---------------------------------------------------------------------------
# Serialization: {"arity": 2, "support": ["p"], "accepted": ["p,f1", "f1,f1"]}
# ---------------------------------------------------------------------------


def symbolic_to_dict(sigma: SymbolicPredicate) -> dict:
    return {
        "arity": sigma.arity,
        "support": list(sigma.support),
        "accepted": sorted(type_string(t) for t in sigma.accepted),
    }


def symbolic_from_dict(data: dict) -> SymbolicPredicate:
    keys = ("arity", "support", "accepted")
    data = json_shape(data, "symbolic predicate document", error=FraenkelError, keys=keys)
    missing = sorted(set(keys) - set(data))
    if missing:
        raise FraenkelError(f"symbolic predicate document needs {', '.join(missing)}")
    arity = data["arity"]
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise FraenkelError(f"symbolic predicate arity must be an integer, got {arity!r}")
    support = json_shape(data["support"], "support", list, FraenkelError)
    accepted = json_shape(data["accepted"], "accepted", list, FraenkelError)
    if not all(isinstance(s, str) for s in support + accepted):
        raise FraenkelError("support atoms and accepted types must be strings")
    return SymbolicPredicate(arity, tuple(support), frozenset(map(type_from_string, accepted)))


def binding_from_dict(data: dict) -> dict[Var, str | SymbolicPredicate]:
    """The binding a document gives ``symbolic_evaluate``: atom names under
    ``individuals`` and symbolic predicate documents under ``predicates``,
    each keyed by its variable."""
    data = json_shape(data, "binding document", error=FraenkelError, keys=ASSIGNMENT_KEYS)
    binding = {}
    individuals = json_shape(data.get("individuals", {}), "individuals", error=FraenkelError)
    for name, atom in individuals.items():
        binding[json_var(name, FraenkelError)] = atom
    predicates = json_shape(data.get("predicates", {}), "predicates", error=FraenkelError)
    for name, doc in predicates.items():
        binding[json_var(name, FraenkelError)] = symbolic_from_dict(doc)
    return binding
