"""Finite-support predicates over a countably infinite atom universe,
represented symbolically.

A predicate is stored as a finite support (a set of named atoms) plus the
set of equality types it accepts.  The equality type of an argument tuple
relative to a support records which positions carry which support atoms and
which positions share a fresh atom; two tuples have the same type exactly
when a permutation fixing the support pointwise maps one to the other, so
the representation captures precisely the predicates invariant under every
such permutation.

Quantification is decided by finite reduction: an individual quantifier
needs only the atoms supporting the current bindings plus one fresh atom,
and a predicate quantifier is stratified by a support-size bound.  Results
that involve a predicate quantifier are always labelled stratified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .evaluate import compile_formula
from .structures import CapExceeded, Table
from .syntax import Eq, Exists, Forall, Formula, Var, subformulas


class FraenkelError(Exception):
    """Bad symbolic predicate, atom name, or binding."""


_ATOM_NAME_RE = re.compile(r"[a-z][a-z0-9]*\Z")
_FRESH_TOKEN_RE = re.compile(r"f\d+\Z")


def check_atom_name(name: str) -> str:
    if not _ATOM_NAME_RE.match(name):
        raise FraenkelError(f"bad atom name {name!r}: want [a-z][a-z0-9]*")
    if _FRESH_TOKEN_RE.match(name):
        raise FraenkelError(f"atom name {name!r} collides with fresh-class tokens f<k>")
    return name


def fresh_atoms(count: int, avoid: Iterable[str] = ()) -> tuple[str, ...]:
    """Deterministic fresh atoms u1, u2, ... skipping any that collide."""
    avoid = set(avoid)
    out: list[str] = []
    i = 1
    while len(out) < count:
        name = f"u{i}"
        if name not in avoid:
            out.append(name)
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class EqType:
    """Canonical equality type: each entry is a support atom name or a fresh
    class number, classes numbered in first-occurrence order."""

    entries: tuple[str | int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = 0
        for e in self.entries:
            if isinstance(e, int):
                if e < 0 or e > seen:
                    raise FraenkelError(f"non-canonical fresh classes in {self.entries}")
                if e == seen:
                    seen += 1
            elif not isinstance(e, str):
                raise FraenkelError(f"bad type entry {e!r}")

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


@lru_cache(maxsize=1024)
def enumerate_types(arity: int, support: tuple[str, ...]) -> tuple[EqType, ...]:
    """All canonical equality types of the arity over the support, in a fixed
    order: support atoms first at each position, then existing classes, then
    a new class."""
    out: list[EqType] = []

    def rec(entries: list[str | int], next_class: int) -> None:
        if len(entries) == arity:
            out.append(EqType(tuple(entries)))
            return
        for a in support:
            rec(entries + [a], next_class)
        for k in range(next_class):
            rec(entries + [k], next_class)
        rec(entries + [next_class], next_class + 1)

    rec([], 0)
    return tuple(out)


@dataclass(frozen=True)
class SymbolicPredicate:
    """A finite-support predicate: true of a tuple iff the tuple's equality
    type relative to the support is accepted."""

    arity: int
    support: tuple[str, ...]
    accepted: frozenset[EqType]

    def __post_init__(self) -> None:
        support = tuple(sorted(set(self.support)))
        for a in support:
            check_atom_name(a)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "accepted", frozenset(self.accepted))
        if self.arity < 1:
            raise FraenkelError("symbolic predicates need arity >= 1")
        for t in self.accepted:
            if t.arity != self.arity:
                raise FraenkelError(f"type {t} does not match arity {self.arity}")
            for e in t.entries:
                if isinstance(e, str) and e not in support:
                    raise FraenkelError(f"type {t} names {e!r} outside the support")

    def __str__(self) -> str:
        types = "{" + "; ".join(sorted(map(type_string, self.accepted))) + "}"
        return f"pred{self.arity}[{','.join(self.support)}]{types}"


def denotes(sigma: SymbolicPredicate, atoms: Sequence[str]) -> bool:
    """Membership of an atom tuple in the denoted predicate."""
    if len(atoms) != sigma.arity:
        raise FraenkelError(f"expected {sigma.arity} atoms, got {len(atoms)}")
    return classify(atoms, sigma.support) in sigma.accepted


def equality_symbolic() -> SymbolicPredicate:
    return SymbolicPredicate(2, (), frozenset({EqType((0, 0))}))


def inequality_symbolic() -> SymbolicPredicate:
    return SymbolicPredicate(2, (), frozenset({EqType((0, 1))}))


def full_symbolic(arity: int) -> SymbolicPredicate:
    return SymbolicPredicate(arity, (), frozenset(enumerate_types(arity, ())))


def empty_symbolic(arity: int) -> SymbolicPredicate:
    return SymbolicPredicate(arity, (), frozenset())


def finite_set(atoms: Iterable[str]) -> SymbolicPredicate:
    """The arity-1 predicate holding exactly the named atoms."""
    names = tuple(sorted(set(atoms)))
    return SymbolicPredicate(1, names, frozenset(EqType((a,)) for a in names))


def cofinite_set(excluded: Iterable[str]) -> SymbolicPredicate:
    """The arity-1 predicate holding every atom except the named ones."""
    names = tuple(sorted(set(excluded)))
    return SymbolicPredicate(1, names, frozenset({EqType((0,))}))


def apply_permutation_symbolic(
    mapping: Mapping[str, str], sigma: SymbolicPredicate
) -> SymbolicPredicate:
    """Action of a finitary atom permutation: support atoms are renamed, fresh
    classes are untouched, and the image holds at a tuple iff the original
    held at its preimage."""
    if set(mapping) != set(mapping.values()):
        raise FraenkelError("a finitary permutation must permute the atoms it moves")
    for name in mapping.values():
        check_atom_name(name)

    def move(entry: str | int) -> str | int:
        return mapping.get(entry, entry) if isinstance(entry, str) else entry

    support = tuple(mapping.get(a, a) for a in sigma.support)
    accepted = frozenset(EqType(tuple(move(e) for e in t.entries)) for t in sigma.accepted)
    return SymbolicPredicate(sigma.arity, support, accepted)


# ---------------------------------------------------------------------------
# Minimal supports.
# ---------------------------------------------------------------------------


def _drop_support_atom(sigma: SymbolicPredicate, atom: str) -> SymbolicPredicate | None:
    """Re-express the predicate over the support minus one atom, or report
    that the atom is essential.

    A type over the smaller support describes tuples whose fresh positions
    may or may not hit the dropped atom; the atom is removable iff every
    such refinement agrees with the original acceptance.
    """
    smaller = tuple(a for a in sigma.support if a != atom)
    accepted: set[EqType] = set()
    for t in enumerate_types(sigma.arity, smaller):
        verdicts = {t in sigma.accepted}
        fresh_classes = sorted({e for e in t.entries if isinstance(e, int)})
        for cls in fresh_classes:
            renumber: dict[int, int] = {}
            entries: list[str | int] = []
            for e in t.entries:
                if e == cls:
                    entries.append(atom)
                elif isinstance(e, int):
                    entries.append(renumber.setdefault(e, len(renumber)))
                else:
                    entries.append(e)
            verdicts.add(EqType(tuple(entries)) in sigma.accepted)
        if len(verdicts) != 1:
            return None
        if verdicts.pop():
            accepted.add(t)
    return SymbolicPredicate(sigma.arity, smaller, frozenset(accepted))


def canonicalize(sigma: SymbolicPredicate) -> SymbolicPredicate:
    """Equivalent predicate over its least support."""
    current = sigma
    changed = True
    while changed:
        changed = False
        for atom in current.support:
            dropped = _drop_support_atom(current, atom)
            if dropped is not None:
                current = dropped
                changed = True
                break
    return current


def minimal_support(sigma: SymbolicPredicate) -> tuple[str, ...]:
    """The least set of atoms that still supports the denoted predicate."""
    return canonicalize(sigma).support


def symbolic_equal(a: SymbolicPredicate, b: SymbolicPredicate) -> bool:
    """Extensional equality of the denoted predicates."""
    return a.arity == b.arity and canonicalize(a) == canonicalize(b)


# ---------------------------------------------------------------------------
# Stratified evaluation.
# ---------------------------------------------------------------------------


DEFAULT_PRED_CAP = 200_000


@dataclass(frozen=True)
class SymbolicVerdict:
    """Truth value over the symbolic universe; stratified marks that some
    predicate quantifier was bounded by the support-size stratum."""

    truth: bool
    stratified: bool
    support_bound: int


def _atom_pool(values: Iterable[object], fresh: int) -> list[str]:
    """The sorted atoms of the bound values (atom names and predicate
    supports; ``None`` is a variable out of scope), then ``fresh`` new ones."""
    atoms: set[str] = set()
    for value in values:
        if isinstance(value, str):
            atoms.add(value)
        elif value is not None:
            atoms.update(value.support)  # type: ignore[attr-defined]
    base = sorted(atoms)
    return base + list(fresh_atoms(fresh, avoid=base))


def _candidate_predicates(arity: int, pool: Sequence[str], support_bound: int):
    """All symbolic predicates of the arity whose support is a subset of the
    pool of size at most the bound, every accepted set enumerated."""
    for size in range(min(support_bound, len(pool)) + 1):
        for sup in combinations(pool, size):
            sup = tuple(sorted(sup))
            types = enumerate_types(arity, sup)
            for mask in range(2 ** len(types)):
                accepted = frozenset(t for k, t in enumerate(types) if mask >> k & 1)
                yield SymbolicPredicate(arity, sup, accepted)


class _SymbolicRun:
    """A formula compiled over the atom universe, called with the values of
    its parameters.  Individuals are atom names, predicates
    ``SymbolicPredicate``s.  A quantifier ranges over the sorted atoms of
    every binding in scope plus fresh atoms: one for an individual,
    ``support_bound`` for a predicate, whose candidates each call counts
    against ``pred_cap``; reaching a predicate quantifier marks the call
    stratified."""

    pred_eq = staticmethod(symbolic_equal)

    def __init__(self, formula: Formula, params: Sequence[Var], support_bound: int, pred_cap: int):
        self.support_bound = support_bound
        self.pred_cap = pred_cap
        self.run = compile_formula(formula, self, params)

    def __call__(self, values: Sequence[object]) -> SymbolicVerdict:
        self.enumerated, self.stratified = 0, False
        truth = self.run(values)
        return SymbolicVerdict(truth, self.stratified, self.support_bound)

    @staticmethod
    def atom(p: int, args: tuple[int, ...]):
        return lambda env: denotes(env[p], [env[a] for a in args])

    def pool(self, var: Var):
        if var.is_individual:
            return lambda env: _atom_pool(env, 1)

        def predicates(env: list):
            self.stratified = True
            pool = _atom_pool(env, self.support_bound)
            for sigma in _candidate_predicates(var.arity, pool, self.support_bound):
                self.enumerated += 1
                if self.enumerated > self.pred_cap:
                    what = "enumerated symbolic predicates"
                    raise CapExceeded(what, self.enumerated, self.pred_cap)
                yield sigma

        return predicates


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


def evaluation_pool(formula: Formula, binding: Mapping[Var, object]) -> tuple[str, ...]:
    """The finite universe a truncation oracle needs: all binding atoms plus
    one fresh atom per individual quantifier.

    Predicate equality widens the requirement: two unequal predicates of
    arity n with supports inside the pool always differ on a tuple using at
    most n fresh atoms, so the pool carries that many.
    """
    atoms = _atom_pool(binding.values(), 0)
    subs = subformulas(formula)
    count = max(
        sum(isinstance(g, (Forall, Exists)) and g.var.is_individual for g in subs),
        *(g.left.arity for g in subs if isinstance(g, Eq) and g.left.is_predicate),
        0 if atoms else 1,
    )
    return tuple(atoms) + fresh_atoms(count, avoid=atoms)


# ---------------------------------------------------------------------------
# Linear-order testing.
#
# The axioms are quantifier-free conditions over at most three atoms at a
# time, so the support atoms plus three fresh atoms decide them.  Checks run
# on the precomputed type indices of all pool pairs; the reported failure is
# the first in the order transitivity, antisymmetry, totality, then the
# reflexivity condition of the variant.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderVerdict:
    is_order: bool
    failed_axiom: str | None
    witness: tuple[str, ...] | None


@dataclass(frozen=True)
class _OrderContext:
    support: tuple[str, ...]
    strict: bool
    pool: tuple[str, ...]
    types: tuple[EqType, ...]
    pair_type: tuple[tuple[int, ...], ...]
    transitivity: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]
    antisymmetry: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    totality: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    diagonal: tuple[tuple[int, int], ...]


@lru_cache(maxsize=256)
def _order_context(support: tuple[str, ...], strict: bool) -> _OrderContext:
    pool = tuple(support) + fresh_atoms(3, avoid=support)
    types = enumerate_types(2, tuple(support))
    index = {t: k for k, t in enumerate(types)}
    k = len(pool)
    pair_type = tuple(
        tuple(index[classify((pool[i], pool[j]), support)] for j in range(k))
        for i in range(k)
    )
    transitivity: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for i in range(k):
        for j in range(k):
            for l in range(k):
                key = (pair_type[i][j], pair_type[j][l], pair_type[i][l])
                transitivity.setdefault(key, (i, j, l))
    antisymmetry: dict[tuple[int, int], tuple[int, int]] = {}
    totality: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            key = (pair_type[i][j], pair_type[j][i])
            antisymmetry.setdefault(key, (i, j))
            totality.setdefault(key, (i, j))
    diagonal: dict[int, int] = {}
    for i in range(k):
        diagonal.setdefault(pair_type[i][i], i)
    return _OrderContext(
        support=tuple(support),
        strict=strict,
        pool=pool,
        types=types,
        pair_type=pair_type,
        transitivity=tuple(transitivity.items()),
        antisymmetry=tuple(antisymmetry.items()),
        totality=tuple(totality.items()),
        diagonal=tuple(diagonal.items()),
    )


def _order_check(mask: int, ctx: _OrderContext) -> tuple[str, tuple[str, ...]] | None:
    """First failing axiom with an atom witness, or None for a linear order."""
    for (tij, tjl, til), (i, j, l) in ctx.transitivity:
        if mask >> tij & 1 and mask >> tjl & 1 and not mask >> til & 1:
            return "transitivity", (ctx.pool[i], ctx.pool[j], ctx.pool[l])
    for (tij, tji), (i, j) in ctx.antisymmetry:
        if mask >> tij & 1 and mask >> tji & 1:
            return "antisymmetry", (ctx.pool[i], ctx.pool[j])
    for (tij, tji), (i, j) in ctx.totality:
        if not mask >> tij & 1 and not mask >> tji & 1:
            return "totality", (ctx.pool[i], ctx.pool[j])
    if ctx.strict:
        for t, i in ctx.diagonal:
            if mask >> t & 1:
                return "irreflexivity", (ctx.pool[i],)
    else:
        for t, i in ctx.diagonal:
            if not mask >> t & 1:
                return "reflexivity", (ctx.pool[i],)
    return None


def _accepted_mask(sigma: SymbolicPredicate, ctx: _OrderContext) -> int:
    index = {t: k for k, t in enumerate(ctx.types)}
    mask = 0
    for t in sigma.accepted:
        mask |= 1 << index[t]
    return mask


def is_linear_order(sigma: SymbolicPredicate, *, strict: bool = True) -> OrderVerdict:
    """Decide whether the binary predicate linearly orders the atoms.

    Strict reading checks irreflexivity, transitivity, and totality on
    distinct atoms, plus antisymmetry for failure reporting; the reflexive
    reading swaps irreflexivity for reflexivity and reads antisymmetry with
    equality.  A failure carries concrete witness atoms.
    """
    if sigma.arity != 2:
        raise FraenkelError("linear-order testing needs a binary predicate")
    ctx = _order_context(sigma.support, strict)
    result = _order_check(_accepted_mask(sigma, ctx), ctx)
    if result is None:
        return OrderVerdict(True, None, None)
    return OrderVerdict(False, result[0], result[1])


@dataclass
class SweepBucket:
    support_size: int
    support: tuple[str, ...]
    predicate_count: int
    failure_counts: dict[str, int]


@dataclass
class SweepReport:
    max_support: int
    strict: bool
    total_predicates: int
    linear_orders_found: int
    all_swap_witnessed: bool
    buckets: list[SweepBucket]


def wellorder_counterexample_sweep(
    max_support: int = 3,
    *,
    strict: bool = True,
    cap: int = 2_000_000,
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
    all_witnessed = True
    for size in range(max_support + 1):
        support = tuple(f"p{i}" for i in range(1, size + 1))
        ctx = _order_context(support, strict)
        count = 2 ** len(ctx.types)
        if total + count > cap:
            raise CapExceeded("sweep predicates", total + count, cap)
        failures: dict[str, int] = {}
        for mask in range(count):
            result = _order_check(mask, ctx)
            if result is None:
                found += 1
                failures["none"] = failures.get("none", 0) + 1
                all_witnessed = False
                continue
            failures[result[0]] = failures.get(result[0], 0) + 1
            # swap argument: both orientations of a fresh pair share a type,
            # so either both hold (antisymmetry fails there) or neither does
            # (totality fails there)
            i, j = len(ctx.pool) - 2, len(ctx.pool) - 1
            forward = bool(mask >> ctx.pair_type[i][j] & 1)
            backward = bool(mask >> ctx.pair_type[j][i] & 1)
            all_witnessed = all_witnessed and forward == backward
        total += count
        buckets.append(SweepBucket(size, support, count, failures))
    return SweepReport(
        max_support=max_support,
        strict=strict,
        total_predicates=total,
        linear_orders_found=found,
        all_swap_witnessed=all_witnessed,
        buckets=buckets,
    )


# ---------------------------------------------------------------------------
# Choice instances over the symbolic universe.
# ---------------------------------------------------------------------------


@dataclass
class ChoiceInstanceReport:
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
    candidate_cap: int | None = None,
) -> ChoiceInstanceReport:
    """Search for a uniform witness for the bridged choice axiom over the
    symbolic universe.

    The antecedent is evaluated at the given stratum; if it holds, candidate
    witnesses are enumerated over fresh supports of size up to the same
    bound (the payload mentions no atoms, so nothing larger can be forced)
    and each is verified against the witness matrix.
    """
    from .schemas import choice_h_parts

    if candidate_cap is None:
        candidate_cap = pred_cap
    antecedent, svar, matrix = choice_h_parts(n, m, payload)
    if not symbolic_evaluate(antecedent, {}, support_bound, pred_cap=pred_cap).truth:
        return ChoiceInstanceReport("vacuous", None, support_bound, 0, False)
    verify = _SymbolicRun(matrix, (svar,), support_bound, pred_cap)
    tried = 0
    for candidate in _candidate_predicates(n + m, fresh_atoms(support_bound), support_bound):
        if tried >= candidate_cap:
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
    try:
        arity = int(data["arity"])
        support = tuple(data["support"])
        accepted = frozenset(type_from_string(s) for s in data["accepted"])
    except (KeyError, TypeError) as exc:
        raise FraenkelError(f"symbolic predicate document needs arity/support/accepted: {exc}")
    return SymbolicPredicate(arity, support, accepted)
