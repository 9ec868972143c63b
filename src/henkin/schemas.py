"""Constructors for the second-order choice axioms, comprehension, and the
well-ordering statement, plus an exhaustive checker over finite structures.

A ``SchemaId`` names the axiom, and ``build`` is the one way to build it.
Each family is one row of ``_FAMILY_TABLE``: the arities it reads, whether
it takes a payload and has the reflexive reading, and its builder.  The id
checks itself against its row: a read arity is an integer from 1 to
``MAX_DEPTH``, an unread one must be 1.

Variable allocation is deterministic so built formulas are byte-stable:

* the distinguished tuple is always ``x1 .. xn``;
* the chosen tuple ``y1 .. ym`` takes the next ``m`` individual indices above
  both ``n`` and every individual index in the payload;
* the disjointness clause of the starred axioms uses two further blocks of
  ``n`` indices, then re-uses the ``y`` block in its inner scope;
* the unique-existence expansion allocates its two fresh copies above
  everything in its body;
* role predicates: the payload's choice variable is ``A0^m``; ``A`` is
  ``A0^n``, ``R`` is ``A0^(n+m)``, ``S`` is ``A1^(n+m)`` (or the next free
  index of that arity above the payload); the comprehension witness is
  ``A0^n``; the order relation is ``A0^2`` and the tested set ``A0^1``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count, product
from math import factorial, prod
from operator import eq
from typing import Callable, NamedTuple, Sequence

# perfbench/tracing.py wraps ``schemas.evaluate``, so the name stays bound
from .evaluate import EvalError, FiniteSemantics, compile_formula, evaluate  # noqa: F401
from .structures import Assignment, CapExceeded, Structure, value_tuple
from .syntax import (
    MAX_DEPTH,
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    LoweringError,
    Not,
    Or,
    SignatureError,
    Var,
    all_vars,
    conj,
    exists_many,
    exists_unique,
    forall_many,
    ind,
    integers,
    lower_predicate_application,
    pred,
    substitute,
)

CHOICE = "choice"
CHOICE_H = "choice-h"
AC = "ac"
AC_STAR = "ac-star"
CHOICE_STAR = "choice-star"
COMPREHENSION = "comprehension"
WO1 = "wo1"
LO = "lo"
WO = "wo"


class SchemaId(value_tuple("SchemaId", "family n m payload strict")):
    """Which axiom to build: family, arities, the payload formula of the
    parameterized families, and the reading of the order families.

    An arity the family reads is an integer from 1 to ``MAX_DEPTH``, so its
    quantifier block is rejected before any building; one it does not read
    must be 1."""

    __slots__ = ()

    def __new__(
        cls, family: str, n: int = 1, m: int = 1, payload: Formula | None = None, strict: bool = True
    ):
        row = _FAMILY_TABLE.get(family)
        if row is None:
            raise SignatureError(f"unknown schema family {family!r}")
        n, m = integers(SignatureError, "schema arities must be integers", n, m)
        for name, arity in zip("nm", (n, m)):
            if name not in row.reads and arity != 1:
                raise SignatureError(
                    f"family {family!r} does not read {name}, got {name} = {arity}"
                )
        if n < 1 or m < 1:
            raise SignatureError("schema arities must be >= 1")
        for name, arity in zip("nm", (n, m)):
            if arity > MAX_DEPTH:
                raise SignatureError(
                    f"schema arity {name} = {arity} nests quantifiers past the depth bound {MAX_DEPTH}"
                )
        if (payload is not None) != row.payload:
            wanted = "requires" if row.payload else "does not take"
            raise SignatureError(f"family {family!r} {wanted} a payload formula")
        if not strict and not row.reflexive:
            raise SignatureError(f"family {family!r} has no reflexive reading")
        return tuple.__new__(cls, (family, n, m, payload, bool(strict)))


def _max_index(f: Formula, arity: int = 0) -> int:
    return max((v.index for v in all_vars(f) if v.arity == arity), default=-1)


def _x_tuple(n: int) -> tuple[Var, ...]:
    return tuple(ind(i) for i in range(1, n + 1))


def _block(start: int, count: int) -> tuple[Var, ...]:
    return tuple(ind(start + i) for i in range(1, count + 1))


def _check_payload(payload: Formula, allowed: set[Var], what: str) -> None:
    if not payload.free_vars <= allowed:
        extra = ", ".join(sorted(str(v) for v in payload.free_vars - allowed))
        raise SignatureError(f"{what} payload has stray free variables: {extra}")
    rebound = allowed & payload.bound_vars
    if rebound:
        names = ", ".join(sorted(str(v) for v in rebound))
        raise SignatureError(f"{what} payload must use only free: {names}")


def choice_h_parts(schema: SchemaId) -> tuple[Formula, Var, Formula]:
    """Antecedent, witness variable, and witness matrix of a ``choice-h`` or
    ``choice`` id: the full axiom is ``antecedent -> ex S . matrix``.

    ``choice-h`` bridges the choice variable to a section of the witness.
    ``choice`` lowers the lambda section to direct substitution instead,
    turning each application of the choice variable into an application of
    the witness prefixed by the distinguished tuple.  When the choice
    variable occurs in a predicate equality no application form exists, and
    ``choice`` bridges too."""
    n, m, payload = schema.n, schema.m, schema.payload
    xs = _x_tuple(n)
    dvar = pred(0, m)
    _check_payload(payload, set(xs) | {dvar}, "choice")
    svar = pred(max(1, _max_index(payload, n + m) + 1), n + m)
    antecedent = forall_many(xs, Exists(dvar, payload))
    if schema.family == CHOICE:
        try:
            lowered = lower_predicate_application(payload, dvar, svar, xs)
            return antecedent, svar, forall_many(xs, lowered)
        except LoweringError:
            pass
    ys = _block(max(n, _max_index(payload)), m)
    bridge = forall_many(ys, Iff(Atom(dvar, ys), Atom(svar, xs + ys)))
    return antecedent, svar, forall_many(xs, Exists(dvar, And(bridge, payload)))


def _build_choice(schema: SchemaId) -> Formula:
    antecedent, svar, matrix = choice_h_parts(schema)
    return Implies(antecedent, Exists(svar, matrix))


def _build_ac(schema: SchemaId) -> Formula:
    """Zermelo's ``ac``: every relation ``R`` with domain ``A`` has a
    selector ``S``, ``all x (A x -> ex!! y (R x y & S x y))``; ``ac-star``
    adds Russell's premise that ``R`` relates distinct points of ``A`` to
    disjoint sets."""
    n, m = schema.n, schema.m
    xs, ys = _x_tuple(n), _block(n, m)
    avar, rvar, svar = pred(0, n), pred(0, n + m), pred(1, n + m)
    premise = forall_many(xs, Iff(Atom(avar, xs), exists_many(ys, Atom(rvar, xs + ys))))
    if schema.family == AC_STAR:
        first, second = _block(n + m, n), _block(n + m + n, n)
        distinct = Not(conj([Eq(a, b) for a, b in zip(first, second)]))
        collide = exists_many(ys, And(Atom(rvar, first + ys), Atom(rvar, second + ys)))
        disjoint = forall_many(
            first + second,
            Implies(And(And(Atom(avar, first), Atom(avar, second)), distinct), Not(collide)),
        )
        premise = And(premise, disjoint)
    unique = exists_unique(ys, And(Atom(rvar, xs + ys), Atom(svar, xs + ys)))
    selects = forall_many(xs, Implies(Atom(avar, xs), unique))
    return Forall(avar, Forall(rvar, Exists(svar, Implies(premise, selects))))


def _build_choice_star(schema: SchemaId) -> Formula:
    m, payload = schema.m, schema.payload
    cvar = pred(0, m)
    _check_payload(payload, {cvar}, "choice-star")
    frame = _choice_star_frame(m, max(_max_index(payload), 0), _max_index(payload, m))
    c1, c2, dvar, inhabited, distinct, disjoint, unique = frame
    nonempty = Forall(cvar, Implies(payload, inhabited))
    h1 = substitute(payload, cvar, c1)
    h2 = substitute(payload, cvar, c2)
    pairwise = forall_many((c1, c2), Implies(And(And(h1, h2), distinct), disjoint))
    return Implies(And(nonempty, pairwise), Exists(dvar, Forall(cvar, Implies(payload, unique))))


@lru_cache(maxsize=64)
def _choice_star_frame(m: int, base: int, top: int) -> tuple:
    """The parts of a ``choice-star`` instance that do not read its payload, built once per key."""
    cvar, ys = pred(0, m), _block(base, m)
    c1, c2, dvar = pred(top + 1, m), pred(top + 2, m), pred(top + 3, m)
    overlap = exists_many(ys, And(Atom(c1, ys), Atom(c2, ys)))
    unique = exists_unique(ys, And(Atom(cvar, ys), Atom(dvar, ys)))
    return c1, c2, dvar, exists_many(ys, Atom(cvar, ys)), Not(Eq(c1, c2)), Not(overlap), unique


def _build_comprehension(schema: SchemaId) -> Formula:
    witness = pred(0, schema.n)
    if witness in all_vars(schema.payload):
        raise SignatureError(f"{witness} must not occur in a comprehension payload")
    xs = _x_tuple(schema.n)
    return Exists(witness, forall_many(xs, Iff(Atom(witness, xs), schema.payload)))


def _build_lo(schema: SchemaId) -> Formula:
    """The linear-order condition on the binary predicate variable ``A0^2``.

    Strict reading: irreflexive, transitive, total on distinct points.
    Reflexive reading: reflexive, antisymmetric, transitive, total.
    """
    t = pred(0, 2)
    a, b, c = ind(1), ind(2), ind(3)
    transitive = forall_many(
        (a, b, c),
        Implies(And(Atom(t, (a, b)), Atom(t, (b, c))), Atom(t, (a, c))),
    )
    if schema.strict:
        irreflexive = Forall(a, Not(Atom(t, (a, a))))
        total = forall_many(
            (a, b), Implies(Not(Eq(a, b)), Or(Atom(t, (a, b)), Atom(t, (b, a))))
        )
        return conj([irreflexive, transitive, total])
    reflexive = Forall(a, Atom(t, (a, a)))
    antisymmetric = forall_many(
        (a, b), Implies(And(Atom(t, (a, b)), Atom(t, (b, a))), Eq(a, b))
    )
    total = forall_many((a, b), Or(Atom(t, (a, b)), Atom(t, (b, a))))
    return conj([reflexive, antisymmetric, transitive, total])


def _build_wo(schema: SchemaId) -> Formula:
    """Well-ordering condition: ``A0^2`` is a linear order in which every
    nonempty set of the structure has a least element."""
    t = pred(0, 2)
    a = pred(0, 1)
    x, y = ind(1), ind(2)
    least = Exists(
        x,
        And(
            Atom(a, (x,)),
            Forall(y, Implies(Atom(a, (y,)), Or(Atom(t, (x, y)), Eq(x, y)))),
        ),
    )
    minimum = Forall(a, Implies(Exists(x, Atom(a, (x,))), least))
    return And(_build_lo(schema), minimum)


def _build_wo1(schema: SchemaId) -> Formula:
    """Existence of a well-ordering of the individuals, with the least-element
    condition ranging over the structure's unary predicates."""
    return Exists(pred(0, 2), _build_wo(schema))


class _Family(NamedTuple):
    """A family's row: the arities it reads (one it does not read stays 1),
    whether it takes a payload formula, whether it has the reflexive
    reading, and its builder."""

    reads: str
    payload: bool
    reflexive: bool
    build: Callable[[SchemaId], Formula]


_FAMILY_TABLE = {
    CHOICE: _Family("nm", True, False, _build_choice),
    CHOICE_H: _Family("nm", True, False, _build_choice),
    AC: _Family("nm", False, False, _build_ac),
    AC_STAR: _Family("nm", False, False, _build_ac),
    CHOICE_STAR: _Family("m", True, False, _build_choice_star),
    COMPREHENSION: _Family("n", True, False, _build_comprehension),
    WO1: _Family("", False, True, _build_wo1),
    LO: _Family("", False, True, _build_lo),
    WO: _Family("", False, True, _build_wo),
}
FAMILIES = tuple(_FAMILY_TABLE)
_PAYLOAD_FAMILIES = tuple(f for f in FAMILIES if _FAMILY_TABLE[f].payload)


def build(schema: SchemaId) -> Formula:
    """The schema formula, with tuples expanded and unique existence and
    lambda sections lowered to the plain language.  A payload-free schema is
    built once per process, and every later call returns that formula."""
    if schema.payload is None:
        return _shared_parts(schema)[0]
    return _FAMILY_TABLE[schema.family].build(schema)


@lru_cache(maxsize=64)
def _shared_parts(schema: SchemaId) -> tuple:
    """A payload-free schema's ``_parts``, built at its first use and shared."""
    return _parts(_FAMILY_TABLE[schema.family].build(schema))


# ---------------------------------------------------------------------------
# Exhaustive checking.
# ---------------------------------------------------------------------------


DEFAULT_ASSIGNMENT_CAP = 1_000_000


class SchemaCheck(NamedTuple):
    """Outcome of an exhaustive schema check.

    ``matrix`` is the formula left after peeling the outer universal prefix;
    a counterexample assigns the peeled and free variables so that the matrix
    evaluates false, and replaying it against the matrix reproduces the
    verdict."""

    holds: bool
    counterexample: Assignment | None
    formula: Formula
    matrix: Formula
    searched: tuple[Var, ...]


def _parts(formula: Formula) -> tuple[Formula, Formula, tuple[Var, ...], tuple[Var, ...]]:
    """A check's formula, matrix, searched and predicate variables."""
    peeled: list[Var] = []
    matrix = formula
    while isinstance(matrix, Forall):
        peeled.append(matrix.var)
        matrix = matrix.body
    searched = tuple(peeled) + tuple(sorted(matrix.free_vars - set(peeled)))
    return formula, matrix, searched, tuple(v for v in all_vars(formula) if v.is_predicate)


def check_schema(
    structure: Structure,
    schema: SchemaId | Formula,
    *,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> SchemaCheck:
    """Search all assignments of the outer universal prefix and the free
    variables for a falsifying one."""
    if isinstance(schema, SchemaId) and schema.payload is None:
        formula, matrix, searched, predicates = _shared_parts(schema)
    else:
        formula = schema if isinstance(schema, Formula) else build(schema)
        formula, matrix, searched, predicates = _parts(formula)
    for v in predicates:
        if v.arity not in structure.domains:
            raise EvalError(f"arity shortfall: {v} needs a domain of arity {v.arity}")

    pools = [structure.domain(v.arity) if v.arity else range(structure.size) for v in searched]
    total = prod(map(len, pools))
    # the group's maps cost half a run of the body per entry: used where the search may pay
    sizes = sum(map(len, structure.domains.values()), structure.size)
    use = searched and (factorial(structure.size) - 1) * sizes <= 2 * min(total, assignment_cap)
    symmetries = [[g[v.arity] for v in searched] for g in structure.automorphisms()] if use else []
    if total > assignment_cap:  # the orbits the search visits, by Burnside's lemma
        fixed = (prod(sum(map(eq, count(), m)) for m in g) for g in symmetries)
        if (needed := (total + sum(fixed)) // (len(symmetries) + 1)) > assignment_cap:
            raise CapExceeded("schema check assignments", needed, assignment_cap)
    body, env = compile_formula(matrix, FiniteSemantics(structure), searched)
    if _falsified(body, env, [range(len(pool)) for pool in pools], symmetries):
        # the core's values are positions in the pools
        counterexample = Assignment({v: pool[i] for v, pool, i in zip(searched, pools, env)})
        return SchemaCheck(False, counterexample, formula, matrix, searched)
    return SchemaCheck(True, None, formula, matrix, searched)


def _falsified(body, env: list, pools: list, symmetries: Sequence, depth: int = 0) -> bool:
    """Whether an assignment of ``pools`` to the first slots of ``env``
    makes ``body`` false; if so, ``env`` holds the first in ``product`` order.

    Each of ``symmetries`` maps every pool, as an automorphism does, and
    fixes the values chosen so far.  A value that one maps below itself
    starts no least assignment of its orbit, and is skipped.  Symmetries
    preserve truth, so the first falsifying assignment is the least of its
    orbit.  Once no symmetry is left, the rest is a plain ``product``."""
    k = len(pools)
    if not symmetries:
        for env[depth:k] in product(*pools[depth:]):
            if not body(env):
                return True
        return False
    # a value is kept if no symmetry maps it below itself
    lowest = map(min, count(), *(g[depth] for g in symmetries))
    for i in compress(pools[depth], map(eq, count(), lowest)):
        env[depth] = i
        if depth + 1 == k:
            if not body(env):
                return True
        elif _falsified(body, env, pools, [g for g in symmetries if g[depth][i] == i], depth + 1):
            return True
    return False
