"""Constructors for the second-order choice axioms, comprehension, and the
well-ordering statement, plus an exhaustive checker over finite structures.

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

import operator
from functools import lru_cache
from itertools import product
from typing import NamedTuple

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

FAMILIES = (CHOICE, CHOICE_H, AC, AC_STAR, CHOICE_STAR, COMPREHENSION, WO1, LO, WO)
_PAYLOAD_FAMILIES = (CHOICE, CHOICE_H, CHOICE_STAR, COMPREHENSION)
# the arities a family binds as one block of nested quantifiers; ``choice``
# binds ``m`` so only in its bridged form, which ``choice_h_parts`` checks
_NESTED = {
    CHOICE: "n", CHOICE_H: "nm", AC: "nm", AC_STAR: "nm", CHOICE_STAR: "m", COMPREHENSION: "n",
}


class SchemaId(value_tuple("SchemaId", "family n m payload")):
    """Which axiom to build: family, arities, and the payload formula for the
    parameterized families."""

    __slots__ = ()

    def __new__(cls, family: str, n: int = 1, m: int = 1, payload: Formula | None = None):
        if family not in FAMILIES:
            raise SignatureError(f"unknown schema family {family!r}")
        n, m = _check_arities(n, m, _NESTED.get(family, ""))
        if (payload is not None) != (family in _PAYLOAD_FAMILIES):
            wanted = "requires" if family in _PAYLOAD_FAMILIES else "does not take"
            raise SignatureError(f"family {family!r} {wanted} a payload formula")
        return tuple.__new__(cls, (family, n, m, payload))


def _check_arities(n: int, m: int, nested: str) -> tuple[int, int]:
    """``(n, m)`` as ints.  Reject non-integers, arities below 1, and before
    any building, a ``nested`` arity whose quantifier block alone would pass
    the depth bound."""
    try:
        n, m = operator.index(n), operator.index(m)
    except TypeError:
        raise SignatureError(f"schema arities must be integers, got {n!r}, {m!r}") from None
    if n < 1 or m < 1:
        raise SignatureError("schema arities must be >= 1")
    for name, arity in zip("nm", (n, m)):
        if name in nested and arity > MAX_DEPTH:
            raise SignatureError(
                f"schema arity {name} = {arity} nests quantifiers past the depth bound {MAX_DEPTH}"
            )
    return n, m


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


def choice_h_parts(n: int, m: int, payload: Formula) -> tuple[Formula, Var, Formula]:
    """Antecedent, witness variable, and witness matrix of the bridged
    choice axiom: the full axiom is ``antecedent -> ex S . matrix``."""
    n, m = _check_arities(n, m, "nm")
    xs = _x_tuple(n)
    dvar = pred(0, m)
    _check_payload(payload, set(xs) | {dvar}, "choice")
    base = max(n, _max_index(payload))
    ys = _block(base, m)
    svar = pred(max(1, _max_index(payload, n + m) + 1), n + m)
    antecedent = forall_many(xs, Exists(dvar, payload))
    bridge = forall_many(ys, Iff(Atom(dvar, ys), Atom(svar, xs + ys)))
    matrix = forall_many(xs, Exists(dvar, And(bridge, payload)))
    return antecedent, svar, matrix


def _build_choice_h(n: int, m: int, payload: Formula) -> Formula:
    antecedent, svar, matrix = choice_h_parts(n, m, payload)
    return Implies(antecedent, Exists(svar, matrix))


def _build_choice(n: int, m: int, payload: Formula) -> Formula:
    """Lowered form: the lambda section becomes direct substitution, turning
    each application of the choice variable into an application of the
    witness prefixed by the distinguished tuple.  When the choice variable
    occurs in a predicate equality no application form exists, and the
    bridged form is used instead."""
    xs = _x_tuple(n)
    dvar = pred(0, m)
    _check_payload(payload, set(xs) | {dvar}, "choice")
    antecedent = forall_many(xs, Exists(dvar, payload))
    svar = pred(max(1, _max_index(payload, n + m) + 1), n + m)
    try:
        lowered = lower_predicate_application(payload, dvar, svar, xs)
    except LoweringError:
        return _build_choice_h(n, m, payload)
    return Implies(antecedent, Exists(svar, forall_many(xs, lowered)))


def _choice_body(avar: Var, rvar: Var, svar: Var, xs, ys) -> Formula:
    """``all x (A x -> ex!! y (R x y & S x y))`` shared by the Zermelo and
    Russell style axioms."""
    unique = exists_unique(ys, And(Atom(rvar, xs + ys), Atom(svar, xs + ys)))
    return forall_many(xs, Implies(Atom(avar, xs), unique))


def _build_ac(n: int, m: int) -> Formula:
    xs = _x_tuple(n)
    ys = _block(n, m)
    avar, rvar, svar = pred(0, n), pred(0, n + m), pred(1, n + m)
    domain = forall_many(xs, Iff(Atom(avar, xs), exists_many(ys, Atom(rvar, xs + ys))))
    body = Implies(domain, _choice_body(avar, rvar, svar, xs, ys))
    return Forall(avar, Forall(rvar, Exists(svar, body)))


def _tuple_neq(first: tuple[Var, ...], second: tuple[Var, ...]) -> Formula:
    return Not(conj([Eq(a, b) for a, b in zip(first, second)]))


def _build_ac_star(n: int, m: int) -> Formula:
    xs = _x_tuple(n)
    ys = _block(n, m)
    first = _block(n + m, n)
    second = _block(n + m + n, n)
    avar, rvar, svar = pred(0, n), pred(0, n + m), pred(1, n + m)
    domain = forall_many(xs, Iff(Atom(avar, xs), exists_many(ys, Atom(rvar, xs + ys))))
    collide = exists_many(ys, And(Atom(rvar, first + ys), Atom(rvar, second + ys)))
    disjoint = forall_many(
        first + second,
        Implies(
            And(And(Atom(avar, first), Atom(avar, second)), _tuple_neq(first, second)),
            Not(collide),
        ),
    )
    body = Implies(And(domain, disjoint), _choice_body(avar, rvar, svar, xs, ys))
    return Forall(avar, Forall(rvar, Exists(svar, body)))


def _build_choice_star(m: int, payload: Formula) -> Formula:
    cvar = pred(0, m)
    _check_payload(payload, {cvar}, "choice-star")
    base = _max_index(payload)
    ys = _block(max(base, 0), m)
    top = _max_index(payload, m)
    c1, c2, dvar = pred(top + 1, m), pred(top + 2, m), pred(top + 3, m)

    nonempty = Forall(cvar, Implies(payload, exists_many(ys, Atom(cvar, ys))))
    h1 = substitute(payload, cvar, c1)
    h2 = substitute(payload, cvar, c2)
    overlap = exists_many(ys, And(Atom(c1, ys), Atom(c2, ys)))
    pairwise = Forall(
        c1,
        Forall(
            c2,
            Implies(And(And(h1, h2), Not(Eq(c1, c2))), Not(overlap)),
        ),
    )
    transversal = Exists(
        dvar,
        Forall(
            cvar,
            Implies(payload, exists_unique(ys, And(Atom(cvar, ys), Atom(dvar, ys)))),
        ),
    )
    return Implies(And(nonempty, pairwise), transversal)


def _build_comprehension(n: int, payload: Formula) -> Formula:
    witness = pred(0, n)
    if witness in all_vars(payload):
        raise SignatureError(f"{witness} must not occur in a comprehension payload")
    xs = _x_tuple(n)
    return Exists(witness, forall_many(xs, Iff(Atom(witness, xs), payload)))


def build_lo(tvar: Var | None = None, *, strict: bool = True) -> Formula:
    """The linear-order condition on a binary predicate variable.

    Strict reading: irreflexive, transitive, total on distinct points.
    Reflexive reading: reflexive, antisymmetric, transitive, total.
    """
    t = tvar if tvar is not None else pred(0, 2)
    if t.arity != 2:
        raise SignatureError("the order variable must be binary")
    a, b, c = ind(1), ind(2), ind(3)
    transitive = forall_many(
        (a, b, c),
        Implies(And(Atom(t, (a, b)), Atom(t, (b, c))), Atom(t, (a, c))),
    )
    if strict:
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


def build_wo(tvar: Var | None = None, *, strict: bool = True) -> Formula:
    """Well-ordering condition: a linear order in which every nonempty set of
    the structure has a least element."""
    t = tvar if tvar is not None else pred(0, 2)
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
    return And(build_lo(t, strict=strict), minimum)


def build_wo1(*, strict: bool = True) -> Formula:
    """Existence of a well-ordering of the individuals, with the least-element
    condition ranging over the structure's unary predicates."""
    t = pred(0, 2)
    return Exists(t, build_wo(t, strict=strict))


def build(schema: SchemaId, *, strict: bool = True) -> Formula:
    """The schema formula, with tuples expanded and unique existence and
    lambda sections lowered to the plain language.  A payload-free schema is
    built once per process, and every later call returns that formula."""
    if schema.family == CHOICE:
        return _build_choice(schema.n, schema.m, schema.payload)
    if schema.family == CHOICE_H:
        return _build_choice_h(schema.n, schema.m, schema.payload)
    if schema.family == CHOICE_STAR:
        return _build_choice_star(schema.m, schema.payload)
    if schema.family == COMPREHENSION:
        return _build_comprehension(schema.n, schema.payload)
    return _shared_parts(schema, strict)[0]


@lru_cache(maxsize=64)
def _shared_parts(schema: SchemaId, strict: bool) -> tuple:
    """A payload-free schema's ``_parts``, built at its first use and shared."""
    if schema.family == AC:
        return _parts(_build_ac(schema.n, schema.m))
    if schema.family == AC_STAR:
        return _parts(_build_ac_star(schema.n, schema.m))
    return _parts({WO1: build_wo1, LO: build_lo, WO: build_wo}[schema.family](strict=strict))


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
    strict: bool = True,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> SchemaCheck:
    """Search all assignments of the outer universal prefix and the free
    variables for a falsifying one."""
    if isinstance(schema, SchemaId) and schema.payload is None:
        formula, matrix, searched, predicates = _shared_parts(schema, strict)
    else:
        formula = schema if isinstance(schema, Formula) else build(schema, strict=strict)
        formula, matrix, searched, predicates = _parts(formula)
    for v in predicates:
        if v.arity not in structure.domains:
            raise EvalError(f"arity shortfall: {v} needs a domain of arity {v.arity}")

    pools = []
    total = 1
    for v in searched:
        pool = range(structure.size) if v.is_individual else structure.domain(v.arity)
        pools.append(pool)
        total *= len(pool)
        if total > assignment_cap:
            raise CapExceeded("schema check assignments", total, assignment_cap)
    body, env = compile_formula(matrix, FiniteSemantics(structure), searched)
    k = len(searched)
    for env[:k] in product(*pools):
        if not body(env):
            counterexample = Assignment(dict(zip(searched, env)))
            return SchemaCheck(False, counterexample, formula, matrix, searched)
    return SchemaCheck(True, None, formula, matrix, searched)
