"""Core syntax for a two-sorted second-order language.

Individual variables are written ``x0, x1, ...`` and n-ary predicate
variables ``A0^n, A1^n, ...``.  Formulas are built from predicate
application ``A x1 ... xn``, equality at either sort, the connectives
``~ & | -> <->``, and quantifiers over both sorts.

Quantifier construction enforces the grammar's side condition: the bound
variable must not be bound again anywhere in the body.  Violations are
rejected rather than silently repaired; :func:`rename_bound_away` is the
explicit repair used by schema construction.

Every node records its depth, and construction rejects a formula deeper than
:data:`MAX_DEPTH`.  The bound keeps every recursive walk over a formula (the
traversals here, the parser, both evaluators, dataclass equality and
hashing) well inside Python's default recursion limit, so the walks need no
explicit stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")

MAX_DEPTH = 100

# writes the caches of a frozen node; bound once, as construction is hot
_setattr = object.__setattr__


class FormulaError(Exception):
    """Malformed formula construction."""


class ArityError(FormulaError):
    """Sort or arity mismatch in an atomic formula."""


class CaptureError(FormulaError):
    """A variable would be bound twice, or a substitution would be captured."""


class SignatureError(FormulaError):
    """A schema payload uses free variables outside the declared signature."""


class LoweringError(FormulaError):
    """A predicate variable cannot be rewritten to an application form."""


@dataclass(frozen=True, order=True)
class Var:
    """A sorted variable: arity 0 is an individual, arity n >= 1 an n-ary predicate."""

    index: int
    arity: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise FormulaError(f"variable index must be >= 0, got {self.index}")
        if self.arity < 0:
            raise FormulaError(f"variable arity must be >= 0, got {self.arity}")

    @property
    def is_individual(self) -> bool:
        return self.arity == 0

    @property
    def is_predicate(self) -> bool:
        return self.arity > 0

    @property
    def kind(self) -> str:
        return "individual" if self.arity == 0 else "predicate"

    def __str__(self) -> str:
        if self.arity == 0:
            return f"x{self.index}"
        return f"A{self.index}^{self.arity}"


def ind(index: int) -> Var:
    """The individual variable x<index>."""
    return Var(index, 0)


def pred(index: int, arity: int) -> Var:
    """The predicate variable A<index>^<arity>."""
    if arity < 1:
        raise FormulaError(f"predicate variables need arity >= 1, got {arity}")
    return Var(index, arity)


@dataclass(frozen=True)
class Formula:
    """Base class; use the concrete node classes below."""

    def _finish(self, free: frozenset, bound: frozenset, depth: int) -> None:
        if depth > MAX_DEPTH:
            raise FormulaError(f"formula depth {depth} exceeds the bound {MAX_DEPTH}")
        _setattr(self, "_free", free)
        _setattr(self, "_bound", bound)
        _setattr(self, "_depth", depth)

    @property
    def free_vars(self) -> frozenset[Var]:
        return self._free  # type: ignore[attr-defined]

    @property
    def bound_vars(self) -> frozenset[Var]:
        return self._bound  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    """Application of a predicate variable to individual variables."""

    predicate: Var
    args: tuple[Var, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if not self.predicate.is_predicate:
            raise ArityError(f"{self.predicate} cannot head an application")
        if len(self.args) != self.predicate.arity:
            raise ArityError(
                f"{self.predicate} expects {self.predicate.arity} arguments, "
                f"got {len(self.args)}"
            )
        for a in self.args:
            if not a.is_individual:
                raise ArityError(f"application argument {a} must be an individual variable")
        self._finish(frozenset((self.predicate, *self.args)), frozenset(), 0)


@dataclass(frozen=True)
class Eq(Formula):
    """Equality between two variables of the same sort.

    Predicate equality is extensional: it compares the assigned truth tables.
    """

    left: Var
    right: Var

    def __post_init__(self) -> None:
        if self.left.arity != self.right.arity:
            raise ArityError(
                f"equality needs both sides of the same sort: {self.left} vs {self.right}"
            )
        self._finish(frozenset((self.left, self.right)), frozenset(), 0)


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def __post_init__(self) -> None:
        _check_formula(self.body)
        self._finish(self.body.free_vars, self.body.bound_vars, self.body._depth + 1)


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        _check_formula(self.left)
        _check_formula(self.right)
        left, right = self.left._depth, self.right._depth
        self._finish(
            self.left.free_vars | self.right.free_vars,
            self.left.bound_vars | self.right.bound_vars,
            (left if left > right else right) + 1,
        )


@dataclass(frozen=True)
class And(_Binary):
    pass


@dataclass(frozen=True)
class Or(_Binary):
    pass


@dataclass(frozen=True)
class Implies(_Binary):
    pass


@dataclass(frozen=True)
class Iff(_Binary):
    pass


@dataclass(frozen=True)
class _Quantifier(Formula):
    var: Var
    body: Formula

    def __post_init__(self) -> None:
        _check_formula(self.body)
        if self.var in self.body.bound_vars:
            raise CaptureError(
                f"{self.var} is already bound inside the body and cannot be quantified again"
            )
        self._finish(
            self.body.free_vars - {self.var},
            self.body.bound_vars | {self.var},
            self.body._depth + 1,
        )


@dataclass(frozen=True)
class Forall(_Quantifier):
    pass


@dataclass(frozen=True)
class Exists(_Quantifier):
    pass


def _check_formula(f) -> None:
    if not isinstance(f, Formula):
        raise FormulaError(f"expected a Formula, got {type(f).__name__}")


def free_vars(f: Formula) -> frozenset[Var]:
    return f.free_vars


def all_vars(f: Formula) -> frozenset[Var]:
    return f.free_vars | f.bound_vars


def depth(f: Formula) -> int:
    """AST depth, recorded at construction; atomic formulas have depth 0."""
    return f._depth  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Traversal.  Every walk goes through these three helpers; recursion depth
# is bounded by MAX_DEPTH.
# ---------------------------------------------------------------------------


def _children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas, left to right."""
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, (Not, _Quantifier)):
        return (f.body,)
    return ()


def _rebuild(f: Formula, kids: list[Formula]) -> Formula:
    """A node of the same kind as ``f`` over new immediate subformulas."""
    if isinstance(f, _Quantifier):
        return type(f)(f.var, *kids)
    if isinstance(f, (Not, _Binary)):
        return type(f)(*kids)
    return f


def fold(f: Formula, fn: Callable[[Formula, list], T]) -> T:
    """Post-order fold: ``fn(node, results for its children)``."""
    kids = _children(f)
    return fn(f, [fold(k, fn) for k in kids] if kids else [])


def subformulas(f: Formula) -> list[Formula]:
    """All subformulas, the formula itself included, in post-order."""
    return fold(f, lambda g, kids: [h for kid in kids for h in kid] + [g])


# ---------------------------------------------------------------------------
# Printing.
#
# Precedence: ~ binds tightest, then &, |, ->, <->; the arrows associate to
# the right, & and | to the left.  A quantifier body extends as far right as
# possible.  Negated subformulas always carry parentheses, and so does a
# quantifier body that is a binary connective; both conventions are stable
# under re-parsing.
# ---------------------------------------------------------------------------

_PREC_UNARY = 5
# operator, precedence, associates to the left
_BINARY_SYNTAX = {
    And: ("&", 4, True),
    Or: ("|", 3, True),
    Implies: ("->", 2, False),
    Iff: ("<->", 1, False),
}


def format_formula(f: Formula) -> str:
    """Render a formula in the surface syntax; inverse of ``parse``."""
    return fold(f, _fmt)[0]


def _fmt(f: Formula, kids: list[tuple[str, int]]) -> tuple[str, int]:
    """The text of ``f`` and its precedence, from its children's."""
    if isinstance(f, Atom):
        return " ".join(str(v) for v in (f.predicate, *f.args)), _PREC_UNARY + 1
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}", _PREC_UNARY + 1
    if isinstance(f, Not):
        return f"~({kids[0][0]})", _PREC_UNARY
    if isinstance(f, _Quantifier):
        kw = "all" if isinstance(f, Forall) else "ex"
        body = kids[0][0]
        if isinstance(f.body, _Binary):
            body = f"({body})"
        return f"{kw} {f.var} . {body}", 0
    op, prec, left_assoc = _BINARY_SYNTAX[type(f)]
    (left, left_prec), (right, right_prec) = kids
    # the operand on the associating side may share the operator's precedence
    if left_prec < (prec if left_assoc else prec + 1):
        left = f"({left})"
    if right_prec < (prec + 1 if left_assoc else prec):
        right = f"({right})"
    return f"{left} {op} {right}", prec


# ---------------------------------------------------------------------------
# Substitution and renaming.
# ---------------------------------------------------------------------------


def _rewrite(
    f: Formula, var: Var, leaf: Callable[[Formula], Formula], capture: frozenset[Var]
) -> Formula:
    """Replace each atomic formula in which ``var`` occurs free by ``leaf`` of it.

    Raises :class:`CaptureError` when such an occurrence lies under a
    quantifier on a variable in ``capture``.
    """

    def go(g: Formula) -> Formula:
        if var not in g.free_vars:
            return g
        kids = _children(g)
        if not kids:
            return leaf(g)
        if isinstance(g, _Quantifier) and g.var in capture:
            raise CaptureError(f"rewriting {var} under the quantifier on {g.var} would capture it")
        return _rebuild(g, [go(k) for k in kids])

    return go(f)


def substitute(f: Formula, var: Var, replacement: Var) -> Formula:
    """Replace free occurrences of ``var`` by ``replacement`` of the same sort."""
    if var.arity != replacement.arity:
        raise ArityError(f"{var} and {replacement} differ in sort or arity")
    if var == replacement:
        return f

    def swap(v: Var) -> Var:
        return replacement if v == var else v

    def leaf(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(swap(g.predicate), tuple(swap(a) for a in g.args))
        return Eq(swap(g.left), swap(g.right))

    return _rewrite(f, var, leaf, frozenset((replacement,)))


def lower_predicate_application(
    f: Formula, var: Var, target: Var, prefix: tuple[Var, ...]
) -> Formula:
    """Rewrite every application ``var t1..tm`` to ``target prefix t1..tm``.

    Fails with :class:`LoweringError` when ``var`` occurs in a predicate
    equality, since there is no application form to rewrite there.
    """
    if not var.is_predicate or not target.is_predicate:
        raise FormulaError("lowering rewrites predicate variables")
    if target.arity != var.arity + len(prefix):
        raise ArityError("target arity must be the prefix length plus the source arity")
    prefix = tuple(prefix)

    def leaf(g: Formula) -> Formula:
        if isinstance(g, Eq):
            raise LoweringError(f"{var} occurs in a predicate equality; cannot lower")
        return Atom(target, prefix + g.args)

    return _rewrite(f, var, leaf, frozenset((target, *prefix)))


def rename_bound_away(f: Formula, forbidden: Iterable[Var]) -> Formula:
    """Rename bound variables so none of ``forbidden`` is bound in the result.

    Fresh indices are allocated per arity, above everything used in the
    formula or listed as forbidden.
    """
    forbidden = frozenset(forbidden)
    if not (f.bound_vars & forbidden):
        return f
    taken: dict[int, int] = {}
    for v in all_vars(f) | forbidden:
        taken[v.arity] = max(taken.get(v.arity, -1), v.index)

    def rename(g: Formula, kids: list[Formula]) -> Formula:
        if isinstance(g, _Quantifier) and g.var in forbidden:
            taken[g.var.arity] += 1
            fresh = Var(taken[g.var.arity], g.var.arity)
            return type(g)(fresh, substitute(kids[0], g.var, fresh))
        return _rebuild(g, kids)

    return fold(f, rename)


# ---------------------------------------------------------------------------
# Building blocks used by the schema constructors.
# ---------------------------------------------------------------------------


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-folded conjunction of a nonempty sequence."""
    parts = list(parts)
    if not parts:
        raise FormulaError("conjunction of nothing")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def forall_many(vs: Iterable[Var], body: Formula) -> Formula:
    out = body
    for v in reversed(tuple(vs)):
        out = Forall(v, out)
    return out


def exists_many(vs: Iterable[Var], body: Formula) -> Formula:
    out = body
    for v in reversed(tuple(vs)):
        out = Exists(v, out)
    return out


def exists_unique(vs: Iterable[Var], body: Formula) -> Formula:
    """Unique existence over a tuple of individual variables.

    Expands to existence plus a two-copy clause: copies of the tuple that
    both satisfy the body are equal componentwise.  The two copies use fresh
    indices above everything in the body.
    """
    vs = tuple(vs)
    if not vs:
        raise FormulaError("exists_unique needs at least one variable")
    if any(not v.is_individual for v in vs):
        raise FormulaError("exists_unique binds individual variables")
    if len(set(vs)) != len(vs):
        raise FormulaError("exists_unique variables must be distinct")
    top = max((v.index for v in all_vars(body) | set(vs) if v.is_individual), default=-1)
    first = tuple(ind(top + 1 + i) for i in range(len(vs)))
    second = tuple(ind(top + 1 + len(vs) + i) for i in range(len(vs)))

    def copy_with(replacements: tuple[Var, ...]) -> Formula:
        out = body
        for old, new in zip(vs, replacements):
            out = substitute(out, old, new)
        return out

    same = conj([Eq(a, b) for a, b in zip(first, second)])
    uniqueness = forall_many(
        first + second, Implies(And(copy_with(first), copy_with(second)), same)
    )
    return And(exists_many(vs, body), uniqueness)


# ---------------------------------------------------------------------------
# Derivation reconstruction.
#
# Rule 1 covers the atomic forms, rule 2 the connectives, rule 3 individual
# quantification, rule 4 predicate quantification.  The side conditions are
# re-checked by direct traversal, independently of the constructor caches,
# so this doubles as a well-formedness audit.
# ---------------------------------------------------------------------------


def derivation(f: Formula) -> list[tuple[int, Formula]]:
    """Post-order list of (rule number, node) pairs deriving the formula."""
    steps: list[tuple[int, Formula]] = []

    def step(g: Formula, kids: list[set[Var]]) -> set[Var]:
        """Record the rule for ``g``; return the variables bound inside it."""
        bound = set().union(*kids)
        if isinstance(g, Atom):
            if len(g.args) != g.predicate.arity or not g.predicate.is_predicate:
                raise ArityError(f"bad application {g}")
            rule = 1
        elif isinstance(g, Eq):
            if g.left.arity != g.right.arity:
                raise ArityError(f"bad equality {g}")
            rule = 1
        elif isinstance(g, (Not, _Binary)):
            rule = 2
        elif isinstance(g, _Quantifier):
            if g.var in bound:
                raise CaptureError(f"{g.var} does not occur only free under its quantifier")
            bound.add(g.var)
            rule = 3 if g.var.is_individual else 4
        else:
            raise FormulaError(f"{type(g).__name__} is not derivable")
        steps.append((rule, g))
        return bound

    fold(f, step)
    return steps
