"""Core syntax for a two-sorted second-order language.

Individual variables are written ``x0, x1, ...`` and n-ary predicate
variables ``A0^n, A1^n, ...``.  Formulas are built from predicate
application ``A x1 ... xn``, equality at either sort, the connectives
``~ & | -> <->``, and quantifiers over both sorts.

Quantifier construction enforces the grammar's side condition: the bound
variable must not be bound again anywhere in the body.  Violations are
rejected rather than silently repaired.

Every node records its depth, and construction rejects a formula deeper than
:data:`MAX_DEPTH`.  The bound keeps every recursive walk over a formula (the
traversals here, the parser, the compiler that both semantics share, and the
C-level tuple equality and hashing of nodes) well inside Python's default
recursion limit, so the walks need no explicit stack.
"""

from __future__ import annotations

from operator import index as _index, itemgetter
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")

MAX_DEPTH = 100


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


def integers(error: type[Exception], message: str, *values) -> tuple[int, ...]:
    """``values`` converted with ``operator.index``, so a float or a string
    raises ``error`` with ``message`` and the values, and a bool becomes 0 or 1."""
    try:
        return tuple(map(_index, values))
    except TypeError:
        raise error(f"{message}, got {', '.join(map(repr, values))}") from None


class Var(tuple):
    """A sorted variable, the pair ``(index, arity)`` and hashed, compared and
    ordered as it, in C: arity 0 is an individual, n >= 1 an n-ary predicate."""

    __slots__ = ()
    index = property(itemgetter(0))
    arity = property(itemgetter(1))

    def __new__(cls, index: int, arity: int = 0) -> Var:
        index, arity = integers(FormulaError, "variable index and arity must be integers", index, arity)
        if index < 0 or arity < 0:
            raise FormulaError(f"variable index and arity must be >= 0, got {index}, {arity}")
        return tuple.__new__(cls, (index, arity))

    def __getnewargs__(self) -> tuple[int, int]:  # copies and pickles rebuild through __new__
        return tuple(self)

    def __repr__(self) -> str:
        return f"Var(index={self.index}, arity={self.arity})"

    @property
    def is_individual(self) -> bool:
        return self.arity == 0

    @property
    def is_predicate(self) -> bool:
        return self.arity > 0

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


class Formula(tuple):
    """Base class; use the concrete node classes below.

    A node is the tuple ``(kind, first, second, free, bound, depth)``: its
    class's kind, its fields, and the free and bound variables and depth its
    constructor computes.  The kind is a small int, ``ATOM`` to ``EXISTS``:
    hashes are the same in every process, compilers dispatch on it, and it
    keeps ``And(a, b)`` apart from ``Or(a, b)``; the rest follows from the
    fields.  Tuple equality and hashing thus compare formulas structurally, in C.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    free_vars = property(itemgetter(3))
    bound_vars = property(itemgetter(4))

    def __getnewargs__(self) -> tuple:  # copies and pickles rebuild through __new__
        return self[1 : 1 + len(self._fields)]

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return format_formula(self)


_new = tuple.__new__
_EMPTY: frozenset = frozenset()
ATOM, EQ, NOT, AND, OR, IMPLIES, IFF, FORALL, EXISTS = range(9)


def _operand(f) -> tuple:
    """The free and bound variables of an operand, and the depth of a node over it."""
    if not isinstance(f, Formula):
        raise FormulaError(f"expected a Formula, got {type(f).__name__}")
    _, _, _, free, bound, depth = f
    if depth >= MAX_DEPTH:
        raise FormulaError(f"formula depth {depth + 1} exceeds the bound {MAX_DEPTH}")
    return free, bound, depth + 1


class Atom(Formula):
    """Application of a predicate variable to individual variables."""

    __slots__ = ()
    _kind = ATOM
    _fields = ("predicate", "args")
    predicate = property(itemgetter(1))
    args = property(itemgetter(2))

    def __new__(cls, predicate: Var, args: Iterable[Var]) -> Atom:
        args = tuple(args)
        if not predicate.is_predicate:
            raise ArityError(f"{predicate} cannot head an application")
        if len(args) != predicate.arity:
            raise ArityError(f"{predicate} expects {predicate.arity} arguments, got {len(args)}")
        for a in args:
            if not a.is_individual:
                raise ArityError(f"application argument {a} must be an individual variable")
        free = frozenset((predicate, *args))
        return _new(cls, (cls._kind, predicate, args, free, _EMPTY, 0))


class Eq(Formula):
    """Equality between two variables of the same sort.

    Predicate equality is extensional: it compares the assigned truth tables.
    """

    __slots__ = ()
    _kind = EQ
    _fields = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: Var, right: Var) -> Eq:
        if left.arity != right.arity:
            raise ArityError(f"equality needs both sides of the same sort: {left} vs {right}")
        return _new(cls, (cls._kind, left, right, frozenset((left, right)), _EMPTY, 0))


class Not(Formula):
    __slots__ = ()
    _kind = NOT
    _fields = ("body",)
    body = property(itemgetter(1))

    def __new__(cls, body: Formula) -> Not:
        free, bound, depth = _operand(body)
        return _new(cls, (cls._kind, body, (), free, bound, depth))


class _Binary(Formula):
    __slots__ = ()
    _fields = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: Formula, right: Formula) -> Formula:
        free, bound, depth = _operand(left)
        rfree, rbound, rdepth = _operand(right)
        depth = depth if depth > rdepth else rdepth
        return _new(cls, (cls._kind, left, right, free | rfree, bound | rbound, depth))


class And(_Binary):
    __slots__ = ()
    _kind = AND


class Or(_Binary):
    __slots__ = ()
    _kind = OR


class Implies(_Binary):
    __slots__ = ()
    _kind = IMPLIES


class Iff(_Binary):
    __slots__ = ()
    _kind = IFF


class _Quantifier(Formula):
    __slots__ = ()
    _fields = ("var", "body")
    var = property(itemgetter(1))
    body = property(itemgetter(2))

    def __new__(cls, var: Var, body: Formula) -> Formula:
        free, bound, depth = _operand(body)
        if var in bound:
            raise CaptureError(
                f"{var} is already bound inside the body and cannot be quantified again"
            )
        return _new(cls, (cls._kind, var, body, free - {var}, bound | {var}, depth))


class Forall(_Quantifier):
    __slots__ = ()
    _kind = FORALL


class Exists(_Quantifier):
    __slots__ = ()
    _kind = EXISTS


def free_vars(f: Formula) -> frozenset[Var]:
    return f.free_vars


def all_vars(f: Formula) -> frozenset[Var]:
    return f.free_vars | f.bound_vars


def depth(f: Formula) -> int:
    """AST depth, recorded at construction; atomic formulas have depth 0."""
    return f[5]


# ---------------------------------------------------------------------------
# Traversal.  Every walk goes through ``_children``; recursion depth is
# bounded by MAX_DEPTH.
# ---------------------------------------------------------------------------


def _children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas, left to right."""
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, (Not, _Quantifier)):
        return (f.body,)
    return ()


def fold(f: Formula, fn: Callable[[Formula, list], T]) -> T:
    """Post-order fold: ``fn(node, results for its children)``."""
    kids = _children(f)
    return fn(f, [fold(k, fn) for k in kids] if kids else [])


def subformulas(f: Formula) -> list[Formula]:
    """All subformulas, the formula itself included, in post-order."""
    return fold(f, lambda g, kids: [h for kid in kids for h in kid] + [g])


def reaches(v: Var, f: Formula, test: Callable[[Formula], bool]) -> bool:
    """Whether some subformula of ``f`` on a path to a free ``v``, ``f`` included, passes
    ``test``, walking breadth first (shallow passes end it early) where ``v`` is free."""
    todo = [f]
    for g in todo:  # the list grows as the walk goes
        if v in g.free_vars:
            if test(g):
                return True
            todo += _children(g)
    return False


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
# The grammar's tables, read by the printer and the parser alike: each
# connective's text, precedence (higher binds tighter) and whether it
# associates to the left, and each quantifier's keyword.
BINARY_SYNTAX = {
    And: ("&", 4, True),
    Or: ("|", 3, True),
    Implies: ("->", 2, False),
    Iff: ("<->", 1, False),
}
QUANTIFIER_SYNTAX = {Forall: "all", Exists: "ex"}


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
        body = kids[0][0]
        if isinstance(f.body, _Binary):
            body = f"({body})"
        return f"{QUANTIFIER_SYNTAX[type(f)]} {f.var} . {body}", 0
    op, prec, left_assoc = BINARY_SYNTAX[type(f)]
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
    """Replace each atomic formula in which ``var`` occurs free by ``leaf`` of
    it (recursing at module level: a nested walk would make a cycle).

    Raises :class:`CaptureError` when such an occurrence lies under a
    quantifier on a variable in ``capture``.
    """
    if var not in f.free_vars:
        return f
    kids = _children(f)
    if not kids:
        return leaf(f)
    if isinstance(f, _Quantifier):
        if f.var in capture:
            raise CaptureError(f"rewriting {var} under the quantifier on {f.var} would capture it")
        return type(f)(f.var, _rewrite(f.body, var, leaf, capture))
    return type(f)(*(_rewrite(k, var, leaf, capture) for k in kids))


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
# quantification, rule 4 predicate quantification.  The constructors enforce
# the side conditions (arity, sort, no rebound variable), so no node is
# re-checked here.
# ---------------------------------------------------------------------------


def _rule(g: Formula) -> int:
    if isinstance(g, (Atom, Eq)):
        return 1
    if isinstance(g, (Not, _Binary)):
        return 2
    return 3 if g.var.is_individual else 4


def derivation(f: Formula) -> list[tuple[int, Formula]]:
    """Post-order list of (rule number, node) pairs deriving the formula."""
    return [(_rule(g), g) for g in subformulas(f)]
