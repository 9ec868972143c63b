"""Formula evaluation over finite predicate structures, through one
compiled core shared with the symbolic atom universe.

Quantifiers are read Henkin-style: an individual quantifier ranges over the
universe, a predicate quantifier over the structure's own domain of that
arity, which may be a proper subset of all tables.  A value is a position in
its pool: an individual in the universe, a predicate in ``domain(arity)``.
``resolve`` turns an assigned table into its position, so predicate equality,
extensional table equality, is equality of positions.

Where its body allows, a predicate quantifier over a finite domain is
decided by one run of its body as an int mask with a bit per table.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Iterable, NamedTuple, Sequence

# called as ``corpus.enumerate_formulas``, so a wrapper set on the module sees every call
from . import corpus
from .corpus import DEFAULT_FORMULA_CAP
from .structures import (
    Assignment,
    CapExceeded,
    DEFAULT_TABLE_CAP,
    Structure,
    Table,
)
from .syntax import AND, ATOM, EQ, EXISTS, FORALL, IFF, IMPLIES, NOT, OR  # the node kinds
from .syntax import (
    Exists,
    Forall,
    Formula,
    Var,
    ind,
    pred,
)


class EvalError(Exception):
    """Evaluation cannot proceed: missing domain, bad assignment, or bad input."""


def compile_formula(formula: Formula, semantics, params: Sequence[Var]) -> tuple[Callable, list]:
    """Compile the formula into ``(body, env)``: ``env`` is a fresh list
    with one ``None`` slot per variable, ``params`` first, and ``body(env)``
    is the truth once the caller has written the values of the parameters,
    which cover the free variables, into their slots.  Each part is
    compiled once, the right operand of a binary connective at its first
    run, by a stub that leaves the compiled closure in its place; every
    quantified range is checked first, by ``semantics.pool`` for each bound
    variable in sorted order, whether or not a run reaches it.

    The semantics gives ``atom(pred_slot, arg_slots)``, an
    environment-to-truth closure, and ``pool(var)``, a function from the
    environment to a quantifier's values, which compare with ``==``.  A
    quantifier saves its slot, runs its body per pool value and restores
    the slot, so unset (``None``) slots are exactly the variables out of
    scope, and a run that returns leaves ``env`` as it found it: one
    environment serves many runs, but a run that raises part-way may leave
    quantifier slots set.

    A bridged predicate existential (see ``_bridged_section``) searches
    the right conjunct over ``semantics.section(s_slot, xs_slots, m)``, a
    range of at most one value: a closure from the environment to the
    section of ``S`` at the values of ``xs`` as a 1-tuple, or ``()`` when
    the quantifier's range lacks it.

    Any other ``Q V`` splits off the operand ``V`` is not free in, the
    whole body or the left operand of an ``&``, ``|`` or ``->`` body, and
    reads it once, at the first value drawn, as a search would; if it
    decides the body, that is the quantifier's value.  The rest, ``phi``,
    is flat when ``V`` is a predicate variable in it under no predicate
    quantifier there: ``semantics.flat(Q V . phi, k, compile)``, given
    ``V``'s slot and ``compile(full)``, ``phi`` as a closure to an int mask
    (see ``masked``), returns its closure, or None to search ``phi`` from
    the value already drawn.  This is exact, since pools are nonempty and
    a variable cannot be bound again in its own scope: truth and
    ``stratified`` are those of the plain search wherever it finishes.
    Right operands and ``<->`` are not split off, as that would reorder
    evaluation and so where a label is set.
    """
    slot, bound, pools = {v: k for k, v in enumerate(params)}, formula.bound_vars, {}
    for v in sorted(formula.free_vars | bound):  # slots and pools in one pass
        slot.setdefault(v, len(slot))
        if v in bound:
            pools[v] = semantics.pool(v)
    return _Compiler(slot, pools, semantics).scalar(formula), [None] * len(slot)


class _Compiler:
    """One ``compile_formula`` call's slots, pools and semantics.  No closure
    holds itself: a right operand's stub holds the compiler and the cell it
    fills, so a dropped body is freed without the cyclic collector."""

    __slots__ = ("slot", "pools", "semantics")

    def __init__(self, slot: dict[Var, int], pools: dict[Var, Callable], semantics):
        self.slot, self.pools, self.semantics = slot, pools, semantics

    def scalar(self, g: Formula) -> Callable:
        slot = self.slot
        if (kind := g[0]) == ATOM:
            return self.semantics.atom(slot[g.predicate], tuple(slot[a] for a in g.args))
        if kind == EQ:
            l, r = slot[g.left], slot[g.right]
            return lambda env: env[l] == env[r]
        if kind == NOT:
            body = self.scalar(g.body)
            return lambda env: not body(env)
        if kind in (FORALL, EXISTS):
            return self.quantifier(g)
        left, right = self.scalar(g.left), None

        def first(env: list) -> bool:  # the first run of the right operand compiles it
            nonlocal right
            right = self.scalar(g.right)
            return right(env)

        if kind == AND:
            return lambda env: left(env) and (right or first)(env)
        if kind == OR:
            return lambda env: left(env) or (right or first)(env)
        if kind == IMPLIES:
            return lambda env: not left(env) or (right or first)(env)
        return lambda env: left(env) == (right or first)(env)

    def quantifier(self, g: Forall | Exists) -> Callable:
        slot, inner, universal = self.slot, g.body, g[0] == FORALL
        k, bridged = slot[g.var], not universal and inner[0] == AND and _bridged_section(g)
        # `fixed` is the operand without the variable and `phi` the rest; `stop`,
        # the value of `fixed` that decides the body, is then its value (`L -> R` is `~L | R`)
        fixed, phi, decide, pool = None, inner, None, self.pools[g.var]
        if bridged:  # a range of at most one value: the section, if D's range holds it
            s, xs, m = bridged
            phi, pool = inner.right, self.semantics.section(slot[s], tuple(slot[x] for x in xs), m)
        elif g.var not in inner.free_vars:
            fixed, phi = self.scalar(inner), None
        elif inner[0] in (AND, OR, IMPLIES) and g.var not in inner.left.free_vars:
            left, phi = self.scalar(inner.left), inner.right
            fixed = (lambda env: not left(env)) if inner[0] == IMPLIES else left
            stop = inner[0] != AND
        if phi and not bridged and g.var.is_predicate and g.var not in phi.nested_vars:
            split = g if phi is inner else type(g)(g.var, phi)
            decide = self.semantics.flat(split, k, lambda full: self.masked(phi, g.var, full))
            if decide and not fixed:
                return decide
        body = self.scalar(phi) if phi and not decide else None
        if fixed:

            def hoisted(env: list) -> bool:
                saved, values = env[k], iter(pool(env))
                for env[k] in values:  # the first value; `fixed` is the same at all of them
                    truth = fixed(env)
                    if decide and truth != stop:
                        truth = decide(env)
                    elif body and truth != stop:
                        truth = universal
                        for env[k] in chain((env[k],), values):
                            if body(env) != universal:
                                truth = not universal
                                break
                    env[k] = saved
                    return truth
                return universal

            return hoisted

        def quantify(env: list) -> bool:
            saved = env[k]
            for env[k] in pool(env):
                if body(env) != universal:
                    env[k] = saved
                    return not universal
            env[k] = saved
            return universal

        return quantify

    def masked(self, g: Formula, v: Var, full: int) -> Callable:
        """``g``, with ``v`` free and under no predicate quantifier, as a
        closure to the mask of the values of ``v`` where it holds; ``full``
        has a bit per value, and ``v = w`` is the bit at ``w``'s value.
        Parts without ``v`` stay scalar, and an individual quantifier is an
        AND (``ex`` as ``~all ~``) over its pool that stops at 0."""
        slot = self.slot
        if (kind := g[0]) == ATOM:  # headed by v, as arguments are individuals
            return self.semantics.column(slot[v], tuple(slot[a] for a in g.args))
        if kind == EQ:
            if g.left == g.right:
                return lambda env: full
            w = slot[g.right if g.left == v else g.left]
            return lambda env: 1 << env[w]
        if kind == NOT:
            body = self.masked(g.body, v, full)
            return lambda env: full ^ body(env)
        if kind in (FORALL, EXISTS):
            body = self.masked(g.body, v, full)
            k, pool = slot[g.var], self.pools[g.var]
            flip = 0 if kind == FORALL else full

            def every(env: list) -> int:
                saved, acc = env[k], full
                for env[k] in pool(env):
                    acc &= body(env) ^ flip
                    if not acc:
                        break
                env[k] = saved
                return acc ^ flip

            return every
        on_left, on_right = v in g.left.free_vars, v in g.right.free_vars
        left = self.masked(g.left, v, full) if on_left else self.scalar(g.left)
        right = self.masked(g.right, v, full) if on_right else self.scalar(g.right)
        if on_left and on_right:
            if kind == AND:
                return lambda env: (m := left(env)) and m & right(env)
            if kind == OR:
                return lambda env: m if (m := left(env)) == full else m | right(env)
            if kind == IMPLIES:
                return lambda env: full ^ m | right(env) if (m := left(env)) else full
            return lambda env: full ^ left(env) ^ right(env)
        scalar_op, m = (right, left) if on_left else (left, right)  # one scalar operand, read first
        if kind == AND:
            return lambda env: m(env) if scalar_op(env) else 0
        if kind == OR:
            return lambda env: full if scalar_op(env) else m(env)
        if kind == IFF:
            return lambda env: m(env) if scalar_op(env) else full ^ m(env)
        if on_left:  # `L -> R` is `~L | R`, here with L the mask
            return lambda env: full if scalar_op(env) else full ^ m(env)
        return lambda env: m(env) if scalar_op(env) else full


def _bridged_section(g: Exists) -> tuple[Var, tuple[Var, ...], int] | None:
    """For ``g`` with an ``&`` body: ``(S, xs, m)`` when ``g`` is
    ``ex D . (all ys . (D ys <-> S xs ys)) & rest`` with ``m`` = len(ys), no
    y among the xs and ``S`` other than ``D``, else None.  The bridge then
    holds of exactly one value of ``D``, the section of ``S`` at xs, so
    ``g`` is ``rest`` there if the range of ``D`` holds it, else false.  The
    ys are distinct because a variable cannot be quantified in its own scope."""
    bridge, ys = g.body.left, []
    while bridge[0] == FORALL:
        ys.append(bridge.var)
        bridge = bridge.body
    if not (bridge[0] == IFF and bridge.left[0] == ATOM and bridge.right[0] == ATOM):
        return None
    d, s = bridge.left, bridge.right
    if d.predicate != g.var or s.predicate == g.var or d.args != tuple(ys):
        return None
    m = len(ys)  # >= 1: D is a predicate variable
    xs = s.args[:-m]
    if s.args[-m:] != d.args or set(xs) & set(ys):
        return None
    return s.predicate, xs, m


class FiniteSemantics:
    """Individuals are positions in the universe, predicates positions in
    their arity's ``domain``; an atom reads the predicate's row of
    ``Structure.rows`` at the row-major index of its arguments."""

    def __init__(self, structure: Structure):
        self.structure, self.size, self.rows = structure, structure.size, structure.rows

    def pool(self, var: Var):
        if not (values := range(len(self.rows(var.arity)) if var.arity else self.size)):
            raise EvalError(f"quantifier over {var}: no domain of arity {var.arity}")
        return lambda env: values

    def atom(self, p: int, args: tuple[int, ...]):
        rows, size = self.rows(len(args)), self.size
        # unrolled for one and two arguments: a quarter off `check ac-star` on std3
        if len(args) == 1:
            (a,) = args
            return lambda env: rows[env[p]][env[a]]
        if len(args) == 2:
            a, b = args
            return lambda env: rows[env[p]][env[a] * size + env[b]]

        def point(env: list) -> bool:
            index = 0
            for a in args:
                index = index * size + env[a]
            return rows[env[p]][index]

        return point

    def flat(self, g: Forall | Exists, k: int, compile: Callable):
        """One run of the body as a mask with a bit per table of the
        predicate variable's domain, which ``pool`` has checked is nonempty."""
        full = (1 << len(self.rows(g.var.arity))) - 1
        mask = compile(full)
        if g[0] == FORALL:
            return lambda env: mask(env) == full
        return lambda env: mask(env) != 0

    def column(self, p: int, args: tuple[int, ...]):
        """A closure from the environment to the column of the predicate
        variable in slot ``p`` at the point of ``args``: bit j for the j-th table."""
        columns, size = self.structure.columns(len(args)), self.size
        if len(args) == 1:
            (a,) = args
            return lambda env: columns[env[a]]
        if len(args) == 2:
            a, b = args
            return lambda env: columns[env[a] * size + env[b]]

        def point(env: list) -> int:
            index = 0
            for a in args:
                index = index * size + env[a]
            return columns[index]

        return point

    def section(self, s: int, xs: tuple[int, ...], m: int):
        """A closure from the environment to a bridged range: the position of
        the table whose bits are the ``m``-ary block of the row of ``env[s]``
        at the points ``env[x]``, or ``()`` if the arity-m domain lacks it
        (Henkin's reading)."""
        by_bits, rows = self.structure.by_bits(m), self.rows(len(xs) + m)
        size, width = self.size, self.size**m

        def section(env: list) -> tuple[int, ...]:
            start = 0
            for x in xs:
                start = start * size + env[x]
            start *= width
            value = by_bits.get(rows[env[s]][start : start + width])
            return () if value is None else (value,)

        return section


def resolve(structure: Structure, assignment: Assignment, var: Var):
    """Assignment lookup with the totality defaults.

    An individual is its position in the universe and a predicate the
    position of the equal table in its arity's ``domain``.  An unmentioned
    individual variable denotes the first individual, an unmentioned
    predicate variable the least table of its arity (position 0), so every
    assignment acts as a total one.
    """
    value = assignment.get(var)
    if var.is_individual:
        if value is None:
            return 0
        if not 0 <= value < structure.size:
            raise EvalError(f"{var} is assigned index {value}, out of range")
        return value
    own = structure.by_bits(var.arity)
    if not own:
        raise EvalError(f"no domain of arity {var.arity} for {var}")
    value = 0 if value is None else own.get(value.bits)
    if value is None:
        raise EvalError(f"{var} is assigned a table outside the structure's domain")
    return value


def evaluate(structure: Structure, assignment: Assignment, formula: Formula) -> bool:
    """Truth value of the formula in the structure under the assignment.

    Every free variable's value and every quantified arity's domain is
    checked before evaluation starts, whether or not evaluation reaches it.
    """
    params = sorted(formula.free_vars)
    body, env = compile_formula(formula, FiniteSemantics(structure), params)
    env[: len(params)] = [resolve(structure, assignment, v) for v in params]
    return body(env)


class DefinedPredicate(NamedTuple):
    """A table defined by a formula, its distinguished variables, and the
    assignment of its remaining free variables."""

    table: Table
    formula: Formula
    variables: tuple[Var, ...]
    assignment: Assignment


def att(
    structure: Structure,
    formula: Formula,
    variables: Iterable[Var],
    assignment: Assignment | None = None,
) -> DefinedPredicate:
    """The predicate defined by the formula over the distinguished variables.

    Entry at a tuple is the truth value of the formula with the variables
    pointwise updated to that tuple.
    """
    variables = tuple(variables)
    assignment = assignment if assignment is not None else Assignment({})
    if not variables:
        raise EvalError("att needs at least one distinguished variable")
    if len(set(variables)) != len(variables):
        raise EvalError("distinguished variables must be distinct")
    for v in variables:
        if v.arity:
            raise EvalError(f"distinguished variable {v} must be an individual variable")
        if v in formula.bound_vars:
            raise EvalError(f"{v} must occur only free in the formula")
    params = tuple(sorted(formula.free_vars.difference(variables)))
    body, env = compile_formula(formula, FiniteSemantics(structure), variables + params)
    n, size = len(variables), structure.size
    if params:
        env[n : n + len(params)] = [resolve(structure, assignment, v) for v in params]
    # `_bit_row` gives `size ** n` bools, so the table is built around the row, unchecked
    table = tuple.__new__(Table, (size, n, _bit_row(body, env, size, n)))
    return DefinedPredicate(table, formula, variables, assignment)


def _bit_row(body, env: list, size: int, arity: int) -> tuple[bool, ...]:
    """The row-major bits of the table ``body`` defines over its first
    ``arity`` slots, the others as ``env`` holds them; points are written
    into ``env`` in place, so nothing is built per point but the bit."""
    points = range(size)  # unrolled for one and two slots: a fifth off std2 saturation
    if arity == 1:
        return tuple([body(env) for env[0] in points])
    if arity == 2:
        return tuple([body(env) for env[0] in points for env[1] in points])
    return tuple([body(env) for env[:arity] in product(points, repeat=arity)])


class ComprehensionResult(NamedTuple):
    """Outcome of a single comprehension check; ``table`` is the defined
    predicate, present in the structure iff ``holds``."""

    holds: bool
    arity: int
    table: Table


def check_comprehension(
    structure: Structure,
    formula: Formula,
    variables: Iterable[Var],
    assignment: Assignment | None = None,
) -> ComprehensionResult:
    """Whether the predicate defined by the formula lies in the structure.

    This is the instance check for the comprehension axiom on the formula:
    the structure satisfies it iff the defined table is already a member of
    the matching domain.
    """
    variables = tuple(variables)
    n = len(variables)
    if n not in structure.domains:
        raise EvalError(f"arity shortfall: structure has no domain of arity {n}")
    if (0, n) in formula.free_vars or (0, n) in formula.bound_vars:  # Var(0, n) is the pair
        raise EvalError(f"{Var(0, n)} must not occur in the comprehension formula")
    table = att(structure, formula, variables, assignment).table
    return ComprehensionResult(holds=table.bits in structure.by_bits(n), arity=n, table=table)


# ---------------------------------------------------------------------------
# Definability saturation.
#
# The exact closure of a structure under definability is approximated by a
# depth-bounded loop: enumerate all formulas up to the given AST depth over a
# small canonical vocabulary, take each formula's full list of free
# individual variables as the distinguished tuple, range the remaining free
# predicate variables over the current domains, and add every defined table
# that is missing.  A defined table is compared as its bit row with the rows
# of the domain, and only a row that is added becomes a ``Table``.
# Additions apply between rounds; the loop stops after the first round
# without growth, since the round after it would see the same domains and
# find the same nothing.
#
# Free individual parameters are deliberately not ranged over: the
# distinguished tuple absorbs every free individual variable.  Closure under
# parameter-free definability is what the stabilizer bound guarantees for
# permutation models, and it keeps invariant structures at their fixpoint.
# ---------------------------------------------------------------------------

class SaturationReport(NamedTuple):
    depth_bound: int
    rounds: int
    formulas_used: int
    added: dict[int, int]


def saturate(structure: Structure, depth_bound: int, **caps: int) -> Structure:
    """The saturated structure of ``saturate_with_report``, which takes the caps."""
    return saturate_with_report(structure, depth_bound, **caps)[0]


def saturate_with_report(
    structure: Structure,
    depth_bound: int,
    *,
    table_cap: int = DEFAULT_TABLE_CAP,
    formula_cap: int = DEFAULT_FORMULA_CAP,
) -> tuple[Structure, SaturationReport]:
    if depth_bound < 1:
        raise EvalError("depth bound must be >= 1")
    arities = sorted(structure.domains)
    ind_vocab = [ind(i) for i in range(1, max(arities, default=0) + 2)]
    pred_vocab = [pred(j, n) for n in arities for j in (0, 1)]
    formulas = corpus.enumerate_formulas(depth_bound, ind_vocab, pred_vocab, cap=formula_cap)

    jobs = []
    for f in formulas:
        xs = tuple(sorted(v for v in f.free_vars if v.is_individual))
        if len(xs) in structure.domains and not f.bound_vars.intersection(xs):
            jobs.append((f, xs, tuple(sorted(v for v in f.free_vars if v.is_predicate))))

    current, added = structure, dict.fromkeys(structure.domains, 0)
    size, rounds, grew = structure.size, 0, True
    while grew:
        semantics = FiniteSemantics(current)
        new_rows: dict[int, set[tuple[bool, ...]]] = {n: set() for n in added}
        for formula, xs, preds in jobs:
            n, k = len(xs), len(xs) + len(preds)
            body, env = compile_formula(formula, semantics, xs + preds)
            known, found = current.by_bits(n), new_rows[n]
            for env[n:k] in product(*(range(len(current.domain(p.arity))) for p in preds)):
                row = _bit_row(body, env, size, n)
                if row not in known:
                    found.add(row)
        grew = any(new_rows.values())
        domains = {}
        for n, found in new_rows.items():
            domains[n] = current.domains[n] | {Table(size, n, row) for row in found}
            added[n] += len(found)
            if found and len(domains[n]) > table_cap:
                raise CapExceeded(f"saturated domain of arity {n}", len(domains[n]), table_cap)
        current = Structure(structure.individuals, domains)
        rounds += 1
    report = SaturationReport(
        depth_bound=depth_bound,
        rounds=rounds,
        formulas_used=len(jobs),
        added={n: k for n, k in added.items() if k},
    )
    return current, report
