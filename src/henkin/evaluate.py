"""Formula evaluation over finite predicate structures, through one
compiled core shared with the symbolic atom universe.

Quantifiers are read Henkin-style: an individual quantifier ranges over the
universe, a predicate quantifier over the structure's own domain of that
arity, which may be a proper subset of all tables.  Predicate equality is
extensional table equality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

from .structures import (
    Assignment,
    CapExceeded,
    DEFAULT_TABLE_CAP,
    Structure,
    Table,
)
from .syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Var,
    all_vars,
    fold,
)


class EvalError(Exception):
    """Evaluation cannot proceed: missing domain, bad assignment, or bad input."""


def compile_formula(formula: Formula, semantics, params: Sequence[Var]) -> Callable:
    """Compile the formula once into ``run(values)``: its truth with
    ``params[k]`` bound to ``values[k]``, the parameters covering the free
    variables.

    Every variable gets one slot of a list environment.  The semantics gives
    ``atom(pred_slot, arg_slots)``, an environment-to-truth closure,
    ``pred_eq``, and ``pool(var)``, a function from the environment to a
    quantifier's values.  A quantifier saves its slot, runs its body per
    pool value and restores the slot, so unset (``None``) slots are exactly
    the variables out of scope.
    """
    slot = {v: k for k, v in enumerate(params)}
    for v in sorted(all_vars(formula)):
        slot.setdefault(v, len(slot))
    unset = [None] * (len(slot) - len(params))

    def step(g: Formula, kids: list) -> Callable:
        if isinstance(g, Atom):
            return semantics.atom(slot[g.predicate], tuple(slot[a] for a in g.args))
        if isinstance(g, Eq):
            l, r = slot[g.left], slot[g.right]
            if g.left.is_individual:
                return lambda env: env[l] == env[r]
            same = semantics.pred_eq
            return lambda env: same(env[l], env[r])
        if isinstance(g, Not):
            body = kids[0]
            return lambda env: not body(env)
        if isinstance(g, (Forall, Exists)):
            k, body, universal = slot[g.var], kids[0], isinstance(g, Forall)
            pool = semantics.pool(g.var)

            def quantify(env: list) -> bool:
                saved = env[k]
                for env[k] in pool(env):
                    if body(env) != universal:
                        env[k] = saved
                        return not universal
                env[k] = saved
                return universal

            return quantify
        left, right = kids
        if isinstance(g, And):
            return lambda env: left(env) and right(env)
        if isinstance(g, Or):
            return lambda env: left(env) or right(env)
        if isinstance(g, Implies):
            return lambda env: not left(env) or right(env)
        return lambda env: left(env) == right(env)

    body = fold(formula, step)
    return lambda values: body([*values, *unset])


class FiniteSemantics:
    """Individuals are universe indices, predicates the structure's tables;
    an atom reads ``Table.bits`` at the row-major index of its arguments."""

    pred_eq = operator.eq

    def __init__(self, structure: Structure):
        self.structure = structure

    def pool(self, var: Var):
        if var.is_individual:
            values = range(self.structure.size)
        elif var.arity in self.structure.domains:
            values = self.structure.domain(var.arity)
        else:
            raise EvalError(f"quantifier over {var}: no domain of arity {var.arity}")
        return lambda env: values

    def atom(self, p: int, args: tuple[int, ...]):
        size = self.structure.size
        # unrolled for one and two arguments: a quarter off `check ac-star` on std3
        if len(args) == 1:
            (a,) = args
            return lambda env: env[p].bits[env[a]]
        if len(args) == 2:
            a, b = args
            return lambda env: env[p].bits[env[a] * size + env[b]]

        def point(env: list) -> bool:
            index = 0
            for a in args:
                index = index * size + env[a]
            return env[p].bits[index]

        return point


def resolve(structure: Structure, assignment: Assignment, var: Var):
    """Assignment lookup with the totality defaults.

    An unmentioned individual variable denotes the first individual, an
    unmentioned predicate variable the least table of its arity, so every
    assignment acts as a total one.
    """
    value = assignment.get(var)
    if value is None:
        if var.is_individual:
            return 0
        try:
            return structure.domain(var.arity)[0]
        except Exception:
            raise EvalError(f"no domain of arity {var.arity} for {var}") from None
    if var.is_individual:
        if not 0 <= value < structure.size:
            raise EvalError(f"{var} is assigned index {value}, out of range")
        return value
    if var.arity not in structure.domains or value not in structure.domains[var.arity]:
        raise EvalError(f"{var} is assigned a table outside the structure's domain")
    return value


def evaluate(structure: Structure, assignment: Assignment, formula: Formula) -> bool:
    """Truth value of the formula in the structure under the assignment.

    Every free variable's value and every quantified arity's domain is
    checked before evaluation starts, whether or not evaluation reaches it.
    """
    params = sorted(formula.free_vars)
    run = compile_formula(formula, FiniteSemantics(structure), params)
    return run([resolve(structure, assignment, v) for v in params])


@dataclass(frozen=True)
class DefinedPredicate:
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
        if not v.is_individual:
            raise EvalError(f"distinguished variable {v} must be an individual variable")
        if v in formula.bound_vars:
            raise EvalError(f"{v} must occur only free in the formula")
    params = tuple(v for v in sorted(formula.free_vars) if v not in variables)
    run = compile_formula(formula, FiniteSemantics(structure), variables + params)
    rest = tuple(resolve(structure, assignment, v) for v in params)
    table = _defined_table(run, structure.size, len(variables), rest)
    return DefinedPredicate(table, formula, variables, assignment)


def _defined_table(run, size: int, arity: int, rest: tuple) -> Table:
    """The table of a compiled formula whose first ``arity`` parameters are
    the distinguished variables and whose others take ``rest``."""
    points = product(range(size), repeat=arity)
    return Table(size, arity, tuple(run(point + rest) for point in points))


@dataclass(frozen=True)
class ComprehensionResult:
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
    witness_var = Var(0, n)
    if witness_var in all_vars(formula):
        raise EvalError(f"{witness_var} must not occur in the comprehension formula")
    defined = att(structure, formula, variables, assignment)
    return ComprehensionResult(
        holds=defined.table in structure.domains[n], arity=n, table=defined.table
    )


# ---------------------------------------------------------------------------
# Definability saturation.
#
# The exact closure of a structure under definability is approximated by a
# depth-bounded loop: enumerate all formulas up to the given AST depth over a
# small canonical vocabulary, take each formula's full list of free
# individual variables as the distinguished tuple, range the remaining free
# predicate variables over the current domains, and add every defined table
# that is missing.  Additions apply between rounds; the loop stops after the
# first round without growth, since the round after it would see the same
# domains and find the same nothing.
#
# Free individual parameters are deliberately not ranged over: the
# distinguished tuple absorbs every free individual variable.  Closure under
# parameter-free definability is what the stabilizer bound guarantees for
# permutation models, and it keeps invariant structures at their fixpoint.
# ---------------------------------------------------------------------------

DEFAULT_FORMULA_CAP = 200_000


@dataclass
class SaturationReport:
    depth_bound: int
    rounds: int
    formulas_used: int
    added: dict[int, int]


def saturate(
    structure: Structure,
    depth_bound: int,
    *,
    table_cap: int = DEFAULT_TABLE_CAP,
    formula_cap: int = DEFAULT_FORMULA_CAP,
) -> Structure:
    return saturate_with_report(
        structure, depth_bound, table_cap=table_cap, formula_cap=formula_cap
    )[0]


def saturate_with_report(
    structure: Structure,
    depth_bound: int,
    *,
    table_cap: int = DEFAULT_TABLE_CAP,
    formula_cap: int = DEFAULT_FORMULA_CAP,
) -> tuple[Structure, SaturationReport]:
    from .corpus import enumerate_formulas
    from .syntax import ind, pred

    if depth_bound < 1:
        raise EvalError("depth bound must be >= 1")
    arities = sorted(structure.domains)
    max_arity = max(arities)
    ind_vocab = [ind(i) for i in range(1, max_arity + 2)]
    pred_vocab = [pred(j, n) for n in arities for j in (0, 1)]
    formulas = enumerate_formulas(depth_bound, ind_vocab, pred_vocab, cap=formula_cap)

    jobs = []
    for f in formulas:
        xs = tuple(sorted(v for v in f.free_vars if v.is_individual))
        if not 1 <= len(xs) <= max_arity or len(xs) not in structure.domains:
            continue
        if any(v in f.bound_vars for v in xs):
            continue
        preds = tuple(sorted(v for v in f.free_vars if v.is_predicate))
        jobs.append((f, xs, preds))

    domains = {n: set(ts) for n, ts in structure.domains.items()}
    added: dict[int, int] = {n: 0 for n in domains}
    rounds = 0
    grew = True
    while grew:
        current = Structure(
            structure.individuals, {n: frozenset(ts) for n, ts in domains.items()}
        )
        semantics = FiniteSemantics(current)
        new_tables: dict[int, set[Table]] = {n: set() for n in domains}
        for formula, xs, preds in jobs:
            run = compile_formula(formula, semantics, xs + preds)
            for combo in product(*(current.domain(p.arity) for p in preds)):
                table = _defined_table(run, current.size, len(xs), combo)
                if table not in domains[len(xs)]:
                    new_tables[len(xs)].add(table)
        grew = False
        for n, tables in new_tables.items():
            if tables:
                grew = True
                domains[n] |= tables
                added[n] += len(tables)
                if len(domains[n]) > table_cap:
                    raise CapExceeded(f"saturated domain of arity {n}", len(domains[n]), table_cap)
        rounds += 1
    out = Structure(structure.individuals, {n: frozenset(ts) for n, ts in domains.items()})
    report = SaturationReport(
        depth_bound=depth_bound,
        rounds=rounds,
        formulas_used=len(jobs),
        added={n: k for n, k in added.items() if k},
    )
    return out, report
