"""Independent reference evaluators and reference model builders.

Written before the package evaluator was wired into the tests and kept
deliberately separate from it: isinstance dispatch instead of match, plain
dict environments, table lookups through an explicitly enumerated
point-to-bit map instead of index arithmetic.  Only the data contracts are
shared (AST nodes, the structure's bit layout, the defaults policy:
first individual, least table).

``naive_sym_eval`` is the tree-walking reference for the symbolic
semantics: a dict environment copied per binding, its own candidate
enumeration and cap count, and the package's equality-type primitives
(``denotes``, ``symbolic_equal``, ``enumerate_types``) for atoms.

The two structure builders at the end are references only tests use: the
brute-force permutation-model builder that the fast one is compared
against, and the closure of a structure under permutations.
"""

from itertools import combinations

from henkin.fraenkel import (
    DEFAULT_PRED_CAP,
    SymbolicPredicate,
    denotes,
    enumerate_types,
    fresh_atoms,
    symbolic_equal,
)
from henkin.groups import act_on_predicate, filter_contains, symmetry_subgroup
from henkin.structures import DEFAULT_TABLE_CAP, CapExceeded, Structure, all_tables
from henkin.syntax import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or


def _points(size, arity):
    if arity == 0:
        return [()]
    shorter = _points(size, arity - 1)
    return [p + (i,) for p in shorter for i in range(size)]


def _table_map(table):
    return dict(zip(_points(table.size, table.arity), table.bits))


def _lookup(structure, env, var):
    if var in env:
        return env[var]
    if var.is_individual:
        return 0
    return min(structure.domains[var.arity])


def naive_eval(structure, env, formula):
    """Truth value by direct recursion; env maps variables to indices/tables."""
    if isinstance(formula, Eq):
        left = _lookup(structure, env, formula.left)
        right = _lookup(structure, env, formula.right)
        return left == right
    if isinstance(formula, Atom):
        table = _lookup(structure, env, formula.predicate)
        point = tuple(_lookup(structure, env, a) for a in formula.args)
        return _table_map(table)[point]
    if isinstance(formula, Not):
        return not naive_eval(structure, env, formula.body)
    if isinstance(formula, And):
        return naive_eval(structure, env, formula.left) and naive_eval(
            structure, env, formula.right
        )
    if isinstance(formula, Or):
        return naive_eval(structure, env, formula.left) or naive_eval(
            structure, env, formula.right
        )
    if isinstance(formula, Implies):
        return (not naive_eval(structure, env, formula.left)) or naive_eval(
            structure, env, formula.right
        )
    if isinstance(formula, Iff):
        return naive_eval(structure, env, formula.left) == naive_eval(
            structure, env, formula.right
        )
    if isinstance(formula, (Forall, Exists)):
        var = formula.var
        if var.is_individual:
            values = list(range(len(structure.individuals)))
        else:
            values = list(structure.domains[var.arity])
        results = []
        for value in values:
            child = dict(env)
            child[var] = value
            results.append(naive_eval(structure, child, formula.body))
        return all(results) if isinstance(formula, Forall) else any(results)
    raise TypeError(f"oracle cannot evaluate {type(formula).__name__}")


class SymContext:
    """Stratum, predicate cap, and what one symbolic evaluation did."""

    def __init__(self, support_bound, pred_cap=DEFAULT_PRED_CAP):
        self.support_bound = support_bound
        self.pred_cap = pred_cap
        self.enumerated = 0
        self.stratified = False


def _env_atoms(env):
    atoms = set()
    for value in env.values():
        if isinstance(value, str):
            atoms.add(value)
        else:
            atoms.update(value.support)
    return atoms


def _sym_candidates(arity, pool, ctx):
    for size in range(min(ctx.support_bound, len(pool)) + 1):
        for sup in combinations(pool, size):
            sup = tuple(sorted(sup))
            types = enumerate_types(arity, sup)
            for mask in range(2 ** len(types)):
                ctx.enumerated += 1
                if ctx.enumerated > ctx.pred_cap:
                    raise CapExceeded("enumerated symbolic predicates", ctx.enumerated, ctx.pred_cap)
                accepted = frozenset(t for k, t in enumerate(types) if mask >> k & 1)
                yield SymbolicPredicate(arity, sup, accepted)


def naive_sym_eval(formula, env, ctx):
    """Truth over the symbolic atom universe; env maps variables to atom
    names and symbolic predicates, ctx is a ``SymContext``."""
    if isinstance(formula, Eq):
        left, right = env[formula.left], env[formula.right]
        if formula.left.is_individual:
            return left == right
        return symbolic_equal(left, right)
    if isinstance(formula, Atom):
        return denotes(env[formula.predicate], tuple(env[a] for a in formula.args))
    if isinstance(formula, Not):
        return not naive_sym_eval(formula.body, env, ctx)
    if isinstance(formula, And):
        return naive_sym_eval(formula.left, env, ctx) and naive_sym_eval(formula.right, env, ctx)
    if isinstance(formula, Or):
        return naive_sym_eval(formula.left, env, ctx) or naive_sym_eval(formula.right, env, ctx)
    if isinstance(formula, Implies):
        return (not naive_sym_eval(formula.left, env, ctx)) or naive_sym_eval(
            formula.right, env, ctx
        )
    if isinstance(formula, Iff):
        return naive_sym_eval(formula.left, env, ctx) == naive_sym_eval(formula.right, env, ctx)
    if isinstance(formula, (Forall, Exists)):
        combine = all if isinstance(formula, Forall) else any
        var = formula.var
        base = sorted(_env_atoms(env))
        if var.is_individual:
            pool = base + list(fresh_atoms(1, avoid=base))
            return combine(naive_sym_eval(formula.body, {**env, var: a}, ctx) for a in pool)
        ctx.stratified = True
        pool = base + list(fresh_atoms(ctx.support_bound, avoid=base))
        return combine(
            naive_sym_eval(formula.body, {**env, var: sigma}, ctx)
            for sigma in _sym_candidates(var.arity, pool, ctx)
        )
    raise TypeError(f"oracle cannot evaluate {type(formula).__name__}")


def build_permutation_model_bruteforce(
    labels, group, filt, max_arity, *, table_cap=DEFAULT_TABLE_CAP
):
    """Reference builder: filter every table by its symmetry subgroup."""
    labels = tuple(labels)
    domains = {}
    for n in range(1, max_arity + 1):
        domains[n] = frozenset(
            t
            for t in all_tables(len(labels), n, cap=table_cap)
            if filter_contains(filt, group, symmetry_subgroup(group, t))
        )
    return Structure(labels, domains)


def close_structure_under(structure, perms):
    """Smallest superstructure closed under the given permutations."""
    perms = tuple(perms)
    domains = {n: set(ts) for n, ts in structure.domains.items()}
    changed = True
    while changed:
        changed = False
        for tables in domains.values():
            new = {act_on_predicate(p, t) for p in perms for t in tables} - tables
            if new:
                tables |= new
                changed = True
    return Structure(structure.individuals, {n: frozenset(ts) for n, ts in domains.items()})
