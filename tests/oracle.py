"""Independent reference evaluators and reference model builders.

Written before the package evaluator was wired into the tests and kept
deliberately separate from it: isinstance dispatch instead of match, plain
dict environments, table lookups through an explicitly enumerated
point-to-bit map instead of index arithmetic.  Only the data contracts are
shared (AST nodes, the structure's bit layout, the defaults policy:
first individual, least table).

``naive_sym_eval`` is the tree-walking reference for the symbolic
semantics: a dict environment copied per binding, its own predicates
(``RefPredicate``: a support and a set of accepted equality types, kept as
declared), membership by ``classify``, equality by the atom-dropping
``ref_canonicalize``, and its own candidate enumeration, every accepted set
under every support, with its own cap count.  It shares only the type
primitives ``EqType``, ``classify`` and ``enumerate_types`` with the
package; ``ref_predicate`` and ``to_symbolic`` convert at the boundary.

The two structure builders at the end are references only tests use: the
brute-force permutation-model builder that the fast one is compared
against, and the closure of a structure under permutations.
"""

from dataclasses import dataclass
from itertools import combinations

from henkin.fraenkel import (
    DEFAULT_PRED_CAP,
    EqType,
    SymbolicPredicate,
    classify,
    enumerate_types,
    fresh_atoms,
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


@dataclass(frozen=True)
class RefPredicate:
    """A symbolic predicate as declared: true of a tuple iff the tuple's
    equality type relative to the support is in ``accepted``."""

    arity: int
    support: tuple
    accepted: frozenset

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(sorted(set(self.support))))
        object.__setattr__(self, "accepted", frozenset(self.accepted))


def ref_predicate(sigma):
    """The reference form of a package ``SymbolicPredicate``."""
    return RefPredicate(sigma.arity, sigma.support, sigma.accepted)


def to_symbolic(ref):
    """The package form of a reference predicate."""
    return SymbolicPredicate(ref.arity, ref.support, ref.accepted)


def ref_denotes(sigma, atoms):
    return classify(atoms, sigma.support) in sigma.accepted


def _drop_support_atom(sigma, atom):
    """The predicate over the support minus one atom, or None when the atom
    is essential: a type over the smaller support covers the tuples whose
    fresh positions may or may not hit the dropped atom, and every such
    refinement must agree."""
    smaller = tuple(a for a in sigma.support if a != atom)
    accepted = set()
    for t in enumerate_types(sigma.arity, smaller):
        verdicts = {t in sigma.accepted}
        fresh_classes = sorted({e for e in t.entries if isinstance(e, int)})
        for cls in fresh_classes:
            renumber = {}
            entries = []
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
    return RefPredicate(sigma.arity, smaller, frozenset(accepted))


def ref_canonicalize(sigma):
    """The equivalent predicate over its least support."""
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


def ref_equal(a, b):
    return a.arity == b.arity and ref_canonicalize(a) == ref_canonicalize(b)


def ref_candidates(arity, pool, support_bound):
    """Every accepted set under every support of size at most the bound
    drawn from the pool."""
    for size in range(min(support_bound, len(pool)) + 1):
        for sup in combinations(pool, size):
            sup = tuple(sorted(sup))
            types = enumerate_types(arity, sup)
            for mask in range(2 ** len(types)):
                accepted = frozenset(t for k, t in enumerate(types) if mask >> k & 1)
                yield RefPredicate(arity, sup, accepted)


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
    for sigma in ref_candidates(arity, pool, ctx.support_bound):
        ctx.enumerated += 1
        if ctx.enumerated > ctx.pred_cap:
            raise CapExceeded("enumerated symbolic predicates", ctx.enumerated, ctx.pred_cap)
        yield sigma


def naive_sym_eval(formula, env, ctx):
    """Truth over the symbolic atom universe; env maps variables to atom
    names and ``RefPredicate``s, ctx is a ``SymContext``."""
    if isinstance(formula, Eq):
        left, right = env[formula.left], env[formula.right]
        if formula.left.is_individual:
            return left == right
        return ref_equal(left, right)
    if isinstance(formula, Atom):
        return ref_denotes(env[formula.predicate], tuple(env[a] for a in formula.args))
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
