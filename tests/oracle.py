"""Independent reference evaluator and reference model builders.

Written before the package evaluator was wired into the tests and kept
deliberately separate from it: isinstance dispatch instead of match, plain
dict environments, table lookups through an explicitly enumerated
point-to-bit map instead of index arithmetic.  Only the data contracts are
shared (AST nodes, the structure's bit layout, the defaults policy:
first individual, least table).

The two structure builders at the end are references only tests use: the
brute-force permutation-model builder that the fast one is compared
against, and the closure of a structure under permutations.
"""

from henkin.groups import act_on_predicate, filter_contains, symmetry_subgroup
from henkin.structures import DEFAULT_TABLE_CAP, Structure, all_tables
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
    return structure.with_domains({n: frozenset(ts) for n, ts in domains.items()})
