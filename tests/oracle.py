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
under every support, with its own cap count.  With ``SymContext(...,
distinct=True)`` it reads predicates as the package stores them: pools
take the atoms of least supports, and a quantifier counts each candidate
once, under its least support, at its first occurrence in that listing.
It shares only the type primitives ``EqType``, ``classify`` and
``enumerate_types`` with the package; ``ref_predicate`` and
``to_symbolic`` convert at the boundary.  ``ref_order_check`` scans the
linear-order axioms atom tuple by atom tuple through ``ref_denotes``.
``evaluation_pool`` is the finite atom universe on which a truncation to
a finite structure decides a symbolic formula.  ``ref_fresh_atoms`` and
``ref_atom_pool`` are ``fresh_atoms`` and a symbolic quantifier's pool as
first written, one name formatted at a time and ``avoid`` always copied;
the oracle draws its own fresh atoms from the first.

``naive_saturate`` is the reference for definability saturation: every
defined table built point by point with ``naive_eval`` and a dict
environment, as a ``Table``, and tested for membership in the round's
domains; only the formula enumeration and the report type are shared.

``ref_check_schema`` is ``schemas.check_schema`` as it was before the
payload-free schemas were shared: every call builds its formula anew
(``fresh_build`` calls the builder in the family's row), checks its arities and
peels its prefix; only the compiled body is the package's.  It is also the
plain-``product`` reference for the orbit search: it visits every
assignment of the prefix, where the package skips all but the least of
each orbit of the universe's permutations on a full structure.

``inequality_symbolic``, ``finite_set`` and ``apply_permutation_symbolic``
build the symbolic predicates the tests name by hand, and move one by a
finitary atom permutation.

The two structure builders near the end are references only tests use: the
brute-force permutation-model builder that the fast one is compared
against, and the closure of a structure under permutations.  Then come the
seeded random structures and assignments the oracle comparisons run on.
Last are the reference samplers for ``henkin.corpus``: ``random_formula``,
``comprehension_corpus`` and ``payload_corpus`` as rejection samplers that
build every formula they draw.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from henkin.corpus import default_vocabulary, enumerate_formulas
from henkin.evaluate import (
    DEFAULT_FORMULA_CAP, EvalError, FiniteSemantics, SaturationReport, compile_formula,
)
from henkin.fraenkel import (
    DEFAULT_PRED_CAP,
    EqType,
    FraenkelError,
    SymbolicPredicate,
    check_atom_name,
    classify,
    enumerate_types,
)
from henkin.groups import act_on_predicate, filter_contains, symmetry_subgroup
from henkin.schemas import _FAMILY_TABLE, DEFAULT_ASSIGNMENT_CAP, SchemaCheck, build
from henkin.structures import (
    DEFAULT_TABLE_CAP,
    Assignment,
    CapExceeded,
    Structure,
    Table,
    all_tables,
)
from henkin.syntax import (
    And, Atom, Eq, Exists, Forall, Formula, Iff, Implies, Not, Or, Var, all_vars, ind, pred,
    subformulas,
)


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


def evaluation_pool(formula, binding):
    """The finite universe a truncation oracle needs: all binding atoms plus
    one fresh atom per individual quantifier.

    Predicate equality widens the requirement: two unequal predicates of
    arity n with supports inside the pool always differ on a tuple using at
    most n fresh atoms, so the pool carries that many.
    """
    atoms = sorted(_env_atoms(binding))
    subs = subformulas(formula)
    count = max(
        sum(isinstance(g, (Forall, Exists)) and g.var.is_individual for g in subs),
        *(g.left.arity for g in subs if isinstance(g, Eq) and g.left.is_predicate),
        0 if atoms else 1,
    )
    return tuple(atoms) + ref_fresh_atoms(count, avoid=atoms)


def ref_fresh_atoms(count, avoid=()):
    """Fresh atoms u1, u2, ... skipping any in ``avoid``."""
    avoid = set(avoid)
    out = []
    i = 1
    while len(out) < count:
        name = f"u{i}"
        if name not in avoid:
            out.append(name)
        i += 1
    return tuple(out)


def ref_atom_pool(values, fresh):
    """The sorted atoms of the values in a compiled environment (atom
    names, ``SymbolicPredicate`` supports and support tuples; ``None`` is a
    variable out of scope), then ``fresh`` new ones."""
    atoms = set()
    for value in values:
        if isinstance(value, str):
            atoms.add(value)
        elif value is not None:
            atoms.update(value.support if isinstance(value, SymbolicPredicate) else value)
    base = sorted(atoms)
    return base + list(ref_fresh_atoms(fresh, avoid=base))


def naive_saturate(
    structure, depth_bound, *, table_cap=DEFAULT_TABLE_CAP, formula_cap=DEFAULT_FORMULA_CAP
):
    """Depth-bounded definability saturation, one round at a time: each
    formula whose free individual variables fit a domain, none of them also
    bound, defines one table per combination of values for its free
    predicate variables; the missing ones join the domains after the round,
    and a domain that grew is then checked against the cap; the loop ends
    after the first round that adds nothing."""
    arities = sorted(structure.domains)
    ind_vocab = [ind(i) for i in range(1, arities[-1] + 2)]
    pred_vocab = [pred(j, n) for n in arities for j in (0, 1)]
    jobs = []
    for f in enumerate_formulas(depth_bound, ind_vocab, pred_vocab, cap=formula_cap):
        xs = sorted(v for v in f.free_vars if v.is_individual)
        if len(xs) in structure.domains and not set(xs) & set(f.bound_vars):
            jobs.append((f, xs, sorted(v for v in f.free_vars if v.is_predicate)))
    size = structure.size
    domains = {n: set(ts) for n, ts in structure.domains.items()}
    added = {n: 0 for n in domains}
    rounds = 0
    while True:
        current = Structure(structure.individuals, domains)
        new = {n: set() for n in domains}
        for f, xs, preds in jobs:
            n = len(xs)
            for combo in product(*(sorted(current.domains[p.arity]) for p in preds)):
                params = dict(zip(preds, combo))
                bits = [
                    naive_eval(current, {**params, **dict(zip(xs, point))}, f)
                    for point in _points(size, n)
                ]
                table = Table(size, n, tuple(bits))
                if table not in current.domains[n]:
                    new[n].add(table)
        rounds += 1
        if not any(new.values()):
            break
        for n, tables in new.items():
            domains[n] |= tables
            added[n] += len(tables)
            if tables and len(domains[n]) > table_cap:
                raise CapExceeded(f"saturated domain of arity {n}", len(domains[n]), table_cap)
    report = SaturationReport(
        depth_bound, rounds, len(jobs), {n: k for n, k in added.items() if k}
    )
    return Structure(structure.individuals, domains), report


def fresh_build(schema):
    """A payload-free schema, built anew by its family row's builder, past
    the cache that ``build`` reads."""
    return _FAMILY_TABLE[schema.family].build(schema)


def ref_check_schema(structure, schema, *, assignment_cap=DEFAULT_ASSIGNMENT_CAP):
    """The reference for ``schemas.check_schema``: build, arity check, peel
    and search every assignment in ``product`` order on every call.  Values
    are positions in their pools, as the finite semantics reads them, and
    a counterexample's predicate positions become their tables."""
    if isinstance(schema, Formula):
        formula = schema
    elif schema.payload is None:
        formula = fresh_build(schema)
    else:
        formula = build(schema)
    for v in all_vars(formula):
        if v.is_predicate and v.arity not in structure.domains:
            raise EvalError(f"arity shortfall: {v} needs a domain of arity {v.arity}")
    peeled = []
    matrix = formula
    while isinstance(matrix, Forall):
        peeled.append(matrix.var)
        matrix = matrix.body
    searched = tuple(peeled) + tuple(sorted(matrix.free_vars - set(peeled)))
    pools = [range(structure.size) if v.is_individual else structure.domain(v.arity) for v in searched]
    if (total := math.prod(map(len, pools))) > assignment_cap:
        raise CapExceeded("schema check assignments", total, assignment_cap)
    body, env = compile_formula(matrix, FiniteSemantics(structure), searched)
    k = len(searched)
    for env[:k] in product(*(range(len(pool)) for pool in pools)):
        if not body(env):
            values = [pool[i] for pool, i in zip(pools, env)]
            counterexample = Assignment(dict(zip(searched, values)))
            return SchemaCheck(False, counterexample, formula, matrix, searched)
    return SchemaCheck(True, None, formula, matrix, searched)


def inequality_symbolic():
    return SymbolicPredicate(2, (), frozenset({EqType((0, 1))}))


def finite_set(atoms):
    """The arity-1 predicate holding exactly the named atoms."""
    names = tuple(sorted(set(atoms)))
    return SymbolicPredicate(1, names, frozenset(EqType((a,)) for a in names))


def apply_permutation_symbolic(mapping, sigma):
    """Action of a finitary atom permutation: support atoms are renamed, fresh
    classes are untouched, and the image holds at a tuple iff the original
    held at its preimage."""
    if set(mapping) != set(mapping.values()):
        raise FraenkelError("a finitary permutation must permute the atoms it moves")
    for name in mapping.values():
        check_atom_name(name)

    def move(entry):
        return mapping.get(entry, entry) if isinstance(entry, str) else entry

    support = tuple(mapping.get(a, a) for a in sigma.support)
    accepted = frozenset(EqType(tuple(move(e) for e in t.entries)) for t in sigma.accepted)
    return SymbolicPredicate(sigma.arity, support, accepted)


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


def ref_order_check(sigma):
    """The first linear-order axiom a binary predicate fails, with its
    witness atoms, or ``(None, None)``: ``ref_denotes`` read over the support
    and three fresh atoms, in the order transitivity, antisymmetry, totality,
    then irreflexivity."""
    pool = tuple(sigma.support) + ref_fresh_atoms(3, avoid=sigma.support)
    holds = {(a, b): ref_denotes(sigma, (a, b)) for a, b in product(pool, repeat=2)}
    for a, b, c in product(pool, repeat=3):
        if holds[a, b] and holds[b, c] and not holds[a, c]:
            return "transitivity", (a, b, c)
    for a, b in permutations(pool, 2):
        if holds[a, b] and holds[b, a]:
            return "antisymmetry", (a, b)
    for a, b in permutations(pool, 2):
        if not holds[a, b] and not holds[b, a]:
            return "totality", (a, b)
    for a in pool:
        if holds[a, a]:
            return "irreflexivity", (a,)
    return None, None


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
    """Stratum, predicate cap, whether predicates count once under their
    least support, and what one symbolic evaluation did."""

    def __init__(self, support_bound, pred_cap=DEFAULT_PRED_CAP, distinct=False):
        self.support_bound = support_bound
        self.pred_cap = pred_cap
        self.distinct = distinct
        self.enumerated = 0
        self.stratified = False


def _env_atoms(env, least=False):
    atoms = set()
    for value in env.values():
        if isinstance(value, str):
            atoms.add(value)
        else:
            atoms.update((ref_canonicalize(value) if least else value).support)
    return atoms


def _sym_candidates(arity, pool, ctx):
    seen = set()
    for sigma in ref_candidates(arity, pool, ctx.support_bound):
        if ctx.distinct:
            sigma = ref_canonicalize(sigma)
            if sigma in seen:
                continue
            seen.add(sigma)
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
        base = sorted(_env_atoms(env, ctx.distinct))
        if var.is_individual:
            pool = base + list(ref_fresh_atoms(1, avoid=base))
            return combine(naive_sym_eval(formula.body, {**env, var: a}, ctx) for a in pool)
        ctx.stratified = True
        pool = base + list(ref_fresh_atoms(ctx.support_bound, avoid=base))
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


def random_structure(rng, labels, arities=(1, 2), *, max_tables=8):
    """A random structure: each domain is a random nonempty table subset."""
    size = len(labels)
    domains = {}
    for n in arities:
        pool = all_tables(size, n)
        k = rng.randint(1, min(max_tables, len(pool)))
        domains[n] = frozenset(rng.sample(pool, k))
    return Structure(tuple(labels), domains)


def random_assignment(rng, structure, variables):
    """A random value for each variable: a point, or a table of its domain."""
    values = {}
    for v in variables:
        if v.is_individual:
            values[v] = rng.randrange(structure.size)
        else:
            values[v] = rng.choice(structure.domain(v.arity))
    return Assignment(values)


# ---------------------------------------------------------------------------
# Reference samplers: the seeded corpora as first written, drawing and
# building every node, then rejecting.  The package's samplers make the same
# draws on light shapes and must give identical corpora.
# ---------------------------------------------------------------------------


def ref_random_formula(
    rng, max_depth, ind_vars, pred_vars, *,
    allow_pred_quantifiers=True, allow_pred_equality=True, atom_bias=0.3,
):
    """The reference for ``corpus.random_formula``: builds every node as it draws."""

    def atom():
        kinds = []
        if pred_vars:
            kinds += ["app"] * 4
        kinds += ["eq_ind"] * 2
        if allow_pred_equality and len(pred_vars) >= 2:
            kinds.append("eq_pred")
        kind = rng.choice(kinds)
        if kind == "app":
            p = rng.choice(pred_vars)
            return Atom(p, tuple(rng.choice(ind_vars) for _ in range(p.arity)))
        if kind == "eq_ind":
            return Eq(rng.choice(ind_vars), rng.choice(ind_vars))
        arity = rng.choice(sorted({p.arity for p in pred_vars}))
        same = [p for p in pred_vars if p.arity == arity]
        return Eq(rng.choice(same), rng.choice(same))

    def go(budget):
        if budget == 0 or rng.random() < atom_bias:
            return atom()
        kinds = ["not", "and", "or", "implies", "iff", "forall_ind", "exists_ind"]
        if allow_pred_quantifiers:
            kinds += ["forall_pred", "exists_pred"]
        kind = rng.choice(kinds)
        if kind == "not":
            return Not(go(budget - 1))
        if kind in ("and", "or", "implies", "iff"):
            cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
            return cls(go(budget - 1), go(budget - 1))
        body = go(budget - 1)
        vocab = ind_vars if kind.endswith("_ind") else pred_vars
        candidates = [v for v in vocab if v not in body.bound_vars]
        if not candidates:
            return body
        v = rng.choice(candidates)
        return Forall(v, body) if kind.startswith("forall") else Exists(v, body)

    return go(max_depth)


def ref_comprehension_corpus(seed=20240817, count=200, max_depth=4, max_arity=2):
    """The reference for ``corpus.comprehension_corpus``: a rejection
    sampler over built formulas."""
    ind_vars, pred_vars = default_vocabulary(max_arity)
    rng = random.Random(seed)
    corpus = []
    seen = set()
    while len(corpus) < count:
        f = ref_random_formula(rng, max_depth, ind_vars, pred_vars)
        xs = tuple(sorted(v for v in f.free_vars if v.is_individual))
        if not 1 <= len(xs) <= max_arity:
            continue
        # a sibling branch may bind a variable that is free elsewhere; the
        # distinguished tuple must occur only free
        if any(v in f.bound_vars for v in xs):
            continue
        if Var(0, len(xs)) in all_vars(f):
            continue
        if f in seen:
            continue
        seen.add(f)
        corpus.append((f, xs))
    return corpus


def ref_payload_corpus(seed, count, n=1, m=1, max_depth=3, *, require_choice_var=True):
    """The reference for ``corpus.payload_corpus``: a rejection sampler over
    built formulas."""
    xs = [ind(i) for i in range(1, n + 1)]
    extras = [ind(n + 1), ind(n + 2)]
    dvar = pred(0, m)
    helper = pred(1, m)
    allowed = set(xs) | {dvar}
    rng = random.Random(seed)
    corpus = []
    seen = set()
    while len(corpus) < count:
        f = ref_random_formula(rng, max_depth, xs + extras, [dvar, helper])
        if not f.free_vars <= allowed:
            continue
        if allowed & f.bound_vars:
            continue
        if require_choice_var and dvar not in f.free_vars:
            continue
        if f in seen:
            continue
        seen.add(f)
        corpus.append(f)
    return corpus
