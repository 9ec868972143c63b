"""Deterministic formula corpora.

Two generators: an exhaustive depth-bounded enumeration used by saturation,
and a seeded random sampler used by the test corpora.  Both respect the
quantifier side condition by never re-binding a variable that is already
bound in the candidate body.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Sequence

from .structures import CapExceeded
from .syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    all_vars,
    ind,
    pred,
)


def enumerate_formulas(
    max_depth: int,
    ind_vars: Sequence[Var],
    pred_vars: Sequence[Var],
    *,
    cap: int = 50_000,
) -> list[Formula]:
    """Every formula of AST depth <= max_depth over the vocabulary, using the
    complete connective basis {~, &} plus both quantifier sorts.

    Raises :class:`CapExceeded` rather than silently truncating, and before
    building a level that would pass the cap: a level's size follows from
    the levels below it.
    """
    atoms: list[Formula] = []
    for p in pred_vars:
        for args in product(ind_vars, repeat=p.arity):
            atoms.append(Atom(p, args))
    for a in ind_vars:
        for b in ind_vars:
            atoms.append(Eq(a, b))
    for a in pred_vars:
        for b in pred_vars:
            if a.arity == b.arity:
                atoms.append(Eq(a, b))

    vocabulary = tuple(ind_vars) + tuple(pred_vars)
    levels: list[list[Formula]] = [atoms]
    total = len(atoms)
    for d in range(1, max_depth + 1):
        prev = levels[d - 1]
        shallower = [f for lvl in levels[: d - 1] for f in lvl]
        # negations, conjunctions, then two quantifiers per variable not bound in the body
        quantified = sum(v not in f.bound_vars for f in prev for v in vocabulary)
        total += len(prev) * (1 + len(prev) + 2 * len(shallower)) + 2 * quantified
        if total > cap:
            raise CapExceeded(f"formulas of depth <= {max_depth}", total, cap)
        level: list[Formula] = []
        for f in prev:
            level.append(Not(f))
        for f in prev:
            for g in prev:
                level.append(And(f, g))
        for f in prev:
            for g in shallower:
                level.append(And(f, g))
                level.append(And(g, f))
        for f in prev:
            for v in vocabulary:
                if v not in f.bound_vars:
                    level.append(Forall(v, f))
                    level.append(Exists(v, f))
        levels.append(level)
    return [f for lvl in levels for f in lvl]


# ---------------------------------------------------------------------------
# Seeded random sampling.
# ---------------------------------------------------------------------------


def random_formula(
    rng: random.Random,
    max_depth: int,
    ind_vars: Sequence[Var],
    pred_vars: Sequence[Var],
    *,
    allow_pred_quantifiers: bool = True,
    allow_pred_equality: bool = True,
    atom_bias: float = 0.3,
) -> Formula:
    """One random formula of AST depth <= max_depth over the vocabulary."""

    def atom() -> Formula:
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

    def go(budget: int) -> Formula:
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


def default_vocabulary(max_arity: int = 2) -> tuple[list[Var], list[Var]]:
    """Three individual variables and two predicate variables per arity."""
    ind_vars = [ind(i) for i in (1, 2, 3)]
    pred_vars = [pred(j, n) for n in range(1, max_arity + 1) for j in (0, 1)]
    return ind_vars, pred_vars


def comprehension_corpus(
    seed: int = 20240817,
    count: int = 200,
    max_depth: int = 4,
    max_arity: int = 2,
) -> list[tuple[Formula, tuple[Var, ...]]]:
    """Formulas paired with their full free-individual-variable tuple.

    Every free individual variable is distinguished (no individual
    parameters are left over), the tuple length stays within ``max_arity``,
    and the comprehension witness variable of the matching arity does not
    occur, so each entry is a ready-made comprehension instance.
    """
    ind_vars, pred_vars = default_vocabulary(max_arity)
    rng = random.Random(seed)
    corpus: list[tuple[Formula, tuple[Var, ...]]] = []
    seen: set[Formula] = set()
    while len(corpus) < count:
        f = random_formula(rng, max_depth, ind_vars, pred_vars)
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


def payload_corpus(
    seed: int,
    count: int,
    n: int = 1,
    m: int = 1,
    max_depth: int = 3,
    *,
    require_choice_var: bool = True,
) -> list[Formula]:
    """Payload formulas whose free variables stay inside x1..xn and A0^m.

    These feed the parameterized choice schemas: extra vocabulary variables
    may appear only bound.
    """
    xs = [ind(i) for i in range(1, n + 1)]
    extras = [ind(n + 1), ind(n + 2)]
    dvar = pred(0, m)
    helper = pred(1, m)
    allowed = set(xs) | {dvar}
    rng = random.Random(seed)
    corpus: list[Formula] = []
    seen: set[Formula] = set()
    while len(corpus) < count:
        f = random_formula(rng, max_depth, xs + extras, [dvar, helper])
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
