"""Deterministic formula corpora.

Two generators: an exhaustive depth-bounded enumeration used by saturation,
and a seeded random sampler used by the test corpora.  Both respect the
quantifier side condition by never re-binding a variable that is already
bound in the candidate body.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Callable, Sequence

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
        for args in itertools.product(ind_vars, repeat=p.arity):
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
# Seeded random sampling: a draw is a light shape and masks, built on demand.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _sampler(ind_vars: tuple, pred_vars: tuple, pred_quantifiers: bool, pred_equality: bool):
    """``(draw, bits)`` over one vocabulary.  ``bits`` gives each distinct variable
    a bit; ``draw(rng, budget, atom_bias)`` returns ``(shape, free, bound)``: the
    formula as nested ``(class, *fields)`` tuples, equal exactly when the formulas
    are, and the masks of its free and bound variables.  Its RNG calls are those of
    the reference sampler in ``tests/oracle.py``, which builds every node it draws."""
    bits = {v: 1 << i for i, v in enumerate(dict.fromkeys(ind_vars + pred_vars))}
    inds = [(v, bits[v]) for v in ind_vars]
    preds = [(p, bits[p]) for p in pred_vars]
    atom_kinds = ["app"] * 4 * bool(pred_vars) + ["eq_ind"] * 2
    if pred_equality and len(pred_vars) >= 2:
        atom_kinds.append("eq_pred")
    arities = sorted({p.arity for p in pred_vars})
    same_arity = [[e for e in preds if e[0].arity == n] for n in arities]
    node_kinds = [(cls, None) for cls in (Not, And, Or, Implies, Iff)]
    node_kinds += [(Forall, inds), (Exists, inds)]
    if pred_quantifiers:
        node_kinds += [(Forall, preds), (Exists, preds)]

    def draw(rng: random.Random, budget: int, atom_bias: float) -> tuple[tuple, int, int]:
        if budget == 0 or rng.random() < atom_bias:
            kind = rng.choice(atom_kinds)
            if kind == "app":
                p, free = rng.choice(preds)
                args = tuple([rng.choice(ind_vars) for _ in range(p.arity)])
                return (Atom, p, args), free | sum({bits[v] for v in args}), 0
            same = inds if kind == "eq_ind" else rng.choice(same_arity)
            (a, abit), (b, bbit) = rng.choice(same), rng.choice(same)
            return (Eq, a, b), abit | bbit, 0
        cls, vocab = rng.choice(node_kinds)
        shape, free, bound = draw(rng, budget - 1, atom_bias)
        if cls is Not:
            return (Not, shape), free, bound
        if vocab is None:
            right, rfree, rbound = draw(rng, budget - 1, atom_bias)
            return (cls, shape, right), free | rfree, bound | rbound
        candidates = [e for e in vocab if not bound & e[1]]
        if not candidates:
            return shape, free, bound
        v, bit = rng.choice(candidates)
        return (cls, v, shape), free & ~bit, bound | bit

    return draw, bits


def _build(shape: tuple) -> Formula:
    """The formula a draw's shape stands for."""
    cls = shape[0]
    if cls is Atom or cls is Eq:
        return cls(shape[1], shape[2])
    if cls is Not:
        return Not(_build(shape[1]))
    if cls is Forall or cls is Exists:
        return cls(shape[1], _build(shape[2]))
    return cls(_build(shape[1]), _build(shape[2]))


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
    if max_depth < 0:
        raise ValueError(f"need max_depth >= 0, got {max_depth}")
    vocabulary = (tuple(ind_vars), tuple(pred_vars), allow_pred_quantifiers, allow_pred_equality)
    return _build(_sampler(*vocabulary)[0](rng, max_depth, atom_bias)[0])


def default_vocabulary(max_arity: int = 2) -> tuple[list[Var], list[Var]]:
    """Three individual variables and two predicate variables per arity."""
    ind_vars = [ind(i) for i in (1, 2, 3)]
    pred_vars = [pred(j, n) for n in range(1, max_arity + 1) for j in (0, 1)]
    return ind_vars, pred_vars


# draws in a row that add nothing before a corpus gives up; the longest run
# measured on the tests', the benchmark's and 600-payload corpora is 579
BARREN_DRAWS = 10_000


def _distinct_draws(draw: Callable, seed: int, wanted: int, max_depth: int, keep) -> list[Formula]:
    """The first ``wanted`` distinct draws whose masks ``keep`` accepts, built."""
    if wanted < 0 or max_depth < 0:
        raise ValueError(f"need count >= 0 and max_depth >= 0, got {wanted} and {max_depth}")
    rng, kept, last = random.Random(seed), {}, -1
    for i in itertools.count() if wanted else ():
        shape, free, bound = draw(rng, max_depth, 0.3)  # random_formula's atom_bias
        if shape not in kept and keep(free, bound):
            kept[shape], last = _build(shape), i
            if len(kept) == wanted:
                break
        elif i - last == BARREN_DRAWS:
            raise ValueError(f"{BARREN_DRAWS} draws in a row added nothing; kept {len(kept)} of {wanted}")
    return list(kept.values())


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

    A ``count`` above the number of distinct such formulas of depth <=
    ``max_depth`` raises ``ValueError`` once ``BARREN_DRAWS`` draws in a row
    add nothing.
    """
    if max_arity < 1:
        raise ValueError(f"comprehension instances need max_arity >= 1, got {max_arity}")
    ind_vars, pred_vars = default_vocabulary(max_arity)
    draw, bit = _sampler(tuple(ind_vars), tuple(pred_vars), True, True)
    individuals = sum(bit[v] for v in ind_vars)

    def keep(free: int, bound: int) -> bool:
        # a sibling branch may bind a variable that is free elsewhere; the
        # distinguished tuple must occur only free, and A0^arity not at all
        xs = free & individuals
        arity = xs.bit_count()
        return 0 < arity <= max_arity and not xs & bound and not (free | bound) & bit[Var(0, arity)]

    return [
        (f, tuple(sorted(v for v in f.free_vars if v.is_individual)))
        for f in _distinct_draws(draw, seed, count, max_depth, keep)
    ]


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

    A ``count`` above the number of distinct such formulas of depth <=
    ``max_depth`` raises ``ValueError`` once ``BARREN_DRAWS`` draws in a row
    add nothing.
    """
    xs = [ind(i) for i in range(1, n + 1)]
    dvar = pred(0, m)
    draw, bit = _sampler((*xs, ind(n + 1), ind(n + 2)), (dvar, pred(1, m)), True, True)
    allowed = sum(bit[v] for v in xs) | bit[dvar]
    needed = bit[dvar] if require_choice_var else 0

    def keep(free: int, bound: int) -> bool:
        return not free & ~allowed and not bound & allowed and (free & needed) == needed

    return _distinct_draws(draw, seed, count, max_depth, keep)
