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
    integers,
    pred,
)

DEFAULT_FORMULA_CAP = 200_000


def enumerate_formulas(
    max_depth: int,
    ind_vars: Sequence[Var],
    pred_vars: Sequence[Var],
    *,
    cap: int = DEFAULT_FORMULA_CAP,
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
    a bit; ``draw(random, getrandbits, budget, atom_bias)``, given those two methods
    of a ``random.Random``, returns ``(shape, free, bound)``: the formula as nested
    ``(class, *fields)`` tuples, equal exactly when the formulas are, and the masks
    of its free and bound variables.  Its RNG calls are those of the reference
    sampler in ``tests/oracle.py``, which builds every node it draws.

    A pick from a table of ``n`` entries is ``Random.choice`` written out: entry
    ``r`` for the first ``r = getrandbits(k)`` below ``n``, ``k = n.bit_length()``,
    so it reads the same words as ``choice`` does."""
    if not ind_vars:
        raise ValueError("a random formula needs at least one individual variable")
    bits = {v: 1 << i for i, v in enumerate(dict.fromkeys(ind_vars + pred_vars))}

    def table(entries: list) -> tuple:
        return tuple(entries), len(entries), len(entries).bit_length()

    inds, n_ind, k_ind = table([(v, bits[v]) for v in ind_vars])
    preds, n_pred, k_pred = table([(p, bits[p]) for p in pred_vars])
    atom_kinds = ["app"] * 4 * bool(pred_vars) + ["eq_ind"] * 2
    if pred_equality and len(pred_vars) >= 2:
        atom_kinds.append("eq_pred")
    atom_kinds, n_atom, k_atom = table(atom_kinds)
    arities = sorted({p.arity for p in pred_vars})
    same_arity = [table([e for e in preds if e[0].arity == a]) for a in arities]
    same_arity, n_same, k_same = table(same_arity)
    node_kinds = [(cls, None) for cls in (Not, And, Or, Implies, Iff)]
    node_kinds += [(Forall, inds), (Exists, inds)]
    if pred_quantifiers:
        node_kinds += [(Forall, preds), (Exists, preds)]
    node_kinds, n_node, k_node = table(node_kinds)

    def draw(random, getrandbits, budget: int, atom_bias: float) -> tuple[tuple, int, int]:
        # each `while (r := getrandbits(k)) >= n: pass` is one pick below n
        if budget == 0 or random() < atom_bias:
            while (r := getrandbits(k_atom)) >= n_atom:
                pass
            kind = atom_kinds[r]
            if kind == "app":
                while (r := getrandbits(k_pred)) >= n_pred:
                    pass
                p, free = preds[r]
                args = []
                for _ in range(p.arity):
                    while (r := getrandbits(k_ind)) >= n_ind:
                        pass
                    v, bit = inds[r]
                    args.append(v)
                    free |= bit
                return (Atom, p, tuple(args)), free, 0
            same, n, k = inds, n_ind, k_ind
            if kind == "eq_pred":
                while (r := getrandbits(k_same)) >= n_same:
                    pass
                same, n, k = same_arity[r]
            while (r := getrandbits(k)) >= n:
                pass
            a, abit = same[r]
            while (r := getrandbits(k)) >= n:
                pass
            b, bbit = same[r]
            return (Eq, a, b), abit | bbit, 0
        while (r := getrandbits(k_node)) >= n_node:
            pass
        cls, vocab = node_kinds[r]
        shape, free, bound = draw(random, getrandbits, budget - 1, atom_bias)
        if cls is Not:
            return (Not, shape), free, bound
        if vocab is None:
            right, rfree, rbound = draw(random, getrandbits, budget - 1, atom_bias)
            return (cls, shape, right), free | rfree, bound | rbound
        candidates = [e for e in vocab if not bound & e[1]]
        if not candidates:
            return shape, free, bound
        n, k = len(candidates), len(candidates).bit_length()
        while (r := getrandbits(k)) >= n:
            pass
        v, bit = candidates[r]
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


def _natural(name: str, value: int, least: int = 0) -> int:
    """``value`` as an int, if it is one and at least ``least``; else ``ValueError``."""
    (value,) = integers(ValueError, f"need an integer {name}", value)
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


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
    """One random formula of AST depth <= max_depth over the vocabulary, drawn
    from ``rng``, a ``random.Random``."""
    max_depth = _natural("max_depth", max_depth)
    vocabulary = (tuple(ind_vars), tuple(pred_vars), allow_pred_quantifiers, allow_pred_equality)
    return _build(_sampler(*vocabulary)[0](rng.random, rng.getrandbits, max_depth, atom_bias)[0])


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
    wanted, max_depth = _natural("count", wanted), _natural("max_depth", max_depth)
    rng, kept, last = random.Random(seed), {}, -1
    for i in itertools.count() if wanted else ():
        # random_formula's atom_bias
        shape, free, bound = draw(rng.random, rng.getrandbits, max_depth, 0.3)
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
    ind_vars, pred_vars = default_vocabulary(_natural("max_arity", max_arity, 1))
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
    n, m = _natural("n", n), _natural("m", m, 1)
    xs = [ind(i) for i in range(1, n + 1)]
    dvar = pred(0, m)
    draw, bit = _sampler((*xs, ind(n + 1), ind(n + 2)), (dvar, pred(1, m)), True, True)
    allowed = sum(bit[v] for v in xs) | bit[dvar]
    needed = bit[dvar] if require_choice_var else 0

    def keep(free: int, bound: int) -> bool:
        return not free & ~allowed and not bound & allowed and (free & needed) == needed

    return _distinct_draws(draw, seed, count, max_depth, keep)
