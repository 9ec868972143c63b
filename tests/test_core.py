"""The compiled evaluation core against the tree-walking references: the
finite semantics against ``naive_eval`` and the symbolic semantics against
``naive_sym_eval``, on seeded random formulas and on the binding cases a
slot environment could get wrong."""

import random
from itertools import product

import pytest

from oracle import SymContext, naive_eval, naive_sym_eval

from henkin.corpus import default_vocabulary, random_assignment, random_formula, random_structure
from henkin.evaluate import EvalError, att, evaluate
from henkin.fraenkel import SymbolicPredicate, enumerate_types, symbolic_evaluate
from henkin.parser import parse
from henkin.structures import Assignment, CapExceeded, Structure, Table
from henkin.syntax import ind, pred

x1, x2, x3 = ind(1), ind(2), ind(3)
A = pred(0, 1)


def random_symbolic(rng, arity, atoms):
    support = tuple(sorted(rng.sample(atoms, rng.randint(0, min(2, len(atoms))))))
    types = enumerate_types(arity, support)
    return SymbolicPredicate(arity, support, frozenset(t for t in types if rng.random() < 0.5))


def compiled(formula, binding, bound, cap):
    try:
        verdict = symbolic_evaluate(formula, binding, bound, pred_cap=cap)
    except CapExceeded as exc:
        return "cap", exc.needed, exc.cap
    return verdict.truth, verdict.stratified


def reference(formula, binding, bound, cap):
    ctx = SymContext(bound, cap)
    try:
        truth = naive_sym_eval(formula, dict(binding), ctx)
    except CapExceeded as exc:
        return "cap", exc.needed, exc.cap
    return truth, ctx.stratified


class TestFiniteCore:
    def test_agrees_with_naive_eval(self):
        rng = random.Random(101)
        ind_vars, pred_vars = default_vocabulary(2)
        for _ in range(400):
            structure = random_structure(rng, "abc"[: rng.randint(1, 3)], (1, 2))
            formula = random_formula(rng, 5, ind_vars, pred_vars)
            # values for every variable, most of them unmentioned by the formula
            assignment = random_assignment(rng, structure, ind_vars + pred_vars)
            expected = naive_eval(structure, dict(assignment.values), formula)
            assert evaluate(structure, assignment, formula) == expected

    def test_free_and_bound_variable(self, std2):
        # x1 is free on both sides of a quantifier that rebinds it: the slot
        # must hold the assigned value again after the quantifier
        f = parse("(all x1 . ex x2 . A0^2 x1 x2) -> (A0^2 x1 x2 & x1 = x2)")
        for i, j in product(range(2), repeat=2):
            for table in std2.domain(2):
                g = Assignment({x1: i, x2: j, pred(0, 2): table})
                assert evaluate(std2, g, f) == naive_eval(std2, dict(g.values), f)

    def test_att_agrees_pointwise(self, std3):
        rng = random.Random(107)
        ind_vars, pred_vars = default_vocabulary(1)
        for _ in range(100):
            f = random_formula(rng, 3, ind_vars, pred_vars)
            xs = tuple(v for v in ind_vars[:2] if v not in f.bound_vars)
            if not xs:
                continue
            g = random_assignment(rng, std3, f.free_vars)
            table = att(std3, f, xs, g).table
            for point in product(range(3), repeat=len(xs)):
                env = {**g.values, **dict(zip(xs, point))}
                assert table(point) == naive_eval(std3, env, f)

    def test_values_are_checked_before_evaluation(self):
        # the true left disjunct would short-circuit past each bad lookup on
        # the right; values and quantified domains are checked first instead
        never = Table.constant(2, 1, False)
        s = Structure(("a", "b"), {1: frozenset({never})})
        outside = Table.constant(2, 1, True)
        bad = [
            (Assignment({A: outside}), "x1 = x1 | A0^1 x1"),
            (Assignment({x2: 5}), "x1 = x1 | x1 = x2"),
            (Assignment({}), "x1 = x1 | A0^2 x1 x1"),
            (Assignment({}), "x1 = x1 | (ex A0^2 . A0^2 x1 x1)"),
        ]
        for assignment, text in bad:
            with pytest.raises(EvalError):
                evaluate(s, assignment, parse(text))
        # a value for a variable the formula never mentions is not looked at
        assert evaluate(s, Assignment({x3: 5, A: outside}), parse("x1 = x1"))


class TestSymbolicCore:
    def test_agrees_with_naive_sym_eval(self):
        rng = random.Random(103)
        ind_vars = [x1, x2, x3]
        pred_vars = [pred(0, 1), pred(1, 1), pred(0, 2)]
        seen = set()
        for _ in range(600):
            formula = random_formula(rng, rng.randint(1, 4), ind_vars, pred_vars)
            # extra entries for variables the formula may not mention
            extra = rng.sample(ind_vars + pred_vars, rng.randint(0, 2))
            binding = {
                v: rng.choice(("p", "q", "u1"))
                if v.is_individual
                else random_symbolic(rng, v.arity, ["p", "q", "u2"])
                for v in sorted(formula.free_vars | set(extra))
            }
            bound, cap = rng.randint(0, 2), rng.choice((50, 400, 5000))
            outcome = compiled(formula, binding, bound, cap)
            assert outcome == reference(formula, binding, bound, cap)
            seen.add(outcome[0] if outcome[0] == "cap" else outcome)
            seen.add(bool(formula.free_vars & formula.bound_vars))
        # every outcome kind occurred, and so did free-and-bound variables
        assert seen >= {"cap", (True, True), (False, True), (True, False), (False, False), True}

    # x1 is bound to p outside the quantifier that rebinds it: the
    # quantifier's own pool sees p, its body's predicate pools do not, so the
    # body enumerates 2 + 4 + 4 unary candidates per value of x1 (pools
    # [p, u1] and [u1, u2]).  With p still visible the second pool would be
    # [p, u1, u2] and hold 14.
    REBOUND = "x1 = x1 & (all x1 . all A0^1 . (A0^1 x1 | ~(A0^1 x1)))"

    @pytest.mark.parametrize(
        "binding, enumerated",
        [({x1: "p"}, 20), ({x1: "p", x3: "q"}, 38)],
        ids=["rebound", "rebound-plus-unmentioned-entry"],
    )
    def test_pools_see_the_bindings_in_scope(self, binding, enumerated):
        f = parse(self.REBOUND)
        assert compiled(f, binding, 1, enumerated) == (True, True)
        assert compiled(f, binding, 1, enumerated - 1) == ("cap", enumerated, enumerated - 1)
        for cap in range(enumerated - 6, enumerated + 6):
            assert compiled(f, binding, 1, cap) == reference(f, binding, 1, cap)

    def test_cap_hit_reports_the_same_count(self):
        tautology = parse("all A0^2 . A0^2 x1 x1 | ~(A0^2 x1 x1)")
        for cap in (0, 1, 50, 99):
            outcome = compiled(tautology, {x1: "p"}, 2, cap)
            assert outcome == ("cap", cap + 1, cap) == reference(tautology, {x1: "p"}, 2, cap)
