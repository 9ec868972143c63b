import random

import pytest

from oracle import naive_eval

from henkin.corpus import (
    default_vocabulary,
    random_assignment,
    random_formula,
    random_structure,
)
from henkin.evaluate import (
    EvalError,
    att,
    check_comprehension,
    evaluate,
    saturate,
    saturate_with_report,
)
from henkin.parser import parse
from henkin.structures import Assignment, Structure, Table, standard_structure
from henkin.syntax import Not, free_vars, ind, pred

x1, x2 = ind(1), ind(2)
A = pred(0, 1)


class TestEvaluateExamples:
    def test_equal_points(self, std2):
        f = parse("x1 = x2")
        assert evaluate(std2, Assignment({x1: 0, x2: 0}), f) is True
        assert evaluate(std2, Assignment({x1: 0, x2: 1}), f) is False

    def test_exists_over_degenerate_domain(self):
        # only the always-false table: derived by enumerating J1 x J0
        never = Table.constant(2, 1, False)
        s = Structure(("a", "b"), {1: frozenset({never})})
        f = parse("ex A0^1 . A0^1 x1")
        expected = any(
            table((i,)) for table in s.domains[1] for i in range(s.size)
        )
        assert evaluate(s, Assignment({x1: 0}), f) is expected is False

    def test_every_point_covered_in_standard(self, std2):
        # derived by brute force over all four unary tables
        f = parse("all x1 . ex A0^1 . A0^1 x1")
        expected = all(
            any(table((i,)) for table in std2.domains[1]) for i in range(2)
        )
        assert evaluate(std2, Assignment({}), f) is expected is True

    def test_extensional_predicate_equality(self, std2):
        f = parse("A0^1 = A1^1")
        t = Table.from_bitstring(2, 1, "10")
        same = Assignment({pred(0, 1): t, pred(1, 1): Table(2, 1, (True, False))})
        assert evaluate(std2, same, f) is True

    def test_defaults_are_deterministic(self, std2):
        # unmentioned variables: first individual, least table (all-false)
        assert evaluate(std2, Assignment({}), parse("x1 = x2")) is True
        assert evaluate(std2, Assignment({}), parse("A0^1 x1")) is False

    def test_missing_domain_is_an_error(self):
        s = standard_structure(("a", "b"), 1)
        with pytest.raises(EvalError):
            evaluate(s, Assignment({}), parse("ex A0^2 . A0^2 x1 x1"))

    def test_foreign_table_rejected(self):
        never = Table.constant(2, 1, False)
        s = Structure(("a", "b"), {1: frozenset({never})})
        outside = Table.constant(2, 1, True)
        with pytest.raises(EvalError):
            evaluate(s, Assignment({A: outside}), parse("A0^1 x1"))


class TestValuationOracle:
    def test_agreement_on_random_samples(self):
        ind_vars, pred_vars = default_vocabulary(2)
        rng = random.Random(7)
        for _ in range(200):
            size = rng.randint(1, 3)
            labels = tuple("abc"[:size])
            structure = random_structure(rng, labels, (1, 2))
            formula = random_formula(rng, 4, ind_vars, pred_vars)
            assignment = random_assignment(rng, structure, free_vars(formula))
            assert evaluate(structure, assignment, formula) == naive_eval(
                structure, dict(assignment.values), formula
            )


class TestCoincidence:
    def test_agreement_on_free_variables_suffices(self, std2):
        rng = random.Random(11)
        ind_vars, pred_vars = default_vocabulary(2)
        for _ in range(100):
            f = random_formula(rng, 3, ind_vars, pred_vars)
            base = random_assignment(rng, std2, free_vars(f))
            noise = {v: rng.randrange(2) for v in ind_vars if v not in free_vars(f)}
            noisy = Assignment({**base.values, **noise})
            assert evaluate(std2, base, f) == evaluate(std2, noisy, f)


class TestQuantifierDuality:
    def test_not_forall_is_exists_not(self, std3):
        rng = random.Random(13)
        ind_vars, pred_vars = default_vocabulary(2)
        for _ in range(60):
            f = random_formula(rng, 2, ind_vars, pred_vars)
            for v in (x1, pred(0, 1)):
                if v in f.bound_vars:
                    continue
                from henkin.syntax import Exists, Forall

                lhs = Not(Forall(v, f))
                rhs = Exists(v, Not(f))
                g = random_assignment(rng, std3, free_vars(lhs))
                assert evaluate(std3, g, lhs) == evaluate(std3, g, rhs)


class TestAtt:
    def test_equality_section(self, std2):
        d = att(std2, parse("x1 = x2"), (x1,), Assignment({x2: 0}))
        assert d.table == Table.from_bitstring(2, 1, "10")

    def test_pointwise_negation(self, std2):
        base = Table.from_bitstring(2, 1, "10")
        d = att(std2, parse("~(A0^1 x1)"), (x1,), Assignment({A: base}))
        # derived oracle: pointwise negation
        assert d.table == Table.from_function(2, 1, lambda p: not base(p))

    def test_tautology_gives_all_true(self, std2):
        d = att(std2, parse("x1 = x1"), (x1,))
        assert d.table == Table.constant(2, 1, True)

    def test_distinguished_variable_must_be_free_only(self, std2):
        with pytest.raises(EvalError):
            att(std2, parse("all x1 . x1 = x1"), (x1,))

    def test_att_consistency_with_evaluate(self, std2):
        # binding the defined table to a fresh variable satisfies the
        # pointwise equivalence
        f = parse("A0^1 x1 | x1 = x2")
        base = Assignment({A: Table.from_bitstring(2, 1, "01"), x2: 0})
        d = att(std2, f, (x1,), base)
        bridge = parse("all x1 . (A1^1 x1 <-> A0^1 x1 | x1 = x2)")
        bound = Assignment({**base.values, pred(1, 1): d.table})
        assert evaluate(std2, bound, bridge) is True

    def test_order_of_variables_matters(self, std3):
        f = parse("A0^2 x1 x2")
        rel = Table.from_tuples(3, 2, [(0, 1)])
        straight = att(std3, f, (x1, x2), Assignment({pred(0, 2): rel}))
        flipped = att(std3, f, (x2, x1), Assignment({pred(0, 2): rel}))
        assert straight.table == rel
        assert flipped.table == Table.from_tuples(3, 2, [(1, 0)])


class TestComprehension:
    def test_standard_always_holds(self, std2):
        rng = random.Random(17)
        ind_vars, pred_vars = default_vocabulary(2)
        for _ in range(50):
            f = random_formula(rng, 3, ind_vars, pred_vars)
            xs = tuple(sorted(v for v in free_vars(f) if v.is_individual))
            if not 1 <= len(xs) <= 2 or any(v in f.bound_vars for v in xs):
                continue
            if pred(0, len(xs)) in f.free_vars | f.bound_vars:
                continue
            g = random_assignment(rng, std2, [v for v in free_vars(f) if v not in xs])
            assert check_comprehension(std2, f, xs, g).holds

    def test_missing_table_is_reported(self):
        # J1 lacks the {a}-indicator; x1 = x2 with x2 -> a defines it
        tables = frozenset(
            t for t in standard_structure(("a", "b"), 1).domains[1]
            if t != Table.from_bitstring(2, 1, "10")
        )
        s = Structure(("a", "b"), {1: tables})
        out = check_comprehension(s, parse("x1 = x2"), (x1,), Assignment({x2: 0}))
        assert not out.holds
        assert out.table == Table.from_bitstring(2, 1, "10")

    def test_witness_variable_must_not_occur(self, std2):
        with pytest.raises(EvalError):
            check_comprehension(std2, parse("A0^1 x1"), (x1,))

    def test_arity_shortfall(self):
        s = standard_structure(("a", "b"), 1)
        with pytest.raises(EvalError):
            check_comprehension(s, parse("x1 = x1 & x2 = x2"), (x1, x2))


class TestSaturate:
    def test_standard_is_a_fixpoint(self):
        s = standard_structure(("a", "b"), 1)
        out, report = saturate_with_report(s, 1)
        assert out == s
        # the first round adds nothing, and a second would see the same
        # domains, so saturation stops after one
        assert report.rounds == 1

    def test_single_point_completes(self):
        s = Structure(("a",), {1: frozenset({Table.constant(1, 1, True)})})
        out = saturate(s, 1)
        assert out.domains[1] == frozenset(
            {Table.constant(1, 1, True), Table.constant(1, 1, False)}
        )
        # both unary tables over one point exist; a re-run is a fixpoint
        assert saturate(out, 1) == out

    def test_invariant_structure_is_a_fixpoint(self, a4_model):
        assert saturate(a4_model, 1) == a4_model

    def test_monotone(self):
        never = Table.constant(2, 1, False)
        s = Structure(("a", "b"), {1: frozenset({never})})
        out1 = saturate(s, 1)
        assert s.domains[1] <= out1.domains[1]

    def test_monotone_in_depth(self):
        s = Structure(("a",), {1: frozenset({Table.constant(1, 1, True)})})
        out1 = saturate(s, 1)
        out2 = saturate(s, 2)
        assert out1.domains[1] <= out2.domains[1]

    def test_cap(self):
        s = standard_structure(("a", "b"), 1)
        with pytest.raises(Exception):
            saturate(s, 1, formula_cap=10)
