import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracle import naive_eval

import henkin
from henkin.evaluate import evaluate
from henkin.parser import ParseError, parse, parse_var
from henkin.structures import Assignment, standard_structure
from henkin.syntax import (
    AND,
    ATOM,
    EQ,
    EXISTS,
    FORALL,
    IFF,
    IMPLIES,
    MAX_DEPTH,
    NOT,
    OR,
    And,
    ArityError,
    Atom,
    CaptureError,
    Eq,
    Exists,
    Forall,
    FormulaError,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    all_vars,
    depth,
    derivation,
    exists_unique,
    format_formula,
    ind,
    lower_predicate_application,
    pred,
    subformulas,
    substitute,
)

x0, x1, x2, x3 = ind(0), ind(1), ind(2), ind(3)
A = pred(0, 1)
B = pred(1, 1)
R = pred(0, 2)


class TestVar:
    def test_kinds(self):
        assert x1.is_individual and not x1.is_predicate
        assert A.is_predicate and not A.is_individual
        assert str(x1) == "x1" and str(A) == "A0^1" and str(R) == "A0^2"

    def test_individual_iff_arity_zero(self):
        assert ind(5).arity == 0
        with pytest.raises(Exception):
            pred(0, 0)

    def test_negative_index_or_arity_rejected(self):
        with pytest.raises(FormulaError):
            Var(-1)
        with pytest.raises(FormulaError):
            Var(0, -1)

    def test_non_integer_index_rejected(self):
        with pytest.raises(FormulaError, match="must be integers"):
            ind(2.5)  # would print as x2.5

    def test_non_integer_arity_rejected(self):
        with pytest.raises(FormulaError, match="must be integers"):
            pred(0, 1.5)  # would print as A0^1.5

    def test_a_variable_behaves_as_its_pair(self):
        # order, hash and so set iteration order are those of (index, arity)
        pairs = [(i, a) for i in range(6) for a in range(4)]
        random.Random(3).shuffle(pairs)
        vs = [Var(i, a) for i, a in pairs]
        assert [(v.index, v.arity) for v in sorted(vs)] == sorted(pairs)
        assert [hash(v) for v in vs] == [hash(p) for p in pairs]
        assert [(v.index, v.arity) for v in frozenset(vs)] == list(frozenset(pairs))
        for v, (i, a) in zip(vs, pairs):
            assert (v.index, v.arity) == (i, a)
            twins = (Var(i, a), parse_var(str(v)), copy.deepcopy(v), pickle.loads(pickle.dumps(v)))
            for twin in twins:
                assert twin == v and type(twin) is Var


class TestNodes:
    """Formula nodes are tuples tagged with their class's kind."""

    SENTENCE = "all x1 . ex A0^1 . (A0^1 x1 & x1 = x2)"

    def test_every_node_class_is_a_slotted_tuple(self):
        f = parse(
            "all x1 . ex A0^2 . ~(A0^2 x1 x2 <-> x1 = x2) | (A0^1 x1 & x1 = x2 -> A0^1 = A1^1)"
        )
        classes = (Atom, Eq, Not, And, Or, Implies, Iff, Forall, Exists)
        kinds = dict(zip(classes, (ATOM, EQ, NOT, AND, OR, IMPLIES, IFF, FORALL, EXISTS)))
        assert {type(g) for g in subformulas(f)} == set(classes)
        assert len(set(kinds.values())) == 9
        for cls in classes:
            assert issubclass(cls, tuple)
            assert all(k.__dict__.get("__slots__") == () for k in cls.__mro__[:-2])
        assert not any(hasattr(g, "__dict__") for g in subformulas(f))
        assert all(g[0] == kinds[type(g)] for g in subformulas(f))

    def test_connectives_and_quantifiers_are_told_apart(self):
        a, b = Atom(A, (x1,)), Eq(x1, x2)
        binaries = [cls(a, b) for cls in (And, Or, Implies, Iff)]
        quantifiers = [cls(x1, b) for cls in (Forall, Exists)]
        for group in (binaries, quantifiers):
            for f in group:
                for g in group:
                    assert (f == g) == (f is g)
            assert len(set(group)) == len(group)
        assert And(a, b) != And(b, a) and And(a, b) == And(Atom(A, [x1]), Eq(x1, x2))

    def test_copies_and_pickles_rebuild_the_node(self):
        f = parse(self.SENTENCE)
        twins = (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f)))
        for twin in twins:
            assert twin == f and hash(twin) == hash(f)
            assert [type(g) for g in subformulas(twin)] == [type(g) for g in subformulas(f)]
            assert (twin.free_vars, twin.bound_vars, twin.nested_vars, depth(twin)) == (
                f.free_vars, f.bound_vars, f.nested_vars, depth(f)
            )

    def test_repr_names_the_fields(self):
        assert repr(parse("ex A0^1 . ~(A0^1 x1 & x1 = x2)")) == (
            "Exists(var=Var(index=0, arity=1), body=Not(body=And("
            "left=Atom(predicate=Var(index=0, arity=1), args=(Var(index=1, arity=0),)), "
            "right=Eq(left=Var(index=1, arity=0), right=Var(index=2, arity=0)))))"
        )

    def test_hash_is_the_same_in_every_process(self):
        code = f"from henkin.parser import parse; print(hash(parse({self.SENTENCE!r})))"
        src = str(Path(henkin.__file__).parents[1])
        hashes = set()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            hashes.add(out.stdout.strip())
        assert hashes == {str(hash(parse(self.SENTENCE)))}


class TestConstruction:
    def test_atom_arity_checked(self):
        with pytest.raises(ArityError):
            Atom(A, (x1, x2))
        with pytest.raises(ArityError):
            Atom(R, (x1,))
        with pytest.raises(ArityError):
            Atom(R, (x1, A))

    def test_equality_sorts(self):
        assert Eq(x1, x2).free_vars == frozenset({x1, x2})
        assert Eq(A, B).free_vars == frozenset({A, B})
        with pytest.raises(ArityError):
            Eq(x1, A)
        with pytest.raises(ArityError):
            Eq(A, R)

    def test_rebinding_rejected(self):
        body = Forall(x1, Eq(x1, x2))
        with pytest.raises(CaptureError):
            Forall(x1, body)
        with pytest.raises(CaptureError):
            Exists(x1, Not(body))

    def test_sibling_binding_allowed(self):
        f = And(Forall(x1, Atom(A, (x1,))), Forall(x1, Atom(B, (x1,))))
        assert x1 in f.bound_vars


class TestFreeVars:
    def test_equality(self):
        assert Eq(x1, x2).free_vars == frozenset({x1, x2})

    def test_quantifier_removes(self):
        assert Forall(x1, Eq(x1, x2)).free_vars == frozenset({x2})

    def test_predicate_quantifier(self):
        assert Exists(A, Atom(A, (x3,))).free_vars == frozenset({x3})


class TestPrinting:
    def test_equality(self):
        assert format_formula(Eq(x1, x2)) == "x1 = x2"

    def test_negation_parenthesizes(self):
        assert format_formula(Not(Atom(A, (x0,)))) == "~(A0^1 x0)"

    def test_quantifier_atom_body(self):
        assert format_formula(Exists(A, Atom(A, (x0,)))) == "ex A0^1 . A0^1 x0"

    def test_arrows_right_associative(self):
        f = Implies(Eq(x1, x1), Implies(Eq(x2, x2), Eq(x3, x3)))
        assert format_formula(f) == "x1 = x1 -> x2 = x2 -> x3 = x3"
        g = Implies(Implies(Eq(x1, x1), Eq(x2, x2)), Eq(x3, x3))
        assert format_formula(g) == "(x1 = x1 -> x2 = x2) -> x3 = x3"

    def test_precedence(self):
        f = Or(And(Eq(x1, x1), Eq(x2, x2)), Eq(x3, x3))
        assert format_formula(f) == "x1 = x1 & x2 = x2 | x3 = x3"
        g = And(Or(Eq(x1, x1), Eq(x2, x2)), Eq(x3, x3))
        assert format_formula(g) == "(x1 = x1 | x2 = x2) & x3 = x3"


class TestSubstitution:
    def test_free_occurrences_only(self):
        f = And(Eq(x1, x2), Forall(x1, Eq(x1, x1)))
        g = substitute(f, x1, x3)
        assert g == And(Eq(x3, x2), Forall(x1, Eq(x1, x1)))

    def test_capture_detected(self):
        f = Forall(x2, Eq(x1, x2))
        with pytest.raises(CaptureError):
            substitute(f, x1, x2)

    def test_predicate_rename(self):
        f = Forall(x1, Iff(Atom(A, (x1,)), Atom(B, (x1,))))
        g = substitute(f, A, pred(2, 1))
        assert g.free_vars == frozenset({pred(2, 1), B})

    def test_sorts_must_match(self):
        with pytest.raises(ArityError):
            substitute(Atom(A, (x1,)), x1, A)
        with pytest.raises(ArityError):
            substitute(Atom(A, (x1,)), A, R)


class TestExistsUnique:
    def test_single_variable_shape(self):
        f = exists_unique((x1,), Atom(A, (x1,)))
        assert format_formula(f) == (
            "(ex x1 . A0^1 x1) & (all x2 . all x3 . (A0^1 x2 & A0^1 x3 -> x2 = x3))"
        )

    def test_tuple_expansion_counts(self):
        f = exists_unique((x1, x2), Atom(R, (x1, x2)))
        # two fresh copies of a pair: four fresh quantifiers in the clause
        assert depth(f) > 3
        assert f.free_vars == frozenset({R})

    def test_semantics_on_tiny_structure(self):
        # over {a, b} with A = {a}: exactly one witness
        from henkin.evaluate import evaluate
        from henkin.structures import Assignment, Table, standard_structure

        s = standard_structure(("a", "b"), 1)
        one = Table.from_tuples(2, 1, [(0,)])
        both = Table.constant(2, 1, True)
        f = exists_unique((x1,), Atom(A, (x1,)))
        assert evaluate(s, Assignment({A: one}), f) is True
        assert evaluate(s, Assignment({A: both}), f) is False


class TestLowering:
    def test_rewrites_applications(self):
        dvar = pred(0, 1)
        svar = pred(1, 2)
        f = Forall(x2, Iff(Atom(dvar, (x2,)), Eq(x2, x1)))
        g = lower_predicate_application(f, dvar, svar, (x1,))
        assert g == Forall(x2, Iff(Atom(svar, (x1, x2)), Eq(x2, x1)))

    def test_equality_mention_fails(self):
        from henkin.syntax import LoweringError

        dvar = pred(0, 1)
        with pytest.raises(LoweringError):
            lower_predicate_application(Eq(dvar, B), dvar, pred(1, 2), (x1,))

    def test_prefix_capture_detected(self):
        dvar = pred(0, 1)
        with pytest.raises(CaptureError):
            lower_predicate_application(
                Forall(x1, Atom(dvar, (x2,))), dvar, pred(1, 2), (x1,)
            )


class TestDerivation:
    def test_rules_assigned(self):
        f = Forall(x1, Exists(A, Implies(Atom(A, (x1,)), Eq(x1, x1))))
        steps = derivation(f)
        rules = [r for r, _ in steps]
        assert rules == [1, 1, 2, 4, 3]
        assert steps[-1][1] == f

    def test_every_accepted_ast_is_derivable(self):
        import random

        from henkin.corpus import default_vocabulary, random_formula

        ind_vars, pred_vars = default_vocabulary(2)
        rng = random.Random(73)
        for _ in range(150):
            f = random_formula(rng, 5, ind_vars, pred_vars)
            steps = derivation(f)
            assert steps[-1] == (steps[-1][0], f)
            assert all(rule in (1, 2, 3, 4) for rule, _ in steps)


def test_all_vars_counts_vacuous_binder():
    f = Forall(x1, Eq(x2, x2))
    assert x1 in all_vars(f)


def deep_formula(seed: int, target: int):
    """A formula of exactly the target depth along one spine whose nodes mix
    negation, both quantifiers over both sorts, and all four binary
    connectives.  Each binary node's other child is an atom over variables
    bound above it, so the quantifiers are not vacuous."""
    rng = random.Random(seed)
    kinds = [
        rng.choice(["not", "all", "ex", "and", "or", "implies", "iff"]) for _ in range(target)
    ]
    bound = []  # (position from the top, variable)
    for j, kind in enumerate(kinds):
        if kind in ("all", "ex"):
            is_pred = rng.random() < 0.1 and sum(v.is_predicate for _, v in bound) < 3
            bound.append((j, pred(j + 1, 1) if is_pred else ind(j + 1)))

    def leaf(j: int):
        inds = [x0] + [v for k, v in bound if k < j and v.is_individual]
        preds = [A] + [v for k, v in bound if k < j and v.is_predicate]
        if rng.random() < 0.5:
            return Eq(rng.choice(inds), rng.choice(inds))
        return Atom(rng.choice(preds), (rng.choice(inds),))

    nodes = {"and": And, "or": Or, "implies": Implies, "iff": Iff}
    binders = dict(bound)
    f = leaf(target)
    for j in reversed(range(target)):
        kind = kinds[j]
        if kind == "not":
            f = Not(f)
        elif kind in ("all", "ex"):
            f = (Forall if kind == "all" else Exists)(binders[j], f)
        elif rng.random() < 0.5:
            f = nodes[kind](f, leaf(j))
        else:
            f = nodes[kind](leaf(j), f)
    return f


class TestDepthBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_max_depth_round_trips_and_evaluates(self, seed):
        f = deep_formula(seed, MAX_DEPTH)
        assert depth(f) == MAX_DEPTH
        g = parse(format_formula(f))
        assert g == f and hash(g) == hash(f)
        # one individual keeps the quantifiers cheap; the oracle recurses too
        point = standard_structure(("a",), 1)
        assert evaluate(point, Assignment({}), f) == naive_eval(point, {}, f)
        assert derivation(f)[-1] == (derivation(f)[-1][0], f)

    def test_deepest_printed_nesting_reparses(self):
        # a quantifier as the left operand of & and a conjunction as a
        # quantifier body both take parentheses: one and a half nesting
        # levels of text per level of depth
        f = Atom(A, (x0,))
        for j in range(MAX_DEPTH):
            f = Forall(ind(j + 1), f) if j % 2 == 0 else And(f, Eq(x0, x0))
        text = format_formula(f)
        assert text.count("(") + text.count("all") > MAX_DEPTH
        assert parse(text) == f

    def test_one_deeper_is_rejected_at_construction(self):
        f = deep_formula(0, MAX_DEPTH)
        for build in (Not, lambda g: And(g, Eq(x1, x1)), lambda g: Forall(pred(0, 3), g)):
            with pytest.raises(FormulaError, match="exceeds the bound"):
                build(f)
        with pytest.raises(ParseError, match="exceeds the bound"):
            parse(f"~({format_formula(f)})")
