import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henkin.corpus import default_vocabulary, random_formula
from henkin.parser import ParseError, parse, parse_var, tokenize
from henkin.syntax import (
    BINARY_SYNTAX,
    And,
    Atom,
    Eq,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    format_formula,
    ind,
    pred,
)

x0, x1, x2 = ind(0), ind(1), ind(2)
A = pred(0, 1)
A12 = pred(1, 2)


class TestParseExamples:
    def test_identity_equality(self):
        assert parse("x1 = x1") == Eq(x1, x1)

    def test_application(self):
        assert parse("A1^2 x1 x2") == Atom(A12, (x1, x2))

    def test_rebinding_is_an_error(self):
        with pytest.raises(ParseError):
            parse("all x1 . all x1 . x1 = x1")

    def test_predicate_equality(self):
        assert parse("A0^1 = A1^1") == Eq(A, pred(1, 1))

    def test_arity_mismatch_positions(self):
        with pytest.raises(ParseError) as err:
            parse("A0^1 = A0^2")
        assert err.value.pos > 0
        with pytest.raises(ParseError):
            parse("x1 = A0^1")

    def test_application_wrong_argument_count(self):
        with pytest.raises(ParseError):
            parse("A1^2 x1 & x2 = x2")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 = ?")
        assert err.value.pos == 5

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x1 = x1 x2")

    def test_zero_arity_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse("A0^0 x1")


class TestPrecedence:
    def test_connective_tower(self):
        f = parse("~A0^1 x1 & A0^1 x2 | x1 = x2 -> x1 = x1 <-> x2 = x2")
        assert isinstance(f, Iff)
        assert isinstance(f.left, Implies)
        assert isinstance(f.left.left, Or)
        assert isinstance(f.left.left.left, And)
        assert isinstance(f.left.left.left.left, Not)

    def test_quantifier_body_extends_right(self):
        f = parse("all x1 . A0^1 x1 -> A0^1 x2")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Implies)

    def test_parenthesized_quantifier(self):
        f = parse("(all x1 . A0^1 x1) -> A0^1 x2")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Forall)

    def test_and_left_associative(self):
        f = parse("x1 = x1 & x2 = x2 & x0 = x0")
        assert isinstance(f, And) and isinstance(f.left, And)

    def test_arrows_right_associative(self):
        f = parse("x1 = x1 -> x2 = x2 -> x0 = x0")
        assert isinstance(f, Implies) and isinstance(f.right, Implies)

    @pytest.mark.parametrize("cls", list(BINARY_SYNTAX), ids=lambda cls: cls.__name__)
    def test_the_printers_table_is_the_grammar(self, cls):
        # a chain of one connective groups by its associativity, and a
        # looser one takes it as an operand on either side
        text, prec, left = BINARY_SYNTAX[cls]
        a, b, c = Eq(x0, x0), Eq(x1, x1), Eq(x2, x2)
        chain = parse(f"x0 = x0 {text} x1 = x1 {text} x2 = x2")
        assert chain == (cls(cls(a, b), c) if left else cls(a, cls(b, c)))
        for looser, (other, other_prec, _) in BINARY_SYNTAX.items():
            if other_prec < prec:
                assert parse(f"x0 = x0 {text} x1 = x1 {other} x2 = x2") == looser(cls(a, b), c)
                assert parse(f"x0 = x0 {other} x1 = x1 {text} x2 = x2") == looser(a, cls(b, c))


class TestExistsUniqueSugar:
    def test_expansion(self):
        f = parse("ex!! x1 . A0^1 x1")
        assert f == parse(
            "(ex x1 . A0^1 x1) & (all x2 . all x3 . (A0^1 x2 & A0^1 x3 -> x2 = x3))"
        )

    def test_fresh_variables_avoid_body(self):
        f = parse("ex!! x1 . A1^2 x1 x2")
        # x2 is free in the body, so the two copies take x3 and x4
        assert ind(3) in f.bound_vars and ind(4) in f.bound_vars

    def test_predicate_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("ex!! A0^1 . A0^1 x1")


class TestTokenizer:
    def test_positions(self):
        toks = tokenize("all x1 . x1 = x1")
        assert [t.kind for t in toks] == ["all", "indvar", "dot", "indvar", "eq", "indvar", "eof"]
        assert toks[1].pos == 4

    def test_keyword_boundary(self):
        with pytest.raises(ParseError):
            tokenize("allx1")


def test_parse_var():
    assert parse_var("x7") == ind(7)
    assert parse_var("A3^2") == pred(3, 2)
    with pytest.raises(ParseError):
        parse_var("x1 x2")


class TestRoundTrip:
    def test_seeded_corpus(self):
        ind_vars, pred_vars = default_vocabulary(2)
        rng = random.Random(99)
        for _ in range(300):
            f = random_formula(rng, 5, ind_vars, pred_vars)
            assert parse(format_formula(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_hypothesis_seeds(self, seed, max_depth):
        ind_vars, pred_vars = default_vocabulary(2)
        f = random_formula(random.Random(seed), max_depth, ind_vars, pred_vars)
        assert parse(format_formula(f)) == f
