import random
import time
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from oracle import naive_eval, naive_saturate, random_assignment, random_structure

from henkin.corpus import default_vocabulary, enumerate_formulas, random_formula
from henkin.evaluate import (
    DEFAULT_FORMULA_CAP,
    EvalError,
    FiniteSemantics,
    att,
    check_comprehension,
    compile_formula,
    evaluate,
    resolve,
    saturate,
    saturate_with_report,
)
from henkin.parser import parse
from henkin.schemas import SchemaId, build, check_schema
from henkin.structures import (
    DEFAULT_TABLE_CAP,
    Assignment,
    CapExceeded,
    Structure,
    Table,
    standard_structure,
    structure_to_dict,
)
from henkin.syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    free_vars,
    ind,
    pred,
    subformulas,
)

x1, x2, x3 = ind(1), ind(2), ind(3)
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


def copied(assignment):
    """The assignment with every table replaced by an equal, distinct copy."""
    return Assignment({
        v: Table.from_bitstring(t.size, t.arity, t.bitstring()) if v.is_predicate else t
        for v, t in assignment.values.items()
    })


class TestPredicateIdentity:
    """The core holds a predicate as its position in its arity's domain, so
    predicate equality, extensional table equality, is equality of
    positions: a table from an assignment, equal to a domain table but not
    it, must resolve to that table's position."""

    def test_resolve_returns_the_domains_own_table(self, std2):
        table = Table.from_bitstring(2, 1, "10")
        assert std2.domain(1)[resolve(std2, Assignment({A: table}), A)] == table
        assert resolve(std2, Assignment({}), A) == 0  # the least table

    def test_tables_outside_the_domain_still_rejected(self):
        s = Structure(("a", "b"), {1: frozenset({Table.constant(2, 1, False)})})
        with pytest.raises(EvalError):
            resolve(s, Assignment({A: Table.constant(2, 1, True)}), A)
        R = pred(0, 2)
        with pytest.raises(EvalError):
            resolve(s, Assignment({R: Table.constant(2, 2, True)}), R)

    def test_copies_agree_with_naive_eval(self):
        # formulas with an equality on a free predicate variable, under
        # assignments of copies: evaluate, att and check_comprehension (the
        # predicates are A1 and A2, so the witness A0 never occurs)
        ind_vars = default_vocabulary(2)[0]
        pred_vars = [pred(j, n) for n in (1, 2) for j in (1, 2)]
        rng = random.Random(29)
        checked = defined = 0
        while checked < 200:
            size = rng.randint(1, 3)
            structure = random_structure(rng, tuple("abc"[:size]), (1, 2))
            f = random_formula(rng, 4, ind_vars, pred_vars)
            if not any(
                isinstance(g, Eq) and {g.left, g.right} & f.free_vars and g.left.is_predicate
                for g in subformulas(f)
            ):
                continue
            checked += 1
            base = random_assignment(rng, structure, free_vars(f))
            env = dict(base.values)
            assert evaluate(structure, copied(base), f) == naive_eval(structure, env, f)
            xs = tuple(sorted(v for v in f.free_vars if v.is_individual))
            if not 1 <= len(xs) <= 2 or f.bound_vars & set(xs):
                continue
            defined += 1
            bits = tuple(
                naive_eval(structure, {**env, **dict(zip(xs, p))}, f)
                for p in product(range(size), repeat=len(xs))
            )
            params = copied(Assignment({v: t for v, t in env.items() if v not in xs}))
            assert att(structure, f, xs, params).table.bits == bits
            out = check_comprehension(structure, f, xs, params)
            assert out.holds == (Table(size, len(xs), bits) in structure.domains[len(xs)])
        assert defined > 50


def proper_domains(rng, size):
    """A structure whose domains of arity 1 to 3 each hold a few random
    tables, never all of them (so just one on a single point)."""
    domains = {}
    for n in (1, 2, 3):
        width = size**n
        count = min(rng.choice((1, 1, 2, 3, 5, 7)), 2**width - 1)
        rows = set()
        while len(rows) < count:
            rows.add(rng.getrandbits(width))
        domains[n] = [Table(size, n, tuple(bool(r >> i & 1) for i in range(width))) for r in rows]
    return Structure(tuple("abc"[:size]), domains)


def first_falsifier(structure, matrix, searched):
    """The first assignment of ``searched``, in ``check_schema``'s order,
    under which the oracle finds the matrix false, or None."""
    pools = [
        range(structure.size) if v.is_individual else structure.domain(v.arity) for v in searched
    ]
    for values in product(*pools):
        env = dict(zip(searched, values))
        if not naive_eval(structure, env, matrix):
            return env
    return None


class TestDomainMasks:
    """A predicate quantifier whose variable occurs in its body, under no
    predicate quantifier there, is decided as a mask over its domain:
    ``evaluate``, ``att`` and ``check_schema`` agree with the oracle, and
    the counterexample is the search's first."""

    def sentence(self, rng, n, shapes):
        """A random formula under ``Q V`` for V = A0^n, the body mentioning
        V, beside A1^n and a unary or binary predicate; maybe under an
        outer ``all W`` (peeled by ``check_schema``) or ``ex W``, W = A1^n."""
        v, w = pred(0, n), pred(1, n)
        other = pred(2, 2 if n == 1 else 1)
        body = random_formula(rng, 4, [x1, x2, x3], [v, v, w, other], atom_bias=0.25)
        if v not in body.free_vars:
            tail = rng.choice((Atom(v, tuple(rng.choice((x1, x2)) for _ in range(n))), Eq(v, w)))
            body = rng.choice((And, Or, Implies, Iff))(body, tail)
        if v in body.bound_vars:
            return None
        f = rng.choice((Forall, Exists))(v, body)
        outer = rng.choice((None, Forall, Exists)) if w not in f.bound_vars else None
        if outer:
            f = outer(w, f)
        flat = v not in body.nested_vars
        shapes.add((n, type(f if not outer else f.body).__name__, flat))
        kinds = {
            frozenset((g.left, g.right)) for g in subformulas(body) if isinstance(g, Eq)
        }
        if flat and frozenset((v,)) in kinds:
            shapes.add("V = V")
        if flat and frozenset((v, w)) in kinds:
            shapes.add(("V = W", outer.__name__ if outer else "free"))
        if flat and any(
            isinstance(g, (Forall, Exists)) and g.var.is_predicate and v not in g.free_vars
            and g.var not in g.body.nested_vars and g.var in g.body.free_vars
            for g in subformulas(body)
        ):
            shapes.add("independent")
        return f

    def test_agrees_with_naive_eval(self):
        rng = random.Random(419)
        shapes, checked, defined = set(), 0, 0
        while checked < 330:
            structure = proper_domains(rng, 1 + checked % 3)
            f = self.sentence(rng, rng.randint(1, 3), shapes)
            if f is None:
                continue
            checked += 1
            assignment = random_assignment(rng, structure, f.free_vars)
            env = dict(assignment.values)
            assert evaluate(structure, assignment, f) == naive_eval(structure, env, f)
            xs = tuple(sorted(v for v in f.free_vars if v.is_individual))
            if xs and not f.bound_vars & set(xs):
                defined += 1
                bits = tuple(
                    naive_eval(structure, {**env, **dict(zip(xs, p))}, f)
                    for p in product(range(structure.size), repeat=len(xs))
                )
                assert att(structure, f, xs, assignment).table.bits == bits
            check = check_schema(structure, f)
            expected = first_falsifier(structure, check.matrix, check.searched)
            assert check.holds == (expected is None)
            assert (check.counterexample and dict(check.counterexample.values)) == expected
        assert defined > 100
        kinds = set(product((1, 2, 3), ("Forall", "Exists"), (True, False)))
        equalities = {"V = V", ("V = W", "free"), ("V = W", "Forall"), ("V = W", "Exists")}
        assert shapes >= kinds | equalities | {"independent"}

    @pytest.mark.parametrize(
        "text",
        [
            "all A0^1 . (ex x1 . A0^1 x1 | all x2 . ~(A0^1 x2))",
            "ex A0^1 . all x1 . (A0^1 x1 <-> x1 = x2)",
            "all A0^2 . (all x1 . A0^2 x1 x1) -> ex x1 . ex x2 . A0^2 x1 x2 & ~(x1 = x2) | x3 = x1",
            "ex A0^3 . (A0^3 x1 x2 x3 & ~(A0^3 x3 x2 x1) | A0^3 = A1^3)",
            "all A0^1 . (A0^1 = A1^1 -> all x1 . (A0^1 x1 <-> A1^1 x1))",
            "all A1^1 . ex A0^1 . (A0^1 = A1^1 & A0^1 = A0^1 & ex A0^2 . A0^2 x1 x1)",
            "ex A0^2 . (all x1 . ex x2 . A0^2 x1 x2) <-> (ex x1 . all x2 . ~(A0^2 x2 x1))",
        ],
    )
    def test_written_shapes(self, text):
        f, rng = parse(text), random.Random(text)
        for k in range(60):
            structure = proper_domains(rng, 1 + k % 3)
            assignment = random_assignment(rng, structure, f.free_vars)
            env = dict(assignment.values)
            assert evaluate(structure, assignment, f) == naive_eval(structure, env, f)
            check = check_schema(structure, f)
            expected = first_falsifier(structure, check.matrix, check.searched)
            assert (check.counterexample and dict(check.counterexample.values)) == expected

    def test_the_path_follows_the_shape(self, std2, monkeypatch):
        # wo1's outer ex A0^2 has A0^2 under the flat all A0^1, so it
        # searches; ac's witness A1^2 draws one value per check, where its
        # invariant domain clause is read, and its other operand is flat; a
        # quantifier whose variable does not occur draws one value
        drawn, columns = Counter(), Counter()
        pool, column = FiniteSemantics.pool, FiniteSemantics.column

        def counting_pool(self, var):
            values = pool(self, var)

            def draw(env):
                for value in values(env):
                    drawn[var] += 1
                    yield value

            return draw

        def counting_column(self, p, args):  # by arity: a column gets a slot, not a variable
            columns[len(args)] += 1
            return column(self, p, args)

        monkeypatch.setattr(FiniteSemantics, "pool", counting_pool)
        monkeypatch.setattr(FiniteSemantics, "column", counting_column)
        T, A, S = pred(0, 2), pred(0, 1), pred(1, 2)
        check_schema(std2, SchemaId("wo1"))
        assert drawn[T] > 0 and not columns[2] and columns[1] and not drawn[A]
        check_schema(std2, SchemaId("ac"))
        assert columns[2] and drawn[S] == 36
        assert evaluate(std2, Assignment({}), parse("all A1^1 . x1 = x1"))
        assert drawn[pred(1, 1)] == 1

    def test_a_payload_shared_by_a_masked_and_a_bridged_quantifier(self, monkeypatch):
        # choice-h puts the one payload node under the antecedent's flat
        # ex A0^1, decided by a mask, and in the matrix's bridged ex A0^1,
        # run at the section: each occurrence compiles in its own mode
        payload = parse("ex x2 . (A0^1 x2 & ~(x2 = x1)) & (A0^1 x1 -> all x3 . A0^1 x3)")
        f = build(SchemaId("choice-h", 1, 1, payload))
        assert f.left.body.body is f.right.body.body.body.right is payload
        columns = Counter()
        column = FiniteSemantics.column

        def counting(self, p, args):
            columns[len(args)] += 1
            return column(self, p, args)

        monkeypatch.setattr(FiniteSemantics, "column", counting)
        rng = random.Random(421)
        verdicts = set()
        for k in range(40):
            structure = proper_domains(rng, 2 + k % 2)
            check = check_schema(structure, f)
            expected = first_falsifier(structure, check.matrix, check.searched)
            assert (check.counterexample and dict(check.counterexample.values)) == expected
            verdicts.add(check.holds)
        assert verdicts == {True, False} and columns[1] > 0

    def test_a_flat_equality_builds_no_map_of_the_domain(self):
        # the mask of A0^2 = A1^2 is one bit, at the position of A1^2; a map
        # from each of the 65,536 tables to its own bit peaked at 279 MiB
        std4 = standard_structure("abcd", 2)
        f = parse("ex A0^2 . A0^2 = A1^2")
        tracemalloc.start()
        try:
            assert evaluate(std4, Assignment({}), f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize(
        "text", ["ex A0^2 . A0^2 x1 x1", "all A0^1 . (A0^1 x1 | ex A0^2 . A0^2 x1 x1)"]
    )
    def test_an_arity_without_a_domain_is_an_error_at_compile_time(self, text):
        structure = standard_structure(("a", "b"), 1)
        with pytest.raises(EvalError, match="no domain of arity 2"):
            compile_formula(parse(text), FiniteSemantics(structure), [x1])


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

    @pytest.mark.parametrize(
        "variables, message",
        [
            ((), "at least one distinguished variable"),
            ((x1, x1), "must be distinct"),
            ((x1, A), "must be an individual variable"),
        ],
        ids=["none", "repeated", "predicate"],
    )
    def test_distinguished_variables_are_distinct_individuals(self, std2, variables, message):
        with pytest.raises(EvalError, match=message):
            att(std2, parse("A0^1 x1"), variables)

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
        # 12 atoms, then 264 formulas once depth 1 is enumerated
        s = standard_structure(("a", "b"), 1)
        with pytest.raises(CapExceeded) as err:
            saturate(s, 1, formula_cap=10)
        assert (err.value.needed, err.value.cap) == (264, 10)

    def test_cap_fires_before_a_level_is_built(self, std2):
        # depth 2 over std2's vocabulary holds 5,495,517 formulas, counted from
        # the 2,296 of depth <= 1 without building one of depth 2
        started = time.perf_counter()
        with pytest.raises(CapExceeded) as err:
            saturate_with_report(std2, 2)
        assert time.perf_counter() - started < 1
        assert (err.value.needed, err.value.cap) == (5_495_517, DEFAULT_FORMULA_CAP)

    def test_cap_counts_the_formulas_built(self):
        vocabulary = ([x1, x2], [A])
        total = len(enumerate_formulas(2, *vocabulary, cap=10**6))
        assert len(enumerate_formulas(2, *vocabulary, cap=total)) == total
        with pytest.raises(CapExceeded) as err:
            enumerate_formulas(2, *vocabulary, cap=total - 1)
        assert (err.value.needed, err.value.cap) == (total, total - 1)

    @pytest.mark.parametrize(
        "table_cap, outcome",
        [
            (8, (3, {1: 6})),  # the closure: 2 tables, +5 in round 1, +1 in round 2
            (7, 8),  # round 1 ends at 7, round 2 at 8
            (2, 7),  # checked after the whole round, not at the first table past the cap
        ],
    )
    def test_table_cap_is_checked_after_each_round(self, table_cap, outcome):
        s = Structure(
            ("a", "b", "c"),
            {1: frozenset(Table.from_bitstring(3, 1, b) for b in ("100", "010"))},
        )
        if isinstance(outcome, int):
            with pytest.raises(CapExceeded) as err:
                saturate(s, 1, table_cap=table_cap)
            assert (err.value.needed, err.value.cap) == (outcome, table_cap)
        else:
            out, report = saturate_with_report(s, 1, table_cap=table_cap)
            assert (report.rounds, report.added) == outcome
            assert len(out.domains[1]) == table_cap

    def test_table_cap_bounds_only_domains_that_grow(self):
        s = standard_structure(("a", "b"), 1)  # 4 tables, closed
        out, report = saturate_with_report(s, 1, table_cap=3)
        assert out == s and report.rounds == 1


def _count_tables(monkeypatch) -> list:
    """Every ``Table`` constructed from here on, in order."""
    built, new = [], Table.__new__

    def counting(cls, *args):
        table = new(cls, *args)
        built.append(table)
        return table

    monkeypatch.setattr(Table, "__new__", counting)
    return built


def _saturation_outcome(saturate_fn, structure, table_cap):
    try:
        out, report = saturate_fn(structure, 1, table_cap=table_cap)
    except CapExceeded as err:
        return ("cap", err.what, err.needed, err.cap)
    return structure_to_dict(out), report.rounds, report.formulas_used, report.added


class TestSaturationReference:
    """``saturate_with_report`` against ``oracle.naive_saturate`` at depth 1."""

    def test_seeded_structures(self):
        # 60 structures on 1-3 points: unary domains throughout, binary ones
        # on up to 2 points; every tenth capped at its largest input domain,
        # and binary domains on 2 points at 8 tables, because the reference
        # takes seconds a round once such a domain nears all 16
        rng = random.Random(29)
        grew = capped = 0
        for i in range(60):
            size = 1 + i % 3
            arities = (1, 2) if size <= 2 and i % 2 else (1,)
            s = random_structure(rng, "abc"[:size], arities, max_tables=3)
            cap = DEFAULT_TABLE_CAP
            if i % 10 == 9:
                cap = max(len(ts) for ts in s.domains.values())
            elif size == 2 and 2 in s.domains:
                cap = 8
            got = _saturation_outcome(saturate_with_report, s, cap)
            assert got == _saturation_outcome(naive_saturate, s, cap), i
            capped += got[0] == "cap"
            grew += got[0] != "cap" and bool(got[3])
        assert capped >= 1 and grew >= 10

    def test_a4_model(self, a4_model):
        outcome = _saturation_outcome(saturate_with_report, a4_model, DEFAULT_TABLE_CAP)
        assert outcome == _saturation_outcome(naive_saturate, a4_model, DEFAULT_TABLE_CAP)
        assert outcome[0] == structure_to_dict(a4_model)

    def test_std2_is_a_fixpoint(self, std2):
        out, report = saturate_with_report(std2, 1)
        assert out == std2
        assert (report.rounds, report.added) == (1, {})


class TestSaturationTables:
    """A validated ``Table`` is built only for a table saturation adds."""

    def test_none_on_a_closed_structure(self, std2, monkeypatch):
        built = _count_tables(monkeypatch)
        saturate_with_report(std2, 1)
        assert built == []

    def test_one_per_added_table(self, monkeypatch):
        s = Structure(
            ("a", "b", "c"),
            {1: frozenset(Table.from_bitstring(3, 1, b) for b in ("100", "010"))},
        )
        built = _count_tables(monkeypatch)
        out, report = saturate_with_report(s, 1)
        assert len(built) == sum(report.added.values()) == 6
        assert set(built) == out.domains[1] - s.domains[1]
