"""The compiled evaluation core against the tree-walking references: the
finite semantics against ``naive_eval`` and the symbolic semantics against
``naive_sym_eval``, on seeded random formulas and on the binding cases a
slot environment could get wrong."""

import gc
import random
import weakref
from collections import Counter
from itertools import product

import pytest

from oracle import (
    RefPredicate,
    SymContext,
    naive_eval,
    naive_sym_eval,
    ref_canonicalize,
    ref_denotes,
    random_assignment,
    random_structure,
    ref_predicate,
    to_symbolic,
)

from henkin.corpus import default_vocabulary, random_formula
from henkin import fraenkel
from henkin.evaluate import EvalError, FiniteSemantics, att, compile_formula, evaluate
from henkin.fraenkel import (
    DEFAULT_PRED_CAP,
    ChoiceInstanceReport,
    SymbolicPredicate,
    _SymbolicRun,
    _SymbolicSemantics,
    _candidate_predicates,
    check_choice_instance_sigma0,
    enumerate_types,
    fresh_atoms,
    symbolic_evaluate,
)
from henkin.parser import parse
from henkin.schemas import SchemaId, check_schema
from henkin.structures import Assignment, CapExceeded, Structure, Table, all_tables
from henkin.syntax import And, Atom, Exists, Forall, Iff, Implies, Or, forall_many, ind, pred

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
    """The reference's outcome; predicates in the binding are package or
    reference predicates, the latter kept with their declared support."""
    ctx = SymContext(bound, cap)
    env = {
        v: ref_predicate(x) if isinstance(x, SymbolicPredicate) else x for v, x in binding.items()
    }
    try:
        truth = naive_sym_eval(formula, env, ctx)
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

    def test_att_agrees_pointwise_at_arity_3(self, std3):
        # three distinguished variables take the general, not the unrolled,
        # bit-row loop; the row-major order must still hold
        rng = random.Random(109)
        ind_vars, pred_vars = default_vocabulary(1)
        compared = 0
        for _ in range(60):
            f = random_formula(rng, 3, ind_vars, pred_vars)
            if f.bound_vars.intersection(ind_vars):
                continue
            g = random_assignment(rng, std3, [v for v in f.free_vars if v.is_predicate])
            table = att(std3, f, ind_vars, g).table
            for point in product(range(3), repeat=3):
                env = {**g.values, **dict(zip(ind_vars, point))}
                assert table(point) == naive_eval(std3, env, f)
            compared += 1
        assert compared >= 20

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
            # two levels down, past a left operand that decides: never compiled
            (Assignment({}), "x1 = x1 | (A0^1 x1 & ex A0^2 . A0^2 x1 x1)"),
            (Assignment({}), "A0^1 x1 -> (x1 = x1 | all A0^3 . A0^3 x1 x1 x1)"),
        ]
        for assignment, text in bad:
            with pytest.raises(EvalError):
                evaluate(s, assignment, parse(text))
        # a value for a variable the formula never mentions is not looked at
        assert evaluate(s, Assignment({x3: 5, A: outside}), parse("x1 = x1"))

    def test_a_right_operand_is_compiled_at_its_first_run(self, std2, monkeypatch):
        # a true left disjunct decides, so the right atom is not compiled; the
        # first run that reaches it compiles it, and no later run compiles again
        compiled_atoms = []
        atom = FiniteSemantics.atom

        def counting(self, p, args):
            compiled_atoms.append(p)
            return atom(self, p, args)

        monkeypatch.setattr(FiniteSemantics, "atom", counting)
        f, params = parse("A0^1 x1 | A1^1 x1"), [x1, A, pred(1, 1)]
        body, env = compile_formula(f, FiniteSemantics(std2), params)
        yes, no = std2.by_bits(1)[(True, True)], std2.by_bits(1)[(False, False)]
        assert compiled_atoms == [1]
        env[:3] = [0, yes, no]
        assert body(env) and compiled_atoms == [1]
        env[:3] = [0, no, yes]
        assert body(env) and compiled_atoms == [1, 2]
        env[:3] = [1, no, no]
        assert not body(env) and compiled_atoms == [1, 2]


class TestSymbolicCore:
    def test_agrees_with_naive_sym_eval(self):
        rng = random.Random(103)
        ind_vars = [x1, x2, x3]
        pred_vars = [pred(0, 1), pred(1, 1), pred(0, 2)]
        seen, compared = set(), 0
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
            bound = rng.randint(0, 2)
            # compared where the reference finishes; the package, under the
            # default cap, finishes every case here
            expected = reference(formula, binding, bound, 5000)
            if expected[0] == "cap":
                continue
            outcome = compiled(formula, binding, bound, DEFAULT_PRED_CAP)
            assert outcome == expected
            compared += 1
            seen.add(outcome)
            seen.add(bool(formula.free_vars & formula.bound_vars))
        # every outcome kind occurred, and so did free-and-bound variables
        assert seen >= {(True, True), (False, True), (True, False), (False, False), True}
        assert compared >= 550
        # a quantifier both of whose operands mention its variable takes three
        # support runs of 16 words each; its twin with an invariant left
        # disjunct is decided by that disjunct at the first value drawn.  The
        # reference lists over 400 candidates for either
        searched, hoisted = parse("all A0^2 . A0^2 x1 x1 | ~(A0^2 x1 x1)"), parse(
            "all A0^2 . x1 = x1 | A0^2 x1 x1"
        )
        for f, charged in ((searched, 48), (hoisted, 1)):
            assert compiled(f, {x1: "p"}, 2, charged) == (True, True)
            assert compiled(f, {x1: "p"}, 2, charged - 1) == ("cap", charged, charged - 1)
            assert reference(f, {x1: "p"}, 2, 400) == ("cap", 401, 400)

    # x1 is bound to p outside the quantifier that rebinds it: the
    # quantifier's own pool sees p, its body's predicate pools do not, so the
    # body runs over masks once per atom of each pool, one word a run (pools
    # [p, u1] and [u1, u2]).  The reference lists every mask under every
    # support of the same pools, 2 + 4 + 4 per value of x1.  With p still
    # visible the second pool would be [p, u1, u2] and run 3 times (14 listed).
    # With q bound to x3 the pools are [p, q, u1], [q, u1] and [q, u1, u2].
    REBOUND = "x1 = x1 & (all x1 . all A0^1 . (A0^1 x1 | ~(A0^1 x1)))"

    @pytest.mark.parametrize(
        "binding, enumerated, listed",
        [({x1: "p"}, 4, 20), ({x1: "p", x3: "q"}, 8, 38)],
        ids=["rebound", "rebound-plus-unmentioned-entry"],
    )
    def test_pools_see_the_bindings_in_scope(self, binding, enumerated, listed):
        f = parse(self.REBOUND)
        assert compiled(f, binding, 1, enumerated) == (True, True)
        assert compiled(f, binding, 1, enumerated - 1) == ("cap", enumerated, enumerated - 1)
        assert reference(f, binding, 1, listed) == (True, True)
        assert reference(f, binding, 1, listed - 1) == ("cap", listed, listed - 1)

    def test_a_cap_hit_leaves_no_stale_slots(self):
        # the first call stops at its seventh support run, with A0^1 bound
        # to the support [q] of its sixth; the next call on the same compiled
        # run starts from a fresh environment, so its atom pools, which read
        # every slot, do not see q and it charges the 5 a fresh run does
        f = parse(self.REBOUND)
        run = _SymbolicRun(f, (x1, x3), 1, 6)
        with pytest.raises(CapExceeded):
            run(("p", "q"))
        assert run(("p", "p")) == symbolic_evaluate(f, {x1: "p", x3: "p"}, 1, pred_cap=6)
        assert run.enumerated == 5

    def test_a_lazy_operand_is_compiled_once_across_calls(self, monkeypatch):
        # the right conjunct is compiled at the first call, which stops at the
        # cap inside it; later calls on the same run reuse it, compile nothing
        # and give a fresh run's verdict
        columns = []
        column = _SymbolicSemantics.column

        def counting(self, p, args):
            columns.append(p)
            return column(self, p, args)

        monkeypatch.setattr(_SymbolicSemantics, "column", counting)
        f = parse(self.REBOUND)
        run = _SymbolicRun(f, (x1, x3), 1, 6)
        assert columns == []
        with pytest.raises(CapExceeded):
            run(("p", "q"))
        assert len(columns) == 2
        for values in (("p", "p"), ("q", "q")):
            before = len(columns)
            got = run(values)
            assert len(columns) == before
            assert got == symbolic_evaluate(f, dict(zip((x1, x3), values)), 1, pred_cap=6)

    def test_a_run_is_freed_without_the_cyclic_collector(self, monkeypatch):
        # its closures share the semantics, not the run, so nothing reaches
        # back to it: not a flat quantifier, a search, a section, nor a right
        # operand left uncompiled (the stub keeps the compiler alive)
        runs = []

        class Recorded(_SymbolicRun):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(weakref.ref(self))

        monkeypatch.setattr(fraenkel, "_SymbolicRun", Recorded)
        section = "ex A0^1 . ((all x4 . (A0^1 x4 <-> A1^2 x1 x4)) & A0^1 x1)"
        cases = [
            ("all A0^1 . ex x2 . (A0^1 x2 | ~(A0^1 x2))", {}),
            ("ex A0^1 . ex A1^1 . (A0^1 = A1^1 & A1^1 x1)", {x1: "p"}),
            ("x1 = x1 | ex A0^1 . A0^1 x1", {x1: "p"}),
            (section, {x1: "p", pred(1, 2): SymbolicPredicate(2, (), 1)}),
        ]
        enabled = gc.isenabled()
        gc.disable()
        try:
            for text, binding in cases:
                assert symbolic_evaluate(parse(text), binding, 2).truth
                assert runs.pop()() is None
            assert check_choice_instance_sigma0(1, 1, parse("A0^1 x1"), 2).status == "witnessed"
            assert len(runs) == 2 and not any(run() for run in runs)
        finally:
            if enabled:
                gc.enable()

    def test_non_minimal_bindings_agree_with_reference(self):
        # a predicate declared over more atoms than it needs is stored over
        # its least support, so the pools it feeds shrink; the verdict and
        # the stratified label are those of the reference on the declared
        # support, whose pools keep the extra atoms
        rng = random.Random(127)
        pred_vars = [pred(0, 1), pred(1, 1), pred(0, 2)]
        compared = padded = 0
        for _ in range(400):
            formula = random_formula(rng, rng.randint(1, 4), [x1, x2, x3], pred_vars)
            declared = {}
            for v in sorted(formula.free_vars | set(rng.sample(pred_vars, 1))):
                if v.is_individual:
                    declared[v] = rng.choice(("p", "q", "u1"))
                    continue
                sigma = ref_predicate(random_symbolic(rng, v.arity, ["p", "q"]))
                declared[v] = pad(sigma, rng.sample(("p", "q", "r", "u1"), rng.randint(1, 2)))
            binding = {
                v: to_symbolic(x) if isinstance(x, RefPredicate) else x for v, x in declared.items()
            }
            bound = rng.randint(0, 2)
            expected = reference(formula, declared, bound, 5000)
            if expected[0] == "cap":
                continue
            assert compiled(formula, binding, bound, 5000) == expected
            compared += 1
            padded += any(
                isinstance(x, RefPredicate) and binding[v].support != x.support
                for v, x in declared.items()
            )
        assert compared >= 350 and padded >= 300

    def test_cap_hit_reports_the_same_count(self):
        # three runs charge 16 words each, so a charge may pass the cap by up
        # to 15, yet the report needs one more than the cap, as the reference's
        tautology = parse("all A0^2 . A0^2 x1 x1 | ~(A0^2 x1 x1)")
        for cap in (0, 1, 20, 47):
            outcome = compiled(tautology, {x1: "p"}, 2, cap)
            assert outcome == ("cap", cap + 1, cap) == reference(tautology, {x1: "p"}, 2, cap)


def pad(sigma, extra):
    """The reference predicate ``sigma`` declared over its support plus the
    extra atoms: it accepts the types over the larger support whose tuples
    it holds of."""
    support = tuple(sorted(set(sigma.support) | set(extra)))
    fresh = fresh_atoms(sigma.arity, avoid=support)
    accepted = {
        t
        for t in enumerate_types(sigma.arity, support)
        if ref_denotes(sigma, tuple(e if isinstance(e, str) else fresh[e] for e in t.entries))
    }
    return RefPredicate(sigma.arity, support, frozenset(accepted))


def random_bridged(rng, rest_depth, pred_quantifiers):
    """A bridged predicate existential ``ex D . (all ys . (D ys <-> S xs
    ys)) & rest`` with its xs each quantified or left free, ``rest`` over x1-x3, the bridged ``D`` and a unary ``A2^1``;
    returns it with ``D`` and the free ``S``."""
    m = rng.choice((1, 1, 2))
    xs = tuple(rng.choice((x1, x2, x3)) for _ in range(rng.choice((0, 1, 1, 2))))
    ys = tuple(ind(4 + k) for k in range(m))
    d, s, other = pred(0, m), pred(1, len(xs) + m), pred(2, 1)
    while True:
        rest = random_formula(
            rng, rest_depth, [x1, x2, x3], [d, other], allow_pred_quantifiers=pred_quantifiers
        )
        if d not in rest.bound_vars:
            break
    f = Exists(d, And(forall_many(ys, Iff(Atom(d, ys), Atom(s, xs + ys))), rest))
    for x in sorted(set(xs) - f.bound_vars):
        if rng.random() < 0.5:
            f = rng.choice((Forall, Exists))(x, f)
    return f, d, s


class TestOnePointRule:
    """A bridged predicate existential searches the section of ``S``, a
    range of at most one value, instead of its variable's whole range: the
    verdicts equal the references', which search the whole range."""

    def test_symbolic_agrees_with_naive_sym_eval(self):
        rng = random.Random(109)
        seen, nested, compared = set(), 0, 0
        for k in range(400):
            f, d, _ = random_bridged(rng, rng.randint(0, 3), pred_quantifiers=k % 4 > 0)
            if k % 3 == 0:
                # a guard that decides alone leaves it unreached, unstratified
                f = rng.choice((And, Or))(random_formula(rng, 1, [x1, x2, x3], []), f)
            binding = {
                v: rng.choice(("p", "q", "u1"))
                if v.is_individual
                else random_symbolic(rng, v.arity, ["p", "q", "r"])
                for v in sorted(f.free_vars)
            }
            # binary candidates at stratum 2 take the reference seconds
            bound = rng.randint(0, 3 - d.arity)
            expected = reference(f, binding, bound, 20_000)
            if expected[0] == "cap":
                continue
            # the rule enumerates no more than the search it replaces
            assert compiled(f, binding, bound, 20_000) == expected
            compared += 1
            seen.add(expected)
            nested += sum(v.is_predicate for v in f.bound_vars) > 1
        assert compared >= 390 and nested >= 30
        assert seen == {(True, True), (False, True), (True, False), (False, False)}

    EQ = SymbolicPredicate(2, (), frozenset(enumerate_types(2, ())[:1]))  # x = y
    PQ = SymbolicPredicate(1, ("p", "q"), frozenset(enumerate_types(1, ("p", "q"))[:2]))  # {p, q}
    AT_X1 = "ex A0^1 . ((all x4 . (A0^1 x4 <-> A1^2 x1 x4)) & {})"  # D = the section at x1
    WHOLE = "ex A0^1 . ((all x4 . (A0^1 x4 <-> A1^1 x4)) & {})"  # D = S itself

    @pytest.mark.parametrize(
        "text, s, bound, truth",
        [
            # the section {p} of equality at p needs one support atom
            (AT_X1.format("A0^1 x1"), EQ, 0, False),
            (AT_X1.format("A0^1 x1"), EQ, 1, True),
            # {p, q} needs two
            (WHOLE.format("x1 = x1"), PQ, 1, False),
            (WHOLE.format("x1 = x1"), PQ, 2, True),
            # a predicate quantifier of its own inside rest
            (AT_X1.format("(ex A2^1 . A2^1 = A0^1 & ~(A2^1 x2))"), EQ, 1, True),
            (AT_X1.format("(all A2^1 . A2^1 = A0^1 -> A2^1 x2)"), EQ, 2, False),
        ],
        ids=["bound-0", "bound-1", "support-2-at-1", "support-2-at-2", "nested-ex", "nested-all"],
    )
    def test_symbolic_cases(self, text, s, bound, truth):
        f = parse(text)
        binding = {x1: "p", x2: "q", pred(1, s.arity): s}
        binding = {v: binding[v] for v in f.free_vars}
        outcome = compiled(f, binding, bound, 20_000)
        assert outcome == (truth, True) == reference(f, binding, bound, 20_000)

    def test_a_finite_section_is_a_range(self):
        # the section of A0^2 at x1 is the one value of the range when the
        # unary domain holds it, and there is none when it does not
        s = Structure(
            ("a", "b"),
            {
                1: frozenset(Table.from_bitstring(2, 1, b) for b in ("10", "01")),
                2: frozenset(Table.from_bitstring(2, 2, b) for b in ("0000", "1001")),
            },
        )
        unary, binary = s.by_bits(1), s.by_bits(2)
        empty, diagonal = binary[(False,) * 4], binary[(True, False, False, True)]
        section = FiniteSemantics(s).section(0, (1,), 1)
        assert section([empty, 0]) == section([empty, 1]) == ()
        assert section([diagonal, 0]) == (unary[(True, False)],)
        assert section([diagonal, 1]) == (unary[(False, True)],)

    def test_a_symbolic_section_is_a_range(self):
        # the section {p} of equality at p has the least support [p], and
        # {p, q}, the section of itself at no atoms, [p, q]: each is the one
        # value of the range from the stratum of its support size up, and
        # there is none below it
        at_p = SymbolicPredicate(1, ("p",), frozenset(enumerate_types(1, ("p",))[:1]))
        for bound in range(4):
            semantics = _SymbolicSemantics(bound, 0)
            assert semantics.section(0, (1,), 1)([self.EQ, "p"]) == ((at_p,) if bound >= 1 else ())
            assert semantics.section(0, (), 1)([self.PQ]) == ((self.PQ,) if bound >= 2 else ())

    MATCH = "ex A0^1 . ((all x4 . (A0^1 x4 <-> A1^2 x1 x4)) & A0^1 x2)"

    @pytest.mark.parametrize(
        "text",
        [
            "ex A0^1 . ((all x4 . (A1^2 x1 x4 <-> A0^1 x4)) & A0^1 x2)",
            "ex A0^2 . ((all x4 . all x5 . (A0^2 x5 x4 <-> A1^3 x1 x4 x5)) & A0^2 x2 x2)",
            "ex A0^2 . ((all x4 . all x5 . (A0^2 x4 x5 <-> A1^3 x1 x5 x4)) & A0^2 x2 x2)",
            "ex A0^1 . ((all x4 . (A0^1 x4 <-> A1^2 x4 x4)) & A0^1 x2)",
            "ex A0^1 . ((all x4 . (A0^1 x4 <-> A0^1 x4)) & A0^1 x2)",
            "ex A0^1 . (A0^1 x2 & (all x4 . (A0^1 x4 <-> A1^2 x1 x4)))",
        ],
        ids=["swapped-iff", "permuted-ys", "permuted-s-args", "y-in-xs", "s-is-d", "swapped-and"],
    )
    def test_near_misses_search(self, text):
        # with no predicate to spare, the bridged shape answers and every
        # near miss searches; all agree with the reference given room
        empty3 = SymbolicPredicate(3, (), frozenset())
        binding = {x1: "p", x2: "q", pred(1, 2): self.EQ, pred(1, 3): empty3}
        match = parse(self.MATCH)
        assert compiled(match, binding, 1, 0) == (False, True)
        f = parse(text)
        binding = {v: binding[v] for v in f.free_vars}
        assert compiled(f, binding, 1, 0) == ("cap", 1, 0)
        assert compiled(f, binding, 1, 20_000) == reference(f, binding, 1, 20_000)

    # A0^1 is free on both sides of the existential that binds it: the slot
    # must hold its assigned value again afterwards
    FREE_OUTSIDE = "(ex A0^1 . ((all x4 . (A0^1 x4 <-> A1^2 x1 x4)) & A0^1 x1)) & ~(A0^1 x1)"

    def test_bridged_variable_free_outside(self, std2):
        f = parse(self.FREE_OUTSIDE)
        for i, a, s in product(range(2), std2.domain(1), std2.domain(2)):
            g = Assignment({x1: i, A: a, pred(1, 2): s})
            assert evaluate(std2, g, f) == naive_eval(std2, dict(g.values), f)
        for a in (random_symbolic(random.Random(k), 1, ["p", "q"]) for k in range(20)):
            binding = {x1: "p", A: a, pred(1, 2): self.EQ}
            assert compiled(f, binding, 1, 100) == reference(f, binding, 1, 100)

    def test_finite_agrees_with_naive_eval(self):
        # the m-ary domain keeps some sections of the S tables and leaves
        # out others, so the bridged existential is false at some points
        rng = random.Random(113)
        left_out = 0
        for _ in range(300):
            f, d, s = random_bridged(rng, rng.randint(0, 3), pred_quantifiers=rng.random() < 0.3)
            size = 2 if s.arity > 2 else rng.choice((2, 3))
            s_tables = [
                Table(size, s.arity, tuple(rng.random() < 0.5 for _ in range(size**s.arity)))
                for _ in range(3)
            ]
            ys_points = list(product(range(size), repeat=d.arity))
            sections = {
                tuple(t(x + y) for y in ys_points)
                for t in s_tables
                for x in product(range(size), repeat=s.arity - d.arity)
            }
            kept = set(rng.sample(sorted(sections), rng.randint(1, len(sections))))
            d_domain = {
                t
                for t in all_tables(size, d.arity)
                if t.bits in kept or (t.bits not in sections and rng.random() < 0.3)
            }
            domains = {1: frozenset(rng.sample(all_tables(size, 1), 2))}
            domains[d.arity] = frozenset(d_domain)
            domains[s.arity] = domains.get(s.arity, frozenset()) | frozenset(s_tables)
            structure = Structure("abc"[:size], domains)
            left_out += not sections <= {t.bits for t in structure.domains[d.arity]}
            assignment = random_assignment(rng, structure, f.free_vars)
            expected = naive_eval(structure, dict(assignment.values), f)
            assert evaluate(structure, assignment, f) == expected
        assert left_out >= 150


def random_hoistable(rng, ind_vars, pred_vars):
    """``Q v . (L op R)`` with ``v`` not in ``L`` and op one of and, or,
    implies, or the vacuous ``Q v . L``, at random depths; sometimes joined
    to a formula over the whole vocabulary, so ``v`` may occur free outside
    its own scope.  Returns the formula, the quantifier class and op (None
    for the vacuous shape)."""
    quantifier, op = rng.choice((Forall, Exists)), rng.choice((And, Or, Implies, None))
    v = rng.choice(ind_vars + pred_vars)
    others = [x for x in ind_vars if x != v], [p for p in pred_vars if p != v]
    fixed = random_formula(rng, rng.randint(0, 3), *others)
    body = fixed
    while op is not None:
        rest = random_formula(rng, rng.randint(0, 3), ind_vars, pred_vars)
        if v not in rest.bound_vars:
            body = op(fixed, rest)
            break
    f = quantifier(v, body)
    if rng.random() < 0.3:
        f = rng.choice((And, Or))(f, random_formula(rng, 1, ind_vars, pred_vars))
    return f, quantifier, op


class TestHoisting:
    """A quantifier whose variable is not free in its body, or in the left
    operand of its and, or or implies body, evaluates that part once, at its
    first value: the verdicts and labels equal the references', which
    evaluate it at every value."""

    def test_finite_agrees_with_naive_eval(self):
        rng = random.Random(131)
        ind_vars, pred_vars = default_vocabulary(2)
        seen = set()
        for _ in range(600):
            f, quantifier, op = random_hoistable(rng, ind_vars, pred_vars)
            structure = random_structure(rng, "abc"[: rng.randint(1, 3)], (1, 2))
            assignment = random_assignment(rng, structure, f.free_vars)
            expected = naive_eval(structure, dict(assignment.values), f)
            assert evaluate(structure, assignment, f) == expected
            seen.add((quantifier, op, expected))
        # every shape, true and false
        assert len(seen) == 16

    def test_symbolic_agrees_with_naive_sym_eval(self):
        rng = random.Random(137)
        pred_vars = [pred(0, 1), pred(1, 1), pred(0, 2)]
        seen, compared = set(), 0
        for _ in range(500):
            f, quantifier, op = random_hoistable(rng, [x1, x2, x3], pred_vars)
            binding = {
                v: rng.choice(("p", "q", "u1"))
                if v.is_individual
                else random_symbolic(rng, v.arity, ["p", "q", "u2"])
                for v in sorted(f.free_vars)
            }
            bound = rng.randint(0, 2)
            expected = reference(f, binding, bound, 5000)
            if expected[0] == "cap":
                continue
            # the core draws no more values than the reference
            assert compiled(f, binding, bound, 5000) == expected
            compared += 1
            seen.add((quantifier, op, expected[0]))
            seen.add(expected[1])
        assert compared >= 450 and len(seen) == 18

    @pytest.mark.parametrize("atoms", [1, 4, 7, 9])
    def test_a_true_invariant_disjunct_decides_under_many_bound_atoms(self, atoms):
        # x1 = x1 is read at the first value drawn, before the right operand's
        # support runs: 120 runs of 2,048 words with 7 atoms, past the cap
        f = parse("all A0^2 . (x1 = x1 | A0^2 x1 x1)")
        binding = {ind(i): f"a{i}" for i in range(1, atoms + 1)}
        run = _SymbolicRun(f, tuple(binding), 3, DEFAULT_PRED_CAP)
        assert run(tuple(binding.values()))[:2] == (True, True)
        assert run.enumerated == 1

    def test_symbolic_agrees_under_many_bound_atoms(self):
        # each quantifier and connective, 1 to 9 atoms bound at strata 0 to
        # 3, the quantified predicate flat at arities 1 and 2 and searched
        # at 3; the package's cap lets every support run of arity 2 finish
        rng = random.Random(153)
        shapes = [(q, op) for q in (Forall, Exists) for op in (And, Or, Implies)]
        others = [pred(1, 1), pred(1, 2)]
        seen, compared, decided = set(), 0, 0
        for k in range(216):
            quantifier, op = shapes[k % 6]
            atoms, bound = 1 + k // 6 % 9, k // 54
            v = rng.choice((pred(0, 1), pred(0, 2), pred(0, 3)))
            ind_vars = [x1, x2, x3][:atoms]
            fixed = random_formula(
                rng, rng.randint(0, 2), ind_vars, others, allow_pred_quantifiers=False
            )
            while True:
                rest = random_formula(
                    rng, rng.randint(1, 2), ind_vars, [v, *others], allow_pred_quantifiers=False
                )
                if v in rest.free_vars:
                    break
            f = quantifier(v, op(fixed, rest))
            names = [f"a{i}" for i in range(1, atoms + 1)]
            binding = {ind(i): name for i, name in enumerate(names, 1)}
            for w in sorted(f.free_vars - set(binding)):
                binding[w] = random_symbolic(rng, w.arity, names)
            expected = reference(f, binding, bound, 5000)
            if expected[0] != "cap":
                assert compiled(f, binding, bound, 10**6) == expected, str(f)
                compared += 1
                seen.add((quantifier, op, expected[0]))
            # a true disjunct, a false conjunct or a false antecedent decides
            # the body, and so the quantifier, at the first value drawn
            if reference(fixed, binding, bound, 5000)[0] == (op is Or):
                run = _SymbolicRun(f, tuple(binding), bound, 1)
                assert run(tuple(binding.values()))[:2] == (op is not And, True), str(f)
                assert run.enumerated == 1
                decided += 1
        assert compared >= 180 and len(seen) == 12 and decided >= 100

    def test_an_invariant_left_operand_keeps_the_stratified_label(self):
        # ~(x1 = x1) decides the implication at the first predicate drawn,
        # which marks the run stratified as the search it replaces would, at
        # a charge of 1 whether the right operand would search or take masks
        for f in [
            parse("ex A0^3 . (~(x1 = x1) -> A0^3 x1 x1 x1)"),
            parse("ex A0^2 . (~(x1 = x1) -> A0^2 x1 x1)"),
        ]:
            expected = reference(f, {x1: "p"}, 2, 5000)
            assert compiled(f, {x1: "p"}, 2, 5000) == (True, True) == expected
            run = _SymbolicRun(f, (x1,), 2, 5000)
            assert run(("p",)).stratified and run.enumerated == 1
        # a vacuous predicate quantifier likewise
        g = parse("all A0^2 . x1 = x1")
        assert compiled(g, {x1: "p"}, 2, 5000) == (True, True) == reference(g, {x1: "p"}, 2, 5000)

    @pytest.mark.parametrize(
        "text",
        [
            "{} x1 . (x2 = x2)",
            "{} x1 . (x2 = x2 & x1 = x1)",
            "{} x1 . (x1 = x1)",
            "{} A0^1 . ((all x3 . (A0^1 x3 <-> A1^2 x2 x3)) & x2 = x2)",
        ],
        ids=["x2 = x2", "x2 = x2 & x1 = x1", "x1 = x1", "bridged"],
    )
    def test_an_empty_range_gives_the_search_value(self, std2, text):
        # a bridged range, the section of S when the domain holds it, is
        # empty when it does not; pools are never empty, but every path
        # through a quantifier answers an empty range alike: true for all,
        # false for ex.  The ex of the last text is bridged, and its all is
        # searched with the mask path declined
        semantics = FiniteSemantics(std2)
        semantics.pool = lambda var: lambda env: ()
        semantics.section = lambda s, xs, m: lambda env: ()
        semantics.flat = lambda g, k, compile: None
        for quantifier, truth in (("all", True), ("ex", False)):
            run, env = compile_formula(parse(text.format(quantifier)), semantics, [x2])
            env[0] = 0
            assert run(env) is truth

    # values each quantifier of the schema draws on std3.  The check visits
    # one (A0^1, A0^2) pair per orbit of the universe's permutations, and
    # the plain product of all 4,096 pairs drew x1 8,704, x2 16,576,
    # x3 4,032, x4 12,096 (ac) and x1 7,360, x2 14,399, x3 1,034, x4 2,806
    # (ac-star) times.  The witness A1^2 draws one value per check, the one
    # its invariant domain clause is read at, and its other operand is
    # decided as a mask over its 512 tables (with the clause inside the
    # mask it drew none).  Its search drew A1^2 60,160, x1 72,448,
    # x2 200,320, x3 24,192, x4 72,576 (ac) and A1^2 9,644, x1 13,668,
    # x2 31,863, x3 2,204, x4 6,316 (ac-star) times, and before that, the
    # searches that re-evaluated the invariant domain clause drew x1
    # 240,640, x2 475,968 (ac) and x1 30,312, x2 108,732, x3 18,848,
    # x4 56,248 (ac-star) times
    @pytest.mark.parametrize(
        "family, drawn",
        [
            ("ac", {"A1^2": 752, "x1": 1_376, "x2": 2_969, "x3": 813, "x4": 2_439}),
            ("ac-star", {"A1^2": 752, "x1": 1_112, "x2": 2_625, "x3": 247, "x4": 693}),
        ],
    )
    def test_work_on_std3(self, std3, monkeypatch, family, drawn):
        counts = Counter()
        pool = FiniteSemantics.pool

        def counting(self, var):
            values = pool(self, var)

            def draw(env):
                for value in values(env):
                    counts[str(var)] += 1
                    yield value

            return draw

        monkeypatch.setattr(FiniteSemantics, "pool", counting)
        assert check_schema(std3, SchemaId(family)).holds
        assert counts == drawn


def distinct_reference(formula, declared, bound, cap):
    """The reference's truth, label and count with every predicate counted
    once, under its least support, as the package counts them."""
    ctx = SymContext(bound, cap, distinct=True)
    try:
        truth = naive_sym_eval(formula, dict(declared), ctx)
    except CapExceeded as exc:
        return "cap", exc.needed, exc.cap
    return truth, ctx.stratified, ctx.enumerated


def masked_run(formula, declared, bound, cap):
    """The package's truth, label and count, the bindings stored canonical."""
    binding = {v: to_symbolic(x) if isinstance(x, RefPredicate) else x for v, x in declared.items()}
    run = _SymbolicRun(formula, tuple(binding), bound, cap)
    try:
        verdict = run(tuple(binding.values()))
    except CapExceeded as exc:
        return "cap", exc.needed, exc.cap
    return verdict.truth, verdict.stratified, run.enumerated


@pytest.fixture
def mask_paths(monkeypatch):
    """Records, per flat quantifier decided over masks, its stratum, arity
    and whether a support run decided it (or "cap"), and the ones searched."""
    seen, searched = set(), []
    flat = _SymbolicSemantics.flat

    def spying(self, g, k, compile):
        decide = flat(self, g, k, compile)
        if decide is None:
            searched.append(g)
            return None

        def spy(env):
            try:
                truth = decide(env)
            except CapExceeded:
                seen.add((self.support_bound, g.var.arity, "cap"))
                raise
            seen.add((self.support_bound, g.var.arity, truth != isinstance(g, Forall)))
            return truth

        return spy

    monkeypatch.setattr(_SymbolicSemantics, "flat", spying)
    return seen, searched


class TestMaskPath:
    """A flat predicate quantifier over the atom universe is decided as int
    masks over the largest supports: truth and the stratified label are the
    search's, which the reference makes, and each support run charges the
    64-bit words of its mask int against the cap before it runs."""

    def test_agrees_with_the_distinct_reference(self, mask_paths):
        seen, _ = mask_paths
        rng = random.Random(131)
        others = [pred(1, 1), pred(1, 2)]
        compared = padded = 0
        for k in range(400):
            v = (pred(0, 1), pred(0, 2))[k % 2]
            bound = (0, 1, 2, 3)[k // 2 % 4]
            while True:
                phi = random_formula(
                    rng, rng.randint(1, 3), [x1, x2, x3], [v, v, *others],
                    allow_pred_quantifiers=False, allow_pred_equality=rng.random() < 0.2,
                )
                if v in phi.free_vars:
                    break
            f = rng.choice((Forall, Exists))(v, phi)
            shape = rng.random()
            if shape < 0.25:
                psi = random_formula(rng, 1, [x1, x2], others, allow_pred_quantifiers=False)
                f = rng.choice((And, Or, Iff))(f, psi)
            elif shape < 0.4 and x1 in f.free_vars and x1 not in f.bound_vars:
                f = rng.choice((Forall, Exists))(x1, f)
            declared = {}
            for w in sorted(f.free_vars):
                if w.is_individual:
                    declared[w] = rng.choice(("p", "q", "u1"))
                    continue
                sigma = ref_predicate(random_symbolic(rng, w.arity, ["p", "q"]))
                extra = rng.sample(("p", "r", "u1"), rng.randint(0, 2))
                declared[w] = pad(sigma, extra)
                padded += len(declared[w].support) > len(ref_canonicalize(declared[w]).support)
            # the package finishes every case under the default cap; the
            # reference is compared where it finishes, as an undecided binary
            # quantifier at stratum 3 lists 131,072 predicates or more
            got = masked_run(f, declared, bound, DEFAULT_PRED_CAP)
            assert got[0] != "cap", str(f)
            cap = 400 if bound == 3 and v.arity == 2 else 50_000
            expected = distinct_reference(f, declared, bound, cap)
            if expected[0] != "cap":
                assert got[:2] == expected[:2], str(f)
                compared += 1
        assert compared >= 380 and padded >= 100
        # every stratum and arity, each decided by a support run and not
        cases = {(b, a, d) for b in range(4) for a in (1, 2) for d in (True, False)}
        assert cases == seen

    def test_an_invariant_left_operand_is_read_once(self, mask_paths):
        # the true left disjunct decides the quantifier at the first value
        # drawn, for a charge of 1: the right operand takes masks, but its
        # support runs, four of 2 ** 17 / 64 words each here, never start
        f = parse("all A0^2 . x1 = x1 | A0^2 x1 x1")
        assert masked_run(f, {x1: "p"}, 3, DEFAULT_PRED_CAP) == (True, True, 1)
        assert masked_run(f, {x1: "p"}, 3, 0) == ("cap", 1, 0)
        assert mask_paths == (set(), [])
        # a false left disjunct hands the right operand to its support runs
        g = parse("all A0^2 . ~(x1 = x1) | A0^2 x1 x1")
        assert masked_run(g, {x1: "p"}, 3, DEFAULT_PRED_CAP) == (False, True, 1 + 2048)
        assert mask_paths == ({(3, 2, True)}, [])

    def test_a_predicate_quantifier_in_the_invariant_operand_leaves_the_mask_path(
        self, mask_paths
    ):
        # the decline reads the right operand only: the first value drawn,
        # one one-word run that falsifies the left disjunct, then the four
        # supports of the pool p and three fresh atoms at 2,048 words each
        f = parse("all A0^2 . ((all A1^1 . A1^1 x1) | (A0^2 x1 x1 | ~A0^2 x1 x1))")
        assert masked_run(f, {x1: "p"}, 3, DEFAULT_PRED_CAP) == (True, True, 1 + 1 + 4 * 2048)
        assert mask_paths == ({(3, 1, True), (3, 2, False)}, [])

    @pytest.mark.parametrize(
        "text, binding, bound, expected",
        [
            # V equated with another variable
            ("ex A0^1 . (A0^1 x1 & ~(A0^1 = A1^1))", {x1: "p"}, 2, (True, True, 2)),
            # a predicate quantifier in the body, which takes masks itself
            ("all A0^1 . (A0^1 x1 | ex A1^1 . ~A1^1 x1)", {x1: "p"}, 2, (True, True, 21)),
            # 37 equality types at arity 3 over two atoms
            ("ex A0^3 . A0^3 x1 x1 x1", {x1: "p"}, 2, (True, True, 2)),
            ("all A0^3 . A0^3 x1 x1 x1 | ~A0^3 x1 x1 x1", {x1: "p"}, 2, ("cap", 401, 400)),
        ],
    )
    def test_other_quantifiers_search(self, mask_paths, text, binding, bound, expected):
        f = parse(text)
        declared = dict(binding)
        if pred(1, 1) in f.free_vars:
            declared[pred(1, 1)] = ref_predicate(SymbolicPredicate(1, ("p",), 1))
        got = masked_run(f, declared, bound, 400)
        assert got == distinct_reference(f, declared, bound, 400)
        assert got == expected
        assert f in mask_paths[1]

    def test_a_variable_free_and_bound_gets_its_value_back(self, mask_paths):
        # all A1^1 runs its body over masks with A1^1's slot holding a
        # support; the right side then reads the free A1^1 again
        f = parse("(all A1^1 . (A1^1 x2 -> A0^2 = A0^2)) <-> (ex x1 . ex A0^2 . A1^1 x2)")
        declared = {
            x2: "p",
            pred(0, 2): ref_predicate(SymbolicPredicate(2, ("q",), 3)),
            pred(1, 1): ref_predicate(SymbolicPredicate(1, ("p",), 1)),
        }
        for bound in (0, 1, 2):
            expected = distinct_reference(f, declared, bound, 5000)
            assert expected[0] != "cap"
            assert masked_run(f, declared, bound, 5000)[:2] == expected[:2]
        assert {s for s, _, _ in mask_paths[0]} == {0, 1, 2}

    def test_a_cap_hit_needs_one_more_than_the_cap(self, mask_paths):
        # at stratum 3 the pool is three fresh atoms: one run over the 2 ** 17
        # masks, every binary predicate they support, charged as 2 ** 11
        # words where the search would list 2 ** 17 candidates
        f = parse("all A0^2 . ex x1 . ex x2 . (A0^2 x1 x2 | ~(A0^2 x1 x2))")
        assert masked_run(f, {}, 3, DEFAULT_PRED_CAP) == (True, True, 2**11)
        assert sum(1 for _ in _candidate_predicates(2, fresh_atoms(3), 3)) == 2**17
        assert masked_run(f, {}, 3, 2**11) == (True, True, 2**11)
        assert masked_run(f, {}, 3, 2**11 - 1) == ("cap", 2**11, 2**11 - 1)
        assert masked_run(f, {}, 3, 10) == ("cap", 11, 10)
        assert mask_paths[0] == {(3, 2, False), (3, 2, "cap")} and not mask_paths[1]

    @pytest.mark.parametrize(
        "text, bound, truth, runs, words",
        [
            # arity 1 over two atoms: 3 types, 8 masks, one word per run
            ("ex A0^1 . (A0^1 x1 & ~(A0^1 x1))", 2, False, 3, 1),
            # arity 1 over six atoms: 7 types, 128 masks, two words
            ("ex A0^1 . (A0^1 x1 & ~(A0^1 x1))", 6, False, 7, 2),
            # arity 2 over two atoms: 10 types, 1,024 masks, 16 words
            ("all A0^2 . (A0^2 x1 x1 | ~(A0^2 x1 x1))", 2, True, 3, 16),
            # a run that decides ends the quantifier: the first support holds p
            ("ex A0^2 . A0^2 x1 x1", 2, True, 1, 16),
        ],
    )
    def test_each_support_run_charges_its_words(self, mask_paths, text, bound, truth, runs, words):
        # the pool is p and ``bound`` fresh atoms, so ``bound + 1`` supports
        f = parse(text)
        assert masked_run(f, {x1: "p"}, bound, DEFAULT_PRED_CAP) == (truth, True, runs * words)
        assert f not in mask_paths[1]

    def test_the_cap_stops_the_runs_before_the_work(self, monkeypatch):
        # eight bound atoms and 16 fresh ones give C(24, 16) = 735,471
        # supports, each a run of 2 ** 17 / 64 words: each run is charged
        # before it starts, so the one that would pass the cap never does
        runs = []
        flat = _SymbolicSemantics.flat

        def counting(self, g, k, compile):
            def counted(full):
                body = compile(full)
                return lambda env: runs.append(g) or body(env)

            return flat(self, g, k, counted)

        monkeypatch.setattr(_SymbolicSemantics, "flat", counting)
        f = parse("ex A0^1 . (A0^1 x1 & ~(A0^1 x1))")
        binding = {ind(i): f"a{i}" for i in range(1, 9)}
        with pytest.raises(CapExceeded) as exc:
            symbolic_evaluate(f, binding, 16)
        assert (exc.value.needed, exc.value.cap) == (DEFAULT_PRED_CAP + 1, DEFAULT_PRED_CAP)
        words = 2**17 >> 6
        assert len(runs) == DEFAULT_PRED_CAP // words

    def test_a_wide_search_lists_its_masks_lazily(self, mask_paths, monkeypatch):
        # arity 3 over two atoms has 37 types: a column of its 2 ** 37 masks
        # would not fit in memory, so the search must list them one by one
        columns = fraenkel._columns

        def bounded(width):
            assert width <= fraenkel._MASK_TYPES, width
            return columns(width)

        monkeypatch.setattr(fraenkel, "_columns", bounded)
        f = parse("all A0^3 . ex x1 . (A0^3 x1 x1 x1 | ~A0^3 x1 x1 x1)")
        with pytest.raises(CapExceeded) as exc:
            symbolic_evaluate(f, {}, 2)
        assert (exc.value.needed, exc.value.cap) == (DEFAULT_PRED_CAP + 1, DEFAULT_PRED_CAP)
        assert f in mask_paths[1]
        # no witness: a pair of distinct atoms other than x1 needs a support
        # of three; the 65,504 candidates over supports of sizes 0 and 1
        # come first, then the search enters size 2
        payload = parse(
            "ex x2 . ex x3 . (~(x2 = x3) & (~(x2 = x1) & (~(x3 = x1)"
            " & all x4 . all x5 . (A0^2 x4 x5 <-> (x4 = x2 & x5 = x3)))))"
        )
        report = check_choice_instance_sigma0(1, 2, payload, 2, pred_cap=66_000)
        assert report == ChoiceInstanceReport("inconclusive", None, 2, 66_000, True)


@pytest.fixture
def atom_limit(monkeypatch):
    """Fails a request for more fresh atoms than the list's one entry, before
    any atom is drawn, so an unbounded request fails fast."""
    limit = [0]
    draw = fraenkel.fresh_atoms

    def bounded(count, avoid=()):
        assert count <= limit[0], f"{count} fresh atoms requested, at most {limit[0]} needed"
        return draw(count, avoid)

    monkeypatch.setattr(fraenkel, "fresh_atoms", bounded)
    return limit


class TestFreshAtomCut:
    """A searched predicate quantifier and the choice search draw at most
    ``pred_cap + 1`` fresh atoms at any stratum.  Fresh atoms come in a fixed
    order, so the cut pool is a prefix of the full one, and the support-1
    candidates over it pass the cap, so the search decides or stops before
    it would reach an atom past the cut."""

    # the mask path declines each of these at every stratum: a predicate
    # quantifier in the body, V = W, or arity 3
    DECLINED = [
        "all A0^1 . ex A1^1 . A0^1 = A1^1",
        "all A0^1 . (A0^1 x2 | (ex A1^1 . (A1^1 = A0^1 & ~(A1^1 x1))))",
        "ex A0^1 . (A0^1 x1 & (ex A1^1 . (A1^1 = A0^1 & ~(A1^1 x2))))",
        "ex A0^1 . ex x3 . (A0^1 x3 & ~(x3 = x1) & ~(A0^1 x1) & (ex A1^1 . A1^1 = A0^1))",
        "ex A0^1 . ex A1^1 . (A0^1 = A1^1 & ~(A0^1 x1 <-> A1^1 x1))",
        "ex A0^3 . A0^3 x1 x2 x1",
        "all A0^3 . A0^3 x1 x1 x1",
        "all A0^3 . (A0^3 x1 x1 x2 | ~(A0^3 x1 x1 x2))",
    ]

    def test_agrees_with_the_reference_drawing_every_atom(self, atom_limit, mask_paths):
        binding = {x1: "p", x2: "q"}
        outcomes = set()
        for cap in (1, 3, 15, 60):
            atom_limit[0] = cap + 1
            for text in self.DECLINED:
                f = parse(text)
                for bound in (cap + 2, cap + 3):
                    got = masked_run(f, binding, bound, cap)
                    assert got == distinct_reference(f, binding, bound, cap), (text, cap, bound)
                    outcomes.add(got[0])
        assert outcomes == {True, False, "cap"}
        assert not mask_paths[0]  # every quantifier searched

    def test_a_huge_stratum_ends_within_the_cap(self, atom_limit):
        # each of these once drew a billion fresh atoms and ran out of memory
        atom_limit[0] = 1001
        tautology = parse("all A0^1 . ex x1 . (A0^1 x1 | ~(A0^1 x1))")
        with pytest.raises(CapExceeded) as exc:
            symbolic_evaluate(tautology, {}, 10**9, pred_cap=1000)
        assert (exc.value.needed, exc.value.cap) == (1001, 1000)
        false_at_empty = parse("all A0^1 . ex x1 . A0^1 x1")
        assert symbolic_evaluate(false_at_empty, {}, 10**9, pred_cap=1000) == (False, True, 10**9)
        atom_limit[0] = DEFAULT_PRED_CAP + 1
        report = check_choice_instance_sigma0(1, 1, parse("A0^1 x1"), 10**9)
        assert (report.status, report.candidates_tried) == ("witnessed", 2)

    def test_choice_search_over_the_cut_pool(self, atom_limit):
        # the antecedent and the verification search A1^1, which the mask
        # path declines; the empty binary predicate is the witness
        payload = parse("ex A1^1 . (A1^1 = A0^1 & ~(A1^1 x1))")
        for cap in (3, 15, 60):
            atom_limit[0] = cap + 1
            for bound in (cap + 2, cap + 3):
                report = check_choice_instance_sigma0(1, 1, payload, bound, pred_cap=cap)
                assert report == ChoiceInstanceReport(
                    "witnessed", SymbolicPredicate(2, (), 0), bound, 1, False
                )
