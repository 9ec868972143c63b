import copy
import json
import pickle
import random
from itertools import product
from pathlib import Path

import pytest

from henkin.fraenkel import (
    CHOICE_SUITE,
    DEFAULT_PRED_CAP,
    EqType,
    FraenkelError,
    SymbolicPredicate,
    _candidate_predicates,
    apply_permutation_symbolic,
    check_atom_name,
    check_choice_instance_sigma0,
    classify,
    cofinite_set,
    denotes,
    empty_symbolic,
    enumerate_types,
    equality_symbolic,
    evaluation_pool,
    finite_set,
    fresh_atoms,
    full_symbolic,
    inequality_symbolic,
    is_linear_order,
    symbolic_evaluate,
    symbolic_from_dict,
    symbolic_to_dict,
    truncate_predicate,
    type_from_string,
    type_string,
    wellorder_counterexample_sweep,
)
from henkin.corpus import payload_corpus
from henkin.parser import parse, parse_var
from henkin.structures import Structure, all_tables
from henkin.syntax import format_formula, free_vars, ind, pred

from oracle import (
    RefPredicate,
    naive_eval,
    ref_candidates,
    ref_canonicalize,
    ref_denotes,
)

A1 = parse_var("A0^1")
T2 = parse_var("A0^2")
x1, x2 = ind(1), ind(2)


class TestClassify:
    def test_diagonal(self):
        assert classify(("a", "a"), ()) == EqType((0, 0))

    def test_distinct_fresh(self):
        assert classify(("a", "b"), ()) == EqType((0, 1))

    def test_support_atom_position(self):
        assert classify(("p", "a"), ("p",)) == EqType(("p", 0))

    def test_orbit_characterization(self):
        # same type iff a support-fixing permutation maps one tuple onto the
        # other: checked exhaustively over tuples from a four-atom pool
        support = ("p",)
        pool = ("p", "a", "b", "c")
        movable = [a for a in pool if a not in support]

        def related(t1, t2):
            for image in __import__("itertools").permutations(movable):
                mapping = dict(zip(movable, image))
                mapping["p"] = "p"
                if tuple(mapping[a] for a in t1) == t2:
                    return True
            return False

        for t1 in product(pool, repeat=2):
            for t2 in product(pool, repeat=2):
                same_type = classify(t1, support) == classify(t2, support)
                assert same_type == related(t1, t2)

    def test_canonical_numbering_enforced(self):
        with pytest.raises(FraenkelError):
            EqType((1, 0))


class TestTypeStrings:
    def test_round_trip(self):
        for t in enumerate_types(2, ("p",)):
            assert type_from_string(type_string(t)) == t

    def test_examples(self):
        assert type_string(EqType((0, 0))) == "f1,f1"
        assert type_string(EqType(("p", 0))) == "p,f1"
        assert type_from_string("f1,f2") == EqType((0, 1))

    def test_reserved_names_rejected(self):
        with pytest.raises(FraenkelError):
            check_atom_name("f12")
        with pytest.raises(FraenkelError):
            check_atom_name("Q")
        with pytest.raises(FraenkelError):
            SymbolicPredicate(1, ("f1",), frozenset())


class TestEnumerateTypes:
    def test_counts(self):
        assert len(enumerate_types(2, ())) == 2
        assert len(enumerate_types(2, ("p",))) == 5
        assert len(enumerate_types(2, ("p", "q"))) == 10
        assert len(enumerate_types(2, ("p", "q", "r"))) == 17
        assert len(enumerate_types(1, ("p",))) == 2

    def test_no_duplicates_and_canonical(self):
        for support in ((), ("p",), ("p", "q")):
            types = enumerate_types(3, support)
            assert len(set(types)) == len(types)


class TestDenotes:
    def test_cofinite_complement(self):
        sigma = cofinite_set(("p",))
        assert denotes(sigma, ("p",)) is False
        assert denotes(sigma, ("q",)) is True
        # cross-check against a finite truncation
        table = truncate_predicate(sigma, ("p", "q", "r"))
        assert table.bits == (False, True, True)

    def test_equality_diagonal(self):
        assert denotes(equality_symbolic(), ("a", "a")) is True
        assert denotes(equality_symbolic(), ("a", "b")) is False

    def test_empty_always_false(self):
        sigma = empty_symbolic(2)
        assert not denotes(sigma, ("a", "b")) and not denotes(sigma, ("a", "a"))


class TestMinimalSupport:
    def test_constant_with_declared_support(self):
        sigma = SymbolicPredicate(1, ("p",), frozenset({EqType(("p",)), EqType((0,))}))
        assert sigma.support == ()

    def test_indicator_is_essential(self):
        sigma = finite_set(("p",))
        assert sigma.support == ("p",)
        # removing p changes the denotation, witnessed by a swap
        swapped = apply_permutation_symbolic({"p": "q", "q": "p"}, sigma)
        assert denotes(sigma, ("p",)) != denotes(swapped, ("p",))

    def test_equality_with_spurious_support(self):
        sigma = SymbolicPredicate(
            2, ("p",), frozenset({EqType(("p", "p")), EqType((0, 0))})
        )
        assert sigma.support == ()
        assert sigma == equality_symbolic()

    def test_mask_form_matches_type_form(self):
        types = enumerate_types(2, ("p",))
        for mask in range(2 ** len(types)):
            sigma = SymbolicPredicate(2, ("p",), mask)
            accepted = frozenset(t for k, t in enumerate(types) if mask >> k & 1)
            assert sigma == SymbolicPredicate(2, ("p",), accepted)
            # copies and pickles rebuild through the mask form
            assert copy.deepcopy(sigma) == sigma == pickle.loads(pickle.dumps(sigma))
        with pytest.raises(FraenkelError):
            SymbolicPredicate(2, ("p",), 2 ** len(types))

    def test_canonicalize_preserves_denotation(self):
        # built canonical: the denotation of the declared predicate, over the
        # reference's least support, with equal predicates equal
        rng = random.Random(3)
        atoms = ("p", "q", "r", "a", "b")
        built = {}
        for _ in range(300):
            arity = rng.choice((1, 2, 2, 3))
            support = tuple(sorted(rng.sample(("p", "q", "r"), rng.randint(0, 3 - arity // 2))))
            types = enumerate_types(arity, support)
            accepted = frozenset(t for t in types if rng.random() < 0.5)
            declared = RefPredicate(arity, support, accepted)
            sigma = SymbolicPredicate(arity, support, declared.accepted)
            least = ref_canonicalize(declared)
            assert (sigma.support, sigma.accepted) == (least.support, least.accepted)
            for tup in product(atoms, repeat=arity):
                assert denotes(sigma, tup) == ref_denotes(declared, tup)
            assert built.setdefault(least, sigma) == sigma
        # equal exactly when the reference's least forms are equal
        assert len(set(built.values())) == len(built) < 300


class TestPermutationAction:
    def test_identity(self):
        sigma = finite_set(("p",))
        assert apply_permutation_symbolic({}, sigma) == sigma

    def test_swap_moves_indicator(self):
        sigma = finite_set(("p",))
        moved = apply_permutation_symbolic({"p": "q", "q": "p"}, sigma)
        assert moved == finite_set(("q",))
        # pointwise check over three atoms
        for atom in ("p", "q", "r"):
            preimage = {"p": "q", "q": "p"}.get(atom, atom)
            assert denotes(moved, (atom,)) == denotes(sigma, (preimage,))

    def test_support_fixing_permutation_is_identity_on_predicate(self):
        sigma = SymbolicPredicate(2, ("p",), frozenset({EqType(("p", 0))}))
        assert apply_permutation_symbolic({"a": "b", "b": "a"}, sigma) == sigma

    def test_non_bijective_rejected(self):
        with pytest.raises(FraenkelError):
            apply_permutation_symbolic({"p": "q"}, finite_set(("p",)))


class TestArityOneCharacterization:
    def test_every_unary_predicate_is_finite_or_cofinite(self):
        support = ("p", "q")
        types = enumerate_types(1, support)
        for mask in range(2 ** len(types)):
            accepted = frozenset(t for k, t in enumerate(types) if mask >> k & 1)
            sigma = SymbolicPredicate(1, support, accepted)
            named = {a for a in support if denotes(sigma, (a,))}
            fresh_in = denotes(sigma, ("zfresh",))
            # reachable by the two constructors
            if fresh_in:
                expected = cofinite_set(set(support) - named)
            else:
                expected = finite_set(named) if named else empty_symbolic(1)
            assert sigma == expected


class TestSymbolicEvaluate:
    def test_exists_with_bound_predicate(self):
        verdict = symbolic_evaluate(parse("ex x1 . A0^1 x1"), {A1: finite_set(("p",))}, 1)
        assert verdict.truth and not verdict.stratified

    def test_equality_predicate_symmetry(self):
        f = parse("all x1 . all x2 . (A0^2 x1 x2 -> A0^2 x2 x1)")
        verdict = symbolic_evaluate(f, {T2: equality_symbolic()}, 0)
        assert verdict.truth

    def test_another_atom_always_exists(self):
        verdict = symbolic_evaluate(parse("all x1 . ex x2 . ~(x1 = x2)"), {}, 0)
        assert verdict.truth

    def test_missing_binding_rejected(self):
        with pytest.raises(FraenkelError):
            symbolic_evaluate(parse("A0^1 x1"), {A1: finite_set(("p",))}, 0)

    def test_predicate_quantifier_marks_stratified(self):
        verdict = symbolic_evaluate(parse("ex A0^1 . A0^1 x1"), {x1: "p"}, 1)
        assert verdict.truth and verdict.stratified

    def test_extensional_predicate_equality(self):
        padded = SymbolicPredicate(2, ("p",), frozenset({EqType(("p", "p")), EqType((0, 0))}))
        verdict = symbolic_evaluate(
            parse("A0^2 = A1^2"), {T2: equality_symbolic(), parse_var("A1^2"): padded}, 0
        )
        assert verdict.truth

    def test_cap(self):
        from henkin.structures import CapExceeded

        # a tautology under the quantifier forces the full enumeration
        tautology = parse("all A0^2 . A0^2 x1 x1 | ~(A0^2 x1 x1)")
        with pytest.raises(CapExceeded):
            symbolic_evaluate(tautology, {x1: "p"}, 2, pred_cap=50)


class TestEquivariance:
    def test_joint_renaming_preserves_truth(self):
        rng = random.Random(31)
        from henkin.corpus import random_formula

        ind_vars = [ind(i) for i in (1, 2)]
        pred_vars = [pred(0, 1), pred(0, 2)]
        atoms = ("p", "q", "r")
        images = ("q", "r", "p")
        mapping = dict(zip(atoms, images))
        for _ in range(60):
            f = random_formula(
                rng, 3, ind_vars, pred_vars, allow_pred_quantifiers=False
            )
            binding = {}
            for v in free_vars(f):
                if v.is_individual:
                    binding[v] = rng.choice(atoms)
                else:
                    support = tuple(sorted(rng.sample(atoms, rng.randint(0, 2))))
                    types = enumerate_types(v.arity, support)
                    binding[v] = SymbolicPredicate(
                        v.arity,
                        support,
                        frozenset(t for t in types if rng.random() < 0.5),
                    )
            moved = {
                v: (mapping[val] if isinstance(val, str) else apply_permutation_symbolic(mapping, val))
                for v, val in binding.items()
            }
            assert (
                symbolic_evaluate(f, binding, 1).truth
                == symbolic_evaluate(f, moved, 1).truth
            )


class TestSupportCorrectness:
    def test_support_fixing_permutations_fix_predicate(self):
        rng = random.Random(37)
        for _ in range(40):
            support = tuple(sorted(rng.sample(("p", "q"), rng.randint(0, 2))))
            types = enumerate_types(2, support)
            sigma = SymbolicPredicate(
                2, support, frozenset(t for t in types if rng.random() < 0.5)
            )
            mapping = {"a": "b", "b": "c", "c": "a"}  # fixes p, q
            assert apply_permutation_symbolic(mapping, sigma) == sigma


class TestLinearOrder:
    def test_equality_fails_totality(self):
        verdict = is_linear_order(equality_symbolic())
        assert not verdict.is_order and verdict.failed_axiom == "totality"
        a, b = verdict.witness
        assert a != b

    def test_full_fails_antisymmetry(self):
        verdict = is_linear_order(full_symbolic(2))
        assert not verdict.is_order and verdict.failed_axiom == "antisymmetry"

    def test_pointed_relation_fails_totality_on_fresh_pair(self):
        # T x y iff x = p or x = y
        sigma = SymbolicPredicate(
            2,
            ("p",),
            frozenset({EqType(("p", "p")), EqType(("p", 0)), EqType((0, 0))}),
        )
        verdict = is_linear_order(sigma)
        assert not verdict.is_order and verdict.failed_axiom == "totality"
        assert all(a not in sigma.support for a in verdict.witness)

    def test_inequality_fails_transitivity(self):
        verdict = is_linear_order(inequality_symbolic())
        assert not verdict.is_order and verdict.failed_axiom == "transitivity"

    def test_witnesses_are_concrete_counterexamples(self):
        rng = random.Random(41)
        for _ in range(80):
            support = tuple(sorted(rng.sample(("p", "q"), rng.randint(0, 2))))
            types = enumerate_types(2, support)
            sigma = SymbolicPredicate(
                2, support, frozenset(t for t in types if rng.random() < 0.5)
            )
            verdict = is_linear_order(sigma)
            assert not verdict.is_order
            w = verdict.witness
            if verdict.failed_axiom == "transitivity":
                a, b, c = w
                assert denotes(sigma, (a, b)) and denotes(sigma, (b, c))
                assert not denotes(sigma, (a, c))
            elif verdict.failed_axiom == "antisymmetry":
                a, b = w
                assert a != b and denotes(sigma, (a, b)) and denotes(sigma, (b, a))
            elif verdict.failed_axiom == "totality":
                a, b = w
                assert a != b
                assert not denotes(sigma, (a, b)) and not denotes(sigma, (b, a))
            else:
                (a,) = w
                assert denotes(sigma, (a, a))


class TestSweep:
    def test_support_zero_bucket(self):
        report = wellorder_counterexample_sweep(0)
        assert report.total_predicates == 4
        assert report.linear_orders_found == 0
        assert report.all_swap_witnessed

    def test_support_one(self):
        report = wellorder_counterexample_sweep(1)
        assert report.total_predicates == 4 + 32
        assert report.linear_orders_found == 0

    def test_bucket_counts_match_type_counts(self):
        report = wellorder_counterexample_sweep(2)
        assert [b.predicate_count for b in report.buckets] == [4, 32, 1024]
        for bucket in report.buckets:
            assert sum(bucket.failure_counts.values()) == bucket.predicate_count
            assert "none" not in bucket.failure_counts

    def test_cap(self):
        from henkin.structures import CapExceeded

        with pytest.raises(CapExceeded):
            wellorder_counterexample_sweep(3, cap=1000)

    def test_default_cap_is_the_predicate_cap(self):
        from henkin.structures import CapExceeded

        with pytest.raises(CapExceeded) as err:
            wellorder_counterexample_sweep(4)
        assert (err.value.needed, err.value.cap) == (67_240_996, DEFAULT_PRED_CAP)


class TestChoiceInstances:
    def test_singleton_yields_equality_witness(self):
        report = check_choice_instance_sigma0(
            1, 1, parse("all x2 . (A0^1 x2 <-> x2 = x1)"), 2
        )
        assert report.status == "witnessed"
        assert report.witness == equality_symbolic()

    def test_membership_payload(self):
        report = check_choice_instance_sigma0(1, 1, parse("A0^1 x1"), 2)
        assert report.status == "witnessed"
        # the witness provides, for every x, a set containing x
        assert denotes(report.witness, ("a", "a"))

    def test_unsatisfiable_antecedent_is_vacuous(self):
        payload = parse("A0^1 x1 & ~(A0^1 x1)")
        report = check_choice_instance_sigma0(1, 1, payload, 1)
        assert report.status == "vacuous"

    def test_cap_reports_inconclusive(self):
        report = check_choice_instance_sigma0(
            1, 1, parse("all x2 . (A0^1 x2 <-> x2 = x1)"), 2, candidate_cap=1
        )
        assert report.status == "inconclusive" and report.cap_hit


class TestChoiceSearchCounts:
    """The search's counters, pinned: candidates are tried in enumeration
    order, ``candidate_cap`` stops it as inconclusive with the cap flagged,
    and every candidate's verification counts predicates against
    ``pred_cap`` on its own."""

    # status and candidates_tried of every suite instance at stratum 2
    SUITE_AT_2 = {
        "singleton": ("witnessed", 2),
        "contains-point": ("witnessed", 2),
        "complement-of-point": ("witnessed", 3),
        "everything": ("witnessed", 4),
        "nothing": ("witnessed", 1),
        "nonempty": ("witnessed", 2),
        "exactly-the-point": ("witnessed", 2),
        "misses-something": ("witnessed", 1),
        "diagonal-pair": ("witnessed", 2),
        "pair-of-points": ("witnessed", 14),
    }
    # a point other than x1: the antecedent holds at stratum 1, but a
    # uniform choice needs two support atoms
    OTHER_POINT = "ex x2 . (~(x2 = x1) & (all x3 . (A0^1 x3 <-> x3 = x2)))"

    def test_suite_at_stratum_2(self):
        for name, n, m, text in CHOICE_SUITE:
            report = check_choice_instance_sigma0(n, m, parse(text), 2)
            assert (report.status, report.candidates_tried) == self.SUITE_AT_2[name]
            assert not report.cap_hit

    def test_suite_at_stratum_3(self):
        # the bridged choice variable is the section of each candidate, not
        # a search; at stratum 3 a search for diagonal-pair's binary one
        # would pass the 200k predicate cap
        for name, n, m, text in CHOICE_SUITE:
            report = check_choice_instance_sigma0(n, m, parse(text), 3)
            assert (report.status, report.candidates_tried) == self.SUITE_AT_2[name]
            assert not report.cap_hit

    @pytest.mark.parametrize(
        "cap, expected",
        [
            (0, ("inconclusive", 0, True)),
            (1, ("inconclusive", 1, True)),
            (2, ("inconclusive", 2, True)),
            (3, ("witnessed", 3, False)),
            (100, ("witnessed", 3, False)),
        ],
    )
    def test_candidate_cap(self, cap, expected):
        payload = parse("all x2 . (A0^1 x2 <-> ~(x2 = x1))")
        report = check_choice_instance_sigma0(1, 1, payload, 2, candidate_cap=cap)
        assert (report.status, report.candidates_tried, report.cap_hit) == expected

    @pytest.mark.parametrize(
        "cap, expected",
        [(None, ("inconclusive", 32, False)), (32, ("inconclusive", 32, False)),
         (31, ("inconclusive", 31, True))],
    )
    def test_exhausted_search(self, cap, expected):
        # 4 support-free binary candidates plus 28 whose least support is
        # one fresh atom: of the 32 masks over it, 4 are support-free again
        report = check_choice_instance_sigma0(1, 1, parse(self.OTHER_POINT), 1, candidate_cap=cap)
        assert (report.status, report.candidates_tried, report.cap_hit) == expected
        assert report.witness is None
        assert check_choice_instance_sigma0(1, 1, parse(self.OTHER_POINT), 0).status == "vacuous"

    def test_pred_cap_applies_per_verification(self):
        from henkin.structures import CapExceeded

        # the bridged choice variable is never enumerated, so the payload
        # quantifies a predicate of its own; the antecedent enumerates 27
        text = f"({self.OTHER_POINT}) & (all A1^1 . (A1^1 x1 | ~(A1^1 x1)))"
        # 126 verifications enumerate 296 predicates together, but none
        # more than 76 on its own (the last, the witness)
        report = check_choice_instance_sigma0(1, 1, parse(text), 2, pred_cap=76, candidate_cap=10**6)
        assert (report.status, report.candidates_tried) == ("witnessed", 126)
        with pytest.raises(CapExceeded) as exc:
            check_choice_instance_sigma0(1, 1, parse(text), 2, pred_cap=75, candidate_cap=10**6)
        assert (exc.value.needed, exc.value.cap) == (76, 75)


class TestCandidatePredicates:
    """The quantifier's candidates are the distinct predicates of the
    reference's listing of every mask under every support, each once, in
    the order of their first occurrence there."""

    @pytest.mark.parametrize(
        "arity, pool, bound",
        [
            (1, ("p", "q", "u1", "u2"), 3),
            (1, ("v", "u1", "u2", "u3"), 3),  # combinations order is not sorted order
            (2, ("p", "u1", "u2"), 2),
            (2, ("v", "u1", "u2"), 2),
            (2, ("p",), 2),  # the pool caps the support size
        ],
    )
    def test_distinct_in_first_occurrence_order(self, arity, pool, bound):
        first: dict = {}
        for sigma in ref_candidates(arity, pool, bound):
            first.setdefault(ref_canonicalize(sigma), None)
        expected = [(s.arity, s.support, s.accepted) for s in first]
        got = [(s.arity, s.support, s.accepted) for s in _candidate_predicates(arity, pool, bound)]
        assert got == expected


class TestWitnessJSON:
    """Statuses and witness JSON, byte for byte, as the search gave them when
    it listed every mask under every support: the suite at strata 1-3 and
    the seed-7 payload corpus at stratum 2."""

    def test_unchanged(self):
        path = Path(__file__).with_name("choice_witnesses.json")
        expected = json.loads(path.read_text(encoding="utf-8"))
        instances = [
            (name, n, m, parse(text), s) for s in (1, 2, 3) for name, n, m, text in CHOICE_SUITE
        ]
        instances += [(format_formula(f), 1, 1, f, 2) for f in payload_corpus(7, 40, 1, 1, 3)]
        rows = []
        for label, n, m, payload, stratum in instances:
            report = check_choice_instance_sigma0(n, m, payload, stratum)
            witness = json.dumps(symbolic_to_dict(report.witness)) if report.witness else None
            rows.append([label, stratum, report.status, witness])
        assert rows == expected


class TestTruncationOracle:
    def _random_symbolic(self, rng, arity, atoms):
        support = tuple(sorted(rng.sample(atoms, rng.randint(0, min(2, len(atoms))))))
        types = enumerate_types(arity, support)
        return SymbolicPredicate(
            arity, support, frozenset(t for t in types if rng.random() < 0.5)
        )

    def test_agreement_with_finite_evaluation(self):
        from henkin.corpus import random_formula

        rng = random.Random(43)
        ind_vars = [ind(i) for i in (1, 2)]
        pred_vars = [pred(0, 1), pred(0, 2)]
        atoms = ("p", "q")
        for _ in range(100):
            f = random_formula(rng, 3, ind_vars, pred_vars, allow_pred_quantifiers=False)
            binding = {}
            for v in free_vars(f):
                if v.is_individual:
                    binding[v] = rng.choice(atoms)
                else:
                    binding[v] = self._random_symbolic(rng, v.arity, atoms)
            pool = evaluation_pool(f, binding)
            env = {}
            for v, value in binding.items():
                if v.is_individual:
                    env[v] = pool.index(value)
                else:
                    env[v] = truncate_predicate(value, pool)
            # no predicate quantifiers occur, so the domains only need to
            # carry the truncated bindings
            domains = {}
            for value in env.values():
                if not isinstance(value, int):
                    domains.setdefault(value.arity, set()).add(value)
            structure = Structure(
                pool, {n: frozenset(ts) for n, ts in domains.items()} or
                {1: frozenset(all_tables(len(pool), 1))},
            )
            symbolic = symbolic_evaluate(f, binding, 0).truth
            finite = naive_eval(structure, env, f)
            assert symbolic == finite

    def test_pool_stability_under_extra_atoms(self):
        # enlarging the truncation universe does not flip first-order truth
        from henkin.corpus import random_formula

        rng = random.Random(47)
        ind_vars = [ind(i) for i in (1, 2)]
        pred_vars = [pred(0, 1)]
        atoms = ("p",)
        for _ in range(40):
            f = random_formula(rng, 3, ind_vars, pred_vars, allow_pred_quantifiers=False)
            binding = {
                v: ("p" if v.is_individual else self._random_symbolic(rng, v.arity, atoms))
                for v in free_vars(f)
            }
            pool = evaluation_pool(f, binding)
            bigger = pool + fresh_atoms(2, avoid=pool)
            env_small, env_big = {}, {}
            for v, value in binding.items():
                if v.is_individual:
                    env_small[v] = pool.index(value)
                    env_big[v] = bigger.index(value)
                else:
                    env_small[v] = truncate_predicate(value, pool)
                    env_big[v] = truncate_predicate(value, bigger)
            small = Structure(pool, {1: frozenset(all_tables(len(pool), 1))})
            big = Structure(bigger, {1: frozenset(all_tables(len(bigger), 1))})
            assert naive_eval(small, env_small, f) == naive_eval(big, env_big, f)


from hypothesis import given, settings
from hypothesis import strategies as st

_ATOMS = ("p", "q", "a", "b", "c")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=4),
    st.sets(st.sampled_from(("p", "q"))),
)
def test_classify_is_canonical_and_permutation_invariant(tuple_atoms, support):
    t = classify(tuple(tuple_atoms), support)
    assert t.arity == len(tuple_atoms)
    # renaming the non-support atoms of the tuple leaves the type alone
    movable = [a for a in _ATOMS if a not in support]
    rotated = {a: movable[(movable.index(a) + 1) % len(movable)] for a in movable}
    moved = tuple(rotated.get(a, a) for a in tuple_atoms)
    assert classify(moved, support) == t


@settings(max_examples=150, deadline=None)
@given(st.sets(st.sampled_from(("p", "q"))), st.integers(0, 2**10 - 1))
def test_denotation_depends_only_on_type(support, mask):
    support = tuple(sorted(support))
    types = enumerate_types(2, support)
    sigma = SymbolicPredicate(
        2, support, frozenset(t for k, t in enumerate(types) if mask >> k & 1)
    )
    for t1 in product(("p", "q", "a", "b"), repeat=2):
        for t2 in product(("p", "q", "a", "b"), repeat=2):
            if classify(t1, support) == classify(t2, support):
                assert denotes(sigma, t1) == denotes(sigma, t2)


class TestSerialization:
    def test_round_trip(self):
        sigma = SymbolicPredicate(
            2, ("p",), frozenset({EqType(("p", 0)), EqType((0, 1))})
        )
        doc = symbolic_to_dict(sigma)
        assert doc == {"arity": 2, "support": ["p"], "accepted": ["f1,f2", "p,f1"]}
        assert symbolic_from_dict(doc) == sigma

    def test_suite_is_ten_instances(self):
        assert len(CHOICE_SUITE) == 10
        names = [name for name, *_ in CHOICE_SUITE]
        assert len(set(names)) == 10
