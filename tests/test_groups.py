import random
from itertools import permutations

import pytest

from henkin import groups, structures
from henkin.corpus import default_vocabulary, random_formula
from henkin.groups import (
    AllSubgroups,
    FiniteSupports,
    Group,
    Permutation,
    PrincipalNormal,
    act_on_assignment,
    act_on_predicate,
    build_permutation_model,
    check_transport,
    check_stabilizer_bound,
    cycles_string,
    filter_contains,
    filter_degenerate,
    perm_from_cycles,
    pointwise_stabilizer,
    principal_core,
    structure_closed_under,
    symmetry_subgroup,
)
from henkin.parser import parse
from oracle import (
    build_permutation_model_bruteforce,
    close_structure_under,
    random_assignment,
    random_structure,
)
from henkin.structures import Assignment, StructureError, Table, equality_table, standard_structure
from henkin.syntax import MAX_DEPTH, free_vars, ind, pred

x1, x2 = ind(1), ind(2)
A = pred(0, 1)

SWAP12 = Permutation((1, 0, 2))


class TestPermutation:
    def test_bijectivity_checked(self):
        with pytest.raises(StructureError):
            Permutation((0, 0, 1))

    def test_compose_inverse(self):
        p = Permutation((1, 2, 0))
        assert p.compose(p.inverse()) == Permutation.identity(3)
        assert p.inverse().compose(p) == Permutation.identity(3)

    def test_parity(self):
        assert not SWAP12.is_even()
        assert Permutation((1, 2, 0)).is_even()

    def test_cycle_notation_round_trip(self):
        labels = ("a", "b", "c", "d")
        p = perm_from_cycles("(a b)(c d)", labels)
        assert p == Permutation((1, 0, 3, 2))
        assert cycles_string(p, labels) == "(a b)(c d)"
        assert cycles_string(Permutation.identity(4), labels) == "()"
        assert perm_from_cycles("()", labels) == Permutation.identity(4)

    def test_bad_cycles(self):
        with pytest.raises(StructureError):
            perm_from_cycles("(a z)", ("a", "b"))
        with pytest.raises(StructureError):
            perm_from_cycles("(a b)(b a)", ("a", "b"))
        with pytest.raises(StructureError, match="must be a string, got int"):
            perm_from_cycles(5, ("a", "b"))


class TestGroup:
    def test_generator_closure(self):
        s3 = Group.from_generators(3, [SWAP12, Permutation((1, 2, 0))])
        assert s3.order == 6
        assert s3.elements == Group.symmetric(3).elements

    def test_elements_are_checked_cheaply(self):
        # a wrong degree and a missing identity are rejected; closure is not
        # checked (it would cost order**2 compositions)
        with pytest.raises(StructureError, match="degree 3"):
            Group(3, {Permutation.identity(3), Permutation((1, 0))})
        with pytest.raises(StructureError, match="degree 3"):
            Group(3, {Permutation((1, 0))})
        with pytest.raises(StructureError, match="identity"):
            Group(3, {Permutation((1, 0, 2))})
        with pytest.raises(StructureError, match="identity"):
            Group(3, ())
        assert Group(3, {Permutation.identity(3), Permutation((1, 0, 2))}).order == 2

    def test_degrees_must_match(self):
        with pytest.raises(StructureError, match="generator degree mismatch"):
            Group.from_generators(3, [SWAP12, Permutation((1, 0))])
        with pytest.raises(StructureError, match="does not match the table's universe"):
            act_on_predicate(SWAP12, Table.from_bitstring(2, 1, "10"))
        with pytest.raises(StructureError, match="must share a degree"):
            PrincipalNormal((Group.trivial(3), Group.trivial(4)))
        with pytest.raises(StructureError, match="does not match the universe"):
            build_permutation_model(("a", "b"), Group.symmetric(3), AllSubgroups(), 1)

    def test_alternating(self):
        a4 = Group.alternating(4)
        assert a4.order == 12
        assert all(p.is_even() for p in a4.elements)
        assert a4.is_normal_in(Group.symmetric(4))

    def test_closure_cap(self):
        from henkin.structures import CapExceeded

        with pytest.raises(CapExceeded):
            Group.symmetric(8, cap=100)

    def test_intersect_conjugate(self):
        s3 = Group.symmetric(3)
        h = pointwise_stabilizer(s3, [0])
        assert h.order == 2
        conj = h.conjugated(Permutation((1, 2, 0)))
        assert conj.order == 2
        assert h.intersect(conj).order == 1


class TestPredicateAction:
    def test_identity(self):
        t = Table.from_bitstring(3, 1, "101")
        assert act_on_predicate(Permutation.identity(3), t) == t

    def test_indicator_moves(self):
        # I={1,2,3}, swap of the first two points: {1}-indicator -> {2}-indicator
        one = Table.from_tuples(3, 1, [(0,)])
        moved = act_on_predicate(SWAP12, one)
        assert moved == Table.from_tuples(3, 1, [(1,)])
        # cross-check through the relation image
        assert moved.tuples() == {SWAP12.apply_tuple(t) for t in one.tuples()}

    def test_constant_fixed(self):
        t = Table.constant(3, 2, True)
        assert act_on_predicate(SWAP12, t) == t

    def test_relation_image_agrees_in_general(self):
        rng = random.Random(5)
        for _ in range(50):
            bits = tuple(rng.random() < 0.5 for _ in range(9))
            t = Table(3, 2, bits)
            p = Permutation(tuple(rng.sample(range(3), 3)))
            assert act_on_predicate(p, t).tuples() == {
                p.apply_tuple(q) for q in t.tuples()
            }

    def test_action_law_composition(self):
        rng = random.Random(6)
        for _ in range(30):
            t = Table(3, 2, tuple(rng.random() < 0.5 for _ in range(9)))
            p = Permutation(tuple(rng.sample(range(3), 3)))
            q = Permutation(tuple(rng.sample(range(3), 3)))
            assert act_on_predicate(p.compose(q), t) == act_on_predicate(
                p, act_on_predicate(q, t)
            )


class TestAssignmentAction:
    def test_identity(self):
        f = Assignment({x1: 1, A: Table.from_bitstring(3, 1, "100")})
        assert act_on_assignment(Permutation.identity(3), f) == f

    def test_individual_moves(self):
        f = Assignment({x1: 0})
        assert act_on_assignment(SWAP12, f).get(x1) == 1

    def test_predicate_moves_via_table_action(self):
        t = Table.from_tuples(3, 1, [(0,)])
        f = Assignment({A: t})
        assert act_on_assignment(SWAP12, f).get(A) == act_on_predicate(SWAP12, t)

    def test_escape_reported(self):
        from henkin.structures import Structure

        t = Table.from_tuples(2, 1, [(0,)])
        s = Structure(("a", "b"), {1: frozenset({t})})
        with pytest.raises(StructureError):
            act_on_assignment(Permutation((1, 0)), Assignment({A: t}), s)


class TestSymmetrySubgroups:
    def test_constant_table_fully_symmetric(self):
        s3 = Group.symmetric(3)
        assert symmetry_subgroup(s3, Table.constant(3, 1, True)).order == 6

    def test_indicator_stabilizer(self):
        s3 = Group.symmetric(3)
        sym = symmetry_subgroup(s3, Table.from_tuples(3, 1, [(0,)]))
        # derived by filtering all six elements
        expected = frozenset(p for p in s3.elements if p(0) == 0)
        assert sym.elements == expected and sym.order == 2

    def test_equality_invariant(self):
        s3 = Group.symmetric(3)
        assert symmetry_subgroup(s3, equality_table(3)).order == 6

    def test_conjugation_covariance(self):
        # sym(moved table) is the conjugate of sym(table), all tables |I|<=3
        rng = random.Random(9)
        s3 = Group.symmetric(3)
        for _ in range(40):
            t = Table(3, 2, tuple(rng.random() < 0.5 for _ in range(9)))
            p = Permutation(tuple(rng.sample(range(3), 3)))
            assert symmetry_subgroup(s3, act_on_predicate(p, t)).elements == (
                symmetry_subgroup(s3, t).conjugated(p).elements
            )


class TestPointwiseStabilizer:
    def test_empty_set_gives_group(self):
        s3 = Group.symmetric(3)
        assert pointwise_stabilizer(s3, []).elements == s3.elements

    def test_whole_universe_gives_identity(self):
        s3 = Group.symmetric(3)
        assert pointwise_stabilizer(s3, range(3)).order == 1

    def test_single_point(self):
        assert pointwise_stabilizer(Group.symmetric(3), [0]).order == 2


class TestFilters:
    def test_whole_group_always_member(self):
        s4 = Group.symmetric(4)
        for filt in (AllSubgroups(), FiniteSupports(), PrincipalNormal((Group.alternating(4),))):
            assert filter_contains(filt, s4, s4)

    def test_filters_are_equal_by_kind_and_fields(self):
        # two field-less tuples would be equal whatever their kind
        core = PrincipalNormal((Group.alternating(4),))
        assert AllSubgroups() == AllSubgroups() != FiniteSupports()
        assert core == PrincipalNormal([Group.alternating(4)]) != AllSubgroups()
        assert len({AllSubgroups(), AllSubgroups(), FiniteSupports(), core, core}) == 3
        assert repr(FiniteSupports()) == "FiniteSupports()"

    def test_finite_supports_degenerate(self):
        s4 = Group.symmetric(4)
        assert filter_contains(FiniteSupports(), s4, Group.trivial(4))
        assert filter_degenerate(FiniteSupports(), s4)
        assert not filter_degenerate(PrincipalNormal((Group.alternating(4),)), s4)

    def test_membership_needs_a_subgroup(self):
        fixes_a = pointwise_stabilizer(Group.symmetric(3), [0])
        swaps_a_b = Group(3, {Permutation.identity(3), SWAP12})
        with pytest.raises(StructureError, match="only defined for subgroups"):
            filter_contains(AllSubgroups(), fixes_a, swaps_a_b)

    def test_principal_normal_membership(self):
        s4 = Group.symmetric(4)
        filt = PrincipalNormal((Group.alternating(4),))
        # the pointwise stabilizer of two points does not contain the core
        small = pointwise_stabilizer(s4, [0, 1])
        assert not filter_contains(filt, s4, small)
        assert filter_contains(filt, s4, Group.alternating(4))

    def test_each_filter_is_its_normal_core(self):
        s4 = Group.symmetric(4)
        for filt in (AllSubgroups(), FiniteSupports()):
            assert filt.core(s4) == Group.trivial(4)
        # generated by (1 2 3) and (2 3 4): the core is A4 itself, which is normal
        generated = Group.from_generators(4, [Permutation((1, 2, 0, 3)), Permutation((0, 2, 3, 1))])
        filt = PrincipalNormal((generated,))
        assert filt.core(s4) == principal_core(filt, s4) == Group.alternating(4)
        # over the rotations of a triangle, the core of the identity is the identity
        rotations = Group.from_generators(3, [Permutation((1, 2, 0))])
        assert PrincipalNormal((Group.trivial(3),)).core(rotations) == Group.trivial(3)

    def test_core_is_normal(self):
        s4 = Group.symmetric(4)
        h = pointwise_stabilizer(s4, [0])  # not normal on its own
        core = principal_core(PrincipalNormal((h,)), s4)
        assert core.is_normal_in(s4)
        # conjugates of point stabilizers intersect to the identity
        assert core.order == 1


class TestBuildModel:
    def test_a_trivial_core_builds_no_orbit_map(self, monkeypatch):
        # every orbit is one tuple, so the tables are the rows as they come;
        # building the map anyway made a one-point universe quadratic in the arity
        def unneeded(group, arity):
            raise AssertionError(f"orbit map built at arity {arity}")

        monkeypatch.setattr(groups, "_orbits", unneeded)
        out = build_permutation_model(("a",), Group.symmetric(1), AllSubgroups(), MAX_DEPTH)
        assert all(len(out.domains[n]) == 2 for n in range(1, MAX_DEPTH + 1))
        full = build_permutation_model(("a", "b", "c"), Group.symmetric(3), FiniteSupports(), 2)
        assert full == standard_structure(("a", "b", "c"), 2)

    def test_max_arity_is_bounded_as_schema_arities_are(self):
        # arities past MAX_DEPTH are rejected as SchemaId rejects them, so a
        # huge --max-arity fails at once instead of writing tables per arity
        one = ("a",), Group.symmetric(1), AllSubgroups()
        out = build_permutation_model(*one, 100)
        assert sorted(out.domains) == list(range(1, 101))
        assert sum(map(len, out.domains.values())) == 200
        for too_big in (101, 8000):
            bound = f"^a model needs max arity <= 100, got {too_big}$"
            with pytest.raises(StructureError, match=bound):
                build_permutation_model(*one, too_big)

    def test_all_filter_gives_standard(self):
        s2 = Group.symmetric(2)
        out = build_permutation_model(("a", "b"), s2, AllSubgroups(), 2)
        assert out == standard_structure(("a", "b"), 2)

    def test_a4_unary_domain(self, a4_model):
        # derived by the exhaustive check over all 16 unary tables
        assert a4_model.domains[1] == frozenset(
            {Table.constant(4, 1, True), Table.constant(4, 1, False)}
        )

    def test_a4_binary_domain_exact(self, a4_model):
        # derived by filtering all 2^16 binary tables: membership in the
        # principal filter is invariance under every core element
        from henkin.structures import all_tables

        core = Group.alternating(4)
        brute = frozenset(
            t
            for t in all_tables(4, 2)
            if all(act_on_predicate(p, t) == t for p in core.elements)
        )
        assert a4_model.domains[2] == brute
        assert equality_table(4) in a4_model.domains[2]
        assert equality_table(4).complement() in a4_model.domains[2]
        assert len(a4_model.domains[2]) == 4

    @pytest.mark.parametrize(
        "filt",
        [
            AllSubgroups(),
            FiniteSupports(),
            PrincipalNormal((Group.from_generators(3, [Permutation((1, 2, 0))]),)),
            PrincipalNormal((Group.from_generators(3, [Permutation((1, 0, 2))]),)),
        ],
        ids=["all", "finite-supports", "principal-normal-rotations", "principal-normal-swap"],
    )
    def test_bruteforce_builder_agrees_on_three_points(self, filt):
        s3 = Group.symmetric(3)
        fast = build_permutation_model(("a", "b", "c"), s3, filt, 2)
        brute = build_permutation_model_bruteforce(("a", "b", "c"), s3, filt, 2)
        assert fast == brute

    def test_closed_under_group(self, a4_model):
        # the built structure is carried into itself by every group element
        s4 = Group.symmetric(4)
        for p in s4.elements:
            for tables in a4_model.domains.values():
                assert {act_on_predicate(p, t) for t in tables} == set(tables)


class TestTransport:
    def test_identity_trivial(self, std2):
        rep = check_transport(std2, Permutation.identity(2), Assignment({x1: 0}), parse("x1 = x1"))
        assert rep.applicable and rep.truth_preserved and rep.att_transported

    def test_random_samples_on_closed_structures(self):
        rng = random.Random(21)
        ind_vars, pred_vars = default_vocabulary(2)
        for _ in range(100):
            size = rng.randint(2, 3)
            p = Permutation(tuple(rng.sample(range(size), size)))
            structure = close_structure_under(
                random_structure(rng, "abc"[:size], (1, 2)), [p]
            )
            f = random_formula(rng, 4, ind_vars, pred_vars)
            g = random_assignment(rng, structure, free_vars(f))
            rep = check_transport(structure, p, g, f)
            assert rep.applicable
            assert rep.truth_preserved
            assert rep.att_transported in (None, True)

    def test_inapplicable_reported(self):
        t = Table.from_tuples(2, 1, [(0,)])
        from henkin.structures import Structure

        s = Structure(("a", "b"), {1: frozenset({t})})
        rep = check_transport(s, Permutation((1, 0)), Assignment({}), parse("x1 = x1"))
        assert not rep.applicable and rep.truth_preserved is None

    def test_a4_model_closed_for_odd_elements_too(self, a4_model):
        # invariance under the core makes the whole symmetric group safe
        rng = random.Random(23)
        ind_vars, pred_vars = default_vocabulary(2)
        for _ in range(40):
            f = random_formula(rng, 3, ind_vars, pred_vars)
            g = random_assignment(rng, a4_model, free_vars(f))
            p = Permutation(tuple(rng.sample(range(4), 4)))
            rep = check_transport(a4_model, p, g, f)
            assert rep.applicable and rep.truth_preserved


class TestStructureAutomorphisms:
    def test_the_group_is_the_permutations_that_close_the_structure(self):
        rng = random.Random(31)
        for _ in range(60):
            size = rng.randint(1, 3)
            p = Permutation(tuple(rng.sample(range(size), size)))
            s = close_structure_under(random_structure(rng, "abc"[:size], (1, 2)), [p])
            moved = [Permutation(g) for g in permutations(range(size))][1:]
            closed = [
                g for g in moved
                if all({act_on_predicate(g, t) for t in ts} == ts for ts in s.domains.values())
            ]
            assert [g for g in moved if structure_closed_under(s, g)] == closed
            assert structure_closed_under(s, Permutation.identity(size))
            # each map sends a position to the position of its image
            assert [maps[0] for maps in s.automorphisms()] == [g.mapping for g in closed]
            for g, maps in zip(closed, s.automorphisms()):
                for n in s.domains:
                    images = [act_on_predicate(g, t) for t in s.domain(n)]
                    assert maps[n] == tuple(map(s.domain(n).index, images))

    def test_closure_asks_about_one_permutation_only(self, monkeypatch):
        # listing the universe's permutations fails at once
        monkeypatch.setattr(structures, "permutations", None)
        std3 = standard_structure("abc", 2)
        rotation = Permutation((1, 2, 0))
        assert structure_closed_under(std3, rotation)
        rep = check_transport(std3, rotation, Assignment({x1: 0}), parse("x1 = x1"))
        assert rep.applicable and rep.truth_preserved
        with pytest.raises(StructureError, match="degree"):
            structure_closed_under(std3, Permutation.identity(4))


class TestStabilizerBound:
    def test_no_parameters_gives_invariant_table(self, a4_model):
        s4 = Group.symmetric(4)
        filt = PrincipalNormal((Group.alternating(4),))
        rep = check_stabilizer_bound(
            a4_model, parse("x1 = x2"), (x1, x2), Assignment({}), s4, filt
        )
        assert rep.holds and rep.bound_order == 24

    def test_individual_parameter(self, std3):
        s3 = Group.symmetric(3)
        rep = check_stabilizer_bound(
            std3, parse("x1 = x2"), (x1,), Assignment({x2: 1}), s3, AllSubgroups()
        )
        assert rep.holds
        # the defined table is the point indicator; its stabilizer is the
        # point stabilizer exactly
        assert rep.sym_order == 2 and rep.bound_order == 2

    def test_predicate_parameter(self, std3):
        s3 = Group.symmetric(3)
        invariant = Table.from_tuples(3, 1, [(0,), (1,)])
        rep = check_stabilizer_bound(
            std3, parse("A0^1 x1"), (x1,), Assignment({A: invariant}), s3, AllSubgroups()
        )
        assert rep.holds
        assert rep.subgroup_choices == (("A0^1", "sym"),)


    def test_parameter_outside_the_filter_enters_as_the_core(self, std3):
        # {a} is fixed only by the swap of b and c, a subgroup that does not
        # hold A3, the core of the principal filter: the bound takes A3 in
        # its place, and the defined {a} is not invariant under A3
        s3 = Group.symmetric(3)
        filt = PrincipalNormal((Group.alternating(3),))
        point = Table.from_tuples(3, 1, [(0,)])
        rep = check_stabilizer_bound(
            std3, parse("A0^1 x1"), (x1,), Assignment({A: point}), s3, filt
        )
        assert rep.subgroup_choices == (("A0^1", "filter-core"),)
        assert (rep.holds, rep.bound_order, rep.sym_order) == (False, 3, 2)
        assert not rep.degenerate_filter


class TestCloseStructureUnder:
    def test_orbit_closure(self):
        t = Table.from_tuples(2, 1, [(0,)])
        from henkin.structures import Structure

        s = Structure(("a", "b"), {1: frozenset({t})})
        closed = close_structure_under(s, [Permutation((1, 0))])
        assert len(closed.domains[1]) == 2


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def perms(draw, degree=4):
    images = draw(st.permutations(list(range(degree))))
    return Permutation(tuple(images))


@st.composite
def tables(draw, size=4, arity=2):
    bits = draw(st.tuples(*([st.booleans()] * size**arity)))
    return Table(size, arity, bits)


@settings(max_examples=150, deadline=None)
@given(perms(), perms(), tables())
def test_action_is_a_left_action(p, q, t):
    assert act_on_predicate(p.compose(q), t) == act_on_predicate(p, act_on_predicate(q, t))
    assert act_on_predicate(Permutation.identity(4), t) == t


@settings(max_examples=100, deadline=None)
@given(perms(), tables())
def test_action_matches_relation_image(p, t):
    assert act_on_predicate(p, t).tuples() == {p.apply_tuple(q) for q in t.tuples()}
