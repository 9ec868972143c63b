import hashlib
import random

import pytest

from oracle import fresh_build, random_structure, ref_check_schema

from henkin import schemas, structures
from henkin.corpus import default_vocabulary, payload_corpus, random_formula
from henkin.evaluate import EvalError, compile_formula, evaluate
from henkin.groups import (
    Group,
    Permutation,
    PrincipalNormal,
    act_on_predicate,
    build_permutation_model,
)
from henkin.parser import parse
from henkin.schemas import (
    AC,
    AC_STAR,
    CHOICE,
    CHOICE_H,
    CHOICE_STAR,
    COMPREHENSION,
    LO,
    WO,
    WO1,
    _PAYLOAD_FAMILIES,
    SchemaId,
    _choice_star_frame,
    _shared_parts,
    build,
    check_schema,
)
from henkin.structures import Assignment, CapExceeded, Structure, Table, standard_structure
from henkin.syntax import (
    MAX_DEPTH,
    Formula,
    FormulaError,
    SignatureError,
    all_vars,
    format_formula,
    free_vars,
    ind,
    pred,
)

x1 = ind(1)


class TestSchemaId:
    def test_payload_required_exactly_for_parameterized_families(self):
        with pytest.raises(SignatureError):
            SchemaId(AC, payload=parse("x1 = x1"))
        with pytest.raises(SignatureError):
            SchemaId(CHOICE_H)
        with pytest.raises(SignatureError):
            SchemaId("zermelo")

    @pytest.mark.parametrize(
        "family, reads",
        [(AC, "nm"), (AC_STAR, "nm"), (CHOICE_H, "nm"), (CHOICE, "nm"), (CHOICE_STAR, "m"),
         (COMPREHENSION, "n"), (WO1, ""), (LO, ""), (WO, "")],
    )
    def test_an_arity_nested_past_the_depth_bound_is_rejected(self, family, reads):
        payload = parse("all x1 . x1 = x1") if family in _PAYLOAD_FAMILIES else None
        for name in "nm":
            arities = {"n": 1, "m": 1, name: MAX_DEPTH + 1}
            if name in reads:
                with pytest.raises(SignatureError, match=f"arity {name} = {MAX_DEPTH + 1} nests"):
                    SchemaId(family, payload=payload, **arities)
                SchemaId(family, payload=payload, **{**arities, name: MAX_DEPTH})
            else:
                unread = f"does not read {name}, got {name} = {MAX_DEPTH + 1}"
                with pytest.raises(SignatureError, match=unread):
                    SchemaId(family, payload=payload, **arities)

    def test_choice_checks_m_before_building_its_bridged_form(self):
        # a choice variable under equality has no application form; one that
        # lowers is bounded alike, although its lowered form binds no m block
        for text in (f"ex A1^{MAX_DEPTH + 1} . A0^{MAX_DEPTH + 1} = A1^{MAX_DEPTH + 1}", "x1 = x1"):
            with pytest.raises(SignatureError, match=f"arity m = {MAX_DEPTH + 1} nests"):
                SchemaId(CHOICE, 1, MAX_DEPTH + 1, parse(text))

    @pytest.mark.parametrize(
        "family, name",
        [(CHOICE_STAR, "n"), (COMPREHENSION, "m"), (WO1, "n"), (WO1, "m"), (LO, "n"), (LO, "m"),
         (WO, "n"), (WO, "m")],
    )
    def test_an_arity_the_family_does_not_read_must_be_1(self, family, name):
        # ``wo1`` with n = 7 used to build the n = 1 formula and echo n = 7
        payload = parse("all x1 . x1 = x1") if family in _PAYLOAD_FAMILIES else None
        sid = SchemaId(family, payload=payload)
        for arity in (0, 2, 7):
            message = f"family '{family}' does not read {name}, got {name} = {arity}"
            with pytest.raises(SignatureError, match=message):
                SchemaId(family, payload=payload, **{name: arity})
            # ``_make`` and ``_replace`` build through the same check
            with pytest.raises(SignatureError, match=message):
                sid._replace(**{name: arity})
            with pytest.raises(SignatureError, match=message):
                SchemaId._make((family, *(arity if x == name else 1 for x in "nm"), payload, True))

    def test_non_integer_arity_rejected(self):
        # it used to pass the arity check and fail in the build with a TypeError
        with pytest.raises(SignatureError, match="must be integers"):
            build(SchemaId(AC, n=1.5))

    @pytest.mark.parametrize("family", [AC, AC_STAR, CHOICE, CHOICE_H, CHOICE_STAR, COMPREHENSION])
    def test_only_the_order_families_have_a_reflexive_reading(self, family):
        payload = parse("A0^1 x1") if family in _PAYLOAD_FAMILIES else None
        strict = SchemaId(family, payload=payload)
        assert strict.strict is True
        with pytest.raises(SignatureError, match=f"family '{family}' has no reflexive reading"):
            SchemaId(family, payload=payload, strict=False)
        # ``_make`` and ``_replace`` build through the same check
        with pytest.raises(SignatureError, match="no reflexive reading"):
            strict._replace(strict=False)
        with pytest.raises(SignatureError, match="no reflexive reading"):
            SchemaId._make((family, 1, 1, payload, False))

    def test_the_reading_is_stored_as_a_bool(self):
        for family in (WO1, LO, WO):
            assert SchemaId(family, strict=0).strict is False
            assert SchemaId(family)._replace(strict=0).strict is False
        assert SchemaId(AC, strict=1).strict is True

    def test_payload_signature_enforced_at_build(self):
        stray = parse("A0^1 x2")  # x2 is outside the n=1 tuple
        with pytest.raises(SignatureError):
            build(SchemaId(CHOICE_H, 1, 1, stray))


class TestBuildShapes:
    def test_comprehension_example(self):
        out = build(SchemaId(COMPREHENSION, 1, 1, parse("x1 = x1")))
        assert format_formula(out) == "ex A0^1 . all x1 . (A0^1 x1 <-> x1 = x1)"

    def test_ac_box(self):
        out = build(SchemaId(AC, 1, 1))
        assert format_formula(out) == (
            "all A0^1 . all A0^2 . ex A1^2 . "
            "((all x1 . (A0^1 x1 <-> (ex x2 . A0^2 x1 x2))) -> "
            "(all x1 . (A0^1 x1 -> (ex x2 . (A0^2 x1 x2 & A1^2 x1 x2)) & "
            "(all x3 . all x4 . (A0^2 x1 x3 & A1^2 x1 x3 & (A0^2 x1 x4 & A1^2 x1 x4) "
            "-> x3 = x4)))))"
        )

    def test_ac_star_has_disjointness_premise(self):
        out = build(SchemaId(AC_STAR, 1, 1))
        text = format_formula(out)
        assert "~(x3 = x4)" in text
        assert "~(ex x2 . (A0^2 x3 x2 & A0^2 x4 x2))" in text

    def test_choice_star_clauses(self):
        out = build(SchemaId(CHOICE_STAR, 1, 1, parse("ex x1 . A0^1 x1")))
        text = format_formula(out)
        # nonemptiness clause, pairwise-disjointness clause, transversal
        assert text.startswith("(all A0^1 . ((ex x1 . A0^1 x1) -> (ex x2 . A0^1 x2)))")
        assert "~(A1^1 = A2^1)" in text
        assert "ex A3^1 . all A0^1" in text

    def test_schema_formulas_closed(self):
        assert not free_vars(build(SchemaId(AC, 1, 1)))
        assert not free_vars(build(SchemaId(AC_STAR, 2, 1)))
        assert not free_vars(build(SchemaId(WO1)))
        h = parse("all x2 . (A0^1 x2 <-> x2 = x1)")
        assert not free_vars(build(SchemaId(CHOICE_H, 1, 1, h)))

    def test_comprehension_keeps_parameters_free(self):
        out = build(SchemaId(COMPREHENSION, 1, 1, parse("x1 = x2")))
        assert free_vars(out) == frozenset({ind(2)})

    def test_lowering_substitutes_applications(self):
        h = parse("all x2 . (A0^1 x2 <-> x2 = x1)")
        out = build(SchemaId(CHOICE, 1, 1, h))
        assert format_formula(out) == (
            "(all x1 . ex A0^1 . all x2 . (A0^1 x2 <-> x2 = x1)) -> "
            "(ex A1^2 . all x1 . all x2 . (A1^2 x1 x2 <-> x2 = x1))"
        )

    def test_lowering_falls_back_on_predicate_equality(self):
        h = parse("ex A1^1 . A0^1 = A1^1")
        assert build(SchemaId(CHOICE, 1, 1, h)) == build(SchemaId(CHOICE_H, 1, 1, h))

    def test_byte_stable(self):
        h = parse("A0^1 x1")
        assert format_formula(build(SchemaId(CHOICE_H, 1, 1, h))) == format_formula(
            build(SchemaId(CHOICE_H, 1, 1, h))
        )
        # the text of 3,600 payload builds, a rejected one's error in its
        # place, pinned by its SHA-256: a change to any built text shows
        digest = hashlib.sha256()
        for m in (1, 2, 3):
            payloads = payload_corpus(7, 150, 1, m, 4)
            payloads += payload_corpus(9, 150, 1, m, 3, require_choice_var=False)
            ids = [(CHOICE_STAR, {"m": m}), (CHOICE, {"m": m}), (CHOICE_H, {"m": m})]
            ids.append((COMPREHENSION, {"n": m}))
            for payload in payloads:
                for family, arities in ids:
                    try:
                        text = format_formula(build(SchemaId(family, payload=payload, **arities)))
                    except FormulaError as exc:
                        text = f"{type(exc).__name__}: {exc}"
                    digest.update(text.encode() + b"\n")
        want = "848ee5793e83318ef0f496f0611c042cff8fdc8a5a4d44a047aa78a7b389ff49"
        assert digest.hexdigest() == want

    def test_choice_star_shares_its_payload_free_frame(self):
        # payloads with the same arity, top individual index and top index
        # of arity m share one unique-existence block
        first, second = parse("ex x1 . A0^1 x1"), parse("all x1 . (A0^1 x1 | x1 = x1)")
        built = [build(SchemaId(CHOICE_STAR, payload=h)) for h in (first, second)]
        blocks = [f.right.body.body.right for f in built]
        assert blocks[0] is blocks[1] is _choice_star_frame(1, 1, 0)[-1]
        assert format_formula(blocks[0]).startswith("(ex x2 . (A0^1 x2 & A3^1 x2)) & ")


class TestWellOrdering:
    def test_lo_strict_on_finite_orders(self, std2):
        # brute force: a strict total order on two points is one of the two
        # successor tables
        lo = build(SchemaId(LO))
        count = sum(
            evaluate(std2, Assignment({pred(0, 2): t}), lo) for t in std2.domain(2)
        )
        assert count == 2

    def test_wo1_standard_two(self, std2):
        # derived by brute force over all 16 binary tables
        assert check_schema(std2, SchemaId(WO1)).holds

    def test_wo1_standard_three(self, std3):
        # every finite linear order is a well-order; 3! strict orders exist
        lo = build(SchemaId(LO))
        orders = [
            t
            for t in std3.domain(2)
            if evaluate(std3, Assignment({pred(0, 2): t}), lo)
        ]
        assert len(orders) == 6
        assert check_schema(std3, SchemaId(WO1)).holds

    def test_reflexive_variant(self, std2):
        lo = build(SchemaId(LO, strict=False))
        reflexive_orders = [
            t
            for t in std2.domain(2)
            if evaluate(std2, Assignment({pred(0, 2): t}), lo)
        ]
        assert len(reflexive_orders) == 2
        for t in reflexive_orders:
            assert all(t((i, i)) for i in range(2))

    def test_wo1_fails_on_invariant_model(self, a4_model):
        # derived exhaustively: none of the four invariant binary tables is a
        # linear order
        check = check_schema(a4_model, SchemaId(WO1))
        assert not check.holds
        lo = build(SchemaId(LO))
        assert not any(
            evaluate(a4_model, Assignment({pred(0, 2): t}), lo)
            for t in a4_model.domain(2)
        )


class TestCheckSchema:
    def test_ac_holds_on_standard(self, std2):
        assert check_schema(std2, SchemaId(AC, 1, 1)).holds

    def test_ac_fails_on_crippled_structure(self, crippled2):
        check = check_schema(crippled2, SchemaId(AC, 1, 1))
        assert not check.holds
        assert check.counterexample is not None
        # the counterexample replays: the matrix is false under it
        assert (
            evaluate(crippled2, check.counterexample, check.matrix) is False
        )

    def test_counterexample_is_concrete(self, crippled2):
        check = check_schema(crippled2, SchemaId(AC, 1, 1))
        values = dict(check.counterexample.values)
        assert values[pred(0, 1)] == Table.constant(2, 1, True)
        assert values[pred(0, 2)] == Table.constant(2, 2, True)

    def test_arity_shortfall(self):
        s = standard_structure(("a", "b"), 1)
        with pytest.raises(EvalError):
            check_schema(s, SchemaId(AC, 1, 1))

    def test_assignment_cap(self, std3):
        from henkin.structures import CapExceeded

        with pytest.raises(CapExceeded):
            check_schema(std3, SchemaId(AC, 1, 1), assignment_cap=10)

    def test_a_sentence_counts_its_one_assignment(self, std2):
        # wo1 searches no variable: its one assignment, the empty one, is
        # counted against the cap like any other
        with pytest.raises(CapExceeded) as exc:
            check_schema(std2, SchemaId(WO1), assignment_cap=0)
        assert (exc.value.needed, exc.value.cap) == (1, 0)
        check = check_schema(std2, SchemaId(WO1), assignment_cap=1)
        assert check.holds and not check.searched

    def test_comprehension_schema_with_parameter(self, std2):
        out = check_schema(std2, SchemaId(COMPREHENSION, 1, 1, parse("x1 = x2")))
        assert out.holds  # searched over both values of the parameter


class TestDeskScaleSeparation:
    """The invariant model pulls the axiom families apart: the Zermelo-style
    axiom fails outright, the Russell-style variant and the bridged instances
    survive."""

    def test_zermelo_choice_fails_on_invariant_model(self, a4_model):
        check = check_schema(a4_model, SchemaId(AC, 1, 1))
        assert not check.holds
        values = dict(check.counterexample.values)
        # the inequality relation over the every-point domain: its sections
        # are three-element complements, and none of the four invariant
        # binary tables selects a unique witness from each
        from henkin.structures import equality_table

        assert values[pred(0, 1)] == Table.constant(4, 1, True)
        assert values[pred(0, 2)] == equality_table(4).complement()

    def test_russell_variant_survives(self, a4_model):
        # the disjointness premise rules the overlapping sections out
        assert check_schema(a4_model, SchemaId(AC_STAR, 1, 1)).holds

    def test_bridged_instances_hold_where_zermelo_fails(self, a4_model):
        from henkin.fraenkel import CHOICE_SUITE

        for name, n, m, text in CHOICE_SUITE:
            if (n, m) != (1, 1):
                continue
            check = check_schema(a4_model, SchemaId(CHOICE_H, n, m, parse(text)))
            assert check.holds, name


class TestBridgedAgainstLowered:
    def test_verdicts_agree_on_henkin_testbeds(self, std2, a4_model):
        payloads = payload_corpus(seed=4242, count=25, max_depth=3)
        for structure in (std2, a4_model):
            for h in payloads:
                lowered = check_schema(structure, SchemaId(CHOICE, 1, 1, h)).holds
                bridged = check_schema(structure, SchemaId(CHOICE_H, 1, 1, h)).holds
                assert lowered == bridged

    def test_a_section_outside_the_domain_fails_the_bridged_form(self):
        # no binary table here has a section in the unary domain, so the
        # bridged witness ranges over nothing, while the lowered form's
        # witness ranges over the binary domain itself
        gap = Structure(
            ("a", "b"),
            {
                1: frozenset(Table.from_bitstring(2, 1, b) for b in ("10", "01")),
                2: frozenset(Table.from_bitstring(2, 2, b) for b in ("0000", "1111")),
            },
        )
        h = parse("A0^1 x1")
        assert not check_schema(gap, SchemaId(CHOICE_H, 1, 1, h)).holds
        assert check_schema(gap, SchemaId(CHOICE, 1, 1, h)).holds

    def test_wider_chosen_tuple(self):
        # m = 2: the chosen predicate is binary, the witness ternary
        wide = standard_structure(("a", "b"), 3)
        h = parse("all x2 . all x3 . (A0^2 x2 x3 <-> (x2 = x1 & x3 = x1))")
        for family in (CHOICE, CHOICE_H):
            assert check_schema(wide, SchemaId(family, 1, 2, h)).holds


class TestRelativeStrengthProbe:
    def test_record_only_no_converse_assertion(self, std2, a4_model, crippled2):
        """The starred axiom of sets may out-survive the Zermelo-style one;
        log the pattern, assert nothing about the converse direction."""
        h = parse("ex x1 . A0^1 x1")
        observed = []
        for structure in (std2, a4_model, crippled2):
            star_m = check_schema(structure, SchemaId(CHOICE_STAR, 1, 1, h)).holds
            ac_star = check_schema(structure, SchemaId(AC_STAR, 1, 1)).holds
            observed.append((star_m, ac_star))
            if not star_m and ac_star:
                print(f"recorded: choice-star fails while ac-star holds on {structure.individuals}")
        assert len(observed) == 3


PAYLOAD_FREE = (AC, AC_STAR, WO1, LO, WO)
ORDERS = (WO1, LO, WO)
ARITIES = [(1, 1), (1, 2), (2, 1), (2, 2)]
# every payload-free family under every reading it has
READINGS = [(f, strict) for f in PAYLOAD_FREE for strict in (True, False) if strict or f in ORDERS]


class TestSharedPayloadFreeSchemas:
    """A payload-free schema is built once per process: ``build`` returns the
    one formula, and ``check_schema`` reads its matrix, searched variables and
    predicate variables from the same record."""

    @pytest.mark.parametrize("family, strict", READINGS)
    @pytest.mark.parametrize("n, m", ARITIES)
    def test_build_is_the_family_builder_shared(self, family, strict, n, m):
        if family in ORDERS and (n, m) != (1, 1):
            # the order families read no arity, so the cache never holds their
            # formula under a second id; these ids used to build the (1, 1) one
            with pytest.raises(SignatureError, match=f"family '{family}' does not read"):
                SchemaId(family, n, m, strict=strict)
            return
        sid = SchemaId(family, n, m, strict=strict)
        shared = build(sid)
        fresh = fresh_build(sid)
        assert shared == fresh
        assert format_formula(shared) == format_formula(fresh)
        assert build(sid) is shared

    @pytest.mark.parametrize("family", ORDERS)
    def test_strict_and_reflexive_readings_are_separate_entries(self, family):
        _shared_parts.cache_clear()
        strict = build(SchemaId(family))
        reflexive = build(SchemaId(family, strict=False))
        assert _shared_parts.cache_info().currsize == 2
        assert strict != reflexive

    def test_checks_agree_with_the_rebuilding_reference(self, std2, std3, a4_model):
        rng = random.Random(20240917)
        boards = [std2, std3, a4_model]
        for size in (1, 2, 3):
            for _ in range(3):
                boards.append(random_structure(rng, "abc"[:size], (1, 2), max_tables=4))
        wide = [random_structure(rng, "a", (1, 2, 3, 4)) for _ in range(2)]
        wide += [random_structure(rng, "ab", (1, 2, 3), max_tables=4) for _ in range(3)]
        cases = [(s, SchemaId(f, strict=strict)) for s in boards for f, strict in READINGS]
        cases += [
            (s, SchemaId(f, n, m))
            for s in wide
            for f in (AC, AC_STAR)
            for n, m in ARITIES
            if n + m in s.domains
        ]
        assert len(cases) > 100
        for structure, sid in cases:
            for _ in range(2):  # the second check reads the shared record
                got = check_schema(structure, sid)
                want = ref_check_schema(structure, sid)
                assert (got.holds, got.counterexample) == (want.holds, want.counterexample)
                assert (got.formula, got.matrix, got.searched) == (want.formula, want.matrix, want.searched)

    def test_shared_schema_still_checks_arities(self, std2):
        sid = SchemaId(AC_STAR, 1, 1)
        assert check_schema(std2, sid).holds
        unary_only = standard_structure(("a", "b"), 1)
        with pytest.raises(EvalError, match="arity shortfall"):
            check_schema(unary_only, sid)

    def test_payload_checks_leave_the_cache_alone(self, std2):
        check_schema(std2, SchemaId(AC))
        before = _shared_parts.cache_info().currsize
        for family in (CHOICE, CHOICE_H):
            check_schema(std2, SchemaId(family, 1, 1, parse("A0^1 x1")))
        check_schema(std2, SchemaId(CHOICE_STAR, 1, 1, parse("ex x1 . A0^1 x1")))
        check_schema(std2, SchemaId(COMPREHENSION, 1, 1, parse("x1 = x2")))
        check_schema(std2, fresh_build(SchemaId(LO)))
        assert _shared_parts.cache_info().currsize == before


def symmetric_board(rng: random.Random) -> Structure:
    """A 2-4 point structure whose every domain is a random set of tables
    closed under a random permutation of its universe."""
    size = rng.randint(2, 4)
    perm = Permutation(tuple(rng.sample(range(size), size)))
    domains = {}
    for n in (1, 2):
        tables = {Table(size, n, [rng.random() < 0.5 for _ in range(size**n)])
                  for _ in range(rng.randint(1, 4))}
        while (images := {act_on_predicate(perm, t) for t in tables}) - tables:
            tables |= images
        domains[n] = tables
    return Structure("abcd"[:size], domains)


class TestOrbitSearch:
    """``check_schema`` visits one assignment per orbit of the structure's
    automorphisms, where their maps cost no more than the search may; the
    verdict and the counterexample are those of the plain ``product``
    search, and ``--cap-assignments`` charges the orbits it visits."""

    @pytest.fixture
    def orbit_searches(self, monkeypatch):
        """The checks run so far, as whether each searched with the group."""
        searches = []

        def spy(body, env, pools, symmetries, depth=0):
            if depth == 0:
                searches.append(bool(symmetries))
            return falsified(body, env, pools, symmetries, depth)

        falsified = schemas._falsified
        monkeypatch.setattr(schemas, "_falsified", spy)
        return searches

    @staticmethod
    def agree(structure, case, cap, rerun=100_000):
        """Compare one check with the product reference at ``cap``.  Where
        the reference hits the cap, ``check_schema`` hits it too or agrees
        with the reference at a raised cap; where ``check_schema`` hits it
        with ``needed`` N, it decides at cap N.  Returns the decided check,
        or None where that re-run would search more than ``rerun``."""
        try:
            want = ref_check_schema(structure, case, assignment_cap=cap)
        except CapExceeded as e:
            want = e
        try:
            got = check_schema(structure, case, assignment_cap=cap)
        except CapExceeded as e:
            # never where the reference decides, and never past its product
            assert isinstance(want, CapExceeded) and e.needed <= want.needed
            if want.needed > rerun:
                return None
            got = check_schema(structure, case, assignment_cap=e.needed)
        if isinstance(want, CapExceeded):
            want = ref_check_schema(structure, case, assignment_cap=want.needed)
        assert got == want
        return got

    @staticmethod
    def cases(rng, structure, count, arity=2):
        """Schemas and ``count`` random formulas up to ``arity`` that fit
        the structure."""
        formulas = [SchemaId(f, strict=strict) for f, strict in READINGS]
        formulas += [SchemaId(f, n, m) for f in (AC, AC_STAR) for n, m in ARITIES]
        formulas += [random_formula(rng, 5, *default_vocabulary(arity)) for _ in range(count)]
        for case in formulas:
            formula = case if isinstance(case, Formula) else build(case)
            if {v.arity for v in all_vars(formula)} <= {0, *structure.domains}:
                yield case

    def test_full_boards_agree_with_the_product_reference(self, std2, std3, orbit_searches):
        rng = random.Random(20240917)
        boards = [
            (standard_structure(("a", "b"), 1), 1),
            (std2, 2),
            (standard_structure(("a", "b"), 3), 3),
            (std3, 2),
            (standard_structure(("a", "b", "c", "d"), 1), 1),
        ]
        checks = falsified = 0
        for structure, arity in boards:
            for case in self.cases(rng, structure, 480, arity):
                got = self.agree(structure, case, 5_000)
                if got is not None:
                    checks += 1
                    falsified += not got.holds
        assert checks >= 2_200 and falsified >= 1_700 and sum(orbit_searches) >= 1_200

    def test_symmetric_boards_agree_with_the_product_reference(self, orbit_searches):
        rng = random.Random(20241021)
        checks = falsified = symmetric = 0
        for _ in range(36):
            board = symmetric_board(rng)
            for case in self.cases(rng, board, 60):
                got = self.agree(board, case, rng.choice((0, 1, 10, 100, 1_000, 5_000)))
                if got is not None:
                    checks += 1
                    falsified += not got.holds
                    symmetric += bool(board.automorphisms())
        assert checks >= 2_400 and falsified >= 1_800 and symmetric >= 1_800
        assert sum(orbit_searches) >= 800

    def test_the_a4_model_agrees_with_the_product_reference(self, a4_model, orbit_searches):
        # A4 is sharply 2-transitive: up to arity 2 its invariant tables are S4's
        assert len(a4_model.automorphisms()) == 23
        rng = random.Random(20241022)
        checks = [self.agree(a4_model, case, 5_000) for case in self.cases(rng, a4_model, 400)]
        assert len(checks) >= 400 and sum(not c.holds for c in checks) >= 300
        assert sum(orbit_searches) >= 100

    def test_choice_holds_on_four_points_under_the_default_cap(self, monkeypatch):
        # the model of a trivial core is std4, whose 2^16 binary tables
        # make ac's product 2^20, past the cap; the search visits the
        # 45,960 orbits of S4 on the pair
        labels = ("a", "b", "c", "d")
        group, trivial = Group.symmetric(4), PrincipalNormal((Group.trivial(4),))
        std4 = build_permutation_model(labels, group, trivial, 2)
        assert std4 == standard_structure(labels, 2)
        # below half the maps' 23 x 65,556 = 1,507,788 entries, no
        # permutation is listed and the cap charges the product
        with monkeypatch.context() as patched:
            patched.setattr(structures, "permutations", None)
            with pytest.raises(CapExceeded) as e:
                check_schema(std4, SchemaId(AC), assignment_cap=753_893)
        assert e.value.needed == 2**20
        assert len(std4.automorphisms()) == 23
        assert check_schema(std4, SchemaId(AC)).holds
        assert check_schema(std4, SchemaId(AC_STAR)).holds

    def test_the_cap_charges_the_orbits_the_search_visits(self, std3, monkeypatch):
        # two binary variables: 512^2 assignments in 44,224 orbits of S3,
        # whose 5 maps hold 2,615 entries, within twice the cap
        runs = []

        def counted(matrix, semantics, searched):
            body, env = compile_formula(matrix, semantics, searched)
            return lambda env: runs.append(1) or body(env), env

        monkeypatch.setattr(schemas, "compile_formula", counted)
        f = parse("all A0^2 . all A1^2 . (A0^2 = A1^2 -> all x1 . (A0^2 x1 x1 -> A1^2 x1 x1))")
        with pytest.raises(CapExceeded) as e:
            check_schema(std3, f, assignment_cap=10_000)
        assert not runs and e.value.needed == (512**2 + 3 * 32**2 + 2 * 8**2) // 6 == 44_224
        assert check_schema(std3, f, assignment_cap=e.value.needed).holds
        assert len(runs) == e.value.needed

    def test_a_domain_that_is_not_full_keeps_every_assignment(self, std2):
        # the swap of a and b maps x1 = b to x1 = a, and {a} to the missing
        # {b}: pruning by it would skip the only counterexample
        singleton_a = Table.from_tuples(2, 1, [(0,)])
        unary = frozenset(t for t in std2.domains[1] if t.tuples() != {(1,)})
        assert singleton_a in unary and len(unary) == 3
        nearly_full = Structure(("a", "b"), {1: unary, 2: std2.domains[2]})
        f = parse("all x1 . ex A0^1 . (A0^1 x1 & ex x2 . ~A0^1 x2)")
        check = check_schema(nearly_full, f)
        assert not check.holds
        assert check.counterexample.values == {x1: 1}
        assert nearly_full.automorphisms() == ()

    def test_each_pools_maps_are_built_once(self, monkeypatch):
        # the group is computed once per structure, on first use
        std3 = standard_structure("abc", 2)
        image_maps, tried = Structure.image_maps, []
        monkeypatch.setattr(Structure, "image_maps", lambda s, g: tried.append(g) or image_maps(s, g))
        cases = [
            parse("all A0^1 . all A0^2 . ex x1 . (A0^1 x1 -> ex x2 . A0^2 x1 x2)"),
            parse("all A0^1 . all A0^2 . all x1 . all x2 . (A0^2 x1 x2 -> A0^1 x1)"),
            parse("all A0^2 . all x1 . all x2 . (A0^2 x1 x2 | ~A0^2 x2 x1 | x1 = x2)"),
        ]
        for f in cases:
            assert check_schema(std3, f) == ref_check_schema(std3, f)
        # the five permutations but the identity, each tried once
        assert len(tried) == len(std3.automorphisms()) == 5

    def test_the_maps_are_built_only_where_they_cost_less_than_the_search(
        self, orbit_searches, monkeypatch
    ):
        f = parse("all x1 . all A0^1 . (A0^1 x1 | ~A0^1 x1)")
        # 8! - 1 maps of 264 entries each, against 2 x 2,048 runs: listing
        # the permutations would fail at once, and none is listed
        with monkeypatch.context() as patched:
            patched.setattr(structures, "permutations", None)
            assert check_schema(standard_structure("abcdefgh", 1), f).holds
        # one map of 2 + 4 entries, against 2 x 8 runs
        std2 = standard_structure(("a", "b"), 1)
        assert check_schema(std2, f).holds
        assert orbit_searches == [False, True]
        # the swap of a and b, on the points and on the tables 00 01 10 11
        assert std2.automorphisms() == ({0: (1, 0), 1: (0, 2, 1, 3)},)

    def test_an_empty_prefix_builds_nothing(self, monkeypatch):
        # 16! - 1 permutations would not fit in memory: listing any fails
        # at once, for a sentence and for one variable over 16 points
        monkeypatch.setattr(structures, "permutations", None)
        std16 = Structure(tuple("abcdefghijklmnop"), {})
        assert check_schema(std16, parse("ex x1 . x1 = x1")).holds
        assert check_schema(std16, parse("all x1 . x1 = x1")).holds
