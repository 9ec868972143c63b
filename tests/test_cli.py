import ast
import graphlib
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from henkin import cli, schemas
from henkin.cli import main
from henkin.corpus import default_vocabulary, random_formula
from henkin.evaluate import DEFAULT_FORMULA_CAP
from henkin.fraenkel import MAX_TYPES
from henkin.structures import save_structure, standard_structure, Structure, Table
from henkin.syntax import format_formula

ROOT = Path(__file__).resolve().parent.parent

@pytest.fixture()
def std2_file(tmp_path, std2):
    path = tmp_path / "std2.json"
    save_structure(std2, path)
    return str(path)


@pytest.fixture()
def crippled_file(tmp_path, crippled2):
    path = tmp_path / "crippled.json"
    save_structure(crippled2, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


class TestParseCommand:
    def test_true_formula(self, capsys):
        code, report, _ = run(capsys, "parse", "--text", "x1 = x1")
        assert code == 0
        assert report["result"]["formula"] == "x1 = x1"
        assert report["result"]["free_vars"] == ["x1"]

    def test_syntax_error_exit_2(self, capsys):
        code, report, err = run(capsys, "parse", "--text", "x1 = ")
        assert code == 2
        assert "error" in report["result"]

    def test_file_input_with_comments(self, capsys, tmp_path):
        path = tmp_path / "f.fml"
        path.write_text("# the diagonal\nx1 = x1\n")
        code, report, _ = run(capsys, "parse", "--formula", str(path))
        assert code == 0
        assert str(path) in report["inputs"]


class TestEvalCommand:
    def test_true_exit_0(self, capsys, std2_file, tmp_path):
        f = tmp_path / "f.fml"
        f.write_text("x1 = x1\n")
        code, report, _ = run(capsys, "eval", "--structure", std2_file, "--formula", str(f))
        assert code == 0 and report["result"]["truth"] is True

    def test_witnessed_difference(self, capsys, std2_file, tmp_path):
        f = tmp_path / "f.fml"
        f.write_text("ex A0^1 . (A0^1 x1 & ~(A0^1 x2))\n")
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"individuals": {"x1": "a", "x2": "b"}}))
        code, report, _ = run(
            capsys, "eval", "--structure", std2_file, "--formula", str(f),
            "--assignment", str(a),
        )
        assert code == 0 and report["result"]["truth"] is True

    def test_false_exit_1(self, capsys, std2_file, tmp_path):
        f = tmp_path / "f.fml"
        f.write_text("~(x1 = x1)\n")
        code, report, _ = run(capsys, "eval", "--structure", std2_file, "--formula", str(f))
        assert code == 1 and report["result"]["truth"] is False

    def test_missing_arity_exit_2(self, capsys, tmp_path):
        s = tmp_path / "s.json"
        save_structure(standard_structure(("a", "b"), 1), s)
        f = tmp_path / "f.fml"
        f.write_text("ex A0^2 . A0^2 x1 x1\n")
        code, report, _ = run(capsys, "eval", "--structure", str(s), "--formula", str(f))
        assert code == 2 and "error" in report["result"]


class TestCheckCommand:
    def test_ac_holds(self, capsys, std2_file):
        code, report, _ = run(
            capsys, "check", "--structure", std2_file, "--schema", "ac", "--n", "1", "--m", "1"
        )
        assert code == 0 and report["result"]["holds"] is True

    def test_ac_fails_with_replayable_counterexample(
        self, capsys, crippled_file, tmp_path
    ):
        code, report, _ = run(
            capsys, "check", "--structure", crippled_file, "--schema", "ac"
        )
        assert code == 1 and report["result"]["holds"] is False
        cex = report["result"]["counterexample"]
        assert cex is not None
        # replay: evaluating the reported matrix under the counterexample
        # assignment reproduces the failing verdict
        f = tmp_path / "matrix.fml"
        f.write_text(report["result"]["matrix"] + "\n")
        a = tmp_path / "cex.json"
        a.write_text(json.dumps(cex))
        code2, report2, _ = run(
            capsys, "eval", "--structure", crippled_file, "--formula", str(f),
            "--assignment", str(a),
        )
        assert code2 == 1 and report2["result"]["truth"] is False

    def test_wo1(self, capsys, std2_file):
        code, report, _ = run(capsys, "check", "--structure", std2_file, "--schema", "wo1")
        assert code == 0

    def test_wo1_fails_on_invariant_model(self, capsys, tmp_path, a4_model):
        path = tmp_path / "a4.json"
        save_structure(a4_model, path)
        code, report, _ = run(capsys, "check", "--structure", str(path), "--schema", "wo1")
        assert code == 1 and report["result"]["holds"] is False
        # no universal prefix to peel; the verdict is the bare search outcome
        assert report["result"]["searched"] == []

    def test_missing_payload_exit_2(self, capsys, std2_file):
        code, report, _ = run(capsys, "check", "--structure", std2_file, "--schema", "choice-h")
        assert code == 2

    def test_bare_order_conditions(self, capsys, std2_file):
        # lo leaves the order variable free, so the checker searches it:
        # some binary table is not a linear order
        code, report, _ = run(capsys, "check", "--structure", std2_file, "--schema", "lo")
        assert code == 1
        assert "A0^2" in report["result"]["counterexample"]["predicates"]
        code, report, _ = run(capsys, "check", "--structure", std2_file, "--schema", "wo")
        assert code == 1

    @pytest.mark.parametrize("family", schemas.FAMILIES)
    def test_reflexive_applies_to_the_order_families_only(self, capsys, std2_file, tmp_path, family):
        argv = ["check", "--structure", std2_file, "--schema", family]
        if family in schemas._PAYLOAD_FAMILIES:
            argv += ["--h", write(tmp_path, "h.fml", "A0^1 x1\n")]
        code, report, _ = run(capsys, *argv, "--reflexive")
        if family in ("lo", "wo", "wo1"):
            # std2 has a reflexive well-order, and some binary table is no order
            assert (code, report["result"]["holds"]) == ((0, True) if family == "wo1" else (1, False))
            assert report["result"]["matrix"] != run(capsys, *argv)[1]["result"]["matrix"]
        else:
            assert code == 2
            error = f"SignatureError: family '{family}' has no reflexive reading"
            assert report["result"] == {"error": error}

    def test_an_arity_the_schema_does_not_read_exit_2(self, capsys, std2_file):
        # it used to exit 0 and echo n = 7, m = 9 over the matrix of n = m = 1
        argv = ["check", "--structure", std2_file, "--schema", "wo1"]
        code, report, _ = run(capsys, *argv, "--n", "7", "--m", "9")
        assert code == 2
        error = "SignatureError: family 'wo1' does not read n, got n = 7"
        assert report["result"] == {"error": error}
        code, report, _ = run(capsys, *argv, "--n", "1", "--m", "1")
        assert code == 0 and (report["result"]["n"], report["result"]["m"]) == (1, 1)

    def test_comprehension_with_payload(self, capsys, std2_file, tmp_path):
        h = tmp_path / "h.fml"
        h.write_text("x1 = x2\n")
        code, report, _ = run(
            capsys, "check", "--structure", std2_file, "--schema", "comprehension",
            "--h", str(h),
        )
        assert code == 0 and report["result"]["holds"] is True

    def test_comprehension_counterexample_printed(self, capsys, tmp_path):
        # J1 lacks the {a}-indicator
        tables = frozenset(
            t
            for t in standard_structure(("a", "b"), 1).domains[1]
            if t != Table.from_bitstring(2, 1, "10")
        )
        s = tmp_path / "s.json"
        save_structure(Structure(("a", "b"), {1: tables}), s)
        h = tmp_path / "h.fml"
        h.write_text("x1 = x2\n")
        code, report, _ = run(
            capsys, "check", "--structure", str(s), "--schema", "comprehension",
            "--h", str(h),
        )
        assert code == 1
        assert report["result"]["counterexample"] is not None


class TestSaturateCommand:
    def test_fixpoint_round_trips(self, capsys, tmp_path):
        s = tmp_path / "s.json"
        save_structure(standard_structure(("a", "b"), 1), s)
        code, report, _ = run(capsys, "saturate", "--structure", str(s), "--depth", "1")
        assert code == 0
        assert report["result"]["added"] == {}
        assert report["result"]["structure"]["domains"]["1"] == ["00", "01", "10", "11"]

    def test_formula_cap_fires_before_the_formulas_are_built(self, capsys, std2_file):
        code, report, _ = run(capsys, "saturate", "--structure", std2_file, "--depth", "2")
        assert code == 3
        result = report["result"]
        assert (result["needed"], result["cap"]) == (5_495_517, DEFAULT_FORMULA_CAP)


class TestBuildModelCommand:
    def test_a4_spec(self, capsys, tmp_path, a4_model):
        spec = {
            "individuals": ["1", "2", "3", "4"],
            "group": {"generators": ["(1 2 3 4)", "(1 2)"]},
            "filter": {"kind": "principal-normal", "generators": ["(1 2 3)", "(2 3 4)"]},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, report, _ = run(capsys, "build-model", "--structure", str(path), "--max-arity", "2")
        assert code == 0
        assert report["result"]["domain_sizes"] == {"1": "2", "2": "4"} or report[
            "result"
        ]["domain_sizes"] == {"1": 2, "2": 4}
        assert report["result"]["group_order"] == 24
        from henkin.structures import structure_from_dict

        assert structure_from_dict(report["result"]["structure"]) == a4_model

    def test_default_symmetric_group_respects_the_group_cap(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"individuals": ["a", "b", "c", "d"]}))
        argv = ("build-model", "--structure", str(path), "--max-arity", "1", "--cap-group")
        code, report, _ = run(capsys, *argv, "5")
        assert code == 3
        assert (report["result"]["needed"], report["result"]["cap"]) == (24, 5)
        code, report, _ = run(capsys, *argv, "24")
        assert (code, report["result"]["group_order"]) == (0, 24)
        # a generated group stops at the first element past the cap
        path.write_text(a4_spec())
        code, report, _ = run(capsys, *argv, "5")
        assert code == 3
        assert (report["result"]["needed"], report["result"]["cap"]) == (6, 5)

    def test_finite_supports_flagged_degenerate(self, capsys, tmp_path):
        spec = {
            "individuals": ["a", "b"],
            "group": {"generators": ["(a b)"]},
            "filter": {"kind": "finite-supports"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, report, _ = run(capsys, "build-model", "--structure", str(path))
        assert code == 0
        assert report["result"]["degenerate_filter"] is True
        assert report["flags"]

    @pytest.mark.parametrize("kind", ["all", "finite-supports"])
    def test_table_cap_counts_the_invariant_tables(self, capsys, tmp_path, kind):
        # a trivial core leaves every one of the 9 pairs its own orbit
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"individuals": ["a", "b", "c"], "filter": {"kind": kind}}))
        argv = ("build-model", "--structure", str(path), "--cap-tables", "10")
        code, report, _ = run(capsys, *argv)
        assert code == 3
        assert report["result"] == {
            "error": "invariant tables of arity 2: needs 512, cap is 10", "cap": 10, "needed": 512
        }


class TestFraenkelCommands:
    def test_sweep(self, capsys):
        code, report, err = run(capsys, "fraenkel", "sweep", "--max-support", "2")
        assert code == 0
        assert report["result"]["linear_orders_found"] == 0
        assert report["result"]["total_predicates"] == 1060
        assert "0 linear orders" in err

    def test_eval_stratified_flag(self, capsys, tmp_path):
        f = tmp_path / "f.fml"
        f.write_text("ex A0^1 . A0^1 x1\n")
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"individuals": {"x1": "p"}}))
        code, report, _ = run(
            capsys, "fraenkel", "eval", "--formula", str(f), "--bind", str(b),
            "--strat", "2",
        )
        assert code == 0
        assert report["result"]["stratified"] is True
        assert report["stratum"] == 2

    def test_eval_with_symbolic_binding(self, capsys, tmp_path):
        f = tmp_path / "f.fml"
        f.write_text("all x1 . all x2 . (A0^2 x1 x2 -> A0^2 x2 x1)\n")
        b = tmp_path / "b.json"
        b.write_text(
            json.dumps(
                {"predicates": {"A0^2": {"arity": 2, "support": [], "accepted": ["f1,f1"]}}}
            )
        )
        code, report, _ = run(
            capsys, "fraenkel", "eval", "--formula", str(f), "--bind", str(b),
            "--strat", "0",
        )
        assert code == 0 and report["result"]["stratified"] is False

    def test_binding_past_the_type_cap_exit_3(self, capsys, tmp_path):
        # a predicate is a mask over the equality types of its arity and
        # support: 21147 for arity 9, 115975 for arity 10, past MAX_TYPES
        for arity, expected in ((9, 0), (10, 3)):
            f = tmp_path / "f.fml"
            f.write_text(f"all x1 . ~(A0^{arity} {' '.join(['x1'] * arity)})\n")
            b = tmp_path / "b.json"
            doc = {"arity": arity, "support": [], "accepted": []}
            b.write_text(json.dumps({"predicates": {f"A0^{arity}": doc}}))
            code, report, _ = run(
                capsys, "fraenkel", "eval", "--formula", str(f), "--bind", str(b), "--strat", "0"
            )
            assert code == expected
        assert (report["result"]["needed"], report["result"]["cap"]) == (MAX_TYPES + 1, MAX_TYPES)

    def test_choice_witness(self, capsys, tmp_path):
        h = tmp_path / "h.fml"
        h.write_text("all x2 . (A0^1 x2 <-> x2 = x1)\n")
        code, report, _ = run(
            capsys, "fraenkel", "choice", "--n", "1", "--m", "1", "--h", str(h),
            "--strat", "2",
        )
        assert code == 0
        assert report["result"]["status"] == "witnessed"
        assert report["result"]["witness"]["accepted"] == ["f1,f1"]

    def test_choice_at_stratum_3(self, capsys, tmp_path):
        # diagonal-pair: listing every binary predicate for the bridged
        # choice variable would pass the default predicate cap at stratum 3
        h = tmp_path / "h.fml"
        h.write_text("all x2 . all x3 . (A0^2 x2 x3 <-> (x2 = x1 & x3 = x1))\n")
        code, report, _ = run(
            capsys, "fraenkel", "choice", "--n", "1", "--m", "2", "--h", str(h),
            "--strat", "3",
        )
        assert code == 0
        assert report["result"]["status"] == "witnessed"
        assert report["result"]["witness"]["accepted"] == ["f1,f1,f1"]

    def test_choice_candidate_cap_inconclusive(self, capsys, tmp_path):
        # a point other than x1: the antecedent charges 2 mask words at
        # stratum 1, and the search would try more than 5 candidates
        h = write(tmp_path, "h.fml", "ex x2 . (~(x2 = x1) & (all x3 . (A0^1 x3 <-> x3 = x2)))\n")
        code, report, err = run(
            capsys, "fraenkel", "choice", "--h", h, "--strat", "1", "--cap-preds", "5"
        )
        assert code == 1
        assert report["result"]["status"] == "inconclusive"
        assert report["result"]["candidates_tried"] == 5
        assert report["flags"] == ["candidate cap hit before the search space was exhausted"]
        assert report["stratum"] == 1
        assert "not a refutation" in err

    def test_capped_reports_carry_the_stratum(self, capsys, tmp_path):
        # the cap bounds the work over predicates bounded by the stratum; an
        # exact verdict bounds none and names no stratum.  The antecedent of
        # the choice instance searches the 2 ** 37 ternary predicates over
        # two atoms, and the flat formula needs 2 ** 17 / 64 mask words
        h = write(tmp_path, "h.fml", "~(A0^3 = A0^3)\n")
        flat = "all A0^2 . ex x1 . ex x2 . (A0^2 x1 x2 | ~(A0^2 x1 x2))\n"
        flat = write(tmp_path, "flat.fml", flat)
        exact = write(tmp_path, "exact.fml", "all x1 . x1 = x1\n")
        for argv, code, stratum in (
            (["choice", "--n", "1", "--m", "3", "--h", h, "--strat", "2"], 3, 2),
            (["eval", "--formula", flat, "--strat", "3", "--cap-preds", "10"], 3, 3),
            (["eval", "--formula", flat, "--strat", "3"], 0, 3),
            (["eval", "--formula", exact, "--strat", "3"], 0, None),
        ):
            got, report, _ = run(capsys, "fraenkel", *argv)
            assert (got, report["stratum"]) == (code, stratum), argv

    @pytest.mark.parametrize(
        "arities", [("--n", "0"), ("--m", "0"), ("--n", "-1"), ("--n", "0", "--m", "0")]
    )
    def test_choice_arity_below_one_exit_2(self, capsys, tmp_path, std2_file, arities):
        # with no x1 in the payload, n = 0 used to build an instance and
        # report a witness; both commands now refuse the arity alike
        h = tmp_path / "h.fml"
        h.write_text("ex x2 . A0^1 x2\n")
        for argv in (
            ["fraenkel", "choice", "--h", str(h)],
            ["check", "--structure", std2_file, "--schema", "choice-h", "--h", str(h)],
        ):
            code, report, _ = run(capsys, *argv, *arities)
            assert code == 2
            assert report["result"] == {"error": "SignatureError: schema arities must be >= 1"}

    @pytest.mark.parametrize("arity", ["--n", "--m"])
    def test_arity_past_the_depth_bound_exit_2_before_the_build(self, capsys, tmp_path, std2_file, arity):
        # a block of a million quantifiers used to be built, at 3.4 GB, before
        # the depth bound stopped it
        h = tmp_path / "h.fml"
        h.write_text("all x1 . x1 = x1\n")
        for argv in (
            ["fraenkel", "choice", "--h", str(h)],
            ["check", "--structure", std2_file, "--schema", "ac"],
        ):
            start = time.perf_counter()
            code, report, _ = run(capsys, *argv, arity, "1000000")
            assert time.perf_counter() - start < 1
            assert code == 2
            assert report["result"]["error"].startswith(f"SignatureError: schema arity {arity[2:]} = 1000000")

    def test_cap_exit_3(self, capsys, tmp_path):
        # the antecedent searches ternary predicates, which no mask run
        # takes, and its second candidate, the diagonal, decides it
        h = tmp_path / "h.fml"
        h.write_text("A0^3 x1 x1 x1\n")
        argv = ["fraenkel", "choice", "--m", "3", "--h", str(h), "--strat", "2", "--cap-preds"]
        code, report, _ = run(capsys, *argv, "1")
        assert code == 3
        assert any("cap" in flag for flag in report["flags"])
        assert (report["result"]["needed"], report["result"]["cap"]) == (2, 1)
        code, report, _ = run(capsys, *argv, "2")
        assert code == 0


class TestTableCapEnvironment:
    def test_env_var_overrides_cap(self, capsys, tmp_path, monkeypatch):
        spec = {"individuals": ["a", "b", "c"], "filter": {"kind": "all"}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        monkeypatch.setenv("HENKIN_CAP_TABLES", "10")
        code, report, _ = run(capsys, "build-model", "--structure", str(path), "--max-arity", "2")
        assert code == 3
        assert any("cap" in flag for flag in report["flags"])
        # an explicit flag wins over the environment
        code2, report2, _ = run(
            capsys, "build-model", "--structure", str(path), "--max-arity", "2",
            "--cap-tables", "1000",
        )
        assert code2 == 0

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_env_var_is_a_usage_error(self, capsys, std2_file, monkeypatch, value):
        monkeypatch.setenv("HENKIN_CAP_TABLES", value)
        code, report, _ = run(capsys, "saturate", "--structure", str(std2_file))
        assert code == 2
        assert report["result"] == {
            "error": f"UsageError: HENKIN_CAP_TABLES must be an integer >= 0, got '{value}'"
        }


CAP_FLAGS =("--cap-tables", "--cap-group", "--cap-preds", "--cap-assignments", "--cap-formulas")

# each leaf command line, and the caps its handler reads; the files are
# never opened, since the command line is rejected before the handler runs
COMMAND_CAPS = {
    "parse": (["parse", "--text", "x1 = x1"], set()),
    "eval": (["eval", "--structure", "s.json", "--formula", "f.fml"], set()),
    "check": (["check", "--structure", "s.json", "--schema", "ac"], {"--cap-assignments"}),
    "saturate": (["saturate", "--structure", "s.json"], {"--cap-tables", "--cap-formulas"}),
    "build-model": (["build-model", "--structure", "spec.json"], {"--cap-tables", "--cap-group"}),
    "fraenkel-sweep": (["fraenkel", "sweep"], {"--cap-preds"}),
    "fraenkel-eval": (["fraenkel", "eval", "--formula", "f.fml"], {"--cap-preds"}),
    "fraenkel-choice": (["fraenkel", "choice", "--h", "f.fml"], {"--cap-preds"}),
}


class TestCapFlags:
    @pytest.mark.parametrize("name", sorted(COMMAND_CAPS))
    def test_each_command_takes_only_the_caps_it_reads(self, capsys, name):
        argv, caps = COMMAND_CAPS[name]
        for flag in CAP_FLAGS:
            if flag in caps:
                # the flag is known: its value is checked
                code, report, _ = run(capsys, *argv, flag, "-1")
                assert code == 2
                assert f"argument {flag}: caps must be >= 0" in report["result"]["error"]
            else:
                code, report, _ = run(capsys, *argv, flag, "5")
                assert code == 2
                assert report["result"] == {
                    "error": f"UsageError: henkin: unrecognized arguments: {flag} 5"
                }


# a command line for each command that reads files, with every file flag set
FILE_FLAG_LINES = {
    "parse": ["parse", "--formula", "f.fml"],
    "eval": ["eval", "--structure", "s.json", "--formula", "f.fml", "--assignment", "a.json"],
    "check": ["check", "--structure", "s.json", "--schema", "choice-h", "--h", "f.fml"],
    "saturate": ["saturate", "--structure", "s.json"],
    "build-model": ["build-model", "--structure", "spec.json"],
    "fraenkel-eval": ["fraenkel", "eval", "--formula", "f.fml", "--bind", "b.json"],
    "fraenkel-choice": ["fraenkel", "choice", "--h", "f.fml"],
}
FILE_FLAG_CASES = [
    pytest.param(line, k, id=f"{name} {flag}")
    for name, line in FILE_FLAG_LINES.items()
    for k, flag in enumerate(line)
    if flag in ("--structure", "--formula", "--assignment", "--h", "--bind")
]


class TestFileFlags:
    @pytest.mark.parametrize("line, k", FILE_FLAG_CASES)
    def test_an_empty_path_is_a_usage_error(self, capsys, line, k):
        argv = [*line[: k + 1], "", *line[k + 2 :]]
        code, report, _ = run(capsys, *argv)
        assert code == 2
        error = report["result"]["error"]
        assert error.startswith("UsageError: ")
        assert error.endswith(f"argument {line[k]}: file path must not be empty")
        assert set(report["result"]) == {"error"} and report["inputs"] == {}

    def test_an_empty_path_gives_no_verdict(self, capsys, tmp_path, std2_file):
        false = write(tmp_path, "f.fml", "all x1 . ~(x1 = x1)\n")
        for argv in (
            # read as if --h were absent, this exited 0
            ["check", "--structure", std2_file, "--schema", "ac", "--h", ""],
            # read as the empty assignment, this exited 1 with the verdict
            ["eval", "--structure", std2_file, "--formula", false, "--assignment", ""],
        ):
            code, report, _ = run(capsys, *argv)
            assert code == 2
            assert set(report["result"]) == {"error"}
            assert report["result"]["error"].endswith("file path must not be empty")


class TestProcess:
    """``python -m henkin`` keeps the contract: the exit code, one JSON
    report on stdout, and no traceback."""

    @pytest.mark.parametrize("expected", [0, 1, 2, 3])
    def test_exit_code_and_one_report(self, tmp_path, expected):
        structure = write(tmp_path, "s.json", FALSE_EVAL[0]["s.json"])
        false = write(tmp_path, "f.fml", FALSE_EVAL[0]["f.fml"])
        # the antecedent searches 2 ternary predicates at stratum 2
        h = write(tmp_path, "h.fml", "A0^3 x1 x1 x1\n")
        argv = {
            0: ["parse", "--text", "x1 = x1"],
            1: ["eval", "--structure", structure, "--formula", false],
            2: ["parse", "--text", "x1 = x1", "--cap-preds", "5"],
            3: ["fraenkel", "choice", "--m", "3", "--h", h, "--strat", "2", "--cap-preds", "1"],
        }[expected]
        env = dict(os.environ)
        path = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
        done = subprocess.run(
            [sys.executable, "-m", "henkin", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == expected, done.stderr
        report = json.loads(done.stdout)
        assert report["command"] == " ".join(["henkin", *argv])
        assert isinstance(report["result"], dict)
        assert "Traceback" not in done.stderr

    def test_a_closed_stdout_is_an_error_without_a_traceback(self):
        # the reader is gone before the report is written, as in `henkin ... | true`
        reader, writer = os.pipe()
        os.close(reader)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "henkin", "fraenkel", "sweep", "--max-support", "1"],
                env=env,
                stdout=writer,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(writer)
        assert done.returncode == 2
        # the summary alone: no traceback, and no second failure at shutdown
        (summary,) = done.stderr.splitlines()
        assert summary.startswith("error: report not written: ")


def test_imports_leave_out_dataclasses():
    # the value types are tuples, so start-up need not import dataclasses
    code = "import sys, henkin, henkin.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def loaded_after(code):
    """Which of ``henkin.fraenkel`` and ``henkin.groups`` a fresh
    interpreter has loaded after running ``code``."""
    probe = "\nimport sys\nprint(sorted({'henkin.fraenkel', 'henkin.groups'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code + probe], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_commands_load_only_the_layers_they_use():
    main = "import henkin, henkin.cli; henkin.cli.main({})"
    assert loaded_after("import henkin, henkin.cli") == []
    assert loaded_after(main.format('["parse", "--text", "x1 = x1"]')) == []
    sweep = '["fraenkel", "sweep", "--max-support", "1"]'
    assert loaded_after(main.format(sweep)) == ["henkin.fraenkel"]
    assert loaded_after("import henkin; henkin.Group") == ["henkin.groups"]


def test_lazy_names_are_their_home_modules_objects():
    code = """
import importlib, sys
import henkin.evaluate
import henkin
assert henkin.evaluate is sys.modules["henkin.evaluate"].evaluate, henkin.evaluate
for name, module in henkin._LAZY.items():
    assert getattr(henkin, name) is getattr(importlib.import_module(f"henkin.{module}"), name), name
assert set(henkin._LAZY) <= set(dir(henkin))
for name in dir(henkin):
    getattr(henkin, name)
assert not hasattr(henkin, "no_such_name")
"""
    assert loaded_after(code) == ["henkin.fraenkel", "henkin.groups"]


def test_imports_sit_at_the_top_and_form_a_dag():
    # an import inside a function is how a cycle between modules hides; a
    # module's lazy imports are the modules its ``_LAZY`` table names
    inside, graph = set(), {}
    for path in sorted((ROOT / "src" / "henkin").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(
            isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_LAZY"]
            for node in tree.body
        ):
            module = importlib.import_module(
                "henkin" if path.stem == "__init__" else f"henkin.{path.stem}"
            )
            table = module._LAZY
            graph[path.stem] = set(table.values() if isinstance(table, dict) else table)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside.update(
                    f"{path.name}:{n.lineno}"
                    for n in ast.walk(node)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                )
        deps = graph.setdefault(path.stem, set())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else [a.name for a in node.names])
    assert sorted(inside) == []
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


class TestReportDeterminism:
    def test_reports_identical_modulo_timing(self, capsys, std2_file, tmp_path):
        f = tmp_path / "f.fml"
        f.write_text("all x1 . ex A0^1 . A0^1 x1\n")
        _, first, _ = run(capsys, "eval", "--structure", std2_file, "--formula", str(f))
        _, second, _ = run(capsys, "eval", "--structure", std2_file, "--formula", str(f))
        first.pop("timing_s")
        second.pop("timing_s")
        assert first == second

    def test_seed_echoed(self, capsys):
        code, report, _ = run(capsys, "--seed", "7", "parse", "--text", "x1 = x1")
        assert code == 0 and report["seed"] == 7


class TestCachedParser:
    """``main`` builds its argparse tree once per process; what one call
    parses must not reach the next."""

    @staticmethod
    def outputs(capsys, lines, fresh):
        out = []
        for argv in lines:
            if fresh:
                cli._build_argparser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            stable = re.sub(r'"timing_s": [-0-9.eE+]+', '"timing_s": 0', captured.out)
            out.append((code, stable, captured.err))
        return out

    def test_flags_of_one_call_do_not_reach_the_next(self, capsys, tmp_path, std2_file):
        fml = write(tmp_path, "f.fml", "ex A0^1 . (A0^1 x1 & ~(A0^1 x2))\n")
        assignment = write(tmp_path, "a.json", json.dumps({"individuals": {"x1": "a", "x2": "b"}}))
        bind = write(tmp_path, "b.json", json.dumps({"individuals": {"x1": "p"}}))
        sym = write(tmp_path, "sym.fml", "ex A0^1 . A0^1 x1\n")
        lines = [
            ["--seed", "7", "parse", "--text", "x1 = x1"],
            ["parse", "--text", "x1 = x1"],
            ["check", "--structure", std2_file, "--schema", "lo", "--reflexive"],
            ["check", "--structure", std2_file, "--schema", "lo"],
            ["eval", "--structure", std2_file, "--formula", fml, "--assignment", assignment],
            ["eval", "--structure", std2_file, "--formula", fml],
            ["fraenkel", "eval", "--formula", sym, "--bind", bind],
            ["fraenkel", "eval", "--formula", sym],
            ["fraenkel", "sweep", "--max-support", "2", "--cap-preds", "10"],
            ["fraenkel", "sweep", "--max-support", "2"],
            ["parse", "--text", "x1 = x2"],
            ["parse", "--formula", fml],
            ["--help"],
            ["check", "--n", "abc"],
            ["parse", "--text", "x1 = x1"],
        ]
        cli._build_argparser.cache_clear()
        cached = self.outputs(capsys, lines, fresh=False)
        assert cached == self.outputs(capsys, lines, fresh=True)
        codes = [code for code, _, _ in cached]
        # without --bind, x1 is free and unbound
        assert codes == [0, 0, 1, 1, 0, 1, 0, 2, 3, 0, 0, 0, 0, 2, 0]
        assert [json.loads(out)["seed"] for _, out, _ in cached[:2]] == [7, None]

    def test_built_once_per_process(self, capsys):
        cli._build_argparser.cache_clear()
        for argv in (["parse", "--text", "x1 = x1"], ["bogus"], ["fraenkel", "sweep", "--hel"]):
            main(argv)
        capsys.readouterr()
        info = cli._build_argparser.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestInputDigests:
    @pytest.mark.parametrize("size", [0, 1, 2**20])
    def test_digest_is_sha256_of_the_file(self, capsys, tmp_path, size):
        data = random.Random(size).randbytes(size)
        path = tmp_path / "f.fml"
        path.write_bytes(data)
        _, report, _ = run(capsys, "parse", "--formula", str(path))
        assert report["inputs"] == {str(path): hashlib.sha256(data).hexdigest()}

    def test_openssl_is_not_loaded(self, tmp_path):
        # hashlib would load OpenSSL's libcrypto, a few MB of peak memory
        structure = write(tmp_path, "s.json", FALSE_EVAL[0]["s.json"])
        false = write(tmp_path, "f.fml", FALSE_EVAL[0]["f.fml"])
        code = (
            "import sys, henkin.cli\n"
            f"code = henkin.cli.main(['eval', '--structure', {structure!r}, '--formula', {false!r}])\n"
            "print(code, '_hashlib' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        *report, last = done.stdout.splitlines()
        assert last == "1 False"
        digest = hashlib.sha256(Path(false).read_bytes()).hexdigest()
        assert json.loads("\n".join(report))["inputs"][false] == digest


def test_recorded_command_lines_replay(capsys, tmp_path, monkeypatch):
    """``cli_calls.json`` holds every ``main`` call this file made before
    file flags were checked when parsed and ``main`` built the report as a
    dict: its command line, input files (renamed to their base names), table
    cap variable, exit code and the sha256 of its report with ``timing_s``
    set to 0 (none for ``--help``).  Each still ends the same way, replayed
    in order and then, in the same process, in reverse, so that nothing a
    call leaves in the once-built parser depends on the order of calls.
    Error texts come in part from argparse and json, so on another Python
    version than the recording's only the exit codes of error reports are
    compared."""
    doc = json.loads(Path(__file__).with_name("cli_calls.json").read_text(encoding="utf-8"))
    same_python = doc["python"] == "%d.%d" % sys.version_info[:2]
    calls = list(enumerate(doc["calls"]))
    differ = []
    for order, replay in (("forward", calls), ("reverse", calls[::-1])):
        for k, call in replay:
            directory = tmp_path / order / str(k)
            directory.mkdir(parents=True)
            for name, text in call["files"].items():
                (directory / name).write_bytes(text.encode("utf-8"))
            monkeypatch.chdir(directory)
            monkeypatch.delenv("HENKIN_CAP_TABLES", raising=False)
            for key, value in call["env"].items():
                monkeypatch.setenv(key, value)
            code = main(call["argv"])
            stable = re.sub(r'"timing_s": [-0-9.eE+]+', '"timing_s": 0', capsys.readouterr().out)
            digest = hashlib.sha256(stable.encode()).hexdigest()
            compare = call["report"] is not None and (same_python or code != 2)
            if code != call["code"] or (compare and digest != call["report"]):
                differ.append((order, k, call["argv"][:6], code, stable[:400]))
    assert differ == []


def write(directory, name, text):
    path = directory / name
    path.write_text(text)
    return str(path)


def small_structure_file(directory):
    path = directory / "small.json"
    save_structure(standard_structure(("a", "b"), 2), path)
    return str(path)


MALFORMED = {
    "nested-not": lambda d: ["parse", "--text", "~(" * 150 + "x1 = x1" + ")" * 150],
    "chained-quantifiers": lambda d: [
        "parse", "--text", "".join(f"all x{i} . " for i in range(1, 201)) + "x1 = x1"
    ],
    "bare-nots": lambda d: ["parse", "--text", "~" * 2000 + "x1 = x1"],
    "redundant-parentheses": lambda d: ["parse", "--text", "(" * 2000 + "x1 = x1" + ")" * 2000],
    "and-chain": lambda d: ["parse", "--text", " & ".join(["x1 = x1"] * 1500)],
    "implies-chain": lambda d: ["parse", "--text", " -> ".join(["x1 = x1"] * 1500)],
    "iff-chain": lambda d: ["parse", "--text", " <-> ".join(["x1 = x1"] * 1500)],
    "wide-conjunction-file": lambda d: [
        "eval", "--structure", small_structure_file(d),
        "--formula", write(d, "wide.fml", " & ".join(["x1 = x1"] * 1500) + "\n"),
    ],
    "non-integer-flag": lambda d: ["check", "--n", "abc"],
    "unknown-command": lambda d: ["bogus"],
    "no-arguments": lambda d: [],
    "non-string-bitstring": lambda d: [
        "eval",
        "--structure",
        write(d, "bits.json", json.dumps({"individuals": ["a"], "domains": {"1": [10]}})),
        "--formula", write(d, "f.fml", "x1 = x1\n"),
    ],
    "invalid-json": lambda d: [
        "eval", "--structure", write(d, "bad.json", '{"individuals": ["a", "b"], "domains": '),
        "--formula", write(d, "f.fml", "x1 = x1\n"),
    ],
    "negative-support": lambda d: ["fraenkel", "sweep", "--max-support", "-1"],
    "negative-cap": lambda d: [
        "check", "--structure", small_structure_file(d), "--schema", "ac",
        "--cap-assignments", "-5",
    ],
    "zero-max-arity": lambda d: [
        "build-model", "--max-arity", "0",
        "--structure", write(d, "spec.json", json.dumps({"individuals": ["a", "b"]})),
    ],
    # flags must be spelled out: a prefix of --help is not --help
    "abbreviated-help-h": lambda d: ["parse", "--text", "x1 = x1", "--h"],
    "abbreviated-help-he": lambda d: ["parse", "--text", "x1 = x1", "--he"],
    "abbreviated-help-hel": lambda d: ["fraenkel", "sweep", "--hel"],
    # the sweep has one reading; only the finite-side check takes --reflexive
    "sweep-reflexive": lambda d: ["fraenkel", "sweep", "--reflexive"],
}


def eval_with(structure, assignment=None):
    """``eval`` of ``x1 = x1`` on the structure document, with an
    assignment document if given; either may be a JSON text."""

    def argv(d):
        path = write(d, "s.json", structure) if structure else small_structure_file(d)
        out = ["eval", "--structure", path, "--formula", write(d, "f.fml", "x1 = x1\n")]
        return out + (["--assignment", write(d, "a.json", assignment)] if assignment else [])

    return argv


def build_model_with(spec):
    return lambda d: ["build-model", "--structure", write(d, "spec.json", spec)]


def a4_spec(
    group='{"generators": ["(1 2 3 4)", "(1 2)"]}',
    filter_key="filter",
    filter='{"kind": "principal-normal", "generators": ["(1 2 3)", "(2 3 4)"]}',
):
    """The README's 4-point model spec, with one part replaced."""
    return f'{{"individuals": ["1", "2", "3", "4"], "group": {group}, "{filter_key}": {filter}}}'


def symbolic_binding(arity, support):
    """A binding document for ``x1 = x1``, well formed but for the given
    ``arity`` and ``support`` JSON texts of its symbolic predicate."""
    doc = f'{{"arity": {arity}, "support": {support}, "accepted": ["f1"]}}'
    return f'{{"individuals": {{"x1": "p"}}, "predicates": {{"A0^1": {doc}}}}}'


def bind_with(binding):
    return lambda d: [
        "fraenkel", "eval", "--formula", write(d, "f.fml", "x1 = x1\n"),
        "--bind", write(d, "b.json", binding),
    ]


# a JSON value of the wrong shape where an object or an array belongs
MISSHAPEN = {
    "structure-list": (eval_with("[]"), "StructureError"),
    "structure-string": (eval_with('"ab"'), "StructureError"),
    "structure-domains-list": (
        eval_with('{"individuals": ["a"], "domains": ["1"]}'), "StructureError"
    ),
    "structure-individuals-string": (
        eval_with('{"individuals": "ab", "domains": {}}'), "StructureError"
    ),
    # labels are strings: 1 and {"a": 1} are not read as "1" and "{'a': 1}"
    "structure-label-number": (
        eval_with('{"individuals": [1, "b"], "domains": {"1": ["10"]}}'), "StructureError"
    ),
    "structure-label-object": (
        eval_with('{"individuals": [{"a": 1}, null], "domains": {"1": ["10"]}}'), "StructureError"
    ),
    "model-spec-label-number": (build_model_with('{"individuals": [1, 2]}'), "StructureError"),
    "structure-bitstrings-number": (
        eval_with('{"individuals": ["a"], "domains": {"1": 7}}'), "StructureError"
    ),
    "assignment-list": (eval_with(None, '["x1"]'), "StructureError"),
    "assignment-individuals-list": (eval_with(None, '{"individuals": ["x1"]}'), "StructureError"),
    "assignment-predicates-string": (eval_with(None, '{"predicates": "A0^1"}'), "StructureError"),
    "model-spec-list": (build_model_with("[]"), "StructureError"),
    "model-spec-group-list": (
        build_model_with('{"individuals": ["a", "b"], "group": ["(a b)"]}'), "StructureError"
    ),
    "model-spec-filter-string": (
        build_model_with('{"individuals": ["a", "b"], "filter": "all"}'), "StructureError"
    ),
    # a misspelled key would otherwise fall back to a default: the full
    # standard structure, or S4 for the group
    "model-spec-unknown-key": (
        build_model_with(a4_spec(filter_key="filters")), "StructureError"
    ),
    "model-spec-group-unknown-key": (
        build_model_with(a4_spec(group='{"generator": ["(1 2 3 4)", "(1 2)"]}')),
        "StructureError",
    ),
    "model-spec-filter-unknown-key": (
        build_model_with(a4_spec(filter='{"kind": "all", "generator": ["(1 2)"]}')),
        "StructureError",
    ),
    "model-spec-filter-generators-string": (
        build_model_with(a4_spec(filter='{"kind": "principal-normal", "generators": "(1 2 3)"}')),
        "StructureError",
    ),
    "binding-list": (bind_with("[]"), "FraenkelError"),
    "binding-string": (bind_with('"x1"'), "FraenkelError"),
    "binding-predicates-list": (bind_with('{"predicates": ["A0^1"]}'), "FraenkelError"),
    # a variable where "individuals" or "predicates" belongs: dropping it
    # would let the defaults decide the verdict
    "assignment-unknown-key-x1": (eval_with(None, '{"x1": 5}'), "StructureError"),
    "assignment-unknown-key-A0^1": (eval_with(None, '{"A0^1": "10"}'), "StructureError"),
    "binding-unknown-key": (
        bind_with('{"individuals": {"x1": "p"}, "A0^1": "10"}'), "FraenkelError"
    ),
    # text where a number belongs, a string where an array belongs
    "structure-domain-key-text": (
        eval_with('{"individuals": ["a"], "domains": {"x": ["1"]}}'), "StructureError"
    ),
    # a second spelling of an arity or a variable would merge with the first
    # and drop one of them
    "structure-domain-key-leading-zero": (
        eval_with('{"individuals": ["a", "b"], "domains": {"1": ["10"], "01": ["01"]}}'),
        "StructureError",
    ),
    "structure-domain-key-space": (
        eval_with('{"individuals": ["a", "b"], "domains": {" 2": ["1001"]}}'), "StructureError"
    ),
    "assignment-variable-leading-zero": (
        eval_with(None, '{"individuals": {"x1": "a", "x01": "b"}}'), "StructureError"
    ),
    "binding-variable-leading-zero": (
        bind_with('{"individuals": {"x1": "p", "x01": "q"}}'), "FraenkelError"
    ),
    "symbolic-arity-text": (bind_with(symbolic_binding('"one"', "[]")), "FraenkelError"),
    "symbolic-arity-float": (bind_with(symbolic_binding("1.7", "[]")), "FraenkelError"),
    "symbolic-arity-bool": (bind_with(symbolic_binding("true", "[]")), "FraenkelError"),
    "symbolic-support-string": (bind_with(symbolic_binding("1", '"pq"')), "FraenkelError"),
    "symbolic-support-number": (bind_with(symbolic_binding("1", "[1]")), "FraenkelError"),
    # well-shaped documents and command lines whose content is wrong
    "assignment-label-list": (eval_with(None, '{"individuals": {"x1": ["a"]}}'), "StructureError"),
    "assignment-predicate-as-individual": (
        eval_with(None, '{"individuals": {"A0^1": "a"}}'), "StructureError"
    ),
    "assignment-individual-as-predicate": (
        eval_with(None, '{"predicates": {"x1": "10"}}'), "StructureError"
    ),
    "structure-no-individuals": (eval_with('{"individuals": [], "domains": {}}'), "StructureError"),
    "structure-domain-key-zero": (
        eval_with('{"individuals": ["a"], "domains": {"0": []}}'), "StructureError"
    ),
    # a cycle is a string, in the group and in the filter
    "model-spec-generator-number": (
        build_model_with(a4_spec(group='{"generators": [5]}')), "StructureError"
    ),
    "model-spec-filter-generator-number": (
        build_model_with(a4_spec(filter='{"kind": "principal-normal", "generators": [5]}')),
        "StructureError",
    ),
    "model-spec-unclosed-cycle": (
        build_model_with(a4_spec(group='{"generators": ["(1 2 3 4", "(1 2)"]}')), "StructureError"
    ),
    "model-spec-filter-kind-unknown": (
        build_model_with(a4_spec(filter='{"kind": "bogus"}')), "StructureError"
    ),
    "model-spec-filter-no-generators": (
        build_model_with(a4_spec(filter='{"kind": "principal-normal", "generators": []}')),
        "StructureError",
    ),
    "model-spec-filter-outside-group": (
        build_model_with(a4_spec(
            group='{"generators": ["(1 2)"]}',
            filter='{"kind": "principal-normal", "generators": ["(1 2 3)"]}',
        )),
        "StructureError",
    ),
    "binding-atom-number": (bind_with('{"individuals": {"x1": 5}}'), "FraenkelError"),
    "symbolic-no-accepted": (
        bind_with('{"predicates": {"A0^1": {"arity": 1, "support": []}}}'), "FraenkelError"
    ),
    "symbolic-unknown-key": (
        bind_with(
            '{"individuals": {"x1": "p"}, "predicates": {"A0^1": '
            '{"arity": 1, "support": [], "accepted": ["f1"], "x": 1}}}'
        ),
        "FraenkelError",
    ),
    "symbolic-arity-zero": (bind_with(symbolic_binding("0", "[]")), "FraenkelError"),
    "symbolic-type-arity": (
        bind_with('{"predicates": {"A0^1": {"arity": 1, "support": [], "accepted": ["f1,f2"]}}}'),
        "FraenkelError",
    ),
    "comprehension-payload-mentions-its-predicate": (
        lambda d: [
            "check", "--structure", small_structure_file(d), "--schema", "comprehension",
            "--h", write(d, "h.fml", "A0^1 x1\n"),
        ],
        "SignatureError",
    ),
    "saturate-depth-zero": (
        lambda d: ["saturate", "--structure", small_structure_file(d), "--depth", "0"], "EvalError"
    ),
    "parse-unclosed-parenthesis": (lambda d: ["parse", "--text", "(x1 = x1"], "ParseError"),
    "parse-quantifier-without-variable": (
        lambda d: ["parse", "--text", "all . x1 = x1"], "ParseError"
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exit_2_with_one_stable_error_report(self, capsys, tmp_path, name):
        argv = MALFORMED[name](tmp_path)
        outputs = []
        for _ in range(2):
            assert main(list(argv)) == 2
            out = capsys.readouterr().out
            report = json.loads(out)
            assert set(report["result"]) == {"error"}
            report.pop("timing_s")
            outputs.append(report)
        assert outputs[0] == outputs[1]

    def test_help_still_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_a_report_json_cannot_encode_is_an_error_report(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "format_formula", lambda f: object())
        code, report, _ = run(capsys, "parse", "--text", "x1 = x1")
        assert code == 2
        assert report["result"] == {
            "error": "TypeError: Object of type object is not JSON serializable"
        }

    @pytest.mark.parametrize("name", sorted(MISSHAPEN))
    def test_misshapen_json_is_a_typed_error(self, capsys, tmp_path, name):
        argv, error = MISSHAPEN[name]
        code, report, _ = run(capsys, *argv(tmp_path))
        assert code == 2
        assert report["result"]["error"].startswith(f"{error}: ")


# Random command lines: every command with its options mostly well formed,
# values drawn from small numbers and from files written per example.

FORMULA_ALPHABET = list("x012A^~&|<->=(). ") + ["all ", "ex ", "ex!! "]


def random_formula_text(seed):
    return format_formula(random_formula(random.Random(seed), 3, *default_vocabulary(2)))


formula_texts = st.one_of(
    st.lists(st.sampled_from(FORMULA_ALPHABET), min_size=1, max_size=30).map("".join),
    st.sampled_from(["all x2 . (A0^1 x2 <-> x2 = x1)", "all x1 . ex A0^1 . A0^1 x1"]),
    st.integers(0, 10**6).map(random_formula_text),
    st.integers(0, 10**6).map(random_formula_text),
)
bitstrings = st.one_of(
    st.text("01", min_size=2, max_size=4), st.text("012", max_size=5), st.integers(0, 11)
)
labels = st.lists(st.sampled_from(["a", "b", "1", "2", ""]), min_size=1, max_size=2)
symbolic_docs = st.fixed_dictionaries({
    "arity": st.integers(0, 2),
    "support": st.lists(st.sampled_from(["p", "q"]), max_size=2),
    "accepted": st.lists(st.sampled_from(["f1", "p", "f1,f1", "p,q"]), max_size=2),
})
json_docs = st.one_of(
    # structures, model specs, assignments and bindings, each possibly ill-formed
    st.fixed_dictionaries({
        "individuals": labels,
        "domains": st.dictionaries(
            st.sampled_from(["1", "2", "0"]), st.lists(bitstrings, max_size=4), max_size=2
        ),
    }),
    st.fixed_dictionaries({
        "individuals": labels,
        "group": st.fixed_dictionaries({
            "generators": st.lists(st.sampled_from(["(1 2)", "(a b)", "(1 3)"]), max_size=2)
        }),
        "filter": st.fixed_dictionaries({
            "kind": st.sampled_from(["all", "finite-supports", "principal-normal", "bogus"]),
            "generators": st.lists(st.sampled_from(["(1 2)", "(a b)"]), max_size=1),
        }),
    }),
    st.fixed_dictionaries({
        "individuals": st.dictionaries(
            st.sampled_from(["x1", "x2", "A0^1"]), st.sampled_from(["a", "b", "p", "f1"])
        ),
        "predicates": st.dictionaries(
            st.sampled_from(["A0^1", "A0^2", "x1"]), bitstrings | symbolic_docs
        ),
    }),
    st.recursive(
        st.none() | st.integers() | st.text(max_size=4),
        lambda c: st.lists(c, max_size=3),
        max_leaves=5,
    ),
)


@st.composite
def structure_docs(draw):
    """Well-formed structures over one or two points."""
    size = draw(st.integers(1, 2))
    domains = {}
    for n in (1, 2):
        tables = st.text("01", min_size=size**n, max_size=size**n)
        domains[str(n)] = draw(st.lists(tables, min_size=1, max_size=4, unique=True))
    return {"individuals": ["a", "b"][:size], "domains": domains}


def files_mostly(name):
    return st.sampled_from([name] * 8 + ["bad.json", "missing.json", ""])


numbers = st.integers(-2, 2).map(str)
COMMANDS = [
    # command with its own small caps, required options, optional options
    (["parse"], ["--text"], []),
    (["parse"], ["--formula"], []),
    (["eval"], ["--structure", "--formula"], ["--assignment"]),
    (
        ["check", "--cap-assignments", "5000"],
        ["--structure", "--schema"],
        ["--n", "--m", "--h", "--reflexive"],
    ),
    (["saturate", "--cap-formulas", "500"], ["--structure"], ["--depth"]),
    (["build-model"], ["--structure"], ["--max-arity", "--cap-tables", "--cap-group"]),
    (["fraenkel", "sweep", "--cap-preds", "2000"], [], ["--max-support"]),
    (["fraenkel", "eval", "--cap-preds", "2000"], ["--formula"], ["--bind", "--strat"]),
    (["fraenkel", "choice", "--cap-preds", "2000"], ["--h"], ["--n", "--m", "--strat"]),
]
OPTION_VALUES = {
    "--text": formula_texts,
    "--schema": st.sampled_from([
        "ac", "ac-star", "wo1", "lo", "wo", "choice", "choice-h", "choice-star",
        "comprehension", "bogus",
    ]),
    "--reflexive": st.none(),
    "--structure": files_mostly("s.json"),
    "--formula": files_mostly("f.fml"),
    "--h": files_mostly("f.fml"),
    "--assignment": files_mostly("a.json"),
    "--bind": files_mostly("a.json"),
}


@st.composite
def command_lines(draw):
    """Files to write, and a command line that names them."""
    files = {
        "f.fml": draw(formula_texts),
        "s.json": json.dumps(draw(structure_docs() | json_docs)),
        "a.json": json.dumps(draw(json_docs)),
        "bad.json": draw(st.text(max_size=20)),
    }
    command, required, optional = draw(st.sampled_from(COMMANDS))
    mostly = st.sampled_from([True] * 9 + [False])
    chosen = [o for o in required if draw(mostly)] + [o for o in optional if draw(st.booleans())]
    if not draw(mostly):
        chosen.append(draw(st.sampled_from(["--bogus", "--seed", "--n", "--cap-preds"])))
    # the command's own small caps come first, so drawn options can still override them
    argv = list(command)
    for option in chosen:
        argv.append(option)
        value = draw(OPTION_VALUES.get(option, numbers))
        if value is not None:
            argv.append(value)
    if draw(st.booleans()):
        argv = ["--seed", draw(numbers)] + argv
    return files, argv


def false_verdict(result):
    return (
        result.get("truth") is False
        or result.get("holds") is False
        or result.get("status") == "inconclusive"
        or result.get("linear_orders_found", 0) > 0
    )


FALSE_EVAL = (
    {"f.fml": "~(x1 = x1)", "s.json": json.dumps({"individuals": ["a"], "domains": {"1": ["0"]}})},
    ["eval", "--structure", "s.json", "--formula", "f.fml"],
)


# a structure with no domains saturates to itself: one round, no formula used
NO_DOMAINS = (
    {"s.json": json.dumps({"individuals": ["a"], "domains": {}})},
    ["saturate", "--structure", "s.json"],
)
# the error types of a fault in the program rather than in its input
INTERNAL_ERRORS = ("IndexError", "KeyError", "TypeError", "AttributeError")


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(command_lines())
@example(FALSE_EVAL)
@example(NO_DOMAINS)
def test_every_command_line_keeps_the_exit_contract(tmp_path, monkeypatch, capsys, case):
    files, argv = case
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1, 2, 3)
    assert isinstance(report, dict) and isinstance(report["result"], dict)
    if code == 1:
        assert false_verdict(report["result"])
    if code == 2:
        assert "error" in report["result"]
        assert not report["result"]["error"].startswith(INTERNAL_ERRORS), report["result"]
    if case == NO_DOMAINS:
        assert code == 0
        assert report["result"]["rounds"] == 1 and report["result"]["formulas_used"] == 0
        assert report["result"]["added"] == {}
