import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from henkin.cli import main
from henkin.corpus import default_vocabulary, random_formula
from henkin.structures import save_structure, standard_structure, Structure, Table
from henkin.syntax import format_formula


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

    def test_cap_exit_3(self, capsys, tmp_path):
        h = tmp_path / "h.fml"
        h.write_text("all x2 . (A0^1 x2 <-> x2 = x1)\n")
        code, report, _ = run(
            capsys, "fraenkel", "choice", "--h", str(h), "--strat", "2",
            "--cap-preds", "3",
        )
        assert code == 3
        assert any("cap" in flag for flag in report["flags"])


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
    "binding-list": (bind_with("[]"), "FraenkelError"),
    "binding-string": (bind_with('"x1"'), "FraenkelError"),
    "binding-predicates-list": (bind_with('{"predicates": ["A0^1"]}'), "FraenkelError"),
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
    return st.sampled_from([name] * 8 + ["bad.json", "missing.json"])


numbers = st.integers(-2, 2).map(str)
COMMANDS = [
    # command, required options, optional options
    (["parse"], ["--text"], []),
    (["parse"], ["--formula"], []),
    (["eval"], ["--structure", "--formula"], ["--assignment"]),
    (["check"], ["--structure", "--schema"], ["--n", "--m", "--h", "--reflexive"]),
    (["saturate"], ["--structure"], ["--depth"]),
    (["build-model"], ["--structure"], ["--max-arity", "--cap-tables", "--cap-group"]),
    (["fraenkel", "sweep"], [], ["--max-support", "--reflexive"]),
    (["fraenkel", "eval"], ["--formula"], ["--bind", "--strat"]),
    (["fraenkel", "choice"], ["--h"], ["--n", "--m", "--strat"]),
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
    # small caps first, so the drawn options can still override them
    argv = command + ["--cap-preds", "2000", "--cap-assignments", "5000", "--cap-formulas", "500"]
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


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(command_lines())
@example(FALSE_EVAL)
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
