"""Command line front end: exit codes, payload pins, determinism, suites."""

import contextlib
import copy
import errno
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cliffork import cli, ext_automorphisms, verify
from cliffork.cli import SCHEMA, run
from cliffork.verify import (
    SUITE_NAMES,
    run_suite,
)
from cliffork.classification import TABLE_KINDS
from cliffork.core_algebra import GaussianScalar, MultiVector
from cliffork.spinor_repr import (
    SignatureSpec,
    SpinBasis,
    SpinMatrix,
    UnitCensus,
    build_spinbasis,
    load_spinbasis,
    save_spinbasis,
)

from fixtures_tables import (
    EXAMPLE1_GAMMA_PRINTED,
    EXAMPLE1_GAMMA_TYPOS,
    EXAMPLE2_GAMMA_TYPOS,
    EXAMPLE2_SIGNATURE,
    REPRESENTATIONS_8x8,
    REPRESENTATIONS_EPS_8x8,
    RINGS_8x8,
    SALINGAROS_8x8,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"

GRID_BY_KIND = {
    "rings": RINGS_8x8,
    "salingaros": SALINGAROS_8x8,
    "representations": REPRESENTATIONS_8x8,
    "representations-eps": REPRESENTATIONS_EPS_8x8,
}


def run_text(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def _no_suite_body_runs(monkeypatch):
    """Make every suite body, and the stream the sweeps start from, raise."""
    def suite_body(max_n=None):
        raise AssertionError("a suite body ran")

    for name in SUITE_NAMES:
        monkeypatch.setitem(verify._SUITES, name, (suite_body, *verify._SUITES[name][1:]))
    monkeypatch.setattr(verify, "quaternionic_signatures", suite_body)


def run_json(capsys, argv):
    code, out = run_text(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


class TestExitCodes:
    def test_happy_path_returns_zero(self, capsys):
        assert run(["classify", "--p", "1", "--q", "3"]) == 0

    def test_unknown_verb_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["classify", "--p", "1", "--q", "3", "--frobnicate"]) == 2

    def test_cover_has_no_mark_flag(self, capsys):
        # the complex PT report depends on n alone, so cover takes no mark
        assert run(["cover", "--complex", "5", "--mark", "1,3"]) == 2
        assert "unrecognized arguments: --mark 1,3" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_missing_signature_reports_what_is_needed(self, capsys):
        assert run(["classify"]) == 2
        assert "--p and --q" in capsys.readouterr().err

    # each of these is a well-formed parse that asks for something incoherent
    @pytest.mark.parametrize(
        "argv",
        [
            ["ext-group", "--p", "1", "--q", "3", "--basis", "gamma"],
            ["ext-group", "--p", "2", "--q", "3"],
            ["classify", "--complex", "5", "--mark", "1,3"],
            ["cover", "--complex", "5", "--cpt"],
            ["quotient", "--complex", "5"],
            ["quotient", "--complex", "5", "--mark", "1,3"],
            ["quotient", "--p", "2", "--q", "2"],
            ["classify", "--complex", "4", "--p", "1", "--q", "3"],
            ["cover", "--complex", "4", "--p", "1", "--q", "3"],
            ["quotient", "--complex", "3", "--mark", "1,2", "--p", "2", "--q", "1"],
            ["classify", "--p", "1", "--q", "3", "--mark", "2,2"],
            ["quotient", "--p", "2", "--q", "1", "--mark", "1,2"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_incoherent_requests_exit_two(self, capsys, argv):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    # a basis payload, when given, is written to a file that {path} names
    @pytest.mark.parametrize(
        "argv,message,basis",
        [
            (["classify", "--p", "-1", "--q", "0"], "signature (-1,0) has a negative count", None),
            (["classify", "--complex", "-2"], "complex dimension -2 is negative", None),
            (["ext-group", "--basis", "/nonexistent.json"],
             "cannot read basis file '/nonexistent.json'", None),
            (["ext-group", "--p", "26", "--q", "0"],
             "p+q = 26 needs spinor dimension 8192, above the limit MAX_SPINOR_DIM = 4096", None),
            (["verify", "--suite", "pseudo", "--max", "30"],
             "p+q = 30 needs spinor dimension 32768, above the limit MAX_SPINOR_DIM = 4096", None),
            (["cover", "--p", "20", "--q", "10"],
             "p+q = 30 needs spinor dimension 32768, above the limit MAX_SPINOR_DIM = 4096", None),
            (["verify", "--suite", "core", "--max", "30"],
             "the core suite is exhaustive only up to p+q = 8, got 30", None),
            (["verify", "--suite", "salingaros", "--max", "9"],
             "vee groups are built exhaustively only up to p+q=8", None),
            (["verify", "--suite", "all", "--max", "9"],
             "vee groups are built exhaustively only up to p+q=8", None),
            (["verify", "--suite", "tables", "--max", "30"],
             "the tables suite checks a fixed domain and takes no p+q bound, got 30", None),
            (["verify", "--suite", "example2", "--max", "0"],
             "the example2 suite checks a fixed domain and takes no p+q bound, got 0", None),
            (["ext-group", "--basis", "{path}"],
             "basis file {path!r}: 'p' must be a nonnegative integer, got [1]",
             {"p": [1], "q": 3, "matrices": []}),
            (["ext-group", "--basis", "{path}"],
             "basis file {path!r}: 'p' must be a nonnegative integer, got 1.7",
             {"p": 1.7, "q": 0, "matrices": [[["1"]]]}),
            (["ext-group", "--basis", "{path}"],
             "basis file {path!r}: 'matrices' must be a list of p+q = 1 matrices",
             {"p": 1, "q": 0, "matrices": 5}),
            (["ext-group", "--basis", "{path}"],
             "basis file {path!r}: matrix 1 holds 1, which is not scalar text",
             {"p": 1, "q": 0, "matrices": [[[1]]]}),
            (["ext-group", "--basis", "{path}"],
             "basis file {path!r}: matrix 2 is 1x1, matrix 1 is 2x2",
             {"p": 2, "q": 0, "matrices": [[["1", "0"], ["0", "-1"]], [["1"]]]}),
        ],
        ids=["negative-count", "negative-complex", "missing-basis-file", "basis-too-large",
             "sweep-bound-too-large", "cover-too-large", "core-bound-too-large",
             "vee-bound-too-large", "vee-bound-too-large-in-all",
             "fixed-suite-with-bound", "fixed-suite-with-zero-bound",
             "basis-p-not-an-int", "basis-p-not-integral",
             "basis-matrices-not-a-list", "basis-int-entry", "basis-mixed-sizes"],
    )
    def test_bad_inputs_exit_two_with_one_error_line(self, capsys, monkeypatch, tmp_path, argv,
                                                     message, basis):
        _no_suite_body_runs(monkeypatch)
        path = str(tmp_path / "basis.json")
        if basis is not None:
            with open(path, "w") as fh:
                json.dump(basis, fh)
            argv = [a.format(path=path) for a in argv]
            message = message.format(path=path)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_basis_file_without_p_exits_two(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"q": 3, "matrices": []}))
        assert run(["ext-group", "--basis", str(path)]) == 2
        assert capsys.readouterr().err == f"error: basis file {str(path)!r} lacks 'p'\n"

    def test_malformed_mark_is_usage_error(self, capsys):
        assert run(["quotient", "--complex", "5", "--mark", "banana"]) == 2

    def test_internal_assertion_exits_one_with_counterexample(self, capsys, monkeypatch):
        def falsified(args):
            raise AssertionError("idempotents do not sum to 1")

        monkeypatch.setitem(cli._HANDLERS, "quotient", falsified)
        assert run(["quotient", "--p", "2", "--q", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: quotient: internal check failed: idempotents do not sum to 1\n"
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert payload["verb"] == "quotient"
        assert payload["counterexamples"] == [{
            "check": "idempotents do not sum to 1",
            "args": {"verb": "quotient", "p": 2, "q": 1, "complex": None, "mark": None,
                     "format": "markdown"},
        }]

    @pytest.mark.parametrize("exc, reason", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), os.strerror(errno.ENOSPC)),
        (BrokenPipeError(), "BrokenPipeError"),
    ])
    def test_failed_output_write_exits_two(self, capsys, monkeypatch, exc, reason):
        class FailingStdout(io.StringIO):
            def write(self, text):
                raise exc

        monkeypatch.setattr(sys, "stdout", FailingStdout())
        assert run(["table", "--kind", "rings", "--max", "2"]) == 2
        assert capsys.readouterr().err == f"error: cannot write output: {reason}\n"

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_help_write_exits_two(self, capsys, monkeypatch, failing):
        # argparse swallows an OSError on writing help; run must not
        class FailingStdout(io.StringIO):
            pass

        def fail(*_):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        setattr(FailingStdout, failing, fail)
        monkeypatch.setattr(sys, "stdout", FailingStdout())
        assert run(["--help"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    def test_help_still_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: cliffork")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_two_without_traceback(self):
        for argv in (["table", "--kind", "rings"], ["--help"]):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "cliffork.cli", *argv],
                    stdout=full, stderr=subprocess.PIPE, text=True,
                )
            assert proc.returncode == 2, argv
            assert proc.stderr == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    def test_verify_requires_a_known_suite(self, capsys):
        assert run(["verify"]) == 2
        assert run(["verify", "--suite", "nonsense"]) == 2

    def test_run_suite_rejects_unknown_names(self, monkeypatch):
        _no_suite_body_runs(monkeypatch)
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nonsense")
        # every name is checked before the first suite starts
        with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
            verify.run_suites(["tables", "pseudo", "nonsense"])

    def test_capped_suites_check_their_bound_on_entry(self, monkeypatch):
        _no_suite_body_runs(monkeypatch)
        for names, bound, message in (
            (["salingaros"], 9, r"vee groups .* only up to p\+q=8"),
            (["core"], 9, r"core suite .* only up to p\+q = 8, got 9"),
            (["tables"], 5, r"the tables suite checks a fixed domain and takes no p\+q bound"),
            (["pseudo"], -1, r"p\+q bound must be a nonnegative int, got -1"),
            (["core"], -1, r"p\+q bound must be a nonnegative int, got -1"),
            (["salingaros"], -3, r"p\+q bound must be a nonnegative int, got -3"),
            (["quotient"], -1, r"p\+q bound must be a nonnegative int, got -1"),
            (["core"], 2.5, r"p\+q bound must be a nonnegative int, got 2\.5"),
            (["pseudo"], 2.5, r"p\+q bound must be a nonnegative int, got 2\.5"),
            (["quotient"], True, r"p\+q bound must be a nonnegative int, got True"),
            (["tables"], -1, r"p\+q bound must be a nonnegative int, got -1"),
            (list(SUITE_NAMES), -1, r"p\+q bound must be a nonnegative int, got -1"),
        ):
            with pytest.raises(ValueError, match=message):
                verify.run_suites(names, bound)
            if len(names) == 1:
                with pytest.raises(ValueError, match=message):
                    run_suite(names[0], bound)


_SMALL = st.integers(0, 5)
_FMT = st.sampled_from([[], ["--format", "json"]])


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_MARKS = st.lists(st.tuples(_SMALL, _SMALL), max_size=2).map(
    lambda marks: [a for p, q in marks for a in ("--mark", f"{p},{q}")])
_VERB_ARGV = st.one_of(
    st.tuples(st.sampled_from(["classify", "cover", "quotient"]).map(lambda v: [v]),
              _opt("--p", _SMALL), _opt("--q", _SMALL),
              _opt("--complex", st.integers(0, 6)), _MARKS, _FMT),
    st.tuples(st.just(["cover", "--cpt"]), _opt("--p", _SMALL), _opt("--q", _SMALL),
              _opt("--complex", st.integers(0, 6)), _MARKS, _FMT),
    st.tuples(st.just(["ext-group"]), _opt("--p", _SMALL), _opt("--q", _SMALL),
              st.sampled_from([[], ["--basis", "gamma"]]), _FMT),
    st.tuples(st.just(["table", "--kind"]), st.sampled_from(TABLE_KINDS).map(lambda k: [k]),
              _opt("--max", st.integers(0, 7)), _FMT),
    st.tuples(st.just(["verify", "--suite"]),
              st.sampled_from(SUITE_NAMES + ("all",)).map(lambda s: [s]),
              _opt("--max", st.integers(0, 2)), _FMT),
).map(lambda parts: [a for part in parts for a in part])


@settings(max_examples=150, deadline=None)
@given(argv=_VERB_ARGV)
def test_small_integer_argv_never_reaches_a_traceback(argv):
    """Every verb keeps the exit contract on small-integer arguments:
    0 ok, 1 falsified check, 2 usage or incoherent request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("error:") <= 1


class TestClassifyVerb:
    def test_real_summary_payload(self, capsys):
        code, payload = run_json(capsys, ["classify", "--p", "1", "--q", "3"])
        assert code == 0
        assert payload["schema"] == SCHEMA
        assert payload["field"] == "R"
        assert payload["ring"] == "H"
        assert payload["type"] == 6
        assert payload["simple"] is True
        assert payload["matrix_dimension"] == 2
        assert payload["algebra_cell"] == "H(2)"
        assert payload["group_cell"] == "N_4"
        assert payload["representation_cell"] == "H^6_1"

    def test_complex_summary_with_marked_real_form(self, capsys):
        code, payload = run_json(
            capsys, ["classify", "--complex", "4", "--mark", "1,3"]
        )
        assert code == 0
        assert payload["field"] == "C"
        assert payload["ring"] == "C"
        assert payload["matrix_dimension"] == 4
        assert payload["mark"]["ring"] == "H"
        assert payload["mark"]["type"] == 6

    def test_markdown_lists_every_summary_field(self, capsys):
        code, out = run_text(capsys, ["classify", "--p", "3", "--q", "0"])
        assert code == 0
        for key in ("ring", "type", "algebra_cell", "representation_cell"):
            assert f"- {key}:" in out


class TestTableVerb:
    @pytest.mark.parametrize("kind", sorted(GRID_BY_KIND))
    def test_grids_match_reference_transcription(self, capsys, kind):
        code, payload = run_json(capsys, ["table", "--kind", kind, "--max", "7"])
        assert code == 0
        assert payload["rows_are_q"] is True
        assert payload["cells"] == GRID_BY_KIND[kind]

    def test_markdown_grid_has_axis_header(self, capsys):
        code, out = run_text(capsys, ["table", "--kind", "rings", "--max", "2"])
        assert code == 0
        assert "q \\ p" in out

    def test_unknown_kind_is_usage_error(self, capsys):
        assert run(["table", "--kind", "nonsense"]) == 2


class TestExtGroupVerb:
    def test_bundled_gamma_payload(self, capsys):
        code, payload = run_json(capsys, ["ext-group", "--basis", "gamma"])
        assert code == 0
        assert payload["sig"] == "Cl(1,3)"
        assert payload["basis"] == "gamma"
        assert payload["signature"] == list(EXAMPLE2_SIGNATURE)
        assert payload["group"] == "*Z4xZ2"
        assert payload["abstract_signed_group"] == "D4oZ4"
        assert payload["pi_bar_sign"] == -1
        assert payload["abelian"] is False
        assert payload["order_structure"] == [3, 4]
        assert payload["census"] == {
            "real_symmetric": 1,
            "real_skew": 2,
            "imaginary_symmetric": 1,
            "imaginary_skew": 0,
        }

    def test_multiplication_table_closes_up_to_sign(self, capsys):
        _, payload = run_json(capsys, ["ext-group", "--p", "0", "--q", "4"])
        table = payload["table"]
        assert table["elements"][0] == "I"
        assert len(table["cells"]) == 8
        for row in table["cells"]:
            assert len(row) == 8
            assert all(cell[0] in "+-" for cell in row)

    def test_first_name_wins_where_names_coincide(self, capsys):
        # at Cl(2,0): Pi = I, K = W, S = E = I and F = C = W, so each cell
        # shows the first name of the pool that the product matches
        _, payload = run_json(capsys, ["ext-group", "--p", "2", "--q", "0"])
        even, odd = ["+I", "+W"] * 4, ["+W", "-I"] * 4
        assert payload["table"]["elements"] == ["I", "W", "E", "C", "Pi", "K", "S", "F"]
        assert payload["table"]["cells"] == [even, odd] * 4

    def test_p_plus_q_twenty_runs_below_the_size_limit(self, capsys):
        code, payload = run_json(capsys, ["ext-group", "--p", "20", "--q", "0"])
        assert code == 0
        assert payload["basis"] == "quat(20,0,split=(19, 1, 0, 1))"
        assert payload["signature"] == [1, -1, 1, -1, 1, 1, 1]
        assert (payload["group"], payload["abstract_signed_group"]) == ("D4", "D4")

    def test_non_monomial_basis_file_matches_the_built_basis(self, capsys, tmp_path):
        # two anticommuting real symmetric units of Cl(2,0), neither monomial;
        # their products land on the monomial matrices of the built basis
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps({"name": "rotated", "p": 2, "q": 0, "matrices": [
            [["3/5", "4/5"], ["4/5", "-3/5"]], [["-4/5", "3/5"], ["3/5", "4/5"]]]}))
        _, from_file = run_json(capsys, ["ext-group", "--basis", str(path)])
        _, built = run_json(capsys, ["ext-group", "--p", "2", "--q", "0"])
        assert from_file.pop("basis") == "rotated"
        built.pop("basis")
        assert from_file == built

    def test_signed_permutation_basis_file_matches_the_built_basis(self, capsys, tmp_path):
        # conjugating by the transposition of rows 0 and 1, which is not
        # affine on F2^3, keeps the units monomial but makes five of the six
        # no words: they load in the dense form and give the same report
        basis = build_spinbasis(SignatureSpec(1, 5))
        swap = SpinMatrix([[int(c == (r ^ 1 if r < 2 else r)) for c in range(8)]
                           for r in range(8)])
        path = tmp_path / "swapped.json"
        save_spinbasis(SpinBasis(basis.sig, [swap * m * swap for m in basis.mats],
                                 name="swapped"), str(path))
        assert sum(m.word is None for m in load_spinbasis(str(path)).mats) == 5
        _, from_file = run_json(capsys, ["ext-group", "--basis", str(path)])
        _, built = run_json(capsys, ["ext-group", "--p", "1", "--q", "5"])
        assert from_file.pop("basis") == "swapped"
        built.pop("basis")
        assert from_file == built

    def test_file_basis_round_trips(self, capsys, tmp_path):
        basis = build_spinbasis(SignatureSpec(1, 3))
        path = tmp_path / "basis.json"
        save_spinbasis(basis, str(path))
        _, from_file = run_json(capsys, ["ext-group", "--basis", str(path)])
        _, from_scratch = run_json(capsys, ["ext-group", "--p", "1", "--q", "3"])
        assert from_file == from_scratch


class TestCoverVerb:
    def test_seven_letter_cover_of_the_dirac_signature(self, capsys):
        code, payload = run_json(capsys, ["cover", "--p", "1", "--q", "3", "--cpt"])
        assert code == 0
        assert payload["where"] == "Cl(1,3)"
        assert payload["ring"] == "H"
        assert payload["signature"] == [-1, -1, -1, -1, 1, 1, 1]
        assert payload["cover_group"] == "*Z4xZ2xZ2"
        assert payload["automorphism_group"] == "*Z4xZ2"
        assert payload["cliffordian"] is True
        assert [len(s) for s in payload["admissible"]] == [7]

    def test_complex_two_letter_cover(self, capsys):
        code, payload = run_json(capsys, ["cover", "--complex", "4"])
        assert code == 0
        assert payload["where"] == "C(4)"
        assert payload["field"] == "C"
        assert payload["cover_group"] == "Z2xZ2xZ2"
        assert payload["automorphism_group"] == "Z2xZ2"
        assert payload["cliffordian"] is False


class TestQuotientVerb:
    def test_real_collapse_payload(self, capsys):
        code, payload = run_json(capsys, ["quotient", "--p", "2", "--q", "1"])
        assert code == 0
        assert payload["sig"] == "Cl(2,1)"
        assert payload["targets"] == ["Cl(2,0)", "Cl(1,1)"]
        assert payload["transferred"] == ["1", "PT", "CP", "CT"]
        assert payload["class"]["label"] == "e2"
        assert payload["class"]["ring"] == "2R"
        assert payload["covering"]["label"] == "pin^{a,b,c}"
        assert payload["covering"]["reductions"] == ["CP~P", "CPT~PT"]
        assert payload["covering"]["abstract"] == "Z2xZ2"
        assert payload["covering"]["cover_names"] == {
            "(1,1)": "D4",
            "(2,0)": "Z4xZ2",
        }
        assert payload["collapsed_grid"] == REPRESENTATIONS_EPS_8x8

    def test_complex_collapse_payload(self, capsys):
        code, payload = run_json(
            capsys, ["quotient", "--complex", "3", "--mark", "0,3"]
        )
        assert code == 0
        assert payload["sig"] == "C(3|0,3)"
        assert payload["epsilon"] == "1"
        assert payload["class"]["label"] == "d2"
        assert payload["covering"]["label"] == "pin^{c,e,f}"
        assert payload["covering"]["cover_names"] == {"(2,C)": "Q4"}

    def test_negative_volume_square_reroutes_to_the_complexification(self, capsys):
        code, payload = run_json(capsys, ["quotient", "--p", "3", "--q", "0"])
        assert code == 0
        assert payload["sig"] == "C(3|3,0)"
        assert payload["epsilon"] == "i"
        assert payload["class"]["label"] == "c"
        assert payload["covering"]["label"] == "pin^{c,d,g}"
        assert any("collapsed the complexified" in n for n in payload["notes"])

    def test_positive_volume_square_stays_real(self, capsys):
        code, payload = run_json(capsys, ["quotient", "--p", "0", "--q", "3"])
        assert code == 0
        assert payload["sig"] == "Cl(0,3)"
        assert payload["notes"] == []
        assert payload["class"]["label"] == "f2"
        assert payload["covering"]["label"] == "pin^{b,e,g}"

    def test_concrete_cover_above_eight(self, capsys):
        # targets of any buildable size get a concrete cover
        code, out = run_text(capsys, ["quotient", "--p", "13", "--q", "0"])
        assert code == 0
        assert "- pin^{b,d,f}(0,12) = (spin+(0,12) . C^{b,d,f}) / Z2" in out.splitlines()
        assert "- concrete cover over (0,12): D4" in out.splitlines()


class TestVerifyVerb:
    def test_pass_line_shape(self, capsys):
        code, out = run_text(capsys, ["verify", "--suite", "tables"])
        assert code == 0
        assert out.startswith("PASS tables: 256 checks, 0 counterexamples")

    def test_json_report(self, capsys):
        code, payload = run_json(
            capsys, ["verify", "--suite", "salingaros", "--max", "3"]
        )
        assert code == 0
        assert payload["ok"] is True
        (suite,) = payload["suites"]
        assert suite["name"] == "salingaros"
        assert suite["ok"] is True
        assert suite["counterexamples"] == []
        assert suite["checked"] > 0

    def test_failing_suite_exits_one_with_counterexample_json(self, capsys, monkeypatch):
        def broken(max_n=None):
            yield {"cell": [0, 0], "got": "?", "want": "R"}

        monkeypatch.setitem(verify._SUITES, "tables", (broken, None, None))
        code, out = run_text(capsys, ["verify", "--suite", "tables"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL tables: 1 checks, 1 counterexamples")
        blob = json.loads("\n".join(lines[1:]))
        assert blob["suite"] == "tables"
        assert blob["counterexamples"][0]["want"] == "R"

    @pytest.mark.parametrize("suite", ["pseudo", "all"])
    def test_failed_relation_is_an_internal_check_not_a_counterexample(self, capsys,
                                                                        monkeypatch, suite):
        # ext_group_report checks every defining relation before any sweep
        # check runs, so a failed relation exits 1 through the internal check
        # path and never reaches the suite's counterexample list
        monkeypatch.setitem(ext_automorphisms.DEFINING_RELATIONS, "Pi", SimpleNamespace(
            failures=lambda basis, x: (1 << basis.sig.n) - 1))
        assert run(["verify", "--suite", suite, "--max", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: verify: internal check failed: Pi relation failed at unit 1\n"
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert "suites" not in payload
        assert [c["check"] for c in payload["counterexamples"]] == ["Pi relation failed at unit 1"]

    def test_zero_bound_is_honoured(self, capsys):
        code, payload = run_json(capsys, ["verify", "--suite", "all", "--max", "0"])
        assert code == 0
        bounded = {s["name"]: s["detail"] for s in payload["suites"] if "p+q <=" in s["detail"]}
        assert set(bounded) == {"pseudo", "defining", "commutation", "census",
                                "salingaros", "quotient", "core"}
        assert all("p+q <= 0" in detail for detail in bounded.values())
        # in a run of all suites the fixed-domain ones ignore the bound
        fixed = {s["name"]: s["checked"] for s in payload["suites"] if s["name"] not in bounded}
        assert fixed == {"tables": 256, "example1": 132, "example2": 139}

    def test_negative_bound_is_usage_error(self, capsys):
        assert run(["verify", "--suite", "core", "--max", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: the p+q bound must be a nonnegative int, got -1\n"

    def test_every_announced_suite_is_runnable(self):
        assert len(SUITE_NAMES) == 10
        assert set(SUITE_NAMES) == set(verify._SUITES)

    @pytest.mark.parametrize("name", ["tables", "example1", "example2"])
    def test_printed_oracle_suites_pass(self, name):
        result = run_suite(name)
        assert result.ok, result.counterexamples
        assert result.counterexamples == []


# check count and detail of each quaternionic sweep at p+q <= 6
SWEEP_PINS = {
    "pseudo": (699, "8 signature cells, p+q <= 6"),
    "defining": (2574, "8 signature cells, p+q <= 6"),
    "commutation": (5028, "8 signature cells, p+q <= 6"),
    "census": (18, "17 distinct signatures realized (bound 64), p+q <= 6"),
}


# the same at p+q <= 10, past the acceptance gate's own domain (p+q <= 8):
# the cross-term comm_parity_terms restores and the census bound of 64 hold there
SWEEP_PINS_AT_TEN = {
    "pseudo": (4602, "17 signature cells, p+q <= 10"),
    "defining": (16044, "17 signature cells, p+q <= 10"),
    "commutation": (23340, "17 signature cells, p+q <= 10"),
    "census": (32, "31 distinct signatures realized (bound 64), p+q <= 10"),
}


# and at p+q <= 12, where the census already counts the 32 signatures it finds at 14
SWEEP_PINS_AT_TWELVE = {
    "pseudo": (9492, "24 signature cells, p+q <= 12"),
    "defining": (32508, "24 signature cells, p+q <= 12"),
    "commutation": (41964, "24 signature cells, p+q <= 12"),
    "census": (33, "32 distinct signatures realized (bound 64), p+q <= 12"),
}


@pytest.fixture(scope="module")
def sweeps_at_six():
    return {name: run_suite(name, 6) for name in SWEEP_PINS}


@pytest.fixture(scope="module")
def sweeps_at_twelve():
    return {name: run_suite(name, 12) for name in SWEEP_PINS_AT_TWELVE}


class TestSweepSuites:
    def test_check_counts_at_bound_six(self, sweeps_at_six):
        assert all(r.ok for r in sweeps_at_six.values())
        assert {name: r.checked for name, r in sweeps_at_six.items()} == \
            {name: pin[0] for name, pin in SWEEP_PINS.items()}

    def test_details_at_bound_six(self, sweeps_at_six):
        assert {name: r.detail for name, r in sweeps_at_six.items()} == \
            {name: pin[1] for name, pin in SWEEP_PINS.items()}

    @pytest.mark.parametrize("name", SWEEP_PINS_AT_TEN)
    def test_pins_at_bound_ten(self, name):
        result = run_suite(name, 10)
        assert (result.ok, result.counterexamples) == (True, [])
        assert (result.checked, result.detail) == SWEEP_PINS_AT_TEN[name]

    def test_pins_at_bound_twelve(self, sweeps_at_twelve):
        assert {name: (r.ok, r.counterexamples, r.checked, r.detail)
                for name, r in sweeps_at_twelve.items()} == \
            {name: (True, [], *pin) for name, pin in SWEEP_PINS_AT_TWELVE.items()}


class TestSweepPass:
    """`run_suites` runs the selected sweeps in one pass over the stream of
    (sig, basis, report) pairs; each result matches its lone run_suite."""

    def test_one_pass_matches_four_runs_at_bound_six(self, sweeps_at_six):
        shared = verify.run_suites(list(SWEEP_PINS), 6)
        assert [r.name for r in shared] == list(SWEEP_PINS)
        assert [(r.ok, r.checked, r.detail, r.counterexamples) for r in shared] == \
            [(r.ok, r.checked, r.detail, r.counterexamples) for r in sweeps_at_six.values()]

    def test_a_flagged_basis_gives_the_same_counterexamples_both_ways(self, monkeypatch):
        check, total = verify._SWEEPS["defining"]

        def flags_one(sig, basis, report):
            yield from check(sig, basis, report)
            yield not (basis.name.endswith(",flipped") and sig == SignatureSpec(1, 3)) or \
                {"check": "planted"}

        monkeypatch.setitem(verify._SWEEPS, "defining", (flags_one, total))
        lone = run_suite("defining", 4)
        shared = dict(zip(SWEEP_PINS, verify.run_suites(list(SWEEP_PINS), 4)))
        assert not lone.ok and not shared["defining"].ok
        assert [c["check"] for c in lone.counterexamples] == ["planted"] * 4
        assert shared["defining"].counterexamples == lone.counterexamples
        assert all(shared[name].ok for name in ("pseudo", "commutation", "census"))

    def test_verify_all_builds_each_pair_once(self, capsys, monkeypatch):
        real, calls = ext_automorphisms.ext_group_report, []

        def counted(basis):
            calls.append(basis.name)
            return real(basis)

        monkeypatch.setattr(ext_automorphisms, "ext_group_report", counted)
        assert run(["verify", "--suite", "all", "--max", "6"]) == 0
        capsys.readouterr()
        assert len(calls) == 90  # the pairs at p+q <= 6; one run_suite per sweep makes 360

    def test_the_pass_holds_one_pair_at_a_time(self, monkeypatch):
        real, refs, dead = verify.quaternionic_signatures, [], []

        def stream(max_n):
            for item in real(max_n):
                refs.append(weakref.ref(item[2]))
                yield item
                # the next pair is requested: the report two items back is gone
                if len(refs) >= 2:
                    dead.append(refs[-2]() is None)

        monkeypatch.setattr(verify, "quaternionic_signatures", stream)
        assert all(r.ok for r in verify.run_suites(list(SWEEP_PINS), 6))
        assert len(dead) == 89 and all(dead)

    def test_shared_elapsed_adds_up_to_the_pass(self):
        t0 = time.monotonic()
        shared = verify.run_suites(list(SWEEP_PINS), 4)
        wall = time.monotonic() - t0
        assert all(r.elapsed > 0 for r in shared)
        assert sum(r.elapsed for r in shared) <= wall


# (ok, checked, detail) of each algebra suite at the bound bench/run.py runs it at
ALGEBRA_PINS = {
    ("core", 6): (True, 40107, "all (p,q) with p+q <= 6"),
    ("quotient", 7): (True, 10362, "odd contexts to p+q <= 7, collapse maps to 5"),
    ("salingaros", 6): (True, 28, "all (p,q) with p+q <= 6"),
}


class TestAlgebraSuites:
    @pytest.mark.parametrize("name, bound", ALGEBRA_PINS)
    def test_pins_at_benchmark_bounds(self, name, bound):
        result = run_suite(name, bound)
        assert result.counterexamples == []
        assert (result.ok, result.checked, result.detail) == ALGEBRA_PINS[name, bound]

    def test_core_reports_a_pseudo_conjugation_wrong_on_one_blade(self, monkeypatch):
        real = MultiVector.pseudo_conjugation

        def e1_flipped(self):
            image = real(self)
            return MultiVector(image.sig, {m: -c if m == 0b1 else c for m, c in image.items()})

        monkeypatch.setattr(MultiVector, "pseudo_conjugation", e1_flipped)
        result = run_suite("core", 3)
        assert not result.ok
        assert {c["check"] for c in result.counterexamples} == {"pseudo multiplicativity"}

    def test_quotient_reports_an_epsilon_map_wrong_on_one_blade(self, monkeypatch):
        real = verify.epsilon_map

        def e2_negated(x, ctx):
            image = real(x, ctx)
            return -image if list(x.items()) == [(0b10, GaussianScalar.ONE)] else image

        monkeypatch.setattr(verify, "epsilon_map", e2_negated)
        result = run_suite("quotient", 3)
        assert not result.ok
        assert {c["check"] for c in result.counterexamples} == {"homomorphism"}

    def test_quotient_reports_failed_idempotents_and_keeps_counting(self, monkeypatch):
        checked = run_suite("quotient", 3).checked

        def failing(ctx):
            raise AssertionError("idempotency failed")

        monkeypatch.setattr(verify, "central_idempotents", failing)
        result = run_suite("quotient", 3)
        assert (result.ok, result.checked) == (False, checked)
        assert result.counterexamples == [
            {"sig": str(ctx.sig), "check": "idempotents", "error": "idempotency failed"}
            for ctx in verify._quotient_contexts(3)
        ]


def test_every_suite_body_yields_its_outcomes():
    """Each suite counts its checks through the one protocol: a body, a
    per-basis sweep check or an end-of-stream check is a generator, never a
    hand-kept tally."""
    bodies = [body for body, _, _ in verify._SUITES.values() if body is not None]
    bodies += [check for pair in verify._SWEEPS.values() for check in pair]
    assert len(bodies) == 14
    assert [f.__name__ for f in bodies if not inspect.isgeneratorfunction(f)] == []


class TestPlantedFailures:
    """One wrong answer planted under a name each suite reads: the suite
    reports exactly that counterexample, in order, and keeps its count."""

    @staticmethod
    def outcome(result):
        return result.ok, result.checked, result.detail, result.counterexamples

    def test_tables_reports_one_flipped_cell(self, monkeypatch):
        real = verify.build_table

        def flipped(kind, max_index=7):
            grid = real(kind, max_index)
            if kind == "rings":
                grid[2][3] = "?"
            return grid

        monkeypatch.setattr(verify, "build_table", flipped)
        assert self.outcome(run_suite("tables")) == (False, 256, "", [
            {"kind": "rings", "p": 3, "q": 2, "generated": "?", "printed": "2R(4)"}])

    def test_example1_reports_one_changed_printed_cell(self, monkeypatch):
        bundle = copy.deepcopy(verify._bundle())
        assert (2, 5) not in EXAMPLE1_GAMMA_TYPOS
        bundle["example1"]["gamma_table"][2][5] = "-g213"
        monkeypatch.setattr(verify, "_bundle", lambda: bundle)
        assert self.outcome(run_suite("example1")) == (False, 132, "", [
            {"table": "gamma", "row": "g13", "col": "g2", "got": "+g213", "printed": "-g213"}])

    def test_example2_reports_a_changed_monomial_and_skips_the_tables(self, monkeypatch):
        bundle = copy.deepcopy(verify._bundle())
        bundle["example2"]["monomials"]["K"] = [1]
        monkeypatch.setattr(verify, "_bundle", lambda: bundle)
        # 7 monomials and 4 classification checks; the 128 table checks wait
        # until those all hold
        assert self.outcome(run_suite("example2")) == (
            False, 11, "construction signs: W+, E+, C+, Pi+, K-, S-, F-",
            [{"check": "monomial", "name": "K", "printed_units": [1]}])

    def test_salingaros_reports_one_failed_signature(self, monkeypatch):
        real = verify.vee_factor_check

        def fails_at_1_2(sig):
            if sig == SignatureSpec(1, 2):
                return SimpleNamespace(passed=False, failures=["planted"])
            return real(sig)

        monkeypatch.setattr(verify, "vee_factor_check", fails_at_1_2)
        assert self.outcome(run_suite("salingaros", 3)) == (
            False, 10, "all (p,q) with p+q <= 3", [{"sig": "Cl(1,2)", "failures": ["planted"]}])

    def test_pseudo_reports_a_wrong_prediction_on_one_census(self, monkeypatch):
        real = verify.predicted_pi_bar

        def wrong_on_one(census, form):
            want = real(census, form)
            return -want if census == UnitCensus(v=0, l=1, u=1, m=0) else want

        monkeypatch.setattr(verify, "predicted_pi_bar", wrong_on_one)
        split = "quat(0,2,split=(1, 1, 1, 0))"
        assert self.outcome(run_suite("pseudo", 2)) == (
            False, 27, "1 signature cells, p+q <= 2",
            [{"sig": "Cl(0,2)", "basis": split + tweak, "check": "pi_bar_vs_prediction",
              "predicted": 1} for tweak in ("", ",reversed", ",flipped")])

    def test_commutation_reports_one_flipped_pair(self, monkeypatch):
        real = verify.universal_comm_sign

        def flipped(mask_x, mask_y):
            sign = real(mask_x, mask_y)
            return -sign if (mask_x, mask_y) == (0b110, 0b010) else sign

        monkeypatch.setattr(verify, "universal_comm_sign", flipped)
        split = "quat(0,2,split=(1, 1, 1, 0))"
        assert self.outcome(run_suite("commutation", 2)) == (
            False, 336, "1 signature cells, p+q <= 2",
            [{"sig": "Cl(0,2)", "basis": split + tweak, "check": "universal_rule",
              "pair": ["W", other], "got": -1}
             for tweak, others in (("", "C Pi"), (",reversed", "E K"), (",flipped", "C Pi"))
             for other in others.split()])

    def test_census_reports_one_odd_signature(self, monkeypatch):
        real = verify.quaternionic_signatures

        def stream(max_n):
            for sig, basis, report in real(max_n):
                yield sig, basis, report
            yield sig, basis, SimpleNamespace(signature=(-1, 1, 1, 1, 1, 1, 1))

        monkeypatch.setattr(verify, "quaternionic_signatures", stream)
        assert self.outcome(run_suite("census", 2)) == (
            False, 4, "3 distinct signatures realized (bound 64), p+q <= 2",
            [{"signature": [-1, 1, 1, 1, 1, 1, 1], "minus_count": 1}])


def test_pins_match_the_benchmark_table():
    """bench/run.py checks each suite's count on every operation; a pin here
    that drifts from its (suite, bound, count) rows fails the ordinary test
    run, not only the benchmark.  No suite runs."""
    spec = importlib.util.spec_from_file_location("cliffork_bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert {(name, bound): count for rows in bench.SUITES.values()
            for name, bound, count in rows} == \
        {**{(name, 6): pin[0] for name, pin in SWEEP_PINS.items()},
         **{key: pin[1] for key, pin in ALGEBRA_PINS.items()}}


# (ok, checked, detail) of every suite at its default bound
DEFAULT_PINS = {
    "tables": (True, 256, ""),
    "example1": (True, 132, ""),
    "example2": (True, 139, "construction signs: W+, E+, C+, Pi+, K+, S-, F-"),
    "pseudo": (True, 1968, "12 signature cells, p+q <= 8"),
    "defining": (True, 7014, "12 signature cells, p+q <= 8"),
    "commutation": (True, 11700, "12 signature cells, p+q <= 8"),
    "census": (True, 26, "25 distinct signatures realized (bound 64), p+q <= 8"),
    "salingaros": (True, 28, "all (p,q) with p+q <= 6"),
    "quotient": (True, 10362, "odd contexts to p+q <= 7, collapse maps to 5"),
    "core": (True, 40107, "all (p,q) with p+q <= 6"),
}


@pytest.fixture(scope="module")
def suites_at_default():
    return verify.run_suites(SUITE_NAMES)


def test_every_suite_at_its_default_bound(suites_at_default):
    assert [r.name for r in suites_at_default] == list(DEFAULT_PINS)
    assert {r.name: (r.ok, r.checked, r.detail) for r in suites_at_default} == DEFAULT_PINS
    assert all(r.counterexamples == [] for r in suites_at_default)


class TestDeterminism:
    CASES = [
        ["classify", "--p", "3", "--q", "2"],
        ["table", "--kind", "salingaros", "--max", "5"],
        ["ext-group", "--basis", "gamma"],
        ["cover", "--p", "5", "--q", "0", "--cpt"],
        ["quotient", "--p", "5", "--q", "0"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    @pytest.mark.parametrize("fmt", ["markdown", "json"])
    def test_repeat_runs_are_byte_identical(self, capsys, argv, fmt):
        _, first = run_text(capsys, argv + ["--format", fmt])
        _, second = run_text(capsys, argv + ["--format", fmt])
        assert first == second

    def test_fresh_processes_agree(self):
        argv = [
            sys.executable,
            "-m",
            "cliffork.cli",
            "table",
            "--kind",
            "rings",
            "--format",
            "json",
        ]
        first = subprocess.run(argv, capture_output=True, check=True).stdout
        second = subprocess.run(argv, capture_output=True, check=True).stdout
        assert first == second
        assert json.loads(first.decode())["schema"] == SCHEMA


class TestBundledData:
    # the shipped oracle file must agree with the independent transcription
    # kept in the test fixtures
    def test_grids_match_reference_transcription(self):
        bundle = verify._bundle()
        for kind, grid in GRID_BY_KIND.items():
            assert bundle["tables"][kind] == grid

    def test_worked_example_tables_match_reference_transcription(self):
        bundle = verify._bundle()
        ex1 = bundle["example1"]
        assert ex1["gamma_table"] == EXAMPLE1_GAMMA_PRINTED
        assert {tuple(c) for c in ex1["gamma_typos"]} == EXAMPLE1_GAMMA_TYPOS
        ex2 = bundle["example2"]
        assert ex2["signature"] == list(EXAMPLE2_SIGNATURE)
        assert {tuple(c) for c in ex2["gamma_typos"]} == EXAMPLE2_GAMMA_TYPOS
        assert ex2["group"] == "*Z4xZ2"
