import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nuctrace
import nuctrace.cli as cli
import nuctrace.factorization as factorization
from nuctrace import (
    DenseOperator,
    NuclearRep,
    build_pipeline,
    cli_main,
    config_from_json,
    lp,
    pipeline_to_json,
    rep_from_json,
    rep_to_json,
)

from conftest import make_rng, random_rep


@pytest.fixture
def rep_file(tmp_path):
    rep = NuclearRep(lp(2, 4), [1.0, 0.25], np.eye(4)[:2], np.eye(4)[:2])
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "p": "2",
                "family": "random_unit",
                "decay": {"exponent_multiplier": 1.1, "term_count": 6},
                "ladder": [4, 6, 8],
                "seed": 31337,
                "tolerances": {"reconstruction": 1e-10, "trace": 1e-10},
                "out_dir": str(tmp_path / "out"),
                "cases_per_level": 2,
            }
        )
    )
    return path


class TestExponentsCommand:
    def test_inf(self, capsys):
        assert cli_main(["exponents", "--p", "inf"]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": "inf", "s": "2/3", "r": "2"}

    def test_two(self, capsys):
        assert cli_main(["exponents", "--p", "2"]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": "2", "s": "1", "r": "inf"}

    def test_rational(self, capsys):
        assert cli_main(["exponents", "--p", "4/3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": "4", "s": "4/5", "r": "4"}

    def test_bad_exponent_is_usage_error(self, capsys):
        assert cli_main(["exponents", "--p", "half"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["1e999999", "1e9999999", "1E-1_001", "7" * 65])
    def test_huge_literal_exits_2_at_once(self, literal, capsys):
        start = time.perf_counter()
        assert cli_main(["exponents", "--p", literal]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: exponent literal") and err.count("\n") == 1


class TestSpectrumCommand:
    def test_prints_report(self, rep_file, capsys):
        assert cli_main(["spectrum", "--rep", str(rep_file)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 4
        assert data["matrix_trace"] == pytest.approx(1.25)
        assert data["eigenvalues"][0] == [1.0, 0.0]

    def test_missing_file(self, tmp_path, capsys):
        assert cli_main(["spectrum", "--rep", str(tmp_path / "nope.json")]) == 2

    def test_eigensolver_failure_exits_1(self, rep_file, capsys, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert cli_main(["spectrum", "--rep", str(rep_file)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: eigensolver failed to converge: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "functional", [[float("nan"), 0.0, 0.0], [1.7e308] * 3], ids=["nan", "1.7e308"]
    )
    def test_nonfinite_or_overflowing_rep_is_usage_error(self, functional, tmp_path, capsys):
        src = tmp_path / "bad.json"
        term = {"mu": 1.0, "functional": functional, "vector": [1.0, 0.0, 0.0]}
        src.write_text(json.dumps({"ambient": {"p": "2", "dim": 3}, "terms": [term]}))
        for argv in (["spectrum", "--rep", str(src)],
                     ["factorize", "--rep", str(src), "--out", str(tmp_path / "o.json")]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "Traceback" not in captured.err and "eigensolver" not in captured.err


CONFIG = {
    "p": "2",
    "family": "random_unit",
    "decay": {"exponent_multiplier": 1.1, "term_count": 4},
    "ladder": [16, 32, 64],
    "seed": 1,
}
# a valid rep as text, for the entries below that break it in one place
REP_TEXT = (
    '{"ambient": {"p": "2", "dim": 2}, '
    '"terms": [{"mu": 1.0, "functional": [1.0, 0.0], "vector": [0.5, 0.0]}]}'
)
# an entry whose data is a str is written to the file verbatim, for numbers
# like 1e400 that json.dumps cannot produce
MALFORMED = {
    "rep_term_without_functional": (
        "spectrum",
        {"ambient": {"p": "2", "dim": 2}, "terms": [{"mu": 1.0, "vector": [1.0, 0.0]}]},
    ),
    "rep_top_level_list": ("spectrum", [{"mu": 1.0}]),
    "config_decay_number": (
        "suite",
        {"p": "2", "family": "random_unit", "decay": 5, "ladder": [4, 6, 8], "seed": 1},
    ),
    "config_top_level_list": ("suite", ["p", "2"]),
    # a rep dim given as a fraction, a string or a boolean is rejected, not truncated
    "rep_dim_fraction": ("spectrum", {"ambient": {"p": "2", "dim": 2.9}, "terms": []}),
    "rep_dim_string": ("spectrum", {"ambient": {"p": "2", "dim": "3"}, "terms": []}),
    "rep_dim_boolean": ("spectrum", {"ambient": {"p": "2", "dim": True}, "terms": []}),
    # a literal Fraction would expand to ten million digits before rejecting it
    "rep_p_huge_literal": ("spectrum", {"ambient": {"p": "1e9999999", "dim": 2}, "terms": []}),
    "rep_order_huge_literal": (
        "spectrum",
        {"ambient": {"p": "2", "dim": 2}, "order_s": "1e-9999999", "terms": []},
    ),
    "config_p_huge_literal": ("suite", {**CONFIG, "p": "1e9999999"}),
    # an exponent or order given as a boolean is rejected, not read as 1
    "config_p_boolean": ("suite", {**CONFIG, "p": True}),
    "rep_p_boolean": ("spectrum", {"ambient": {"p": True, "dim": 2}, "terms": []}),
    "rep_order_boolean": (
        "spectrum",
        {"ambient": {"p": "2", "dim": 2}, "order_s": True, "terms": []},
    ),
    # an order must be the curve value of p (here 1), not a free choice
    "rep_order_off_curve": ("spectrum", REP_TEXT.replace('"terms"', '"order_s": "1/2", "terms"')),
    # rep numbers given as strings or booleans are rejected, not converted
    "rep_mu_string": ("spectrum", REP_TEXT.replace('"mu": 1.0', '"mu": "1.5"')),
    "rep_functional_boolean": (
        "spectrum",
        REP_TEXT.replace('"functional": [1.0, 0.0]', '"functional": [true, 0.0]'),
    ),
    "rep_vector_numeric_string": (
        "spectrum",
        REP_TEXT.replace('"vector": [0.5, 0.0]', '"vector": ["1", 0]'),
    ),
    # terms given as an object used to load as an empty rep
    "rep_terms_object": ("spectrum", {"ambient": {"p": "2", "dim": 2}, "terms": {}}),
    # integer fields given as a fraction, a string or a boolean are rejected, not truncated
    "config_ladder_fraction_and_string": ("suite", {**CONFIG, "ladder": [16.9, "32", 64]}),
    "config_seed_fraction": ("suite", {**CONFIG, "seed": 1.7}),
    "config_seed_boolean": ("suite", {**CONFIG, "seed": True}),
    "config_cases_per_level_fraction": ("suite", {**CONFIG, "cases_per_level": 2.5}),
    "config_term_count_string": (
        "suite",
        {**CONFIG, "decay": {"exponent_multiplier": 1.1, "term_count": "4"}},
    ),
    # an infinite tolerance would pass every case, an infinite multiplier
    # zeroes every weight past the first, and a non-string out_dir would
    # name a directory "['x']"
    "config_trace_tolerance_inf_string": ("suite", {**CONFIG, "tolerances": {"trace": "inf"}}),
    "config_trace_tolerance_1e400": (
        "suite",
        '{"p": "2", "family": "random_unit", "ladder": [16, 32, 64], "seed": 1, '
        '"decay": {"exponent_multiplier": 1.1, "term_count": 4}, "tolerances": {"trace": 1e400}}',
    ),
    "config_exponent_multiplier_1e400": (
        "suite",
        '{"p": "2", "family": "random_unit", "ladder": [16, 32, 64], "seed": 1, '
        '"decay": {"exponent_multiplier": 1e400, "term_count": 4}}',
    ),
    "config_out_dir_list": ("suite", {**CONFIG, "out_dir": ["x"]}),
    # float fields given as a boolean or a numeric string are rejected, not
    # converted: true would load as a trace tolerance of 1.0
    "config_trace_tolerance_boolean": ("suite", {**CONFIG, "tolerances": {"trace": True}}),
    # a reconstruction tolerance above the library's own budget would never
    # be read: build_pipeline raises before the suite checks it
    "config_reconstruction_tolerance_above_budget": (
        "suite",
        {**CONFIG, "tolerances": {"reconstruction": 1e-6}},
    ),
    "config_reconstruction_tolerance_string": (
        "suite",
        {**CONFIG, "tolerances": {"reconstruction": "1e-3"}},
    ),
    "config_exponent_multiplier_string": (
        "suite",
        {**CONFIG, "decay": {"exponent_multiplier": "1.5", "term_count": 4}},
    ),
    "config_exponent_multiplier_boolean": (
        "suite",
        {**CONFIG, "decay": {"exponent_multiplier": True, "term_count": 4}},
    ),
    # input files are strict JSON: no NaN or Infinity literal, no number
    # that overflows a double, no byte order mark
    "rep_nan_literal": ("spectrum", REP_TEXT.replace('"mu": 1.0', '"mu": NaN')),
    "rep_infinity_literal": ("spectrum", REP_TEXT.replace("[1.0, 0.0]", "[Infinity, 0.0]")),
    "rep_coordinate_1e400": ("spectrum", REP_TEXT.replace("[0.5, 0.0]", "[1e400, 0.0]")),
    "rep_utf8_bom": ("spectrum", "\ufeff" + REP_TEXT),
    # an exact exponent, but one whose norms would need float(p)
    "rep_p_past_double": ("spectrum", REP_TEXT.replace('"p": "2"', '"p": "1e400"')),
    "config_p_past_double": ("suite", {**CONFIG, "p": "1e400"}),
    # a term row that is ragged or not an array at all, which numpy reported
    # in its own words
    "rep_ragged_functional": (
        "spectrum",
        REP_TEXT.replace("}]}", '}, {"mu": 1.0, "functional": [1.0], "vector": [0.5, 0.0]}]}'),
    ),
    "rep_functional_number": ("spectrum", REP_TEXT.replace("[1.0, 0.0]", "1.0")),
    # diagonal ladders whose level sums do not gain strictly less at each
    # level, which the ladder suite's gap gate fails: every level past
    # term_count holds the same weights, and unevenly spaced levels
    "config_diagonal_levels_past_term_count": (
        "suite",
        {**CONFIG, "family": "diagonal", "ladder": [64, 128, 256, 512],
         "decay": {"exponent_multiplier": 1.1, "term_count": 128}},
    ),
    "config_diagonal_uneven_levels": (
        "suite",
        {**CONFIG, "p": "1", "family": "diagonal", "ladder": [2, 3, 5],
         "decay": {"exponent_multiplier": 1.1, "term_count": 5}},
    ),
}


class TestMalformedJson:
    def test_rep_text_is_valid(self, tmp_path, capsys):
        src = tmp_path / "rep.json"
        src.write_text(REP_TEXT)
        assert cli_main(["spectrum", "--rep", str(src)]) == 0

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_2_with_one_line(self, name, tmp_path, capsys):
        command, data = MALFORMED[name]
        src = tmp_path / f"{name}.json"
        src.write_text(data if isinstance(data, str) else json.dumps(data))
        flag = "--config" if command == "suite" else "--rep"
        assert cli_main([command, flag, str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "name",
        ["rep_order_off_curve", "rep_mu_string", "rep_functional_boolean",
         "rep_vector_numeric_string", "rep_ragged_functional", "rep_functional_number"],
    )
    def test_rejected_at_load_by_both_commands(self, name, tmp_path, capsys):
        src = tmp_path / "rep.json"
        data = MALFORMED[name][1]
        src.write_text(data if isinstance(data, str) else json.dumps(data))
        for argv in (["spectrum", "--rep", str(src)],
                     ["factorize", "--rep", str(src), "--out", str(tmp_path / "pipe.json")]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "representation" in captured.err
        assert not (tmp_path / "pipe.json").exists()

    @pytest.mark.parametrize(
        ("name", "message"),
        [("rep_ragged_functional", "representation term 1 functional has 1 coordinates, dim is 2"),
         ("rep_functional_number", "representation term 0 functional must be a JSON array, "
                                   "got float"),
         ("config_diagonal_levels_past_term_count", "[0.439, 0, 0]"),
         ("config_diagonal_uneven_levels", "[0.163, 0.172]")],
    )
    def test_names_the_row_or_the_gaps(self, name, message, tmp_path, capsys):
        self.test_exits_2_with_one_line(name, tmp_path, capsys)  # writes the file
        command = MALFORMED[name][0]
        flag = "--config" if command == "suite" else "--rep"
        cli_main([command, flag, str(tmp_path / f"{name}.json")])
        assert message in capsys.readouterr().err

    def test_p_past_double_runs_nothing(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rep.write_text(MALFORMED["rep_p_past_double"][1])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**CONFIG, "p": "1e400", "out_dir": str(tmp_path / "out")}))
        for argv in (["factorize", "--rep", str(rep), "--out", str(tmp_path / "pipe.json")],
                     ["suite", "--config", str(config)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "largest double" in err and "0" * 100 not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "rep.json"]
        # the triple itself stays exact
        assert cli_main(["exponents", "--p", "1e400"]) == 0
        triple = json.loads(capsys.readouterr().out)
        assert triple["p"] == "1" + "0" * 400 and triple["r"] == str(F(2 * 10**400, 10**400 - 2))

    @pytest.mark.parametrize("name", sorted(n for n in MALFORMED if n.endswith("_huge_literal")))
    def test_huge_literal_is_rejected_at_once(self, name, tmp_path, capsys):
        start = time.perf_counter()
        self.test_exits_2_with_one_line(name, tmp_path, capsys)
        assert time.perf_counter() - start < 1.0


def _bits(values):
    """Each float exactly, as its hex spelling: 0.0 and -0.0 differ."""
    return [float(v).hex() for v in values]


def _as_lists(data):
    """``data`` with every ndarray leaf replaced by its ``tolist()``."""
    if isinstance(data, np.ndarray):
        return data.tolist()
    if isinstance(data, dict):
        return {key: _as_lists(value) for key, value in data.items()}
    if isinstance(data, list):
        return [_as_lists(value) for value in data]
    return data


# -0.0, the smallest and largest subnormals, integer-valued doubles past
# 2^53 that print in exponent form, and +-max
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16, 1e22, -1e22,
                1.7976931348623157e308, -1.7976931348623157e308]

# every finite double, drawn by its bit pattern, with the edge cases boosted
FINITE_DOUBLES = st.sampled_from(EDGE_DOUBLES) | st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
).filter(math.isfinite)


@st.composite
def decimal_literals(draw):
    """JSON number literals with 1-40 significant digits and exponents in +-340."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    mantissa = digits if len(digits) == 1 else f"{digits[0]}.{digits[1:]}"
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{mantissa}e{draw(st.integers(-340, 340))}"


class TestOrjsonParity:
    """The CLI reads its input files and writes the pipeline file with
    orjson; it must read and write the same doubles as the stdlib json."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_loads_matches_json_on_dumped_floats(self, values):
        text = json.dumps(values)
        assert _bits(orjson.loads(text)) == _bits(json.loads(text)) == _bits(values)

    @settings(max_examples=1000, deadline=None)
    @given(decimal_literals())
    def test_loads_matches_json_on_decimal_literals(self, literal):
        expected = json.loads(literal)
        if math.isinf(expected):
            # json reads an overflowing literal as inf; the CLI rejects it
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(literal)
        else:
            assert _bits([orjson.loads(literal)]) == _bits([expected])

    def test_load_json_reads_a_rep_as_json_does(self, tmp_path):
        text = json.dumps(rep_to_json(random_rep(make_rng(5), "3", 40, 12)))
        src = tmp_path / "rep.json"
        src.write_text(text)
        got, want = rep_from_json(cli._load_json(str(src))), rep_from_json(json.loads(text))
        for name in ("mu", "functionals", "vectors"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @staticmethod
    def check_pipeline_file(rep, tmp_path):
        src, out = tmp_path / "rep.json", tmp_path / "pipe.json"
        src.write_text(json.dumps(rep_to_json(rep)))
        assert cli_main(["factorize", "--rep", str(src), "--out", str(out)]) == 0
        doc = _as_lists(pipeline_to_json(build_pipeline(rep_from_json(json.loads(src.read_text())))))
        text = out.read_text()
        # orjson writes a non-finite float as null
        assert "null" not in text
        # re-spelled by json, the file is what json.dumps writes for the
        # pipeline document with every array leaf turned into a list
        assert json.dumps(json.loads(text), sort_keys=True) == json.dumps(doc, sort_keys=True)
        # and byte for byte what orjson writes for that list-based document
        assert out.read_bytes() == orjson.dumps(doc, option=orjson.OPT_SORT_KEYS) + b"\n"

    @pytest.mark.parametrize("p", ["inf", "3", "4/3", "1"])
    def test_pipeline_file_holds_the_pipeline(self, p, tmp_path, capsys):
        # k = 8 terms on n = 12 coordinates: A and B are not square
        self.check_pipeline_file(random_rep(make_rng(17), p, 12, 8), tmp_path)

    @pytest.mark.parametrize("p", ["inf", "2", "4/3"])
    def test_pipeline_file_of_one_term(self, p, tmp_path, capsys):
        self.check_pipeline_file(random_rep(make_rng(18), p, 5, 1), tmp_path)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                      elements=FINITE_DOUBLES))
    def test_numpy_arrays_dump_as_their_lists(self, a):
        assert orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY) == orjson.dumps(a.tolist())

    def test_edge_doubles_dump_as_their_lists(self):
        a = np.array(EDGE_DOUBLES)
        for arr in (a, a.reshape(2, -1), a.reshape(-1, 2)):
            assert orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY) == orjson.dumps(arr.tolist())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
VALID_REP = {
    "ambient": {"p": "3", "dim": 2},
    "order_s": "6/7",
    "terms": [{"mu": 1.0, "functional": [1.0, 0.5], "vector": [0.0, 2.0]}],
}
VALID_CONFIG = {
    "p": "2",
    "family": "diagonal",
    "decay": {"exponent_multiplier": 1.1, "term_count": 4},
    "ladder": [4, 8],
    "seed": 1,
    "tolerances": {"reconstruction": 1e-10, "trace": 1e-10},
    "out_dir": "out",
    "cases_per_level": 2,
}


def _mutated(valid):
    """``valid`` with one field, at any depth, replaced by an arbitrary JSON value."""

    def paths(node, prefix=()):
        yield prefix
        children = ()
        if isinstance(node, dict):
            children = node.items()
        elif isinstance(node, list):
            children = enumerate(node)
        for key, child in children:
            yield from paths(child, prefix + (key,))

    def replace(node, path, value):
        if not path:
            return value
        node = json.loads(json.dumps(node))
        node[path[0]] = replace(node[path[0]], path[1:], value)
        return node

    return st.builds(replace, st.just(valid), st.sampled_from(list(paths(valid))), JSON_VALUES)


class TestLoaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(JSON_VALUES, _mutated(VALID_REP)))
    def test_rep_loader_raises_only_value_error(self, data):
        try:
            rep_from_json(data)
        except ValueError as exc:
            assert "\n" not in str(exc)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(JSON_VALUES, _mutated(VALID_CONFIG)))
    def test_config_loader_raises_only_value_error(self, data):
        try:
            config_from_json(data)
        except ValueError as exc:
            assert "\n" not in str(exc)


def _run_cli(argv):
    """Exit code and stderr of an in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCliFuzz:
    """The CLI on arbitrary input: exit 0, 1 or 2, never a traceback, and a
    usage error is one stderr line.  Files go to a fresh temporary directory
    per example (a function-scoped fixture would be shared between them)."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(JSON_VALUES, _mutated(VALID_REP)), st.sampled_from(["spectrum", "factorize"]))
    def test_rep_commands(self, data, command):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "rep.json"
            src.write_text(json.dumps(data))
            argv = [command, "--rep", str(src)]
            if command == "factorize":
                argv += ["--out", str(Path(tmp) / "pipe.json")]
            _assert_clean_exit(*_run_cli(argv))

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=8))
    def test_exponents_flag(self, text):
        _assert_clean_exit(*_run_cli(["exponents", "--p", text]))

    def test_usage_errors_are_one_line(self):
        for argv in ([], ["bogus"], ["exponents", "--p"], ["exponents", "--p", "-x"],
                     ["suite", "--config", "c.json", "--seed", "abc"]):
            code, err = _run_cli(argv)
            assert code == 2
            _assert_clean_exit(code, err)


class TestFactorizeCommand:
    def test_writes_pipeline(self, rep_file, tmp_path, capsys):
        out = tmp_path / "pipe.json"
        assert cli_main(["factorize", "--rep", str(rep_file), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["triple"] == {"p": "2", "s": "1", "r": "inf"}
        assert [c["stage"] for c in data["certificates"]] == ["U3", "U2", "U1"]

    def test_reduces_small_p(self, tmp_path, capsys):
        rng = make_rng(11)
        rep = random_rep(rng, "4/3", 5, 3)
        src = tmp_path / "rep.json"
        src.write_text(json.dumps(rep_to_json(rep)))
        out = tmp_path / "pipe.json"
        assert cli_main(["factorize", "--rep", str(src), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["triple"]["p"] == "4"

    def test_unwritable_out_exits_2_with_one_line(self, rep_file, tmp_path, capsys):
        out = tmp_path / "missing" / "pipe.json"
        assert cli_main(["factorize", "--rep", str(rep_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_out_directory_stops_before_the_pipeline(
        self, rep_file, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli, "_load_rep", lambda path: calls.append("load"))
        monkeypatch.setattr(cli, "build_pipeline", lambda rep: calls.append("build"))
        out = tmp_path / "missing" / "pipe.json"
        assert cli_main(["factorize", "--rep", str(rep_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []

    def test_out_directory_stops_before_the_rep_is_read(
        self, rep_file, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli, "rep_from_json", lambda data: calls.append("load"))
        assert cli_main(["factorize", "--rep", str(rep_file), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []

    def test_out_in_the_working_directory(self, rep_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["factorize", "--rep", str(rep_file), "--out", "pipe.json"]) == 0
        assert (tmp_path / "pipe.json").exists()

    def test_degenerate_rep_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "empty.json"
        src.write_text(json.dumps({"ambient": {"p": "2", "dim": 3}, "order_s": "1", "terms": []}))
        assert cli_main(["factorize", "--rep", str(src), "--out", str(tmp_path / "o.json")]) == 2


    def test_failed_reconstruction_exits_1_and_writes_nothing(
        self, rep_file, tmp_path, capsys, monkeypatch
    ):
        real = factorization.compose

        def off(ops):
            op = real(ops)
            return DenseOperator(op.matrix * (1 + 1e-6), op.domain, op.codomain)

        monkeypatch.setattr(factorization, "compose", off)
        out = tmp_path / "pipe.json"
        assert cli_main(["factorize", "--rep", str(rep_file), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: pipeline does not reconstruct ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestSuiteCommand:
    def test_full_run_exits_zero(self, config_file, tmp_path, capsys):
        assert cli_main(["suite", "--config", str(config_file)]) == 0
        out = tmp_path / "out"
        for name in ("trace_report.json", "factorize_report.json", "ladder_report.json", "ladder.csv"):
            assert (out / name).exists()
        err = capsys.readouterr().err
        assert "suite trace" in err and "suite ladder" in err

    def test_only_selects_one_suite(self, config_file, tmp_path):
        assert cli_main(["suite", "--config", str(config_file), "--only", "trace"]) == 0
        out = tmp_path / "out"
        assert (out / "trace_report.json").exists()
        assert not (out / "factorize_report.json").exists()

    def test_out_and_seed_overrides(self, config_file, tmp_path):
        d1, d2, d3 = (str(tmp_path / d) for d in ("d1", "d2", "d3"))
        assert cli_main(["suite", "--config", str(config_file), "--only", "trace", "--out", d1, "--seed", "5"]) == 0
        assert cli_main(["suite", "--config", str(config_file), "--only", "trace", "--out", d2, "--seed", "5"]) == 0
        assert cli_main(["suite", "--config", str(config_file), "--only", "trace", "--out", d3, "--seed", "6"]) == 0
        read = lambda d: (tmp_path / d / "trace_report.json").read_bytes()
        assert read("d1") == read("d2")
        assert read("d1") != read("d3")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert cli_main(["suite", "--config", str(tmp_path / "none.json")]) == 2

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": "2", "family": "nope"}))
        assert cli_main(["suite", "--config", str(bad)]) == 2

    def test_assertion_failure_exits_1(self, config_file, tmp_path, capsys):
        # an impossibly tight trace tolerance forces case failures
        cfg = json.loads(config_file.read_text())
        cfg["tolerances"]["trace"] = 1e-300
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps(cfg))
        assert cli_main(["suite", "--config", str(tight), "--only", "trace"]) == 1

    def test_out_under_a_regular_file_exits_2_with_one_line(self, config_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["suite", "--config", str(config_file), "--only", "trace", "--out", str(blocker / "d")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_under_a_regular_file_stops_before_any_suite(
        self, config_file, tmp_path, capsys, monkeypatch
    ):
        calls = []
        for name in cli._SUITES:
            monkeypatch.setitem(cli._SUITES, name, lambda config, name=name: calls.append(name))
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["suite", "--config", str(config_file), "--out", str(blocker / "d")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []

    def test_short_ladder_is_rejected_before_any_suite_runs(self, config_file, tmp_path, capsys):
        cfg = json.loads(config_file.read_text())
        cfg["ladder"] = [4, 8]
        short = tmp_path / "short.json"
        short.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        out.mkdir()
        assert cli_main(["suite", "--config", str(short), "--out", str(out)]) == 2
        assert "at least three levels" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bad_subcommand_exits_2(self, capsys):
        assert cli_main(["bogus"]) == 2

    def test_bad_only_value_exits_2(self, config_file, capsys):
        assert cli_main(["suite", "--config", str(config_file), "--only", "nope"]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m_nuctrace_runs_the_cli(self):
        src = str(Path(nuctrace.__file__).resolve().parents[1])
        path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        proc = subprocess.run(
            [sys.executable, "-m", "nuctrace", "exponents", "--p", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == {"p": "2", "s": "1", "r": "inf"}
