import copy
import json
import os
import stat
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from valgen import InternalConsistencyError, PairVec
from valgen._golden import CONFIG, GOLDEN, parsed_example
from valgen.cli import (
    ConfigError,
    build_parser,
    load_config,
    main,
    parse_config,
    render_text,
    vector_symbol,
)

import oracles
import valgen
import valgen._golden
import valgen.cli
import valgen.outputs


@pytest.fixture(scope="module")
def schema():
    import importlib.resources

    text = (
        importlib.resources.files("valgen")
        .joinpath("report_schema.json")
        .read_text()
    )
    return json.loads(text)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(
        payload if isinstance(payload, str) else json.dumps(payload)
    )
    return str(path)


GOOD = {
    "basis": [1, 2, 3],
    "ambient_vars": ["u1", "u2", "u3"],
    "ambient_values": ["1", "sqrt(2)", "sqrt(3)"],
    "images": {"x": "u1", "y": "u1 + u2", "z": "u3"},
}


# -- config loading --------------------------------------------------------------


def test_load_config_round_trip(second_config):
    model, bounds, outputs, echo = load_config(second_config)
    assert model.ambient_vars == ("u1", "u2", "u3")
    assert bounds.max_t_index == 64
    assert bounds.max_value == model.basis.rational(20)
    assert outputs["redundancy_degree_cap"] == 40
    assert echo["basis"] == [1, 2, 3]
    # overrides win over config and defaults
    model2, bounds2, _, echo2 = load_config(
        second_config, max_t_index=7, max_value="9/2"
    )
    assert bounds2.max_t_index == 7
    assert bounds2.max_value == model2.basis.rational(
        __import__("fractions").Fraction(9, 2)
    )
    assert echo2["bounds"]["max_t_index"] == 7


def test_parse_config_matches_load_config(example_config):
    assert parse_config(CONFIG, "here") == load_config(example_config)
    assert parse_config(CONFIG, "here", 7, "30") == load_config(
        example_config, 7, "30"
    )
    assert parsed_example("30") == load_config(example_config, None, "30")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="no-such-file"):
        load_config("no-such-file.json")


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c.pop("basis"), "basis"),
        (lambda c: c.update(basis=[2, 3]), "basis"),
        (lambda c: c.update(ambient_vars=["u1"]), "three names"),
        (lambda c: c.update(ambient_vars=["u1", "u1", "u3"]),
         "cfg.json.ambient_vars: names must be distinct"),
        (lambda c: c.update(ambient_values=["1", "sqrt(2)", "bad^"]),
         "ambient_values[2]"),
        (lambda c: c["images"].pop("z"), "image of 'z'"),
        (lambda c: c["images"].update(x="u9"), "images.x"),
        (lambda c: c.update(ambient_values=["1", "2", "sqrt(2)"]),
         "rejected"),
        (lambda c: c.update(bounds={"max_t_index": 0}), "bounds.max_t_index"),
        (lambda c: c.update(bounds={"max_value": "oops"}),
         "bounds.max_value"),
        (lambda c: c.update(outputs={"semigroup_cap": "x"}),
         "outputs.semigroup_cap"),
        (lambda c: c.update(bound={"max_value": "30"}),
         "cfg.json: unknown key 'bound'"),
        (lambda c: c.update(bounds={"max_vaule": "30"}),
         "cfg.json.bounds: unknown key 'max_vaule'"),
        (lambda c: c.update(outputs={"semigroup_cpa": "3"}),
         "cfg.json.outputs: unknown key 'semigroup_cpa'"),
        (lambda c: c["images"].update(w="u1"),
         "cfg.json.images: unknown key 'w'"),
    ],
)
def test_load_config_diagnostics(tmp_path, mutate, needle):
    cfg = copy.deepcopy(GOOD)
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=None) as exc:
        load_config(path)
    assert needle in str(exc.value)


# bytes no JSON decoder reads: not UTF-8, an integer past int()'s digit
# limit, arrays nested past the recursion limit
UNREADABLE = [
    (b"\xff{}", "not UTF-8 text at byte 0"),
    (b'{"basis": [' + b"1" * 5000 + b"]}", "an integer is too long to read"),
    (b"[" * 200_000 + b"]" * 200_000, "JSON nested too deeply"),
]


def test_load_config_bad_json(tmp_path):
    path = write_config(tmp_path, "{not json")
    with pytest.raises(ConfigError, match="invalid JSON at position"):
        load_config(path)
    path2 = write_config(tmp_path, "[1, 2]", name="arr.json")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path2)
    path3 = tmp_path / "bad.json"
    for payload, needle in UNREADABLE:
        path3.write_bytes(payload)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path3))
        assert str(exc.value) == f"{path3}: {needle}"


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"images": {"x": "u1"}, "images": {"x": "u2"}}',
         "cfg.json: repeated key 'images'"),
        ('{"bounds": {"max_value": "30", "max_value": "40"}}',
         "cfg.json: repeated key 'max_value'"),
    ],
)
def test_load_config_refuses_a_repeated_key(tmp_path, text, needle):
    # the second of two equal keys would silently win, and the report's
    # config echo would show only it
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value).endswith(needle)


@given(
    st.one_of(
        st.binary(max_size=64),
        st.text("[]{}0123456789", max_size=64).map(str.encode),
    )
)
def test_load_config_raises_only_config_error(tmp_path_factory, payload):
    # any file either loads or is refused with a diagnostic (exit 2),
    # never a traceback (exit 1, the code of a verify-example difference)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(payload)
    try:
        load_config(str(path))
    except ConfigError:
        pass


# -- exit codes ------------------------------------------------------------------


def test_build_reports_config_errors(tmp_path, capsys):
    path = write_config(tmp_path, "{oops")
    assert main(["build", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON at position" in err
    assert main(["build", "--config", str(tmp_path / "gone.json")]) == 2
    bad = tmp_path / "latin1.json"
    bad.write_bytes(UNREADABLE[0][0])
    assert main(["build", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {bad}: not UTF-8 text at byte 0\n")


@pytest.mark.parametrize("command", [["build"], ["ideal", "--sigma", "3"]],
                         ids=["build", "ideal"])
@pytest.mark.parametrize(
    "option,value,why",
    [
        ("--max-t-index", "0", "expected a positive integer"),
        ("--max-value", "abc", "expected a number or sqrt(...) (at position 0)"),
    ],
    ids=["max-t-index", "max-value"],
)
def test_a_bad_override_names_its_option(
    second_config, capsys, command, option, value, why
):
    # the file's own bounds are good: the bad value came from the option
    argv = [*command, "--config", second_config, option, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {option}: {why}\n"
    assert "bounds." not in err


def test_build_reports_unwritable_out(second_config, tmp_path, capsys):
    # exit 1 means verify-example found differences; a path that cannot
    # be written is a usage error
    out = tmp_path / "missing" / "dir" / "r.json"
    assert main(["build", "--config", second_config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --out: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "mutate,key",
    [
        (lambda c: c.update(bounds=[1]), "bounds"),
        (lambda c: c.update(outputs="x"), "outputs"),
        (lambda c: c.update(bounds={"max_value": 20}), "bounds.max_value"),
        (lambda c: c.update(outputs={"redundancy_value_slack": 5}),
         "outputs.redundancy_value_slack"),
        (lambda c: c.update(ambient_values=["1", "sqrt(2)", 3]),
         "ambient_values[2]"),
        (lambda c: c["images"].update(y=1), "images.y"),
        (lambda c: c.update(bounds={"max_t_index": True}), "bounds.max_t_index"),
        (lambda c: c.update(bounds={"d_layer_cap": True}), "bounds.d_layer_cap"),
        (lambda c: c.update(bounds={"d_coord_cap": True}), "bounds.d_coord_cap"),
        (lambda c: c.update(outputs={"redundancy_degree_cap": False}),
         "outputs.redundancy_degree_cap"),
        # explicit ids keep the ids of the rows above unnumbered
        pytest.param(
            lambda c: c.update(outputs={"redundancy_degree_cap": -1}),
            "outputs.redundancy_degree_cap",
            id="negative-degree-cap",
        ),
        pytest.param(
            lambda c: c.update(outputs={"redundancy_value_slack": "-1/2"}),
            "outputs.redundancy_value_slack",
            id="negative-value-slack",
        ),
        (lambda c: c.update(basis=[1, 2.9, 3]), "basis[1]"),
        (lambda c: c.update(basis=[True, 2, 3]), "basis[0]"),
        # a superscript digit passes str.isdigit but not int()
        (lambda c: c.update(ambient_values=["²", "sqrt(2)", "sqrt(3)"]),
         "ambient_values[0]"),
        (lambda c: c["images"].update(z="u3^²"), "images.z"),
        # past the digits int() reads from a str
        pytest.param(
            lambda c: c.update(ambient_values=["1" * 5000, "sqrt(2)", "sqrt(3)"]),
            "ambient_values[0]",
            id="over-long-integer",
        ),
    ],
)
def test_malformed_config_types_exit_2(tmp_path, mutate, key):
    cfg = copy.deepcopy(GOOD)
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "valgen.cli", "build", "--config", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert f"{path}.{key}:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("big", [100000000000000000039, 10**4299],
                         ids=["21-digit", "4300-digit"])
def test_a_radicand_above_2_32_exits_2_at_once(tmp_path, big):
    # the worked example with one more, unused radicand: its squarefree
    # test alone would trial-divide for hours
    cfg = copy.deepcopy(CONFIG)
    cfg["basis"] = [*cfg["basis"], big]
    path = write_config(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "valgen.cli", "build", "--config", path],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}.basis: radicand {big} exceeds 2**32\n"


def test_dependent_images_name_the_config(tmp_path, capsys):
    cfg = copy.deepcopy(GOOD)
    cfg["images"] = {"x": "u1", "y": "u2", "z": "u1*u2"}
    path = write_config(tmp_path, cfg)
    assert main(["build", "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: model rejected: images of x, y, z are"
        " algebraically dependent\n"
    )


def test_non_invertible_power_names_its_key(tmp_path, capsys):
    cfg = copy.deepcopy(GOOD)
    cfg["images"]["z"] = "u3 * (u1 + u3)^-1"
    path = write_config(tmp_path, cfg)
    assert main(["build", "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.images.z: negative power of a non-monomial"
        " (at position 5)\n"
    )


# x of value 1/1200: the threshold walk's paths run 2,400 moves deep at
# the default semigroup cap 2, past any recursion limit
FINE = {**GOOD, "ambient_values": ["1/1200", "sqrt(2)", "sqrt(3)"]}
FINE["images"] = {"x": "u1", "y": "u2", "z": "u3"}


def test_a_deep_threshold_walk_builds(tmp_path, capsys):
    path = write_config(tmp_path, FINE)
    assert main(["build", "--json", "--config", path]) == 0
    semi = json.loads(capsys.readouterr().out)["semigroup"]
    model, _, _, _ = load_config(path)
    basis = model.basis
    vals = [valgen.parse_value(v["text"], basis) for v in semi["values"]]
    assert len(vals) == 3_426 and semi["complete"]
    want = oracles.sums_up_to(model.ambient_values, basis.rational(2), basis.zero())
    assert vals == want


@pytest.mark.parametrize(
    "argv,key",
    [
        (["build"], ".outputs.semigroup_cap:"),
        (["ideal", "--sigma", "1"], "--sigma:"),
    ],
)
def test_a_threshold_past_the_index_budget_exits_2(tmp_path, capsys, argv, key):
    # x of value about 10^-4300: the index would walk on for ages and
    # fill memory with 14,000-bit numerators, which its budget counts
    # word by word
    cfg = {**FINE, "ambient_values": ["1/" + "9" * 4300, "sqrt(2)", "sqrt(3)"]}
    path = write_config(tmp_path, cfg)
    assert main([*argv, "--config", path]) == 2
    err = capsys.readouterr().err
    assert key in err and "more than 2,232 monomials" in err
    assert "Traceback" not in err


def test_the_index_budget_counts_one_word_entries(tmp_path, capsys, monkeypatch):
    # the 1/1200 model's slice up to 2 holds 3,430 one-word entries
    monkeypatch.setattr(valgen.outputs, "INDEX_ENTRY_BUDGET", 3_429)
    path = write_config(tmp_path, FINE)
    assert main(["ideal", "--sigma", "2", "--config", path]) == 2
    assert "--sigma: the threshold index would hold more than 3,429" in (
        capsys.readouterr().err
    )
    monkeypatch.setattr(valgen.outputs, "INDEX_ENTRY_BUDGET", 3_430)
    assert main(["ideal", "--sigma", "2", "--config", path]) == 0


def test_ideal_reports_sigma_errors(second_config, capsys):
    assert main(["ideal", "--config", second_config, "--sigma", "2*oops"]) == 2
    err = capsys.readouterr().err
    assert "--sigma" in err and "position" in err


def test_parser_requires_a_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize(
    "flags", [["--max-value", "30"], ["--max-t-index", "3"]]
)
def test_verify_example_takes_no_bound_flags(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify-example", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- ideal subcommand ------------------------------------------------------------


def test_ideal_text_output(second_config, capsys):
    assert main(["ideal", "--config", second_config, "--sigma", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("generators at threshold 1")
    assert out[1:] == ["y", "x", "P3", "z"]


def test_ideal_json_output(second_config, capsys):
    assert (
        main(
            ["ideal", "--config", second_config, "--sigma", "2", "--json"]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is True
    symbols = [m["symbol"] for m in doc["members"]]
    assert symbols[0] == "y^2"
    assert len(symbols) == 10
    assert {"p": [0, 0, 1], "t": [1]} in [
        {"p": m["p"], "t": m["t"]} for m in doc["members"]
    ]


def test_vector_symbols():
    assert vector_symbol(PairVec((), ())) == "1"
    assert vector_symbol(PairVec((2, 1), ())) == "x^2*y"
    assert vector_symbol(PairVec((0, 0, 1), (1,))) == "P3*z"
    assert vector_symbol(PairVec((), (0, 3, 0, 1))) == "T2^3*T4"


# -- build subcommand ------------------------------------------------------------


def test_build_writes_report_files(second_config, tmp_path, schema, capsys):
    out = tmp_path / "report.json"
    assert main(["build", "--config", second_config, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert doc["flags"] == {
        "p_truncated": False,
        "t_truncated": False,
        "skipped": [],
        "d_incomplete": [],
    }
    assert doc["sequence"]["kept_p"] == [1, 2, 3]
    assert doc["sequence"]["certified"] is False
    assert [row["value"]["text"] for row in doc["p_chain"]] == [
        "1",
        "1",
        "sqrt(2)",
    ]
    text = (tmp_path / "report.json.txt").read_text()
    assert "first chain" in text and "second chain" in text
    # rendering a loaded document is pure
    assert render_text(doc) == render_text(doc)


def test_build_writes_reports_with_the_umask_mode(second_config, tmp_path):
    # the mode open() would give, not mkstemp's owner-only 0o600
    out = tmp_path / "report.json"
    old = os.umask(0o022)
    try:
        args = ["build", "--config", second_config, "--out", str(out), "--quiet"]
        assert main(args) == 0
    finally:
        os.umask(old)
    for path in (out, tmp_path / "report.json.txt"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_build_json_stdout_deterministic(second_config, capsys):
    assert main(["build", "--config", second_config, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["build", "--config", second_config, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["t_chain"][0]["s"] == "inf"
    assert doc["t_chain"][0]["value"]["text"] == "sqrt(3)"


def test_build_respects_bound_overrides(second_config, capsys):
    assert (
        main(
            [
                "build",
                "--config",
                second_config,
                "--json",
                "--max-t-index",
                "1",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["t_chain"]) == 1


# -- the bundled worked example ----------------------------------------------------


@pytest.fixture()
def fast_verify(monkeypatch, state, survey, detail):
    """Run the verify subcommand on the session state and survey, skipping
    the rebuild; returns the arguments of the build and outputs calls."""
    calls = []

    def build(model, bounds):
        calls.append((model, bounds))
        return state

    def derive(st, outputs):
        calls.append((st, outputs))
        return survey, detail, None, None

    monkeypatch.setattr(valgen.cli, "build_state", build)
    monkeypatch.setattr(valgen.cli, "derive_outputs", derive)
    return calls


def test_verify_example_passes(fast_verify, state, capsys):
    assert main(["verify-example"]) == 0
    # the command builds and derives what a build of the example's config
    # does
    model, bounds, outputs, _ = parsed_example()
    assert fast_verify == [(model, bounds), (state, outputs)]
    assert "example verified" in capsys.readouterr().out
    assert main(["verify-example", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"ok": True, "differences": []}


def test_verify_example_names_injected_fault(
    fast_verify, monkeypatch, capsys
):
    bad = copy.deepcopy(GOLDEN)
    bad["initial_terms"][8] = "1*x^5*z'^2"  # sign flipped
    monkeypatch.setattr(valgen._golden, "GOLDEN", bad)
    assert main(["verify-example"]) == 1
    out = capsys.readouterr().out
    assert "T8" in out
    assert "1 difference(s) found" in out


def test_verify_example_catches_value_faults(
    fast_verify, monkeypatch, capsys
):
    bad = copy.deepcopy(GOLDEN)
    bad["gammas"][16] = "6*sqrt(51) - 14"
    monkeypatch.setattr(valgen._golden, "GOLDEN", bad)
    assert main(["verify-example", "--quiet"]) == 1
    assert "gamma16" in capsys.readouterr().out


def test_internal_errors_exit_3_from_every_subcommand(
    second_config, monkeypatch, capsys
):
    def broken(*args, **kwargs):
        raise InternalConsistencyError("injected")

    monkeypatch.setattr(valgen.cli, "build_state", broken)
    for argv in (
        ["verify-example"],
        ["build", "--config", second_config],
        ["ideal", "--config", second_config, "--sigma", "1"],
    ):
        assert main(argv) == 3
        assert "internal error: injected" in capsys.readouterr().err


def test_every_exported_name_resolves():
    missing = [name for name in valgen.__all__ if not hasattr(valgen, name)]
    assert missing == []
