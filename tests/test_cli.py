import copy
import json
import subprocess
import sys

import jsonschema
import pytest

from valgen import InternalConsistencyError, PairVec
from valgen._golden import GOLDEN
from valgen.cli import (
    ConfigError,
    build_parser,
    load_config,
    main,
    render_text,
    vector_symbol,
)

import valgen
import valgen._golden
import valgen.cli


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


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="no-such-file"):
        load_config("no-such-file.json")


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c.pop("basis"), "basis"),
        (lambda c: c.update(basis=[2, 3]), "basis"),
        (lambda c: c.update(ambient_vars=["u1"]), "three names"),
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
    ],
)
def test_load_config_diagnostics(tmp_path, mutate, needle):
    cfg = copy.deepcopy(GOOD)
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=None) as exc:
        load_config(path)
    assert needle in str(exc.value)


def test_load_config_bad_json(tmp_path):
    path = write_config(tmp_path, "{not json")
    with pytest.raises(ConfigError, match="invalid JSON at position"):
        load_config(path)
    path2 = write_config(tmp_path, "[1, 2]", name="arr.json")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path2)


# -- exit codes ------------------------------------------------------------------


def test_build_reports_config_errors(tmp_path, capsys):
    path = write_config(tmp_path, "{oops")
    assert main(["build", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON at position" in err
    assert main(["build", "--config", str(tmp_path / "gone.json")]) == 2


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
        (lambda c: c.update(basis=[1, 2.9, 3]), "basis[1]"),
        (lambda c: c.update(basis=[True, 2, 3]), "basis[0]"),
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


def test_ideal_reports_sigma_errors(second_config, capsys):
    assert main(["ideal", "--config", second_config, "--sigma", "2*oops"]) == 2
    err = capsys.readouterr().err
    assert "--sigma" in err and "position" in err


def test_parser_requires_a_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


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
    """Run the verify subcommand against the session state, skipping the rebuild."""
    monkeypatch.setattr(valgen.cli, "example_state", lambda: state)
    monkeypatch.setattr(valgen.cli, "redundancy_survey", lambda s: survey)
    monkeypatch.setattr(
        valgen.cli,
        "generating_sequence_detail",
        lambda s, survey=None: detail,
    )


def test_verify_example_passes(fast_verify, capsys):
    assert main(["verify-example"]) == 0
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

    monkeypatch.setattr(valgen.cli, "example_state", broken)
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
