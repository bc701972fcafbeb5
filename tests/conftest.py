import json
from pathlib import Path

import pytest
from hypothesis import settings

from valgen import (
    RadicalBasis,
    ValuationModel,
    build_state,
    generating_sequence_detail,
    parse_polynomial,
    parse_value,
    redundancy_survey,
)
from valgen._golden import CONFIG, parsed_example
from valgen.cli import load_config

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

TOWER = Path(__file__).with_name("tower.json")


def build_example(max_value=None):
    """A fresh build of the bundled worked example; max_value replaces its
    value ceiling."""
    model, bounds, _, _ = parsed_example(max_value=max_value)
    return build_state(model, bounds=bounds)


@pytest.fixture(scope="session")
def state():
    """The fully built bundled worked example; shared, treat as read-only."""
    return build_example()


@pytest.fixture(scope="session")
def state_30():
    """The worked example built with the value ceiling raised to 30."""
    return build_example("30")


@pytest.fixture(scope="session")
def survey(state):
    return redundancy_survey(state)


@pytest.fixture(scope="session")
def survey_30(state_30):
    return redundancy_survey(state_30)


@pytest.fixture(scope="session")
def tower_json():
    """tests/tower.json built at its default bounds: 64 second-chain
    members, pending ones among them."""
    model, bounds, _, _ = load_config(str(TOWER))
    return build_state(model, bounds=bounds)


@pytest.fixture(scope="session")
def tower_survey(tower_json):
    return redundancy_survey(tower_json)


@pytest.fixture(scope="session")
def detail(state, survey):
    return generating_sequence_detail(state, survey)


def make_second_model(values=("1", "sqrt(2)", "sqrt(3)")):
    basis = RadicalBasis((1, 2, 3))
    names = ("u1", "u2", "u3")
    values = tuple(parse_value(text, basis) for text in values)
    images = {
        "x": parse_polynomial("u1", names),
        "y": parse_polynomial("u1 + u2", names),
        "z": parse_polynomial("u3", names),
    }
    return ValuationModel(
        basis=basis, ambient_vars=names, ambient_values=values, images=images
    )


SECOND_CONFIG = {
    "basis": [1, 2, 3],
    "ambient_vars": ["u1", "u2", "u3"],
    "ambient_values": ["1", "sqrt(2)", "sqrt(3)"],
    "images": {"x": "u1", "y": "u1 + u2", "z": "u3"},
}


@pytest.fixture(scope="session")
def second_model():
    return make_second_model()


@pytest.fixture(scope="session")
def second_state(second_model):
    return build_state(second_model)


@pytest.fixture(scope="session")
def fractional_state():
    """The second model's shape with ambient values 1/3, sqrt(2)/2 and
    sqrt(3): chain values over denominators 3, 2 and 1."""
    return build_state(make_second_model(("1/3", "1/2*sqrt(2)", "sqrt(3)")))


@pytest.fixture(scope="session")
def example_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "example.json"
    path.write_text(json.dumps(CONFIG, indent=2))
    return str(path)


@pytest.fixture(scope="session")
def second_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "second.json"
    path.write_text(json.dumps(SECOND_CONFIG, indent=2))
    return str(path)
