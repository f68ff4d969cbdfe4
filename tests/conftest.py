import json

import pytest

from relayauction import ScenarioInstance, SystemParams
from relayauction.verify import witness_instance


@pytest.fixture
def golden_params() -> SystemParams:
    # Plain-unit parameters (sigma2 = 1) so effective channels are round numbers.
    return witness_instance()[1]


@pytest.fixture
def golden_instance() -> ScenarioInstance:
    # z0 = 10, z = (1, 2): candidate 1 wins under every mechanism, runner-up
    # is candidate 2, and the reservation bid never binds.
    return witness_instance()[0]


@pytest.fixture
def golden_instance_file(golden_instance, tmp_path):
    path = tmp_path / "golden_instance.json"
    path.write_text(json.dumps(golden_instance.to_record()))
    return path
