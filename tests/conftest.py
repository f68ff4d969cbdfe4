import json
import os

import pytest
from hypothesis import settings

from relayauction import ScenarioInstance, SystemParams
from relayauction.verify import witness_instance

# Tier-1 runs each property on a fixed sequence of examples, so a failure
# reproduces on every run. HYPOTHESIS_PROFILE=deep draws fresh examples, 100
# times as many, for a change to the numerics:
#   HYPOTHESIS_PROFILE=deep python -m pytest tests/test_schedule.py
# A property states its tier-1 count as examples(n).
DEEP_FACTOR = 100
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", max_examples=DEEP_FACTOR * settings.default.max_examples, database=None)
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """A property's example count: n in tier-1, DEEP_FACTOR times n in deep."""
    return DEEP_FACTOR * n if PROFILE == "deep" else n


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
