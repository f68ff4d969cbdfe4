"""``relayauction solve``, ``auction`` and ``sweep`` on any number a user
can type.

``cli.main`` runs in process on system flags, instance-record fields and
config-file fields drawn log-uniformly over the positive doubles, 5e-324 to
1.8e308, their negatives, the two ends themselves, and 0, -0, nan and inf;
a config field may also be a bool or a value of the wrong type. Whatever
the input, ``main`` returns 0, 1 (a config error) or 2 (a numerical
failure) and nothing escapes. On 0 the last line is a strict JSON record,
or for ``sweep`` every CSV field is finite and ``cells.json`` and
``manifest.json`` are strict JSON. ``solve``'s cost is what its own
duration costs, and it is no higher than the golden-section oracle's
(``verify.oracle_schedule_cost``) wherever that oracle returns a finite
cost.
"""

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples

from relayauction import ConvergenceError, SystemParams
from relayauction.cli import main
from relayauction.config import DEFAULT_CONFIG
from relayauction.montecarlo import MECHANISMS
from relayauction.schedule import cost_function
from relayauction.verify import oracle_schedule_cost, witness_instance

SYSTEM_FLAGS = tuple(DEFAULT_CONFIG["system"])

# 10**-323.3 is the least subnormal, 5e-324, and 10**308.25 = 1.78e308.
positive = st.one_of(st.floats(-323.3, 308.25).map(lambda e: 10.0**e), st.sampled_from([5e-324, sys.float_info.max]))
invalid = st.one_of(positive.map(lambda v: -v), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
# One number in five is invalid, so that most examples get past the checks.
number = st.integers(0, 4).flatmap(lambda k: invalid if k == 0 else positive)
# A system flag is left at its default or given any number.
system = st.fixed_dictionaries({name: st.one_of(st.none(), number) for name in SYSTEM_FLAGS})


def _flags(values: dict) -> list[str]:
    # --name=value, so that argparse reads -inf or -1e-5 as the value.
    return [f"--{name.replace('_', '-')}={v!r}" for name, v in values.items() if v is not None]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    return code, out.getvalue()


def _no_constant(name):
    raise ValueError(f"{name} in the record")


def _strict_record(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1], parse_constant=_no_constant)


def _params(values: dict) -> SystemParams:
    return SystemParams(**{k: v for k, v in values.items() if v is not None})


def _oracle(z: float, params: SystemParams) -> float:
    try:
        return oracle_schedule_cost(z, params)
    except (ArithmeticError, ValueError, ConvergenceError):
        return math.nan


@given(z=number, values=system)
# At a binding cap with lambda far above p_max the cost is about lambda*t,
# and the oracle stops 3.2e-9 above the cap's duration: the closed form is
# that much cheaper. With D = 1e-5 the oracle's absolute tolerance on t,
# 1e-12, leaves it 1.1e-8 above.
@example(z=1.0, values={**dict.fromkeys(SYSTEM_FLAGS), "d_bits_per_hz": 1e-4, "lambda_w": sys.float_info.max})
@example(z=1.0, values={**dict.fromkeys(SYSTEM_FLAGS), "d_bits_per_hz": 1e-5})
# D*ln2 is subnormal, and every duration is D*ln2 over a rate: exit 1, a
# config error. Before, the cap's duration underflowed to 0 here (exit 2),
# and at z = 1e178, p_max = 1e-134 the cost was 1.42 times the model's,
# from a D*ln2 rounded up from 3.47e-324 to 4.94e-324.
@example(z=0.1, values={**dict.fromkeys(SYSTEM_FLAGS), "d_bits_per_hz": 5e-324})
@example(z=1e178, values={**dict.fromkeys(SYSTEM_FLAGS), "d_bits_per_hz": 5e-324, "p_max_w": 1e-134})
# D*ln2/t is subnormal where the oracle searches: min_power used to lose
# that rate's bits, and the oracle then returned 2.8e140, below the
# closed form's 1.2326093593162825e141, which no schedule beats.
@example(z=10.0**158.25, values={**dict.fromkeys(SYSTEM_FLAGS), "d_bits_per_hz": 1e-17, "lambda_w": 1e-166,
                                 "p_max_w": 1.0})
# A capped schedule that its own duration does not price: the power at the
# rounded cap duration passes the largest double (p_max is that double).
# Exit 2, where a finite cost was reported whose duration costs inf. The
# second, a subnormal cap duration at D = 5e-324, is now a config error.
@example(z=1e74, values={**dict.fromkeys(SYSTEM_FLAGS), "lambda_w": 5e-324, "p_max_w": sys.float_info.max})
@example(z=sys.float_info.max, values={**dict.fromkeys(SYSTEM_FLAGS), "d_bits_per_hz": 5e-324, "lambda_w": 1e-16,
                                       "p_max_w": sys.float_info.max})
# A Lambert solve lands 1.0e-12 past the cap's duration: the cap's own
# schedule, where p_max was paid at the solved duration, whose own power
# priced it 1.0e-12 lower.
@example(z=0.25500097491448065, values={**dict.fromkeys(SYSTEM_FLAGS), "d_bits_per_hz": 10.0})
# p_max/z is below the normal doubles: the cap's duration is D*ln2*z/p_max,
# and the oracle's bracket, which started 1.8 times short of it, does too.
@example(z=10.0**0.25, values={**dict.fromkeys(SYSTEM_FLAGS), "d_bits_per_hz": 1e-16, "p_max_w": 5e-324})
@settings(max_examples=examples(200), deadline=None)
def test_solve(z, values):
    code, stdout = _run(["solve", f"--z={z!r}", *_flags(values)])
    if code != 0:
        return
    record = _strict_record(stdout)
    params = _params(values)
    # The cost is its own duration's, and no higher than the oracle's
    # minimum, which only bounds the true one from above.
    assert record["cost_ws"] == pytest.approx(cost_function(record["t_star_s"], z, params), rel=1e-12)
    oracle = _oracle(z, params)
    if math.isfinite(oracle):
        assert record["cost_ws"] <= oracle * (1.0 + 1e-12)


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    return tmp_path_factory.mktemp("surface") / "instance.json"


@st.composite
def instance_records(draw):
    n = draw(st.integers(1, 3))
    record = witness_instance()[0].to_record()
    record["candidate_positions_m"] = [[draw(number), draw(number)] for _ in range(n)]
    for name in ("h_s", "z0_w"):
        record[name] = draw(number)
    for name in ("h_i", "h_si", "alpha_tilde", "z_w"):
        record[name] = [draw(number) for _ in range(n)]
    return record


@given(record=instance_records(), mechanism=st.sampled_from(MECHANISMS), values=system)
@settings(max_examples=examples(200), deadline=None)
def test_auction(instance_file, record, mechanism, values):
    # json writes nan and inf as NaN and Infinity, which the reader loads.
    instance_file.write_text(json.dumps(record))
    code, stdout = _run(["auction", f"--instance={instance_file}", f"--mechanism={mechanism}", *_flags(values)])
    if code == 0:
        assert _strict_record(stdout)["mechanism"] == mechanism


@given(values=system)
@settings(max_examples=examples(50), deadline=None)
def test_auction_on_a_valid_instance(instance_file, values):
    # The instance is the golden one, so the auction reaches settlement.
    inst = witness_instance()[0]
    instance_file.write_text(json.dumps(inst.to_record()))
    for mechanism in MECHANISMS:
        code, stdout = _run(["auction", f"--instance={instance_file}", f"--mechanism={mechanism}", *_flags(values)])
        if code == 0:
            assert _strict_record(stdout)["winner"] in range(inst.n_candidates + 1)


# Up to four config fields, each given a value of its kind or, one time in
# five, a bool or a value of another type, over at most 4 trials of n <= 3:
# trials and every n stay that small wherever they are integers.
wrong = st.sampled_from([True, False, None, "1.0", [1.0], {"x": 1.0}])
_SWEEP_FIELDS = {
    "trials": st.one_of(st.integers(1, 4), number),
    "seed": st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70), number),
    "n_values": st.lists(st.one_of(st.integers(1, 3), number), min_size=1, max_size=3),
    "lambda_values_w": st.lists(number, min_size=1, max_size=3),
    "mechanisms": st.lists(st.one_of(st.sampled_from(MECHANISMS), number), min_size=1, max_size=3),
}
CONFIG_FIELDS = [(section, name) for section, values in DEFAULT_CONFIG.items() for name in values]


def _config_value(section: str, name: str):
    default = DEFAULT_CONFIG[section][name]
    if section == "sweep":
        given = _SWEEP_FIELDS[name]
    elif isinstance(default, list):
        given = st.lists(number, min_size=len(default), max_size=len(default))
    else:
        given = number
    return st.integers(0, 4).flatmap(lambda k: wrong if k == 0 else given)


@st.composite
def configs(draw):
    small = st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)
    config: dict = {"sweep": {"trials": draw(st.integers(1, 4)), "n_values": draw(small)}}
    for section, name in draw(st.lists(st.sampled_from(CONFIG_FIELDS), max_size=4, unique=True)):
        config.setdefault(section, {})[name] = draw(_config_value(section, name))
    return config


@given(config=configs())
@settings(max_examples=examples(100), deadline=None)
def test_sweep(tmp_path_factory, config):
    where = tmp_path_factory.mktemp("sweep")
    (where / "config.json").write_text(json.dumps(config))
    code, _ = _run(["sweep", f"--config={where / 'config.json'}", f"--out={where / 'out'}"])
    if code != 0:
        return
    header, *rows = (where / "out" / "sweep.csv").read_text().splitlines()
    for row in rows:
        mechanism, *numbers = row.split(",")
        assert mechanism in MECHANISMS and all(math.isfinite(float(v)) for v in numbers), row
    for name in ("cells.json", "manifest.json"):
        json.loads((where / "out" / name).read_text(), parse_constant=_no_constant)
