"""The compiled kernel and the pure-Python fallback must agree bit for bit."""

import os
import subprocess
import sys

import numpy as np
import pytest

from relayauction import _kernel_py
from relayauction.numerics import DEFAULT_TOL

compiled = pytest.importorskip(
    "relayauction._kernel", reason="compiled kernel not built"
)

TOL = (DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol, DEFAULT_TOL.max_iter)


def _grid(seed=11, count=2000):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = float(10.0 ** rng.uniform(-4, 4))
        lam = float(10.0 ** rng.uniform(-1, 2))
        p_max = float(rng.choice([1.0, 10.0]))
        yield z, lam, p_max


def test_backend_names():
    assert compiled.BACKEND == "compiled"
    assert _kernel_py.BACKEND == "python"


def test_schedule_bitwise_equal():
    for z, lam, p_max in _grid(11):
        assert compiled.schedule(z, 8.0, lam, p_max, *TOL) == _kernel_py.schedule(
            z, 8.0, lam, p_max, *TOL
        )


def test_value_bitwise_equal():
    for z, lam, p_max in _grid(13, count=500):
        assert compiled.value(z, 8.0, lam, p_max, *TOL) == _kernel_py.value(z, 8.0, lam, p_max, *TOL)


def test_lambert_bitwise_equal():
    rng = np.random.default_rng(17)
    xs = list(-0.36787944117144233 + 10.0 ** rng.uniform(-12, 6, size=2000))
    xs += [-0.36787944117144233, 0.0, 1.0, 2.718281828459045]
    for x in xs:
        assert compiled.lambert_w0(float(x), *TOL) == _kernel_py.lambert_w0(float(x), *TOL)


def test_cost_and_min_power_bitwise_equal():
    for z, lam, _ in _grid(19, count=500):
        t = float(np.random.default_rng(int(z * 1e6) % 2**32).uniform(0.1, 50.0))
        assert compiled.cost(t, z, 8.0, lam) == _kernel_py.cost(t, z, 8.0, lam)
        assert compiled.min_power(t, z, 8.0) == _kernel_py.min_power(t, z, 8.0)


@pytest.mark.parametrize("requested,expected", [("python", "python"), ("compiled", "compiled")])
def test_env_var_selects_backend(requested, expected):
    code = "import relayauction; print(relayauction.backend_name())"
    env = dict(os.environ, RELAYAUCTION_KERNEL=requested)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == expected


def test_unknown_backend_rejected():
    env = dict(os.environ, RELAYAUCTION_KERNEL="cuda")
    out = subprocess.run(
        [sys.executable, "-c", "import relayauction"], env=env, capture_output=True, text=True
    )
    assert out.returncode != 0
    assert "RELAYAUCTION_KERNEL" in out.stderr
