"""A committed 200-trial sweep of all three mechanisms on the default grid.

``golden/sweep.csv`` and ``golden/cells.json`` are the bytes ``relayauction
sweep`` wrote for it, and ``golden/host.json`` holds the numpy version and
SIMD targets of the manifest written with them. On a host with the same
numpy and targets the sweep must write those bytes again. On any host every
row must agree within ``REL`` of each float column, and exactly in the
columns that count or name things, ``win_rate_source`` included: a flipped
winner is a different sweep, not a last-bit difference. The array kernel
agrees with the scalar one to rel 1e-9 in duration and power (see
``kernel``), so a numpy whose ``exp``, ``expm1`` or ``log1p`` rounds
differently stays far inside ``REL``.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import relayauction
from relayauction.cli import main
from relayauction.config import simd_targets

GOLDEN = Path(__file__).parent / "golden"
CONFIG = {"sweep": {"mechanisms": ["cooperative", "spoa", "mspoa"], "trials": 200}}
# A float column's bound: |got - want| <= REL * (|want| + FLOOR * max |want| of the column).
REL = 1e-6
FLOOR = 1e-6
EXACT = ("mechanism", "n", "lambda_w", "trials", "win_rate_source")


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _mismatches(got: list[dict], want: list[dict]) -> list[str]:
    """Every cell of ``got`` outside the bound against ``want``."""
    if [list(r) for r in got] != [list(r) for r in want]:
        return ["the header or the row count differs"]
    out = []
    for name in want[0]:
        if name in EXACT:
            out += [f"row {i} {name}: {g[name]} != {w[name]}" for i, (g, w) in enumerate(zip(got, want))
                    if g[name] != w[name]]
            continue
        scale = FLOOR * max(abs(float(w[name])) for w in want)
        for i, (g, w) in enumerate(zip(got, want)):
            a, b = float(g[name]), float(w[name])
            if not abs(a - b) <= REL * (abs(b) + scale):
                out.append(f"row {i} {name}: {a!r} against {b!r}")
    return out


def run_golden_sweep(work: Path) -> Path:
    """The golden sweep run through ``relayauction sweep``; returns the
    output directory."""
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["sweep", "--config", str(config), "--out", str(work / "out")]) == 0
    return work / "out"


def host_matches() -> bool:
    """Whether numpy and its SIMD targets are the golden host's."""
    host = json.loads((GOLDEN / "host.json").read_text())
    return host == {"numpy": np.__version__, "simd_targets": simd_targets()}


def golden_problems(out: Path) -> list[str]:
    """How the sweep written to ``out`` differs from the golden one: in its
    bytes where the host is the golden one's, beyond the bound on every
    host, and where cells.json does not hold the CSV's values."""
    problems = []
    if host_matches():
        problems += [f"{name} is not the golden bytes" for name in ("sweep.csv", "cells.json")
                     if (out / name).read_bytes() != (GOLDEN / name).read_bytes()]
    got = _rows((out / "sweep.csv").read_text())
    problems += _mismatches(got, _rows((GOLDEN / "sweep.csv").read_text()))
    cells = json.loads((out / "cells.json").read_text())["cells"]
    if [{k: v if isinstance(v, str) else repr(v) for k, v in c.items()} for c in cells] != got:
        problems.append("cells.json does not hold sweep.csv's values")
    return problems


def test_sweep_is_the_golden_one(tmp_path):
    assert golden_problems(run_golden_sweep(tmp_path)) == []


def test_the_bound_catches_a_planted_change():
    want = _rows((GOLDEN / "sweep.csv").read_text())
    assert _mismatches(want, want) == []
    for name, scale in (("mean_t_s", 1.0 + 3 * REL), ("std_err_net_harvest_j", 1.0 - 3 * REL)):
        row = next(i for i, r in enumerate(want) if float(r[name]) != 0.0)
        got = [dict(r) for r in want]
        got[row][name] = repr(float(got[row][name]) * scale)
        assert _mismatches(got, want) == [f"row {row} {name}: {float(got[row][name])!r} against "
                                          f"{float(want[row][name])!r}"]
    got = [dict(r) for r in want]
    got[0]["win_rate_source"] = repr(math.nextafter(float(got[0]["win_rate_source"]), 1.0))
    assert len(_mismatches(got, want)) == 1


# NPY_DISABLE_CPU_FEATURES settings: numpy's default targets; power, expm1
# and log1p moved to the baseline and exp to X86_V3; and all four on the
# baseline. numpy ignores a feature the host lacks.
SIMD_SETTINGS = ("", "AVX512_SPR AVX512_ICL X86_V4", "AVX512_SPR AVX512_ICL X86_V4 X86_V3")


def test_sweep_under_each_simd_setting(tmp_path):
    # A small sweep, run twice under each setting, each run in its own
    # process: byte-identical within a setting, within the bound across.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sweep": {**CONFIG["sweep"], "trials": 32}}))
    src = str(Path(relayauction.__file__).resolve().parents[1])
    runs = []
    for disabled in SIMD_SETTINGS:
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        for _ in range(2):
            out = tmp_path / str(len(runs))
            argv = [sys.executable, "-m", "relayauction.cli", "sweep", "--config", str(config), "--out", str(out)]
            runs.append((disabled, out, subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
    for _, _, proc in runs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    written = [(disabled, [(out / name).read_bytes() for name in ("sweep.csv", "cells.json")])
               for disabled, out, _ in runs]
    for (disabled, first), (_, second) in zip(written[::2], written[1::2]):
        assert first == second, disabled
    want = _rows(written[0][1][0].decode())
    for disabled, (sweep_csv, _) in written[2::2]:
        assert _mismatches(_rows(sweep_csv.decode()), want) == [], disabled
