"""The package names the benchmark in ``perfbench/`` imports, wraps and reads.

``perfbench/tests`` runs whole benchmark rounds and is too slow for the
default suite, so a renamed function or module would otherwise break the
benchmark unnoticed. This imports its modules, installs every span and
counter its tracer pins on the package, and reads its host facts.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import kernelbench, run, tracing, workloads  # noqa: E402,F401


def test_tracer_pins_exist_and_host_facts_read():
    with tracing.patched(tracing.Tracer()):
        pass
    assert run.host_facts()["nproc"] >= 1
