"""Set-up time: import, config resolution and warm-up in fresh interpreters."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

# Timed from its first statement: import numpy and the package, resolve the
# workload's config, then settle one auction per mechanism.
_CHILD = r"""
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import relayauction
from relayauction import cli
from relayauction.config import resolve_config
from relayauction.montecarlo import run_mechanism
from relayauction.scenario import sample_instance
t1 = time.perf_counter()
resolved = resolve_config(json.loads(sys.argv[2]))
t2 = time.perf_counter()
inst = sample_instance(2, resolved.geometry, resolved.channel, resolved.system, np.random.default_rng(0))
for mech in resolved.sweep.mechanisms:
    run_mechanism(mech, inst, resolved.system)
t3 = time.perf_counter()
print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0, "config.resolve_s": t2 - t1}))
"""


def measure(src: Path, mechanisms: tuple[str, ...], repeats: int) -> list[dict]:
    """One sample per fresh interpreter; raises if a child fails."""
    config = json.dumps({"sweep": {"mechanisms": list(mechanisms)}})
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(src), config],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples
