"""The transmit-schedule kernel's entry points.

``lambert_w0``, ``cost``, ``min_power``, ``schedule`` and ``value`` come
from ``_kernel_py``, the package's only kernel, as do ``schedules`` and
``min_powers``, its array twins for the sweep, and the cap tie ``CAP_TIE_REL``.
"""

from __future__ import annotations

from ._kernel_py import CAP_TIE_REL, cost, lambert_w0, min_power, min_powers, schedule, schedules, value


def backend_name() -> str:
    """Name of the schedule kernel: always ``python``."""
    return "python"
