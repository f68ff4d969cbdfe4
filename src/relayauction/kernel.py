"""Kernel backend selection.

Both backends export the same entry points: ``lambert_w0``, ``cost``,
``min_power``, ``schedule`` and ``value``. The compiled extension is
preferred when present; set RELAYAUCTION_KERNEL to ``python`` or
``compiled`` to force a backend (``compiled`` raises if the extension is
missing rather than silently degrading).
"""

from __future__ import annotations

import os

from . import _kernel_py

_requested = os.environ.get("RELAYAUCTION_KERNEL", "auto").lower()

if _requested == "python":
    _impl = _kernel_py
elif _requested == "compiled":
    from . import _kernel as _impl  # type: ignore[no-redef]
elif _requested == "auto":
    try:
        from . import _kernel as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernel_py
else:
    raise ValueError(
        f"RELAYAUCTION_KERNEL={_requested!r} not understood "
        "(expected auto, python, or compiled)"
    )

BACKEND: str = _impl.BACKEND

lambert_w0 = _impl.lambert_w0
cost = _impl.cost
min_power = _impl.min_power
schedule = _impl.schedule
value = _impl.value


def backend_name() -> str:
    """Name of the kernel backend selected at import: compiled or python."""
    return BACKEND
