"""Kernel backend selection.

The compiled extension (`upic._kernels`, built from `_kernels.pyx`) is used
when it imports cleanly; otherwise the pure-Python twin takes over.
"""

from __future__ import annotations

try:
    from . import _kernels as kernels  # type: ignore[attr-defined]

    COMPILED = True
except ImportError:
    from . import _kernels_py as kernels

    COMPILED = False


def backend_name() -> str:
    return "compiled" if COMPILED else "pure-python"
