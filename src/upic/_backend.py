"""The elimination kernels, `_kernels_py`, under the one name the library uses.

Every caller looks them up as `upic._backend.kernels`, so a profiler can
wrap them in this one place.
"""

from __future__ import annotations

from . import _kernels_py as kernels


def backend_name() -> str:
    return "pure-python"
