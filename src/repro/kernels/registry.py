"""Name lookup for the 1-bit kernels, and the environment report.

The library imports its kernels directly from :mod:`repro.kernels`;
this module serves ``perfbench/``, which looks them up by name and
records the environment each run measured in.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.errors import ConfigurationError

__all__ = ["get_kernel", "report"]


def get_kernel(name: str) -> Callable:
    """The :mod:`repro.kernels` function called ``name``.

    ``perfbench/tracer.py`` is the only caller; the library imports its
    kernels directly.  The lookup reads the package at call time, so a
    kernel rebound there (the tracer wraps each one in a span recorder)
    is the one returned.  Raises
    :class:`~repro.errors.ConfigurationError` for an unknown name.
    """
    import repro.kernels as kernels

    if name not in ("bernoulli_pack", "popcount", "unpack_block"):
        raise ConfigurationError(f"unknown kernel {name!r}")
    return getattr(kernels, name)


def report() -> dict:
    """The compute environment perfbench records with every run.

    The CPU count and library versions make a recorded number
    comparable.  ``kernel_backend`` is always ``"numpy"``: each kernel
    has one numpy implementation.
    """
    import numpy as np

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a soft dependency
        scipy_version = None
    return {
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "kernel_backend": "numpy",
    }
