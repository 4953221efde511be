"""Backend selection for the statevector kernels.

The compiled Cython module is preferred when it imported cleanly; setting
FTQC_PURE_PYTHON=1 forces the numpy fallback.  Both expose the same
functions (see ftqc._kernels_py for the contract).  CI and the benchmark
run from a source checkout with no extension built, so they exercise the
numpy kernels; the two tests that compare the backends skip unless
ftqc._kernels has been built.
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("FTQC_PURE_PYTHON"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

BACKEND_NAME: str = _impl.BACKEND_NAME

apply_1q = _impl.apply_1q
apply_diag_1q = _impl.apply_diag_1q
apply_cnot = _impl.apply_cnot
apply_toffoli = _impl.apply_toffoli
apply_phase_on_ones = _impl.apply_phase_on_ones
prob_one = _impl.prob_one
collapse = _impl.collapse


def available_backends() -> list[str]:
    names = ["python"]
    try:
        from . import _kernels  # noqa: F401
        names.insert(0, "cython")
    except ImportError:
        pass
    return names


def get_backend(name: str):
    """Return the kernel module for an explicit backend choice."""
    if name == "python":
        return _kernels_py
    if name == "cython":
        from . import _kernels
        return _kernels
    raise ValueError(f"unknown kernel backend {name!r}")
