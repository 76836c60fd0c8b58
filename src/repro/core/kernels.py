"""Kernel provenance for benchmark artifacts.

The search hot path is pure NumPy: the blocker's flat pass
(:mod:`repro.core.blocker`) and the verifier's GEMM
(:mod:`repro.core.verifier`). :func:`get_backend` names that
implementation so recorded results say what produced them.
"""


def get_backend() -> str:
    """The kernel implementation behind the search path: ``"numpy"``."""
    return "numpy"
