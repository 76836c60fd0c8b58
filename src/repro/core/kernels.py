"""Kernel provenance for benchmark artifacts.

The search hot path is pure NumPy: the Lemma 1/2 masks live in
:mod:`repro.core.filtering` and the per-column replay in
:mod:`repro.core.verifier`. :func:`get_backend` names that
implementation so recorded results say what produced them.
"""


def get_backend() -> str:
    """The kernel implementation behind the search path: ``"numpy"``."""
    return "numpy"
