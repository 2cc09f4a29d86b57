"""Kernel tier dispatch for the factorization and apply kernels.

One tier policy covers both phases: the setup-phase elimination sweeps
dispatched below and the apply-phase triangular sweeps/matvec dispatched
by :mod:`repro.kernels.apply` (which consults the same forced state, so a
single :func:`forced_tier` pins the whole solve).

Two tiers compute the incomplete factorizations:

* ``"reference"`` — the original dict/heap scalar kernels in
  :mod:`repro.factor.reference`.  Always available; the only tier that
  supports MILU's dropped-mass accumulation and fault-injection pivot
  hooks, so those cases are routed here unconditionally.
* ``"numpy"`` — vectorized band-window sweeps (:mod:`repro.kernels.band`).

Under ``"auto"`` policy the NumPy band tier is used when it is economical
for the matrix at hand (the dense band workspace is only worth it for
moderate bandwidths), else reference.  Override with
:func:`set_tier`/:func:`forced_tier` (``auto`` | ``reference`` | ``numpy``).
"""

from __future__ import annotations

from contextlib import contextmanager

from . import apply, applyspec, band, rowspec

__all__ = [
    "band",
    "rowspec",
    "apply",
    "applyspec",
    "available_tiers",
    "get_tier",
    "set_tier",
    "forced_tier",
    "band_economical",
    "resolve",
]

_TIERS = ("reference", "numpy")

# the band workspace is O(n * bandwidth): cap both the bandwidth (per-row
# ufunc cost grows as bw^2) and the total workspace footprint
BAND_BW_CAP = 150
BAND_MEM_CAP = 128 * 2**20

_forced: str | None = None


def available_tiers() -> tuple[str, ...]:
    """Tiers usable in this process."""
    return _TIERS


def get_tier() -> str | None:
    """The explicitly forced tier, or ``None`` under auto policy."""
    return _forced


def set_tier(name: str | None) -> None:
    """Force a tier for all subsequent factorizations (``None`` = auto)."""
    global _forced
    if name is None or name == "auto":
        _forced = None
        return
    if name not in _TIERS:
        raise ValueError(
            f"unknown kernel tier {name!r}; expected one of {_TIERS} or 'auto'"
        )
    _forced = name


@contextmanager
def forced_tier(name: str | None):
    """Temporarily force a kernel tier (restores the previous policy)."""
    global _forced
    prev = _forced
    set_tier(name)
    try:
        yield
    finally:
        _forced = prev


def band_economical(n: int, bw: int) -> bool:
    """Whether the dense band workspace pays off for an n x n matrix."""
    if bw > BAND_BW_CAP:
        return False
    # two workspaces in the worst case (values + ILU(0) pattern mask)
    return 2 * (n + bw + 1) * (2 * bw + 1) * 8 <= BAND_MEM_CAP


def resolve(n: int, bw: int, *, require_reference: bool = False) -> str:
    """Pick the tier for one factorization.

    ``require_reference`` is set by the factor layer when semantics demand
    the scalar kernels (MILU, active fault plans); it wins over any forced
    policy so fault hooks are never silently skipped.
    """
    if require_reference:
        return "reference"
    if _forced is not None:
        return _forced
    if not band_economical(n, bw):
        return "reference"
    return "numpy"
