"""Tier dispatch for the apply-phase kernels (triangular sweeps, matvec).

The apply hot path reuses the factor-kernel tier policy
(:func:`repro.kernels.get_tier` / :func:`repro.kernels.forced_tier`) with
the same two names and the same bit-compatibility contract:

* ``"reference"`` — the interpreted scalar loops in
  :mod:`repro.kernels.applyspec`.
* ``"numpy"`` — both unit sweeps of one preconditioner application
  executed by a single call into scipy's compiled SuperLU ``gstrs``
  routine.  Its column-oriented substitution performs, per unknown, the
  identical sequence of multiply-subtract operations as the row-oriented
  spec (ascending column order forward, descending backward — see
  :mod:`repro.kernels.applyspec`), so the result is bitwise identical.
  Because that identity rests on an external library's implementation
  detail, it is *probe-verified*: the first application through each
  prepared factor is recomputed with the interpreted spec and compared
  bitwise; any mismatch disables SuperLU for that factor and emits an
  ``apply.probe_mismatch`` observability event.  Without SuperLU (the
  private module moved, or the probe failed) the sweeps run the
  interpreted spec.

Matvec: scipy's compiled CSR product accumulates each row left-to-right
into a scalar, matching ``applyspec.csr_matvec`` bitwise, so the numpy
tier uses ``A @ x`` directly.

All sweeps here solve *unit* triangles.  Non-unit diagonals are handled by
the factor objects (column-scale the strict triangle by ``invd`` at
preparation time, multiply the sweep output by ``invd`` afterwards), so
every tier shares one elementwise scaling and the sweeps never divide.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import applyspec

# SuperLU's index arrays are C ints; fall back rather than overflow
_INTC_MAX = np.iinfo(np.intc).max

_superlu_state: dict[str, object] = {"loaded": False, "mod": None}


def _superlu():
    """scipy's private compiled SuperLU module, or ``None``."""
    if not _superlu_state["loaded"]:
        _superlu_state["loaded"] = True
        try:
            from scipy.sparse.linalg._dsolve import _superlu as mod

            _superlu_state["mod"] = mod if hasattr(mod, "gstrs") else None
        except Exception:
            _superlu_state["mod"] = None
    return _superlu_state["mod"]


def superlu_available() -> bool:
    """True when the compiled ``gstrs`` entry point is importable."""
    return _superlu() is not None


def resolve_tier() -> str:
    """Pick the apply tier for one application.

    The forced factor-kernel tier applies to the apply phase too, so one
    :func:`repro.kernels.forced_tier` pins the entire solve.  Under auto
    policy the numpy tier wins.
    """
    from repro import kernels

    return kernels.get_tier() or "numpy"


# -- SuperLU slot preparation -------------------------------------------------


def _csc_slot(mat: sp.spmatrix):
    """CSC arrays ``(nnz, data, indices, indptr)`` for one gstrs slot."""
    csc = sp.csc_matrix(mat)
    csc.sort_indices()
    if csc.nnz > _INTC_MAX or csc.shape[0] > _INTC_MAX:
        return None
    return (
        int(csc.nnz),
        np.ascontiguousarray(csc.data, dtype=np.float64),
        np.ascontiguousarray(csc.indices, dtype=np.intc),
        np.ascontiguousarray(csc.indptr, dtype=np.intc),
    )


def csc_unit_lower_slot(strict_lower: sp.csr_matrix):
    """L-slot arrays for ``I + L`` (unit diagonal stored explicitly).

    gstrs expects the L factor as a CSC unit-lower matrix *with* its
    diagonal present; the U factor's diagonal is implicit.  Passing the
    conventions the other way round silently produces garbage.
    """
    n = strict_lower.shape[0]
    return _csc_slot(sp.eye(n, format="csc") + strict_lower)


def csc_strict_upper_slot(strict_upper: sp.csr_matrix):
    """U-slot arrays for a strictly upper triangle (unit diagonal implicit)."""
    return _csc_slot(strict_upper)


def csc_identity_slot(n: int):
    """L-slot arrays for the identity (used by solo backward sweeps)."""
    return _csc_slot(sp.eye(n, format="csc"))


def csc_empty_slot(n: int):
    """U-slot arrays for an all-zero triangle (used by solo forward sweeps)."""
    return _csc_slot(sp.csc_matrix((n, n)))


def gstrs_sweeps(n: int, lslot, uslot, b: np.ndarray) -> np.ndarray:
    """Solve ``(I + L) (I + U) x = b`` with one compiled gstrs call.

    ``lslot``/``uslot`` come from the ``csc_*_slot`` helpers.  ``b`` is not
    mutated (gstrs overwrites its right-hand side, so a fresh copy is
    passed in).  Raises ``RuntimeError`` if gstrs reports failure.
    """
    mod = _superlu()
    if mod is None:
        raise RuntimeError("SuperLU gstrs is not available")
    lnnz, ldata, lind, lptr = lslot
    unnz, udata, uind, uptr = uslot
    rhs = np.array(b, dtype=np.float64, copy=True)
    x, info = mod.gstrs(
        "N", n, lnnz, ldata, lind, lptr, n, unnz, udata, uind, uptr, rhs
    )
    if info != 0:
        raise RuntimeError(f"SuperLU gstrs failed with info={info}")
    return np.asarray(x, dtype=np.float64)


# -- matvec -------------------------------------------------------------------


def csr_matvec(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """Tier-dispatched ``y = A x`` for a CSR operator.

    scipy's compiled CSR product performs each row's accumulation
    left-to-right into a scalar, exactly the spec's order, so the numpy
    tier is the library call itself; the reference tier runs the
    interpreted spec loop.
    """
    if resolve_tier() == "numpy":
        return a @ x
    xf = np.ascontiguousarray(x, dtype=np.float64)
    y = np.empty(a.shape[0], dtype=np.float64)
    return applyspec.csr_matvec(a.indptr, a.indices, a.data, xf, y)
