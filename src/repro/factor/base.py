"""Common container for incomplete LU factorizations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.kernels import apply as apply_kernels
from repro.kernels import applyspec
from repro.sparse.triangular import TriangularFactor
from repro.utils.validation import ensure_csr


@dataclass(frozen=True)
class FactorStats:
    """Health diagnostics of one incomplete factorization.

    ``floored_pivots`` counts diagonal entries that collapsed below the
    pivot floor and were replaced — each one is a row whose elimination the
    factorization essentially gave up on.  A nonzero count is survivable; a
    large fraction means the factors are untrustworthy (see
    ``breakdown_frac`` in :func:`repro.factor.ilu0.ilu0` /
    :func:`repro.factor.ilut.ilut` and ``docs/robustness.md``).
    """

    n: int = 0
    floored_pivots: int = 0
    shift: float = 0.0

    @property
    def floored_fraction(self) -> float:
        return self.floored_pivots / max(self.n, 1)


class ILUFactorization:
    """An (incomplete) LU factorization A ≈ L U.

    ``l_strict`` holds the strictly lower triangle of L (unit diagonal
    implicit); ``u_upper`` holds U including its diagonal.  Solves use the
    tiered sweep kernels of :mod:`repro.sparse.triangular`.
    ``stats`` carries the producing algorithm's health counters (pivot
    floors, diagonal shift); factorizations built directly from L/U parts
    get zeroed stats.
    """

    def __init__(
        self,
        l_strict: sp.csr_matrix,
        u_upper: sp.csr_matrix,
        stats: FactorStats | None = None,
    ) -> None:
        self.l_strict = ensure_csr(l_strict)
        self.u_upper = ensure_csr(u_upper)
        n = self.l_strict.shape[0]
        if self.l_strict.shape != (n, n) or self.u_upper.shape != (n, n):
            raise ValueError("L and U must be square and the same size")
        self.n = n
        self.stats = stats if stats is not None else FactorStats(n=n)
        u_strict = sp.triu(self.u_upper, k=1, format="csr")
        diag = self.u_upper.diagonal()
        self.L = TriangularFactor(self.l_strict, None, lower=True)
        self.U = TriangularFactor(ensure_csr(u_strict), diag, lower=False)
        self._fused_ok: bool | None = None  # None = superlu probe not yet run

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply (LU)^{-1}: forward then backward substitution.

        On the numpy tier with SuperLU available, both sweeps run fused
        in a single compiled gstrs call (probe-verified bitwise against
        the scalar spec on first use — see docs/performance.md); every
        other tier composes the two :class:`TriangularFactor` solves,
        which are bit-compatible with the fused path.
        """
        if (
            apply_kernels.resolve_tier() == "numpy"
            and self._fused_ok is not False
            and apply_kernels.superlu_available()
        ):
            lslots = self.L.superlu_slots()
            uslots = self.U.superlu_slots()
            if lslots is not None and uslots is not None:
                x = apply_kernels.gstrs_sweeps(self.n, lslots[0], uslots[1], b)
                if self._fused_ok is None:
                    self._fused_ok = bool(np.array_equal(x, self._solve_spec(b)))
                    if not self._fused_ok:
                        obs.event("apply.probe_mismatch", kernel="ilu_fused", n=self.n)
                        return self.U.solve(self.L.solve(b))
                if self.U.invd is not None:
                    x = x * self.U.invd
                return x
        return self.U.solve(self.L.solve(b))

    def _solve_spec(self, b: np.ndarray) -> np.ndarray:
        """Both sweeps via the interpreted scalar spec (probe comparand).

        Deliberately *excludes* the trailing ``x *= invd`` scaling so it
        compares against the raw fused-sweep output.
        """
        x = np.array(b, dtype=np.float64, copy=True)
        ls, us = self.L.scaled, self.U.scaled
        applyspec.forward_unit(ls.indptr, ls.indices, ls.data, x)
        applyspec.backward_unit(us.indptr, us.indices, us.data, x)
        return x

    def solve_flops(self) -> float:
        """Flop count of one forward+backward solve (for the perf model)."""
        return float(self.L.flops() + self.U.flops())

    @property
    def nnz(self) -> int:
        return self.l_strict.nnz + self.u_upper.nnz

    def fill_factor(self, a: sp.csr_matrix) -> float:
        """nnz(L+U) / nnz(A) — the classical memory-cost metric."""
        return (self.nnz + self.n) / max(a.nnz, 1)

    def as_product(self) -> sp.csr_matrix:
        """Explicit L @ U (testing aid; O(n·nnz), small matrices only)."""
        eye = sp.eye(self.n, format="csr")
        return ensure_csr((self.l_strict + eye) @ self.u_upper)

    def __repr__(self) -> str:
        extra = ""
        if self.stats.floored_pivots:
            extra = f", floored_pivots={self.stats.floored_pivots}"
        if self.stats.shift:
            extra += f", shift={self.stats.shift:g}"
        return f"ILUFactorization(n={self.n}, nnz={self.nnz}{extra})"
