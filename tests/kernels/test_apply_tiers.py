"""Tier equivalence of the apply kernels — bitwise.

The contract (docs/performance.md, "Apply phase"): every tier of the
triangular sweeps, the fused ILU apply and the CSR matvec produces
bit-identical output, and so does the numpy tier's spec fallback when
SuperLU is unavailable.  These tests compare raw arrays with
``np.array_equal`` — no tolerances anywhere.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from repro.kernels import apply as apply_kernels
from repro.kernels import applyspec
from repro.sparse.triangular import TriangularFactor


def _test_matrix(n=300, seed=7):
    rng = np.random.default_rng(seed)
    a = sp.diags(
        [np.full(n - 1, -1.0), 4.0 + rng.random(n), np.full(n - 1, -1.3)],
        [-1, 0, 1], format="csr",
    )
    return sp.csr_matrix(a + sp.random(n, n, 0.02, random_state=seed))


def _tier_solutions(fac, b):
    """fac.solve(b) under every tier this process supports."""
    out = {}
    with kernels.forced_tier("reference"):
        out["reference"] = fac.solve(b)
    with kernels.forced_tier("numpy"):
        out["numpy"] = fac.solve(b)
    return out


class TestTriangularTierEquivalence:
    @pytest.mark.parametrize("factorizer", [ilu0, lambda a: ilut(a, 1e-4, 15)])
    def test_fused_ilu_solve_bitwise_across_tiers(self, factorizer, rng):
        a = _test_matrix()
        fac = factorizer(a)
        b = rng.standard_normal(a.shape[0])
        sols = _tier_solutions(fac, b)
        ref = sols.pop("reference")
        for name, x in sols.items():
            assert np.array_equal(x, ref), f"{name} differs from reference"

    def test_solo_sweeps_bitwise_across_tiers(self, rng):
        a = _test_matrix(seed=11)
        fac = ilut(a, 1e-4, 15)
        b = rng.standard_normal(a.shape[0])
        for tri in (fac.L, fac.U):
            sols = _tier_solutions(tri, b)
            ref = sols.pop("reference")
            for name, x in sols.items():
                assert np.array_equal(x, ref), f"{name} sweep differs from reference"

    def test_fused_equals_composed_sweeps(self, rng):
        fac = ilut(_test_matrix(seed=3), 1e-4, 15)
        b = rng.standard_normal(fac.n)
        assert np.array_equal(fac.solve(b), fac.U.solve(fac.L.solve(b)))

    def test_solve_does_not_mutate_rhs(self, rng):
        fac = ilu0(_test_matrix(seed=5))
        b = rng.standard_normal(fac.n)
        b0 = b.copy()
        for tier in ("reference", "numpy"):
            with kernels.forced_tier(tier):
                fac.solve(b)
                fac.L.solve(b)
                fac.U.solve(b)
        assert np.array_equal(b, b0)

    def test_numpy_tier_without_superlu_runs_the_spec(self, rng, monkeypatch):
        """No compiled gstrs: the numpy tier sweeps with the scalar spec."""
        monkeypatch.setattr(apply_kernels, "_superlu", lambda: None)
        fac = ilut(_test_matrix(seed=13), 1e-4, 15)
        b = rng.standard_normal(fac.n)
        with kernels.forced_tier("numpy"):
            x = fac.solve(b)
            lx = fac.L.solve(b)
        assert fac.L._superlu_slots is None and fac.U._superlu_slots is None
        with kernels.forced_tier("reference"):
            assert np.array_equal(x, fac.solve(b))
            assert np.array_equal(lx, fac.L.solve(b))


class TestMatvecTiers:
    def test_matvec_bitwise_across_tiers(self, rng):
        a = _test_matrix(seed=17)
        x = rng.standard_normal(a.shape[0])
        with kernels.forced_tier("reference"):
            ref = apply_kernels.csr_matvec(a, x)
        with kernels.forced_tier("numpy"):
            assert np.array_equal(apply_kernels.csr_matvec(a, x), ref)

    def test_matvec_matches_scipy(self, rng):
        a = _test_matrix(seed=19)
        x = rng.standard_normal(a.shape[0])
        with kernels.forced_tier("reference"):
            assert np.array_equal(apply_kernels.csr_matvec(a, x), a @ x)

    def test_spec_matvec_empty_rows(self):
        a = sp.csr_matrix((4, 4))
        y = np.empty(4)
        applyspec.csr_matvec(a.indptr, a.indices, a.data, np.ones(4), y)
        assert np.array_equal(y, np.zeros(4))


class TestProbeVerification:
    def test_probe_runs_once_and_accepts(self, rng, monkeypatch):
        calls = []
        orig = apply_kernels.gstrs_sweeps

        def counting(*args, **kw):
            calls.append(1)
            return orig(*args, **kw)

        monkeypatch.setattr(apply_kernels, "gstrs_sweeps", counting)
        fac = ilut(_test_matrix(seed=23), 1e-4, 15)
        b = rng.standard_normal(fac.n)
        with kernels.forced_tier("numpy"):
            x1 = fac.solve(b)
            x2 = fac.solve(b)
        assert np.array_equal(x1, x2)
        assert fac._fused_ok is True
        assert len(calls) == 2  # probe compares, it does not re-run gstrs

    def test_probe_mismatch_falls_back(self, rng, monkeypatch):
        """A backend that stops being bit-identical is dropped, not trusted."""
        orig = apply_kernels.gstrs_sweeps

        def corrupted(n, lslot, uslot, b):
            return np.nextafter(orig(n, lslot, uslot, b), np.inf)

        monkeypatch.setattr(apply_kernels, "gstrs_sweeps", corrupted)
        fac = ilut(_test_matrix(seed=29), 1e-4, 15)
        b = rng.standard_normal(fac.n)
        with kernels.forced_tier("numpy"):
            x = fac.solve(b)
        assert fac._fused_ok is False
        with kernels.forced_tier("reference"):
            assert np.array_equal(x, fac.solve(b))


class TestTriangularEdgeCases:
    """Singleton, diagonal-only, empty-row and chain triangles, with every
    tier's sweep on those shapes."""

    def test_singleton_matrix(self, rng):
        t = TriangularFactor(sp.csr_matrix((1, 1)), np.array([2.0]), lower=False)
        for tier in ("reference", "numpy"):
            with kernels.forced_tier(tier):
                assert np.array_equal(t.solve(np.array([3.0])), np.array([1.5]))

    def test_diagonal_only_factor_single_level(self, rng):
        n = 7
        t = TriangularFactor(sp.csr_matrix((n, n)), np.arange(1.0, n + 1.0), lower=False)
        b = rng.standard_normal(n)
        sols = _tier_solutions(t, b)
        ref = sols.pop("reference")
        for name, x in sols.items():
            assert np.array_equal(x, ref), name

    def test_empty_strict_rows_inside_levels(self, rng):
        # half the rows have no strict entries, half depend on one of
        # them: exercises rows with no strict entries
        n = 100
        rows = np.arange(1, n, 2)
        l = sp.coo_matrix(
            (np.full(len(rows), 0.5), (rows, rows - 1)), shape=(n, n)
        ).tocsr()
        t = TriangularFactor(l, None, lower=True)
        b = rng.standard_normal(n)
        sols = _tier_solutions(t, b)
        ref = sols.pop("reference")
        for name, x in sols.items():
            assert np.array_equal(x, ref), name

    def test_chain_every_level_singleton(self, rng):
        # bidiagonal chain: every row depends on the previous one
        n = 60
        l = sp.diags([rng.random(n - 1) + 0.5], [-1], format="csr")
        t = TriangularFactor(sp.csr_matrix(l), None, lower=True)
        b = rng.standard_normal(n)
        sols = _tier_solutions(t, b)
        ref = sols.pop("reference")
        for name, x in sols.items():
            assert np.array_equal(x, ref), name
