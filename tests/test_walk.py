import dataclasses
import itertools
import math

import numpy as np
import pytest

from lacelab.steps import StepDistribution
from lacelab import walk
from lacelab.torus import TorusGrid, real_dft
from lacelab.walk import (_beta_term, _beta_xspace, beta, beta_kspace,
                          beta_scaling_table, beta_separable,
                          bound_diagnostics, dual_orthant, folded_dhat,
                          nonzero_modes, refinement_divergent, resolvent,
                          return_probability, return_probability_kspace)

from conftest import (chamber_points, dual_values, index_orthant,
                      traced_peak)


def grid_mean(dhat, term, keep) -> float:
    """M^-d sum of term(Dhat(k)) over the k of the whole dual grid dhat
    that the mask keep sets."""
    return float(np.sum(term(dhat[keep])) / dhat.size)


def dual_axis(M) -> np.ndarray:
    """k = 2 pi j / M for j = 0 .. M/2."""
    return 2.0 * np.pi * np.arange(M // 2 + 1) / M


class TestReturnProbability:
    def test_binomial_oracle_d1(self):
        dist = StepDistribution("nn", 1)
        grid = TorusGrid(1, 12)
        for n in range(0, 8):
            # on a large enough torus the walk cannot wrap, so the value
            # is the simple-random-walk binomial probability
            want = math.comb(n, n // 2) / 2 ** n if n % 2 == 0 else 0.0
            got = return_probability(dist, grid, n)
            assert abs(got - want) < 1e-12, n
            assert abs(return_probability_kspace(dist, grid, n) - want) < 1e-12

    def test_d2_four_step(self):
        # choose-2 double binomial: P = (sum_j C(4; j,j,2-j,2-j) ...) known
        # oracle: direct convolution vs k-space on the same torus
        dist = StepDistribution("nn", 2)
        grid = TorusGrid(2, 10)
        a = return_probability(dist, grid, 4)
        b = return_probability_kspace(dist, grid, 4)
        assert abs(a - b) < 1e-12

    def test_negative_n(self):
        with pytest.raises(ValueError):
            return_probability(StepDistribution("nn", 1), TorusGrid(1, 4), -1)


class TestGreens:
    def test_free_resolvent_identity(self):
        dist = StepDistribution("nn", 2)
        grid = TorusGrid(2, 8)
        z = 0.6
        dhat = folded_dhat(dist, grid)
        chat = resolvent(dhat, z)
        assert np.max(np.abs(chat * (1.0 - z * dhat) - 1.0)) < 1e-12

    def test_z_range(self):
        with pytest.raises(ValueError):
            resolvent(folded_dhat(StepDistribution("nn", 1), TorusGrid(1, 4)),
                      1.0)


class TestBeta:
    def test_kspace_xspace_agree(self):
        cases = [("nn", 3, 1, None, 2), ("nn", 4, 1, None, 3),
                 ("uniform", 2, 2, None, 2)]
        for family, d, L, alpha, s in cases:
            dist = StepDistribution(family, d, L=L, alpha=alpha)
            rep = beta(dist, TorusGrid(d, 8), s, refinements=1)
            assert abs(rep.beta_kspace - rep.beta_xspace) < 1e-12

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("d,M", [(1, 16), (2, 8), (3, 8), (4, 6),
                                     (5, 4), (6, 4), (7, 4)])
    @pytest.mark.parametrize("family,L,alpha,radius", [
        ("nn", 1, None, None), ("uniform", 2, None, None),
        ("power", 1, 1.2, 2)])
    def test_xspace_equals_the_chamber_sum(self, family, L, alpha, radius,
                                           d, M, s):
        # the FFT of the fold against the family's transform on the chamber
        dist = StepDistribution(family, d, L=L, alpha=alpha,
                                support_radius=radius)
        rep = beta(dist, TorusGrid(d, M), s, refinements=1)
        assert rep.beta_xspace == pytest.approx(rep.beta_kspace, rel=1e-12)

    def test_xspace_peak_memory(self):
        # nn d = 5, M = 16: a field of 2^20 sites, 8 MiB.  The convolution
        # chain with the critical Green's function peaked at 64 MiB; the
        # FFT of the fold reads 40 MiB (48 MiB at s = 3, whose term keeps
        # one more temporary)
        grid = TorusGrid(5, 16)
        dm = StepDistribution("nn", 5).fold(grid)
        with traced_peak() as traced:
            _beta_xspace(dm, 2)
        assert traced.peak <= 6 * dm.values.nbytes

    def test_divergence_flags(self):
        rep1 = beta(StepDistribution("nn", 1), TorusGrid(1, 8), 2)
        assert rep1.divergent and not rep1.analytic_finite
        rep5 = beta(StepDistribution("nn", 5), TorusGrid(5, 6), 2)
        assert not rep5.divergent and rep5.analytic_finite

    def test_analytic_threshold(self):
        rep = beta(StepDistribution("power", 3, alpha=1.2,
                                    support_radius=16),
                   TorusGrid(3, 6), 3, refinements=1)
        assert abs(rep.analytic_threshold - 1.2 * 3) < 1e-12
        assert not rep.analytic_finite

    def test_s_validation(self):
        with pytest.raises(ValueError):
            beta(StepDistribution("nn", 2), TorusGrid(2, 8), 4)

    def test_separable_matches_grid_sum(self):
        for dist, M in ((StepDistribution("nn", 3), 8),
                        (StepDistribution("uniform", 2, L=2), 10)):
            grid = TorusGrid(dist.d, M)
            a = beta_kspace(folded_dhat(dist, grid), 2)
            b = beta_separable(dist, M, 2)
            assert abs(a - b) < 1e-10 * max(1.0, a)

    @pytest.mark.parametrize("s", [2, 3])
    def test_separable_keeps_unrounded_values(self, s):
        # grouping the transform values by their rounded keys once moved
        # beta by 2e-10 to 4e-10 relative
        dist = StepDistribution("nn", 3)
        a = beta_kspace(folded_dhat(dist, TorusGrid(3, 16)), s)
        assert beta_separable(dist, 16, s) == pytest.approx(a, rel=5e-14)

    def test_separable_rejects_power(self):
        with pytest.raises(ValueError):
            beta_separable(StepDistribution("power", 2, alpha=1.5,
                                            support_radius=16), 8, 2)


class TestDualOrthant:
    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("dist,M", [
        (StepDistribution("nn", d), M) for d in (1, 2, 3, 4, 5)
        for M in (4, 8, 16)] + [
        (StepDistribution("uniform", d, L=L), M) for d in (1, 2, 3)
        for L in (1, 2, 3) for M in (4, 10)])
    def test_orthant_beta_is_the_separable_beta(self, dist, M, s):
        got = beta_kspace(dual_orthant(dist, TorusGrid(dist.d, M)), s)
        assert got == pytest.approx(beta_separable(dist, M, s), rel=1e-12)

    @pytest.mark.parametrize("dist,M", [
        (StepDistribution("power", 1, alpha=0.7, L=3, support_radius=9), 8),
        (StepDistribution("power", 2, alpha=1.2, support_radius=7), 6),
        (StepDistribution("power", 3, alpha=1.5, support_radius=5), 8),
        (StepDistribution("uniform", 2, L=3), 12)])
    def test_orthant_sums_match_the_fold(self, dist, M):
        grid = TorusGrid(dist.d, M)
        orth = dual_orthant(dist, grid)
        dhat = real_dft(dist.fold(grid))
        for s in (2, 3):
            assert beta_kspace(orth, s) == pytest.approx(
                beta_kspace(dhat, s), rel=1e-12)
        for n in (0, 1, 2, 5):
            assert return_probability_kspace(dist, grid, n) == pytest.approx(
                float(np.mean(dhat ** n)), rel=1e-12, abs=1e-15)
        # a region, ||k||_inf <= 1: a test on a chamber point's largest index
        k = dual_axis(M)
        full = np.max(np.abs(dual_values(grid)), axis=0) <= 1.0
        assert orth.mean(_beta_term(2), (k > 0) & (k <= 1.0)) == \
            pytest.approx(grid_mean(dhat, _beta_term(2),
                                    full & nonzero_modes(grid.shape)),
                          rel=1e-12)

    def test_bound_diagnostics_splits_like_the_whole_grid(self):
        dist = StepDistribution("uniform", 2, L=2)
        grid = TorusGrid(2, 12)
        rec = bound_diagnostics(dist, grid, 2)
        dhat = real_dft(dist.fold(grid))
        inner = np.max(np.abs(dual_values(grid)), axis=0) <= 0.5
        nonzero = nonzero_modes(grid.shape)
        assert rec["inner_region"] == pytest.approx(
            grid_mean(dhat, _beta_term(2), inner & nonzero), rel=1e-12)
        assert rec["outer_region"] == pytest.approx(
            grid_mean(dhat, _beta_term(2), ~inner), rel=1e-12)
        assert rec["d4_return"] == pytest.approx(
            float(np.mean(dhat ** 4)), rel=1e-12)

    def test_power_return_probability(self):
        dist = StepDistribution("power", 2, alpha=1.2, support_radius=7)
        grid = TorusGrid(2, 6)
        assert return_probability_kspace(dist, grid, 3) == pytest.approx(
            return_probability(dist, grid, 3), rel=1e-12)


def full_array_mean(dist, M, term, keep=None) -> float:
    """M^-d sum of term(Dhat(k)) over the whole orthant from the family's
    grid transform, each entry weighted by its sign images, with keep an
    orthant mask: the oracle for the chamber sum."""
    vals = dist.fourier_d_grid(dual_axis(M))
    if keep is not None:
        vals = np.where(keep, vals, 0.0)
    total = term(vals)
    if keep is not None:
        total[~keep] = 0.0
    images = np.full(M // 2 + 1, 2.0)
    images[[0, -1]] = 1.0
    for _ in range(vals.ndim):
        total = total @ images
    return float(total) / M ** vals.ndim


def close(got, want) -> bool:
    """got equals want to rounding: the chamber sums the orthant's terms
    in another order than full_array_mean.  The absolute part is for sums
    that cancel to 0, such as D^{*1}(0)."""
    return got == pytest.approx(want, rel=1e-13, abs=1e-16)


class TestChamber:
    @pytest.mark.parametrize("M", [4, 6, 8, 10])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_weights_count_the_grid_points_of_each_tuple(self, d, M):
        m = M // 2 + 1
        key, weight = chamber_points(index_orthant(M, d))
        # every grid point, folded into the orthant and sorted
        n = np.indices((M,) * d).reshape(d, -1)
        tuples = np.sort(np.minimum(n, M - n), axis=0)
        flat, counts = np.unique(np.ravel_multi_index(tuples, (m,) * d),
                                 return_counts=True)
        assert np.sum(weight) == M ** d
        order = np.argsort(key)
        assert np.array_equal(key[order], flat)
        assert np.array_equal(weight[order], counts)
        assert len(key) == math.comb(m - 1 + d, d)

    @pytest.mark.parametrize("M", [4, 6, 8, 10])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_masks_on_the_largest_index_are_the_orthant_masks(self, d, M):
        # k != 0 and ||k||_inf <= 1/L as orthant masks: permutation
        # invariant, and kept on the chamber exactly where a test on the
        # largest index keeps them
        m, k = M // 2 + 1, dual_axis(M)
        orth = index_orthant(M, d)
        j = np.indices((m,) * d)
        nonzero = nonzero_modes((m,) * d)
        masks = [(nonzero, k > 0)]
        for L in (1, 2, 3):
            inner = np.max(2.0 * np.pi * j / M, axis=0) <= 1.0 / L
            masks += [(nonzero & inner, (k > 0) & (k <= 1.0 / L)),
                      (~inner, k > 1.0 / L)]
        key, _ = chamber_points(orth)
        for mask, keep in masks:
            for perm in itertools.permutations(range(d)):
                assert np.array_equal(mask.transpose(perm), mask)
            kept, _ = chamber_points(orth, keep)
            assert np.array_equal(kept, key[mask.ravel()[key]])


class TestSlabOrder:
    @pytest.mark.parametrize("M", [4, 8, 16])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("dist_of", [
        lambda d: StepDistribution("nn", d),
        lambda d: StepDistribution("uniform", d, L=2)], ids=["nn", "uniform"])
    def test_slab_sums_equal_the_whole_array_sums_bit_for_bit(self, dist_of,
                                                              d, M):
        # once bit for bit, when the sum went slab by slab in the whole
        # array's contraction order; the chamber sums the same terms in
        # another order, so they agree to rounding
        dist = dist_of(d)
        orth = dual_orthant(dist, TorusGrid(d, M))
        oracle = lambda term, keep=None: full_array_mean(dist, M, term, keep)
        for n in (0, 1, 2, 4):
            assert close(return_probability_kspace(dist, TorusGrid(d, M), n),
                         oracle(lambda v: v ** n))
        # bound_diagnostics' region, built from the index grid
        shape, k = (M // 2 + 1,) * d, dual_axis(M)
        inner = np.max(2.0 * np.pi * np.indices(shape) / M, axis=0) <= 0.5
        nonzero = nonzero_modes(shape)
        for s in (2, 3):
            term = lambda v: v ** 2 / (1.0 - v) ** s
            assert close(beta_kspace(orth, s), oracle(term, nonzero))
            assert close(orth.mean(term, (k > 0) & (k <= 0.5)),
                         oracle(term, nonzero & inner))
            assert close(orth.mean(term, k > 0.5), oracle(term, ~inner))
        rec = bound_diagnostics(dist, TorusGrid(d, M), 3)
        term = lambda v: v ** 2 / (1.0 - v) ** 3
        assert close(rec["beta"], oracle(term, nonzero))
        assert close(rec["d4_return"], oracle(lambda v: v ** 4))
        assert close(rec["inverse_power_mean"],
                     oracle(lambda v: 1.0 / (1.0 - v) ** 6, nonzero))
        if dist.family == "uniform":
            assert close(rec["inner_region"], oracle(term, nonzero & inner))
            assert close(rec["outer_region"], oracle(term, ~inner))

    def test_working_set_is_a_few_slabs(self):
        # a slab was one row of the orthant's first axis, (M/2 + 1)^(d-1)
        # entries; a block of the chamber holds fewer points than that
        for dist, M in ((StepDistribution("nn", 5), 32),
                        (StepDistribution("uniform", 4, L=2), 32)):
            slab_bytes = 8 * (M // 2 + 1) ** (dist.d - 1)
            with traced_peak() as traced:
                beta_kspace(dual_orthant(dist, TorusGrid(dist.d, M)), 2)
            assert traced.peak <= 4 * slab_bytes, dist.family

    @pytest.mark.parametrize("dist,M", [
        (StepDistribution("power", 1, alpha=0.7, L=3, support_radius=9), 8),
        (StepDistribution("power", 2, alpha=1.2, support_radius=7), 6),
        (StepDistribution("power", 3, alpha=1.5, support_radius=5), 8)])
    def test_stored_orthant_sums_equal_the_whole_array_sums(self, dist, M):
        orth = dual_orthant(dist, TorusGrid(dist.d, M))
        oracle = lambda term, keep=None: full_array_mean(dist, M, term, keep)
        nonzero = nonzero_modes((M // 2 + 1,) * dist.d)
        # twice: the terms never write into the stored orthant
        for _ in range(2):
            assert close(beta_kspace(orth, 2), oracle(
                lambda v: v ** 2 / (1.0 - v) ** 2, nonzero))
            rec = bound_diagnostics(dist, TorusGrid(dist.d, M), 2)
            assert close(rec["d4_return"], oracle(lambda v: v ** 4))
            assert close(rec["inverse_power_mean"], oracle(
                lambda v: 1.0 / (1.0 - v) ** 4, nonzero))

    def test_a_working_set_out_of_reach_is_refused_before_the_sum(
            self, monkeypatch):
        # nn d = 5, M = 32: blocks of at most C(20, 4) = 4845 chamber
        # points, 310 kB of working set at 64 bytes a point
        orth = dual_orthant(StepDistribution("nn", 5), TorusGrid(5, 32))
        read = []

        def dhat(key):
            read.append(len(key))
            return orth.dhat(key)

        counted = dataclasses.replace(orth, dhat=dhat)
        want = beta_kspace(orth, 2)
        monkeypatch.setattr(walk, "_physical_memory", lambda: 512 << 10)
        with pytest.raises(MemoryError, match="Unable to allocate .* "
                           "working set of M = 32 in d = 5"):
            beta_kspace(counted, 2)
        assert read == []
        monkeypatch.setattr(walk, "_physical_memory", lambda: 1 << 20)
        assert beta_kspace(counted, 2) == want
        assert max(read) <= 4845

    def test_power_orthant_is_transformed_once(self, monkeypatch):
        dist = StepDistribution("power", 3, alpha=1.5, support_radius=5)
        calls = []
        transform = StepDistribution._power_transform

        def counted(self, ts):
            calls.append(len(ts))
            return transform(self, ts)

        monkeypatch.setattr(StepDistribution, "_power_transform", counted)
        orth = dual_orthant(dist, TorusGrid(3, 8))
        beta_kspace(orth, 2)
        orth.mean(lambda v: v ** 4)
        assert calls == [3]


class TestScalingTable:
    def test_nn_rows(self):
        rows = beta_scaling_table("nn", 2, {"d_values": [9, 10], "M": 8})
        assert [r["d"] for r in rows] == [9, 10]
        for r in rows:
            assert r["scaled"] == pytest.approx(r["d"] * r["beta"])

    def test_uniform_rows(self):
        rows = beta_scaling_table("uniform", 2,
                                  {"d": 2, "L_values": [1, 2], "M": 16})
        assert [r["L"] for r in rows] == [1, 2]
        for r in rows:
            assert r["scaled"] == pytest.approx(r["L"] ** 2 * r["beta"])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            beta_scaling_table("other", 2, {})


def test_bound_diagnostics_cauchy_schwarz():
    dist = StepDistribution("uniform", 2, L=2)
    rec = bound_diagnostics(dist, TorusGrid(2, 12), 2)
    assert rec["holds"]
    assert rec["beta"] <= rec["cauchy_schwarz_rhs"] * (1 + 1e-12)
    # the L > 1 split must add up to the full sum
    assert rec["inner_region"] + rec["outer_region"] == \
        pytest.approx(rec["beta"])


@pytest.mark.parametrize("refinements", [1, 2, 3])
def test_beta_folds_each_grid_once(fold_calls, refinements):
    # the base grid is folded once, for the x-space side; the refinement
    # grids take Dhat from the family on the dual orthant and fold zero times
    dist = StepDistribution("power", 2, alpha=1.2, support_radius=8)
    rep = beta(dist, TorusGrid(2, 4), 3, refinements=refinements)
    assert fold_calls == [4]
    assert [M for M, _ in rep.refinement] == [4 * 2 ** i
                                              for i in range(refinements)]
    assert rep.refinement[0][1] == rep.beta_kspace


def test_refinement_divergent_rule():
    assert not refinement_divergent([1.0, 2.0])       # needs three values
    assert refinement_divergent([1.0, 2.0, 3.5])      # increment grows
    assert refinement_divergent([1.0, 0.5, 1.5])      # sign does not matter
    assert not refinement_divergent([1.0, 2.0, 3.0])  # equal increments
    assert not refinement_divergent([1.0, 2.0, 2.5, 9.0])  # first three only
