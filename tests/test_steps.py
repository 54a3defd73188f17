import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacelab import steps
from lacelab.saw import MAX_BRANCHING, enumerate_walks
from lacelab.steps import StepDistribution, ising_tau, verify_conditions
from lacelab.torus import TorusGrid, real_dft, within_range
from lacelab.walk import dual_orthant, folded_dhat

from conftest import chamber_points, index_orthant, traced_peak


def eval_d(dist, x) -> float:
    """D(x) at one point, from the family's definition: the oracle that the
    support walk is checked against."""
    x = np.asarray(x, dtype=np.int64)
    if not np.any(x):
        return 0.0
    if dist.family == "power":
        r = float(np.sqrt(np.sum((x / dist.L) ** 2)))
        return max(r, 1.0) ** (-(dist.d + dist.alpha)) / dist.norm_const
    inside = (np.sum(np.abs(x)) == 1 if dist.family == "nn"
              else np.max(np.abs(x)) <= dist.L)
    return 1.0 / dist.support_size if inside else 0.0


class TestEval:
    def test_nn_values(self):
        dist = StepDistribution("nn", 2)
        assert eval_d(dist, (1, 0)) == 0.25
        assert eval_d(dist, (0, -1)) == 0.25
        assert eval_d(dist, (1, 1)) == 0.0
        assert eval_d(dist, (0, 0)) == 0.0

    def test_uniform_values(self):
        dist = StepDistribution("uniform", 2, L=2)
        inside = 1.0 / (5 ** 2 - 1)
        assert eval_d(dist, (2, -2)) == inside
        assert eval_d(dist, (1, 0)) == inside
        assert eval_d(dist, (3, 0)) == 0.0
        assert eval_d(dist, (0, 0)) == 0.0

    def test_power_plateau_and_decay(self):
        dist = StepDistribution("power", 1, L=4, alpha=1.5,
                                support_radius=200)
        # |x/L| <= 1 sits on the plateau h = 1
        assert eval_d(dist, (2,)) == eval_d(dist, (4,))
        # beyond the plateau the ratio follows (x1/x2)^{d+alpha}
        r = eval_d(dist, (8,)) / eval_d(dist, (16,))
        assert abs(r - 2.0 ** 2.5) < 1e-12

    def test_exact_rationals(self):
        # rational mode weighs every kept step D(x) = 1/|Omega| exactly
        for dist, want in [(StepDistribution("nn", 3), Fraction(1, 6)),
                           (StepDistribution("uniform", 1, L=2),
                            Fraction(1, 4))]:
            series = enumerate_walks(dist, 0)
            assert series.weights == [want] * len(series.steps)
            assert all(eval_d(dist, s) == float(want) for s in series.steps)
        with pytest.raises(ValueError):
            enumerate_walks(StepDistribution("power", 1, alpha=1.0,
                                             support_radius=50), 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StepDistribution("nn", 0)
        with pytest.raises(ValueError):
            StepDistribution("blah", 2)
        with pytest.raises(ValueError):
            StepDistribution("power", 2)  # alpha missing
        with pytest.raises(ValueError):
            StepDistribution("uniform", 2, L=0)
        # the power family's normalisation is computed, never passed
        with pytest.raises(TypeError):
            StepDistribution("uniform", 2, tail_bound=0.3)
        # a truncation is an integer >= 1, and only the power family has one
        for radius in (0, -3, 2.5):
            with pytest.raises(ValueError, match="truncation"):
                StepDistribution("power", 1, alpha=1.2, support_radius=radius)
        for family in ("nn", "uniform"):
            with pytest.raises(ValueError, match="truncation"):
                StepDistribution(family, 2, support_radius=5)
        # only the power family has an alpha, and nn has no range L
        for family in ("nn", "uniform"):
            with pytest.raises(ValueError, match="alpha"):
                StepDistribution(family, 2, alpha=1.2)
        for L in (0, 3):
            with pytest.raises(ValueError, match="range L"):
                StepDistribution("nn", 2, L=L)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_uniform_table_is_the_cube_less_the_origin(self, d, L):
        want = np.array([x for x in itertools.product(range(-L, L + 1),
                                                      repeat=d) if any(x)],
                        dtype=np.int64)
        offs, _ = StepDistribution("uniform", d, L=L).support()
        assert offs.dtype == want.dtype
        assert offs.shape == want.shape
        assert np.array_equal(offs, want)


class TestNormalization:
    def test_nn_uniform_sum_to_one(self):
        for dist in (StepDistribution("nn", 3),
                     StepDistribution("uniform", 2, L=3)):
            offs, probs = dist.support()
            assert abs(float(np.sum(probs)) - 1.0) < 1e-12

    def test_power_sum_within_tail_bound(self):
        dist = StepDistribution("power", 2, L=1, alpha=1.2,
                                support_radius=64)
        total = float(np.sum(dist.support()[1]))
        # support + analytic tail = 1 by construction
        assert 0.0 < 1.0 - total <= dist.tail_bound + 1e-15

    def test_power_default_radius_hits_target(self):
        dist = StepDistribution("power", 2, L=1, alpha=2.0)
        # the tail target is 1e-9 relative to the nearest-neighbor mass
        points = (2 * dist.support_radius + 1) ** dist.d
        assert dist.tail_bound <= 1e-9 * 2 * dist.d * 1.01 or points >= 1.9e7

    def test_sup_d(self):
        assert StepDistribution("nn", 4).sup_d == 1.0 / 8
        assert StepDistribution("uniform", 2, L=1).sup_d == 1.0 / 8


# (family, d, kwargs), each small enough to materialise
SUPPORTS = [("nn", 3, {}), ("uniform", 2, {"L": 2}),
            ("power", 1, {"alpha": 1.5, "support_radius": 40}),
            ("power", 2, {"alpha": 0.7, "L": 2, "support_radius": 12}),
            ("power", 3, {"alpha": 1.5, "support_radius": 5})]


class TestSupportWalk:
    @pytest.mark.parametrize("family,d,kw", SUPPORTS)
    def test_support_is_eval_d_at_every_point(self, family, d, kw):
        dist = StepDistribution(family, d, **kw)
        offs, probs = dist.support()
        R = kw.get("support_radius", kw.get("L", 1))
        cube = [x for x in itertools.product(range(-R, R + 1), repeat=d)
                if eval_d(dist, x) > 0]
        assert offs.dtype == np.int64
        assert len(offs) == dist.support_size == len(cube)
        got = [tuple(x) for x in offs.tolist()]
        if family == "power":
            assert got == cube  # lexicographic
        np.testing.assert_allclose(probs, [eval_d(dist, x) for x in got],
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("family,d,kw", SUPPORTS)
    @pytest.mark.parametrize("radius", [1, 2.7, 4, 100])
    def test_a_radius_walks_the_cube_in_the_full_walks_order(
            self, family, d, kw, radius):
        # a radius keeps exactly the support's steps within range, in
        # support()'s order and bit for bit, or refuses a branching factor
        # above MAX_BRANCHING
        dist = StepDistribution(family, d, **kw)
        offs, probs = dist.support()
        keep = within_range(offs, radius)
        if np.count_nonzero(keep) > MAX_BRANCHING:
            with pytest.raises(ValueError, match="branching factor"):
                enumerate_walks(dist, 1, support_radius=radius, mode="double")
            return
        series = enumerate_walks(dist, 1, support_radius=radius,
                                 mode="double")
        assert series.steps == [tuple(x) for x in offs[keep].tolist()]
        assert series.weights == probs[keep].tolist()


# (d, kwargs): d = 1..4, at truncations from 40 down to 1, then two
# weight streams of several slabs (301 rows of 217, 10^5 + 1 rows of 2^16)
FOLD_CASES = [(1, {"alpha": 1.5, "support_radius": 40}),
              (2, {"alpha": 0.7, "L": 2, "support_radius": 12}),
              (2, {"alpha": 1.2, "support_radius": 1}),
              (3, {"alpha": 1.5, "support_radius": 5}),
              (4, {"alpha": 1.2, "support_radius": 2}),
              (2, {"alpha": 1.2, "support_radius": 300}),
              (1, {"alpha": 1.2, "support_radius": 10 ** 5})]


@pytest.mark.parametrize("d,kw", FOLD_CASES)
@pytest.mark.parametrize("M", [2, 3, 4, 7, 8, 64])
def test_power_fold_is_the_support_added_up(d, kw, M):
    # every M below 2R + 1 aliases: M = 2 at truncation 1, all M <= 8 at 5
    dist = StepDistribution("power", d, **kw)
    offs, probs = dist.support()
    want = np.zeros(M ** d)
    np.add.at(want, np.mod(offs, M) @ (M ** np.arange(d - 1, -1, -1)), probs)
    sink = steps._FoldSum(M, d)  # any M: a TorusGrid needs an even M >= 4
    norm = dist._feed([sink])
    got = sink.result() / norm
    assert got.shape == (M,) * d
    np.testing.assert_allclose(got.ravel(), want, rtol=1e-13, atol=0)
    if M >= 4 and M % 2 == 0:  # a torus grid
        assert np.array_equal(dist.fold(TorusGrid(d, M)).values, got)


# (d, kwargs) whose weight stream runs in two slabs or more: 10^5 + 1 rows
# of 2^16, 301 rows of 217, 41 rows of 38
MULTI_SLAB = [(1, {"alpha": 1.2, "support_radius": 10 ** 5}),
              (2, {"alpha": 1.2, "support_radius": 300}),
              (3, {"alpha": 0.7, "L": 2, "support_radius": 40})]


class TestWeightStream:
    @pytest.mark.parametrize("d,kw", MULTI_SLAB)
    def test_multi_slab_transform_matches_the_support_sum(self, d, kw,
                                                          monkeypatch):
        dist = StepDistribution("power", d, **kw)
        assert len([x0 for x0, _ in dist._h_stream()]) >= 2
        ks = np.random.default_rng(d).uniform(-np.pi, np.pi, size=(20, d))
        want = dist.fourier_d_support_sum(ks)
        assert np.max(np.abs(dist.fourier_d(ks) - want)) <= 1e-12
        t = 2.0 * np.pi * np.arange(3) / 4
        want_grid = dist.fourier_d_support_sum(steps._grid_points(t, d))
        assert np.max(np.abs(dist.fourier_d_grid(t).ravel()
                             - want_grid)) <= 1e-12
        # a product grid of zero size sends every row down the row path
        monkeypatch.setattr(steps, "PRODUCT_GRID_LIMIT", 0)
        assert np.max(np.abs(dist.fourier_d(ks) - want)) <= 1e-12

    def test_the_constructor_streams_nothing(self, streams):
        dist = StepDistribution("power", 2, alpha=1.2)
        assert streams == []
        # the transform's stream records sum h, so the norm is free
        dist.fourier_d_grid(2.0 * np.pi * np.arange(5) / 8)
        assert dist.sup_d > 0 and dist.tail_bound > 0
        assert streams == [2]

    def test_the_bits_do_not_depend_on_the_read_order(self):
        t = 2.0 * np.pi * np.arange(9) / 16
        norm_first = StepDistribution("power", 2, alpha=1.2)
        sup_d = norm_first.sup_d
        grid = norm_first.fourier_d_grid(t)
        transform_first = StepDistribution("power", 2, alpha=1.2)
        assert np.array_equal(transform_first.fourier_d_grid(t), grid)
        assert transform_first.sup_d == sup_d
        assert transform_first.norm_const == norm_first.norm_const


class TestFourier:
    def test_nn_closed_form_vs_support_sum(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 4):
            dist = StepDistribution("nn", d)
            ks = rng.uniform(-np.pi, np.pi, size=(200, d))
            a = dist.fourier_d(ks)
            b = dist.fourier_d_support_sum(ks)
            assert np.max(np.abs(a - b)) < 1e-13

    def test_uniform_closed_form_vs_support_sum(self):
        rng = np.random.default_rng(1)
        dist = StepDistribution("uniform", 2, L=3)
        ks = rng.uniform(-np.pi, np.pi, size=(200, 2))
        a = dist.fourier_d(ks)
        b = dist.fourier_d_support_sum(ks)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_value_at_zero(self):
        for dist in (StepDistribution("nn", 3),
                     StepDistribution("uniform", 1, L=4)):
            assert abs(dist.fourier_d(np.zeros(dist.d)) - 1.0) < 1e-12

    @given(st.integers(1, 4), st.lists(st.floats(-math.pi, math.pi),
                                       min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_transform_bounded_by_one(self, d, kvals):
        dist = StepDistribution("nn", d)
        k = np.asarray(kvals[:d])
        assert abs(dist.fourier_d(k)) <= 1.0 + 1e-12

    def test_fold_conserves_mass_and_symmetry(self):
        grid = TorusGrid(2, 6)
        for dist in (StepDistribution("nn", 2),
                     StepDistribution("uniform", 2, L=4)):
            dm = dist.fold(grid)
            assert abs(float(np.sum(dm.values)) - 1.0) < 1e-12
            rev = dm.values[::-1, ::-1]
            rev = np.roll(rev, 1, axis=(0, 1))
            assert np.max(np.abs(rev - dm.values)) < 1e-15

    @pytest.mark.parametrize("d,radius", [(1, 10 ** 5), (2, None)])
    def test_power_small_k_is_the_continuum_law(self, d, radius):
        # 1 - Dhat(k) ~ C_{d,alpha} |k|^alpha / norm_const as k -> 0, with
        # C_{d,alpha} the integral of (1 - cos(k.y)) |y|^{-d-alpha} over R^d
        # at |k| = 1
        a = 1.2
        dist = StepDistribution("power", d, alpha=a, support_radius=radius)
        c = (math.pi ** (d / 2) * math.gamma(1 - a / 2)
             / (a * 2 ** (a - 1) * math.gamma((d + a) / 2)))
        ks = np.zeros((3, d))
        ks[:, 0] = [0.03, 0.05, 0.1]
        ratio = ((1.0 - dist.fourier_d(ks)) * dist.norm_const
                 / (c * ks[:, 0] ** a))
        assert np.all((0.95 <= ratio) & (ratio <= 1.05)), ratio

    def test_fold_matches_transform_on_dual_grid(self):
        # Dhat_M(2 pi m / M) equals the infinite-lattice transform there
        grid = TorusGrid(1, 8)
        dist = StepDistribution("uniform", 1, L=3)
        from lacelab.torus import real_dft
        dhat = real_dft(dist.fold(grid))
        ks = 2.0 * np.pi * np.arange(8)[:, None] / 8.0
        direct = dist.fourier_d(ks)
        assert np.max(np.abs(dhat - direct)) < 1e-12


# (family, d, kwargs, M): every family at d = 1..4; the power cases include
# grids smaller than the support, M < 2R, where the fold aliases
DUAL_GRID_CASES = (
    [("nn", d, {}, M) for d in (1, 2, 3, 4) for M in (4, 6, 8)]
    + [("uniform", d, {"L": L}, M) for d, L, M in
       ((1, 3, 4), (1, 2, 10), (2, 1, 6), (2, 3, 4), (3, 2, 6), (4, 1, 4))]
    + [("power", d, kw, M) for d, kw, M in
       ((1, {"alpha": 1.5, "support_radius": 40}, 8),
        (1, {"alpha": 0.7, "L": 3, "support_radius": 9}, 32),
        (2, {"alpha": 1.2, "support_radius": 7}, 6),
        (2, {"alpha": 0.7, "L": 2, "support_radius": 5}, 16),
        (3, {"alpha": 1.5, "support_radius": 5}, 4),
        (3, {"alpha": 2.5, "L": 2, "support_radius": 3}, 8),
        (4, {"alpha": 1.2, "support_radius": 3}, 4),
        (4, {"alpha": 1.2, "support_radius": 2}, 6))])


class TestDualGridTransform:
    @pytest.mark.parametrize("family,d,kw,M", DUAL_GRID_CASES)
    def test_grid_transform_matches_fold_and_support_sum(self, family, d,
                                                         kw, M):
        dist = StepDistribution(family, d, **kw)
        grid = TorusGrid(d, M)
        got = folded_dhat(dist, grid)
        assert np.max(np.abs(got - real_dft(dist.fold(grid)))) <= 1e-12
        ks = 2.0 * np.pi * grid.sites() / M
        want = dist.fourier_d_support_sum(ks).reshape(grid.shape)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(dist.fourier_d(ks).reshape(grid.shape)
                             - want)) <= 1e-12

    @pytest.mark.parametrize("d,kw", [
        (1, {"alpha": 1.5, "support_radius": 40}),
        (2, {"alpha": 0.7, "L": 2, "support_radius": 12}),
        (3, {"alpha": 1.5, "support_radius": 5})])
    def test_power_rows_match_the_product_grid(self, d, kw, monkeypatch):
        dist = StepDistribution("power", d, **kw)
        ks = np.random.default_rng(d).uniform(-np.pi, np.pi, size=(300, d))
        want = dist.fourier_d_support_sum(ks)
        assert np.max(np.abs(dist.fourier_d(ks) - want)) <= 1e-12
        # a product grid of zero size sends every row down the row path
        monkeypatch.setattr(steps, "PRODUCT_GRID_LIMIT", 0)
        assert np.max(np.abs(dist.fourier_d(ks) - want)) <= 1e-12

    @pytest.mark.parametrize("d,kw", [
        (1, {"alpha": 1.5, "support_radius": 40}),
        (2, {"alpha": 0.7, "L": 2, "support_radius": 12}),
        (3, {"alpha": 1.5, "support_radius": 5}),
        (2, {"alpha": 1.2, "support_radius": 400})])
    def test_power_norm_and_moment_match_the_support_walk(self, d, kw):
        dist = StepDistribution("power", d, **kw)
        offs, p = dist.support()
        total = float(np.sum(p))
        r = np.sqrt(np.sum(offs.astype(float) ** 2, axis=1))
        moment = float(np.sum(r ** (0.5 * dist.alpha) * p))
        assert total + dist.tail_bound == pytest.approx(1.0, rel=1e-13)
        assert dist.moments([0.5 * dist.alpha])[0] == pytest.approx(
            moment, rel=1e-12)

    @pytest.mark.parametrize("dist,key_to_dhat", [
        (StepDistribution("nn", 5), lambda key: key / 5),
        (StepDistribution("uniform", 5, L=2),
         lambda key: (key - 1.0) / 3124)])
    def test_closed_form_grid_is_one_grid(self, dist, key_to_dhat):
        # the key grid becomes Dhat in place, by the same operations in the
        # same order as mapping it to a second grid
        t = 2.0 * np.pi * np.arange(17) / 32
        with traced_peak() as traced:
            got = dist.fourier_d_grid(t)
        assert traced.peak <= 1.1 * got.nbytes
        factors, combine, _ = dist.closed_form(t)
        key = np.full((17,) * 5, float(combine.identity))
        for a in range(5):
            key = combine(key, factors.reshape((-1,) + (1,) * (4 - a)))
        want = key_to_dhat(key)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("dist_of", [
        lambda d: StepDistribution("nn", d),
        lambda d: StepDistribution("uniform", d, L=2)], ids=["nn", "uniform"])
    def test_closed_form_rows_are_rows_of_the_grid(self, dist_of, d):
        # the chamber combines a point's factors in the order of its sorted
        # indices, as the grid entry at that index tuple does, so its
        # closed-form values are entries of the grid bit for bit
        dist = dist_of(d)
        t = 2.0 * np.pi * np.arange(9) / 16
        whole = dist.fourier_d_grid(t)
        orth = dual_orthant(dist, TorusGrid(d, 16))
        key, _ = chamber_points(orth)
        index, _ = chamber_points(index_orthant(16, d))
        assert np.array_equal(orth.dhat(key), whole.ravel()[index])


class TestMoments:
    def test_nn_second_moment(self):
        assert abs(StepDistribution("nn", 5).moments([2.0])[0] - 1.0) < 1e-12

    def test_power_moment_divergence(self):
        dist = StepDistribution("power", 1, L=1, alpha=1.5,
                                support_radius=10000)
        assert dist.moments([1.5])[0] == "divergent"
        assert dist.moments([2.0])[0] == "divergent"
        assert isinstance(dist.moments([1.0])[0], float)

    def test_uniform_moment_monotone_in_L(self):
        m1 = StepDistribution("uniform", 2, L=1).moments([2.0])[0]
        m2 = StepDistribution("uniform", 2, L=3).moments([2.0])[0]
        assert m2 > m1


class TestConditions:
    def test_nn_small_k_constant(self):
        for d in (1, 2, 3):
            rep = verify_conditions(StepDistribution("nn", d), grid_res=16)
            assert rep.c1_hat >= 2.0 / (math.pi ** 2 * d) - 1e-9

    def test_nn_violates_antipodal_bound(self):
        # the bipartite mode Dhat(pi,...,pi) = -1 breaks 1 - Dhat < 2 - c2
        rep = verify_conditions(StepDistribution("nn", 2), grid_res=16)
        assert not rep.ok
        assert any(v["condition"] == "large-k bounds"
                   for v in rep.violations)

    def test_uniform_passes(self):
        rep = verify_conditions(StepDistribution("uniform", 2, L=2),
                                grid_res=16)
        assert rep.ok
        assert rep.c1_hat > 0 and rep.c2_hat > 0

    def test_grid_res_validation(self):
        with pytest.raises(ValueError):
            verify_conditions(StepDistribution("nn", 1), grid_res=2)


class TestIsingTau:
    def test_normalization_and_value(self):
        J = {(1,): 2.0, (-1,): 2.0}
        tau, dstep = ising_tau(J, 0.5)
        assert abs(tau - 2 * math.tanh(1.0)) < 1e-12
        assert abs(sum(dstep.values()) - 1.0) < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            ising_tau({(1,): -1.0}, 0.5)
        with pytest.raises(ValueError):
            ising_tau({(1,): 1.0}, 0.0)


def test_spec_round_trip():
    for dist in (StepDistribution("nn", 3),
                 StepDistribution("uniform", 2, L=4),
                 StepDistribution("power", 2, L=2, alpha=1.5,
                                  support_radius=40)):
        again = StepDistribution.from_spec(dist.to_spec())
        assert again.family == dist.family
        assert again.d == dist.d
        assert again.sup_d == dist.sup_d
