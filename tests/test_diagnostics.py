import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacelab import diagnostics as dg
from lacelab.steps import StepDistribution
from lacelab.torus import TorusField, TorusGrid, delta_k

finite_angle = st.floats(-np.pi, np.pi, allow_nan=False)


def symmetric_field(grid: TorusGrid, values_half, scale: float) -> TorusField:
    """Build a reflection-symmetric x-space field from per-|x| values."""
    M = grid.M
    vals = np.array([values_half[min(x, M - x)] for x in range(M)])
    s = np.sum(np.abs(vals))
    if s > 0:
        vals = vals * (scale / s)
    return TorusField(grid, vals, "x")


@pytest.fixture(scope="module")
def free_input():
    return dg.free_two_point(StepDistribution("nn", 3), TorusGrid(3, 8), 0.5)


class TestTwoPointInput:
    def test_chi_lambda_and_c(self, free_input):
        assert free_input.chi == pytest.approx(
            1.0 / (1.0 - 0.5), abs=1e-12)  # Dhat(0) = 1
        assert free_input.lam == pytest.approx(1.0 - 1.0 / free_input.chi)
        c = free_input.c_lambda()
        assert c[(0, 0, 0)] == pytest.approx(free_input.chi)

    def test_shape_validation(self):
        g = TorusGrid(1, 4)
        with pytest.raises(ValueError):
            dg.TwoPointInput(grid=g, ghat=np.ones(5), tau=0.1,
                             dhat=np.ones(4))

    def test_serialize_round_trip(self, free_input):
        again = dg.deserialize_input(dg.serialize_input(free_input))
        assert np.allclose(again.ghat, free_input.ghat)
        assert np.allclose(again.dhat, free_input.dhat)
        assert again.tau == free_input.tau


class TestDiagrams:
    def test_bubble_parseval_cross_check(self, free_input):
        # bubble_triangle raises if the k-space mean and the x-space
        # convolution disagree, so a clean return is the assertion
        B, T, nabla, B_tilde = dg.bubble_triangle(free_input)
        assert B >= 1.0  # Ghat >= 1 pointwise for the free walk
        assert T >= B >= B_tilde > 0
        assert 0 < nabla <= T

    def test_rejects_asymmetric_ghat(self):
        g = TorusGrid(1, 8)
        ghat = np.ones(8)
        ghat[1] = 2.0  # ghat(-1) != ghat(1)
        dhat = np.zeros(8)
        dhat[0] = 1.0
        inp = dg.TwoPointInput(grid=g, ghat=ghat, tau=0.1, dhat=dhat)
        with pytest.raises(ValueError):
            dg.bubble_triangle(inp)

    def test_chain_of_bubbles_bound(self, free_input):
        rec = dg.chain_of_bubbles(free_input)
        assert rec["converged"]
        assert rec["B_tilde"] < 0.5
        assert rec["psi_mass"] <= 2.0 * rec["B_tilde"] + 1e-12
        assert rec["bound_holds"]

    def test_chain_flags_divergence(self):
        # tau close to critical on a small grid pushes B_tilde past 1/2
        inp = dg.free_two_point(StepDistribution("nn", 1), TorusGrid(1, 8),
                                0.98)
        rec = dg.chain_of_bubbles(inp)
        assert not rec["converged"]


class TestBootstrap:
    def test_free_walk_report(self, free_input):
        rep = dg.diagram_report(free_input)
        assert rep.f1 == 0.5
        assert rep.f2 == pytest.approx(1.0, abs=1e-12)
        assert rep.infrared_sup < 1e-12
        assert "f3:exhaustive" in rep.flags

    def test_f3_exhaustive_matches_manual(self):
        inp = dg.free_two_point(StepDistribution("nn", 1), TorusGrid(1, 8),
                                0.4)
        _, _, f3, mode = dg.bootstrap_f(inp)
        assert mode == "exhaustive"
        c_lam = inp.c_lambda()
        worst = 0.0
        for k in range(8):
            for l in range(8):
                num = abs(inp.ghat[(l - k) % 8] + inp.ghat[(l + k) % 8]
                          - 2 * inp.ghat[l])
                den = dg.u_weight(c_lam, inp.grid, (k,), (l,))
                worst = max(worst, num / den)
        assert f3 == pytest.approx(worst, abs=1e-14)

    @staticmethod
    def scalar_f3(inp, rng_pairs, seed):
        """Python max of |Delta_k Ghat(l)| / U(k, l) over pairs redrawn one
        k and one l at a time; a 0/0 pair never wins it.  Also returns the
        number of such pairs."""
        rng = np.random.default_rng(seed)
        ghat = TorusField(inp.grid, inp.ghat, "k")
        c_lam = inp.c_lambda()
        worst, undefined = 0.0, 0
        for _ in range(rng_pairs):
            k = rng.integers(0, inp.grid.M, size=inp.grid.d)
            l = rng.integers(0, inp.grid.M, size=inp.grid.d)
            ratio = (abs(delta_k(ghat, k, l))
                     / dg.u_weight(c_lam, inp.grid, k, l))
            undefined += bool(np.isnan(ratio))
            worst = max(worst, ratio)
        return worst, undefined

    def test_sampled_f3_matches_scalar_loop(self):
        # 72^2 = 5184 sites is above the exhaustive limit
        inp = dg.free_two_point(StepDistribution("nn", 2), TorusGrid(2, 72),
                                0.45)
        assert inp.grid.n_sites > dg.F3_EXHAUSTIVE_MAX_SITES
        _, _, f3, mode = dg.bootstrap_f(inp, rng_pairs=400, seed=3)
        assert mode == "sampled"
        assert f3 == self.scalar_f3(inp, 400, 3)[0]

    def test_sampled_f3_skips_undefined_ratios(self):
        # chi = 1e17 rounds lambda to 1, so C_lambda(0) = inf, U(0, l) = 0
        # and every drawn pair with k = 0 gives 0/0
        inp = dg.free_two_point(StepDistribution("nn", 2), TorusGrid(2, 66),
                                0.45)
        inp.ghat[0, 0] = 1e17
        assert inp.lam == 1.0
        assert inp.grid.n_sites > dg.F3_EXHAUSTIVE_MAX_SITES
        with np.errstate(invalid="ignore", divide="ignore"):
            _, _, f3, _ = dg.bootstrap_f(inp, rng_pairs=2000, seed=7)
            worst, undefined = self.scalar_f3(inp, 2000, 7)
        assert undefined > 0
        assert np.isfinite(f3)
        assert f3 == worst

    def test_exhaustive_f3_skips_undefined_ratios(self):
        # the chi = 1e17 input of the sampled test on a grid small enough
        # for every (k, l) pair: the rows k = 0 are all 0/0
        inp = dg.free_two_point(StepDistribution("nn", 2), TorusGrid(2, 8),
                                0.45)
        inp.ghat[0, 0] = 1e17
        assert inp.grid.n_sites <= dg.F3_EXHAUSTIVE_MAX_SITES
        ghat = TorusField(inp.grid, inp.ghat, "k")
        worst, undefined = 0.0, 0
        with np.errstate(invalid="ignore", divide="ignore"):
            _, _, f3, mode = dg.bootstrap_f(inp)
            c_lam = inp.c_lambda()
            for k in inp.grid.sites():
                for l in inp.grid.sites():
                    ratio = float(abs(delta_k(ghat, k, l))
                                  / dg.u_weight(c_lam, inp.grid, k, l))
                    if math.isnan(ratio):
                        undefined += 1
                    else:
                        worst = max(worst, ratio)
        assert mode == "exhaustive"
        assert undefined >= inp.grid.n_sites
        assert np.isfinite(f3)
        assert f3 == worst

    @pytest.mark.parametrize("family,d,M,z", [
        ("nn", 1, 16, 0.9), ("uniform", 2, 8, 0.5), ("nn", 3, 6, 0.3)])
    def test_exhaustive_f3_is_delta_k_over_u_weight(self, family, d, M, z):
        # the np.roll pass against the gathered definitions at every (k, l)
        inp = dg.free_two_point(StepDistribution(family, d), TorusGrid(d, M),
                                z)
        sites = inp.grid.sites()
        k, l = sites[:, None], sites[None, :]
        ratio = (np.abs(delta_k(TorusField(inp.grid, inp.ghat, "k"), k, l))
                 / dg.u_weight(inp.c_lambda(), inp.grid, k, l))
        _, _, f3, mode = dg.bootstrap_f(inp)
        assert mode == "exhaustive"
        assert f3 == np.max(ratio)

    def test_sampled_mode_on_large_grid(self):
        inp = dg.free_two_point(StepDistribution("nn", 2), TorusGrid(2, 96),
                                0.3)
        f1, f2, f3, mode = dg.bootstrap_f(inp, rng_pairs=500, seed=1)
        assert mode == "sampled"
        assert f3 >= 0.0

    def test_base_point(self):
        inp = dg.free_two_point(StepDistribution("nn", 2), TorusGrid(2, 8),
                                0.0)
        f1, f2, f3, _ = dg.bootstrap_f(inp)
        assert (f1, f3) == (0.0, 0.0)
        assert f2 == pytest.approx(1.0, abs=1e-15)


class TestInequalities:
    @given(st.lists(finite_angle, min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_cos_split_property(self, parts):
        assert dg.cos_split_check(parts)["holds"]

    @given(st.floats(0.0, 1.0),
           st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_c_lambda_identity_property(self, lam, dvals):
        rec = dg.c_lambda_identity_check(np.asarray(dvals), lam)
        assert rec["holds"]

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_trig_lemma_property(self, seed):
        grid = TorusGrid(1, 12)
        rng = np.random.default_rng(seed)
        a = symmetric_field(grid, rng.uniform(-1, 1, 7), 0.9)
        sites = grid.sites()
        rec = dg.trig_lemma_check(a, sites[:, None], sites[None, :])
        assert rec["holds"].shape == (12, 12)
        assert np.all(rec["holds"])

    def test_trig_lemma_norm_guard(self):
        grid = TorusGrid(1, 12)
        a = TorusField(grid, np.full(12, 0.2), "x")
        with pytest.raises(ValueError):
            dg.trig_lemma_check(a, (1,), (0,))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_delta_vs_cos_property(self, seed):
        grid = TorusGrid(1, 16)
        rng = np.random.default_rng(seed)
        g = symmetric_field(grid, rng.uniform(-1, 1, 9), 3.0)
        sites = grid.sites()
        rec = dg.delta_vs_cos_sum_check(g, sites[:, None], sites[None, :])
        assert rec["holds"].shape == (16, 16)
        assert np.all(rec["holds"])

    def test_open_vs_closed_bubble(self, free_input):
        assert dg.open_vs_closed_bubble_check(free_input)["holds"]

    def test_cos_g_bound(self, free_input):
        rep = dg.diagram_report(free_input)
        K = max(rep.f1, rep.f2, rep.f3)
        for k in ((1, 0, 0), (2, 3, 1), (4, 4, 4)):
            assert dg.cos_g_bound_check(free_input, k, K)["holds"]

    def test_b_tilde_beta_bound(self, free_input):
        rec = dg.b_tilde_beta_bound_check(free_input)
        assert rec["holds"]
        assert rec["B_tilde"] <= rec["rhs"]


@pytest.mark.parametrize("z", [-0.1, 1.0, 1.2])
def test_free_two_point_needs_subcritical_z(z):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        dg.free_two_point(StepDistribution("nn", 2), TorusGrid(2, 8), z)
