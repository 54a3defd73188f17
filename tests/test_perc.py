import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacelab.perc import (ClusterStats, ExactGraph, PercConfig,
                          batch_means_se, bond_offsets,
                          exact_graph_from_config, exact_pair_matrix,
                          exact_small, exact_triangle, magnetization,
                          magnetization_tail, range_tail, restricted_triangle,
                          russo_check, sample_cluster)
from lacelab.steps import StepDistribution
from lacelab.torus import TorusField, TorusGrid


def _ring_config(M=6, z=0.8, seed=0, replicas=2000):
    return PercConfig(TorusGrid(1, M), StepDistribution("nn", 1), z, 1.0,
                      seed=seed, replicas=replicas)


class TestConfig:
    def test_z_range_guard(self):
        with pytest.raises(ValueError):
            _ring_config(z=2.1)  # 1/sup_D = 2 for nn d=1
        with pytest.raises(ValueError):
            _ring_config(z=-0.1)

    def test_bond_offsets_half_convention(self):
        offs, probs = bond_offsets(_ring_config())
        assert offs.shape == (1, 1)  # only one of +-1 kept
        assert probs[0] == pytest.approx(0.8 * 0.5)

    def test_range_cut(self):
        cfg = PercConfig(TorusGrid(1, 8), StepDistribution("uniform", 1, L=2),
                         0.5, 1.0, seed=0)
        offs, _ = bond_offsets(cfg)
        assert np.max(np.abs(offs)) == 1  # distance-2 bond cut by R=1
        assert range_tail(cfg) == pytest.approx(0.5)

    def test_clip_warning(self):
        # folding aliases -4 onto +2 on the 6-torus, doubling the weight
        # there to 1/4, so z = 8 = 1/sup_D pushes z*D_M(2) to 2
        cfg = PercConfig(TorusGrid(1, 6), StepDistribution("uniform", 1, L=4),
                         8.0, 2.0, seed=0)
        with pytest.warns(RuntimeWarning, match="clipped"):
            bond_offsets(cfg)

    def test_half_period_offset_excluded_with_warning(self):
        # on M = 4 the offset -2 is its own negation mod 4; it is dropped
        # loudly rather than half-counted
        cfg = PercConfig(TorusGrid(1, 4), StepDistribution("uniform", 1, L=2),
                         0.5, 2.0, seed=0)
        with pytest.warns(RuntimeWarning, match="half the torus period"):
            offs, _ = bond_offsets(cfg)
        assert np.max(np.abs(offs)) == 1

    def test_half_period_families_keep_one_representative(self):
        # on M = 4, (-2, 1) and (-2, -1) are each other's negation mod 4;
        # exactly one of them must stay, while the self-negating (0, -2),
        # (-2, 0) and (-2, -2) are dropped with a warning
        grid = TorusGrid(2, 4)
        cfg = PercConfig(grid, StepDistribution("uniform", 2, L=2), 0.1, 3.0,
                         seed=0)
        with pytest.warns(RuntimeWarning, match="half the torus period"):
            offs, probs = bond_offsets(cfg)
        classes = [frozenset({tuple(o % 4), tuple(-o % 4)}) for o in offs]
        want = {frozenset({x, tuple(-np.array(x) % 4)})
                for x in itertools.product(range(4), repeat=2)
                if x != tuple(-np.array(x) % 4)}
        assert len(classes) == len(set(classes)) == len(want) == 6
        assert set(classes) == want
        assert probs[offs.tolist().index([-2, 1])] == \
            pytest.approx(0.1 * cfg.folded[2, 1])
        with pytest.warns(RuntimeWarning, match="half the torus period"):
            graph = exact_graph_from_config(cfg)
        pairs = {frozenset(b[:2]) for b in graph.bonds}
        assert len(pairs) == len(graph.bonds) == 16 * 6
        for site in grid.sites():
            for step in ((2, 1), (2, -1)):
                nb = int(grid.flat_index(site + np.array(step)))
                assert frozenset({int(grid.flat_index(site)), nb}) in pairs

    @pytest.mark.filterwarnings("ignore:offset at half the torus period")
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("M", [4, 6, 8])
    @pytest.mark.parametrize("family,L", [("nn", 1), ("uniform", 1),
                                          ("uniform", 2), ("uniform", 3)])
    def test_bond_table_has_no_self_loop_or_repeated_pair(self, d, M,
                                                          family, L):
        # what lets exact_graph_from_config keep every row of the table
        for R in (1, 1.5, 2, 3, 5):
            dist = StepDistribution(family, d, L=L)
            cfg = PercConfig(TorusGrid(d, M), dist, 0.1 / dist.sup_d, R,
                             seed=0)
            graph = exact_graph_from_config(cfg)
            pairs = {frozenset(b[:2]) for b in graph.bonds}
            assert all(len(pair) == 2 for pair in pairs)
            assert len(pairs) == len(graph.bonds) == \
                cfg.grid.n_sites * len(bond_offsets(cfg)[0])


def scalar_oracle(graph, z):
    """Per-configuration reference: union-find on each of the 2^B bond sets."""
    n, B = graph.n_sites, len(graph.bonds)
    p = [min(max(z * q, 0.0), 1.0) for _, _, q in graph.bonds]
    dp = [q if 0.0 < z * q < 1.0 else 0.0 for _, _, q in graph.bonds]

    def roots(cfg):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a
        for b, (u, v, _) in enumerate(graph.bonds):
            if cfg >> b & 1:
                parent[find(u)] = find(v)
        return [find(a) for a in range(n)]
    R = [roots(cfg) for cfg in range(1 << B)]
    S = [r.count(r[0]) for r in R]
    rec = {"chi": 0.0, "dchi_dz": 0.0, "pivotal_sum": 0.0,
           "size_law": np.zeros(n + 1), "pair_matrix": np.zeros((n, n))}
    for cfg, (r, s) in enumerate(zip(R, S)):
        on = [cfg >> b & 1 for b in range(B)]
        factors = [pb if o else 1.0 - pb for pb, o in zip(p, on)]
        w = math.prod(factors)
        rec["chi"] += w * s
        # d/dz of w = prod_b f_b by the product rule, so that a subnormal
        # p_b is never divided by
        rec["dchi_dz"] += s * sum(
            (d if on[b] else -d) * math.prod(factors[:b] + factors[b + 1:])
            for b, d in enumerate(dp) if d)
        rec["pivotal_sum"] += w * sum(
            d * (S[cfg | 1 << b] - S[cfg & ~(1 << b)])
            for b, d in enumerate(dp) if d)
        rec["size_law"][s] += w
        rec["pair_matrix"] += w * np.equal.outer(r, r)
    return rec


class TestExactOracle:
    def test_single_bond_by_hand(self):
        graph = ExactGraph(2, [(0, 1, 1.0)])
        for z in (0.2, 0.7):
            rec = exact_small(graph, z)
            assert rec["chi"] == pytest.approx(1.0 + z)
            assert rec["dchi_dz"] == pytest.approx(1.0)
            assert rec["pivotal_sum"] == pytest.approx(1.0)
            assert rec["size_law"][1] == pytest.approx(1.0 - z)
            assert rec["size_law"][2] == pytest.approx(z)

    def test_two_bond_chain_by_hand(self):
        # 0-1 and 1-2, both probability z: |C(0)| law is explicit
        graph = ExactGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        z = 0.4
        rec = exact_small(graph, z)
        chi = 1 * (1 - z) + 2 * z * (1 - z) + 3 * z * z
        assert rec["chi"] == pytest.approx(chi)

    def test_pair_matrix_symmetry_and_diag(self):
        cfg = _ring_config()
        graph = exact_graph_from_config(cfg)
        G = exact_pair_matrix(graph, 0.5)
        assert np.allclose(G, G.T)
        assert np.allclose(np.diag(G), 1.0)
        assert np.all(G >= 0) and np.all(G <= 1 + 1e-12)

    def test_bond_limit_guard(self):
        # building a large graph is fine; enumerating it is refused
        graph = ExactGraph(30, [(i, i + 1, 1.0) for i in range(25)])
        with pytest.raises(ValueError, match="limited to 20 bonds"):
            exact_small(graph, 0.5)
        with pytest.raises(ValueError, match="limited to 20 bonds"):
            exact_pair_matrix(graph, 0.5)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
               st.just(n),
               st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.sampled_from([0.0, 0.25, 0.5, 1.0])
                                  | st.floats(0.01, 2.0)),
                        max_size=8))),
           st.sampled_from([1.0, 2.0, 4.0]) | st.floats(0.0, 3.0))
    # a subnormal z * q made dchi/dz overflow through dp/p
    @example((1, [(0, 0, 0.25)]), 2.2250738585e-313)
    @example((1, [(0, 0, 0.0), (0, 0, 0.25)]), 2.2250738585e-313)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, instance, z):
        # z in {1, 2, 4} puts some z*q exactly at 1 or clips it above 1
        graph = ExactGraph(*instance)
        want = scalar_oracle(graph, z)
        rec = exact_small(graph, z, pivotal=True)

        def close(a, b):
            return np.all(np.abs(np.asarray(a) - b)
                          <= 1e-12 * np.maximum(1.0, np.abs(b)))
        for key in ("chi", "dchi_dz", "pivotal_sum", "size_law",
                    "pair_matrix"):
            assert np.all(np.isfinite(rec[key])), key
            assert close(rec[key], want[key]), (key, rec[key], want[key])
        assert close(rec["pair_conn"], want["pair_matrix"][0])
        assert close(rec["theta"], sum(want["size_law"][
            int(math.sqrt(graph.n_sites)) + 1:]))
        assert close(exact_pair_matrix(graph, z), want["pair_matrix"])
        assert russo_check(graph, z)["match"]

    @given(st.floats(0.05, 0.95), st.integers(4, 8))
    @settings(max_examples=20, deadline=None)
    def test_russo_identity_property(self, z, M):
        if M % 2:
            M += 1
        cfg = PercConfig(TorusGrid(1, M), StepDistribution("nn", 1),
                         min(z * 2, 1.99), 1.0, seed=0)
        graph = exact_graph_from_config(cfg)
        rec = russo_check(graph, z)
        assert rec["match"]
        assert rec["upper_holds"]
        assert rec["lower_holds"]


class TestSampler:
    def test_matches_exact_within_errors(self):
        cfg = _ring_config(M=6, z=1.0, seed=3, replicas=20000)
        graph = exact_graph_from_config(cfg)
        exact = exact_small(graph, 1.0, pivotal=False)
        stats = sample_cluster(cfg, targets=[(2,), (3,)])
        assert abs(stats.chi_hat - exact["chi"]) <= 4 * stats.chi_se
        assert stats.pair_hits[(2,)] == pytest.approx(
            exact["pair_conn"][2], abs=0.02)
        assert sum(stats.histogram.values()) == cfg.replicas

    def test_deterministic_in_seed(self):
        a = sample_cluster(_ring_config(seed=5, replicas=500))
        b = sample_cluster(_ring_config(seed=5, replicas=500))
        c = sample_cluster(_ring_config(seed=6, replicas=500))
        assert np.array_equal(a.sizes, b.sizes)
        assert not np.array_equal(a.sizes, c.sizes)

    def test_extreme_probabilities(self):
        zero = sample_cluster(_ring_config(z=0.0, replicas=50))
        assert np.all(zero.sizes == 1)
        # z = 1/sup_D gives p = 1 exactly: every bond open, no clipping
        full = sample_cluster(_ring_config(z=2.0, replicas=50))
        assert np.all(full.sizes == 6)

    def test_uniform_family_instance(self):
        cfg = PercConfig(TorusGrid(1, 8), StepDistribution("uniform", 1, L=2),
                         0.6, 2.0, seed=1, replicas=20000)
        graph = exact_graph_from_config(cfg)
        exact = exact_small(graph, 0.6, pivotal=False)
        stats = sample_cluster(cfg)
        assert abs(stats.chi_hat - exact["chi"]) <= 4 * stats.chi_se


class TestTriangles:
    def test_exact_vs_restricted_convention(self):
        # exact_triangle weights each directed bond by q = dp/dz, the
        # convolution form by p = z q; they differ by exactly z
        cfg = _ring_config(z=0.5, replicas=1)
        graph = exact_graph_from_config(cfg)
        G = exact_pair_matrix(graph, 0.5)
        gv = np.array([G[0, x % 6] for x in range(6)])
        gf = TorusField(cfg.grid, gv, "x")
        a = exact_triangle(graph, 0.5)
        b = restricted_triangle(cfg, gf)
        assert b == pytest.approx(0.5 * a)


class TestMagnetization:
    def test_magnetization_limits(self):
        law = np.array([0.0, 0.3, 0.5, 0.2])
        assert magnetization(law, 0.0) == 0.0
        assert magnetization(law, 50.0) == pytest.approx(1.0)

    @given(st.floats(0.1, 1.5), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_sandwich_property(self, z, n):
        graph = ExactGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5),
                               (3, 0, 0.5)])
        rec = exact_small(graph, min(z, 1.9), pivotal=False)
        m = magnetization_tail(rec["size_law"], n)
        assert m["upper_holds"] and m["lower_holds"]


def test_batch_means_se_iid_scale():
    rng = np.random.default_rng(0)
    x = rng.normal(size=10000)
    se = batch_means_se(x)
    assert 0.5 / math.sqrt(10000) < se < 2.0 / math.sqrt(10000)


def test_exact_graph_bond_order_on_a_d2_torus():
    # site-major, then offset-minor ((0,1) before (1,0)); q = D_M = 1/4
    cfg = PercConfig(TorusGrid(2, 4), StepDistribution("nn", 2), 0.5, 1.0,
                     seed=0)
    pairs = [(0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 0), (3, 7),
             (4, 5), (4, 8), (5, 6), (5, 9), (6, 7), (6, 10), (7, 4), (7, 11),
             (8, 9), (8, 12), (9, 10), (9, 13), (10, 11), (10, 14), (11, 8),
             (11, 15), (12, 13), (12, 0), (13, 14), (13, 1), (14, 15),
             (14, 2), (15, 12), (15, 3)]
    graph = exact_graph_from_config(cfg)
    assert graph.n_sites == 16
    assert graph.bonds == [(u, v, 0.25) for u, v in pairs]
    assert all(type(u) is int and type(v) is int and type(q) is float
               for u, v, q in graph.bonds)


def test_batch_means_se_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        batch_means_se(np.array([3.0]))
    assert batch_means_se(np.array([1.0, 3.0])) == pytest.approx(1.0)
