import numpy as np
import pytest

from lacelab import kernels
from lacelab.kernels import (counter_uniform, counter_uniforms,
                             metropolis_run, percolation_clusters)
from lacelab.perc import PercConfig, bond_offsets, sampler_input
from lacelab.steps import StepDistribution
from lacelab.torus import TorusGrid

# First output of SplitMix64 from state 0 (Steele, Lea & Flood, OOPSLA 2014).
SPLITMIX64_FROM_ZERO = 0xE220A8397B1DCDAF


def splitmix64_oracle(x):
    """SplitMix64 output for state x (uint64 array); numpy arrays wrap."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def counter_uniform_oracle(seed, replicas, counters):
    """counter_uniform over a (replica, counter) grid, keyed as in SC'11."""
    r, c = np.meshgrid(np.asarray(replicas, dtype=np.uint64),
                       np.asarray(counters, dtype=np.uint64), indexing="ij")
    h = splitmix64_oracle(np.full(r.shape, seed ^ 0xA0761D6478BD642F,
                                  dtype=np.uint64))
    h = splitmix64_oracle(splitmix64_oracle(h ^ r) ^ c)
    return ((h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53).ravel()


class TestCounterUniform:
    def test_range_and_determinism(self):
        vals = [counter_uniform(1, 2, c) for c in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert vals == [counter_uniform(1, 2, c) for c in range(1000)]

    def test_key_sensitivity(self):
        base = counter_uniform(1, 2, 3)
        assert base != counter_uniform(2, 2, 3)
        assert base != counter_uniform(1, 3, 3)
        assert base != counter_uniform(1, 2, 4)

    def test_rough_uniformity(self):
        vals = np.array([counter_uniform(0, 0, c) for c in range(20000)])
        assert abs(vals.mean() - 0.5) < 0.01
        assert abs(np.mean(vals < 0.25) - 0.25) < 0.01

    def test_paths_bit_identical(self):
        """Scalar and array draws give the SplitMix64 stream, bit for bit."""
        for seed, replica in [(0, 0), (7, 2), (12345, 7), (2 ** 63 + 5, 1),
                              (-3, 2 ** 40)]:
            oracle = counter_uniform_oracle(
                seed % 2 ** 64, [replica % 2 ** 64], range(5000))
            scalar = [counter_uniform(seed, replica, c) for c in range(5000)]
            assert scalar == oracle.tolist()
            np.testing.assert_array_equal(
                counter_uniforms(seed, replica, 0, 5000), oracle)
            np.testing.assert_array_equal(
                counter_uniforms(seed, replica, 4321, 679), oracle[4321:])

    def test_splitmix64_published_first_output(self):
        assert splitmix64_oracle(np.zeros(1, np.uint64))[0] == \
            SPLITMIX64_FROM_ZERO
        assert kernels._splitmix64(0) == SPLITMIX64_FROM_ZERO
        assert kernels._splitmix64(np.zeros(1, np.uint64))[0] == \
            SPLITMIX64_FROM_ZERO


class TestPercolationKernel:
    def _run(self, probs_val, seed=0, replicas=50, M=6):
        ring = np.arange(M)
        neighbors = np.stack([(ring + 1) % M, (ring - 1) % M], axis=1)
        bond_ids = np.stack([ring, (ring - 1) % M], axis=1)
        probs = np.array([probs_val, probs_val])
        targets = np.array([2], dtype=np.int64)
        return percolation_clusters(neighbors, bond_ids, probs,
                                    seed, replicas, targets)

    def test_closed_and_open_extremes(self):
        sizes, hits = self._run(0.0)
        assert np.all(np.asarray(sizes) == 1)
        assert np.all(np.asarray(hits) == 0)
        sizes, hits = self._run(1.0)
        assert np.all(np.asarray(sizes) == 6)
        assert np.all(np.asarray(hits) == 1)

    def test_sizes_within_torus(self):
        sizes, _ = self._run(0.7, replicas=500)
        s = np.asarray(sizes)
        assert np.all((1 <= s) & (s <= 6))

    def test_replica_independence_of_order(self):
        # replicas draw disjoint key streams: prefix must not change
        sizes_a, _ = self._run(0.5, replicas=10)
        sizes_b, _ = self._run(0.5, replicas=30)
        assert np.array_equal(np.asarray(sizes_a), np.asarray(sizes_b)[:10])


    @pytest.mark.parametrize("family,d,L,M,z,R", [
        ("nn", 1, 1, 6, 0.5, 1.0),
        ("uniform", 1, 2, 8, 1.5, 2.0),
        ("nn", 2, 1, 8, 0.8, 1.0),
        ("nn", 2, 1, 8, 3.9, 1.0),   # supercritical: every cluster wraps
        ("uniform", 2, 1, 6, 2.0, 1.5),
        ("nn", 3, 1, 4, 1.5, 1.0),
        ("uniform", 3, 1, 4, 3.0, 1.0),
    ])
    def test_matches_the_scalar_dfs(self, family, d, L, M, z, R):
        grid = TorusGrid(d, M)
        cfg = PercConfig(grid, StepDistribution(family, d, L=L), z, R,
                         seed=4, replicas=100)
        targets = grid.flat_index([[0] * d, [1] + [0] * (d - 1),
                                   [M // 2] * d, [M - 1] * d])
        got = percolation_clusters(*sampler_input(cfg), cfg.seed,
                                   cfg.replicas, targets)
        offs, probs = bond_offsets(cfg)
        want = percolation_reference(offs, grid.strides, probs, M,
                                     grid.n_sites, len(offs), cfg.seed,
                                     cfg.replicas, targets)
        sizes, hits = got
        assert np.any(sizes > 1)
        if z == 3.9:
            assert np.all(hits[:, 2] == 1)  # the antipode, in every replica
        else:
            assert np.any(sizes < grid.n_sites)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def percolation_reference(coords, strides, probs, M, n_sites, n_offsets,
                          seed, replicas, targets):
    """percolation_clusters as a scalar DFS over torus coordinates.

    Each popped site probes, per offset j, its forward bond (id
    site * n_offsets + j) and its backward bond (owned by the neighbor it
    leads to), recomputing both neighbors from the site's coordinates.
    """
    d = coords.shape[1]
    sizes = np.zeros(replicas, dtype=np.int64)
    hits = np.zeros((replicas, len(targets)), dtype=np.int64)
    for rep in range(replicas):
        in_cluster = np.zeros(n_sites, dtype=np.uint8)
        in_cluster[0] = 1
        stack = [0]
        while stack:
            site = stack.pop()
            site_vec = [(site // strides[a]) % M for a in range(d)]
            for j in range(n_offsets):
                nb = sum(((site_vec[a] + coords[j, a]) % M) * strides[a]
                         for a in range(d))
                nb2 = sum(((site_vec[a] - coords[j, a]) % M) * strides[a]
                          for a in range(d))
                for other, bond_id in ((nb, site * n_offsets + j),
                                       (nb2, nb2 * n_offsets + j)):
                    if in_cluster[other] == 0 and \
                            counter_uniform(seed, rep, bond_id) < probs[j]:
                        in_cluster[other] = 1
                        stack.append(other)
        sizes[rep] = np.count_nonzero(in_cluster)
        hits[rep] = in_cluster[targets]
    return sizes, hits


class TestMetropolisKernel:
    def _neighbors(self, n):
        idx = np.array([[(i - 1) % n, (i + 1) % n] for i in range(n)],
                       dtype=np.int64)
        jj = np.ones((n, 2))
        return idx, jj

    def test_output_shapes(self):
        idx, jj = self._neighbors(6)
        corr_targets = np.array([[(i + t) % 6 for t in range(6)]
                                 for i in range(6)], dtype=np.int64)
        mag, corr = metropolis_run(idx, jj, 6, 0.4, 0.0, 0, 0,
                                   1000, 100, 3, corr_targets)
        assert len(mag) == (1000 - 100) // 3
        assert corr.shape == (len(mag), 6)
        assert np.all(np.abs(np.asarray(mag)) <= 1.0)
        assert np.allclose(np.asarray(corr)[:, 0], 1.0)

    def test_strong_field_aligns_spins(self):
        idx, jj = self._neighbors(4)
        corr_targets = np.zeros((4, 1), dtype=np.int64)
        mag, _ = metropolis_run(idx, jj, 4, 0.1, 5.0, 0, 0,
                                500, 100, 1, corr_targets)
        assert np.mean(np.asarray(mag)) > 0.99

    @pytest.mark.parametrize("n,block", [(3, 7), (10, 7), (6, 4096)])
    def test_matches_the_scalar_loop(self, n, block, monkeypatch):
        # small blocks make chains cross block boundaries mid-run, and make
        # one block hold less than a sweep
        monkeypatch.setattr(kernels, "DRAW_BLOCK", block)
        rng = np.random.default_rng(n)
        idx = np.array([[(i - 1) % n, (i + 1) % n, -1, (i + 2) % n]
                        for i in range(n)], dtype=np.int64)
        jj = rng.choice([1.0, 0.3, 2.0 / 3.0], size=idx.shape)
        targets = rng.integers(0, n, size=(n, n))
        for z, h, sweeps, burn_in, thinning in [
                (0.4, 0.0, 41, 5, 3), (0.9, -0.7, 30, 0, 1),
                (25.0, 0.1, 20, 3, 2)]:
            args = (idx, jj, n, z, h, 5, 1, sweeps, burn_in, thinning)
            for corr_targets in (targets, targets[:1]):
                want = metropolis_reference(*args, corr_targets)
                got = metropolis_run(*args, corr_targets)
                for a, b in zip(got, want):
                    assert a.shape == b.shape
                    assert a.tobytes() == b.tobytes()


def metropolis_reference(neighbor_idx, neighbor_j, n_sites, z, h, seed,
                         replica, sweeps, burn_in, thinning, corr_targets):
    """metropolis_run as one scalar draw and one float sum at a time."""
    n_rows, n_targets = corr_targets.shape
    kept = (sweeps - burn_in + thinning - 1) // thinning
    mag = np.zeros(kept)
    corr = np.zeros((kept, n_targets))
    spins = [1 if counter_uniform(seed, replica, i) < 0.5 else -1
             for i in range(n_sites)]
    counter, out = n_sites, 0
    for sweep in range(sweeps):
        for i in range(n_sites):
            local = 0.0
            for nb, coupling in zip(neighbor_idx[i], neighbor_j[i]):
                if nb < 0:
                    break
                local += coupling * spins[nb]
            delta = 2.0 * spins[i] * (z * local + h)
            u = counter_uniform(seed, replica, counter)
            counter += 1
            if delta < 40.0 and u * (1.0 + np.exp(delta)) < 1.0:
                spins[i] = -spins[i]
        if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
            mag[out] = sum(float(s) for s in spins) / n_sites
            for t in range(n_targets):
                acc = 0.0
                for i in range(n_rows):
                    acc += spins[i] * spins[corr_targets[i, t]]
                corr[out, t] = acc / n_rows
            out += 1
    return mag, corr
