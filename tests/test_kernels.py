import warnings

import numpy as np
import pytest

from lacelab import kernels
from lacelab.ising import coupling_matrix_from_torus
from lacelab.kernels import (counter_uniform, metropolis_run,
                             percolation_clusters)
from lacelab.perc import PercConfig, bond_offsets, sampler_input
from lacelab.steps import StepDistribution
from lacelab.torus import TorusGrid

from conftest import traced_peak

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
            counters = np.arange(5000, dtype=np.uint64)
            np.testing.assert_array_equal(
                counter_uniform(seed, replica, counters), oracle)
            np.testing.assert_array_equal(
                counter_uniform(seed, replica, counters[4321:]), oracle[4321:])

    def test_a_0d_key_is_the_int_key(self):
        """A 0-d replica or counter draws as the int it holds, silently."""
        top = 2 ** 64 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, replica, counter in [(1, 5, 3), (0, top, top),
                                           (-3, 2 ** 40, 7)]:
                want = counter_uniform(seed, replica, counter)
                assert counter_uniform(
                    seed, np.array(replica, dtype=np.uint64), counter) == want
                assert counter_uniform(
                    seed, replica, np.array(counter, dtype=np.uint64)) == want

    def test_array_draws_are_the_scalar_draws(self):
        """Each element of an array draw is the scalar draw of its key."""
        rng = np.random.default_rng(11)
        top = 2 ** 64 - 1
        replicas, counters = np.concatenate(
            [np.array([[0, top, 0, top], [0, 0, top, top]], dtype=np.uint64),
             rng.integers(0, 2 ** 64, size=(2, 300), dtype=np.uint64)],
            axis=1)
        assert replicas.dtype == np.uint64 and replicas.max() == top
        for seed in (0, 5, -3, 2 ** 64 - 1):
            got = counter_uniform(seed, replicas, counters)
            assert got.shape == replicas.shape
            assert got.tolist() == [counter_uniform(seed, int(r), int(c))
                                    for r, c in zip(replicas, counters)]
            # a scalar replica broadcasts against the counters
            got = counter_uniform(seed, 2 ** 40, counters.reshape(4, -1))
            assert got.shape == (4, 76)
            assert got.ravel().tolist() == [
                counter_uniform(seed, 2 ** 40, int(c)) for c in counters]

    def test_splitmix64_published_first_output(self):
        assert splitmix64_oracle(np.zeros(1, np.uint64))[0] == \
            SPLITMIX64_FROM_ZERO
        assert kernels._splitmix64(0) == SPLITMIX64_FROM_ZERO
        assert kernels._splitmix64(np.zeros(1, np.uint64))[0] == \
            SPLITMIX64_FROM_ZERO

    def test_array_rounds_are_the_int_rounds(self):
        """The in-place array round gives the int round's bits, element by
        element, and leaves the array it was given as it was."""
        edges = [0, 1, 2 ** 63, 2 ** 64 - 1,
                 2 ** 64 - 0x9E3779B97F4A7C15]  # the add wraps to 0
        rng = np.random.default_rng(23)
        states = np.concatenate([
            np.array(edges, dtype=np.uint64),
            rng.integers(0, 2 ** 64, size=10_000, dtype=np.uint64)])
        before = states.copy()
        got = kernels._splitmix64(states)
        np.testing.assert_array_equal(states, before)
        assert got.dtype == np.uint64
        assert got.tolist() == [kernels._splitmix64(int(x)) for x in before]

    def test_array_keys_are_left_unmodified(self):
        rng = np.random.default_rng(5)
        replicas, counters = rng.integers(0, 2 ** 64, size=(2, 500),
                                          dtype=np.uint64)
        kept = replicas.copy(), counters.copy()
        for replica, counter in [(replicas, counters), (7, counters),
                                 (replicas, 7)]:
            counter_uniform(9, replica, counter)
            np.testing.assert_array_equal(replicas, kept[0])
            np.testing.assert_array_equal(counters, kept[1])


SCALAR_DFS_SPECS = [
    ("nn", 1, 1, 6, 0.5, 1.0),
    ("uniform", 1, 2, 8, 1.5, 2.0),
    ("nn", 2, 1, 8, 0.8, 1.0),
    ("nn", 2, 1, 8, 3.9, 1.0),   # supercritical: every cluster wraps
    ("uniform", 2, 1, 6, 2.0, 1.5),
    ("nn", 3, 1, 4, 1.5, 1.0),
    ("uniform", 3, 1, 4, 3.0, 1.0),
]


class TestPercolationKernel:
    def _run(self, probs_val, seed=0, replicas=50, M=6):
        ring = np.arange(M)
        neighbors = np.stack([(ring + 1) % M, (ring - 1) % M], axis=1)
        bond_ids = np.stack([ring, (ring - 1) % M], axis=1)
        probs = np.array([probs_val, probs_val])
        return percolation_clusters(neighbors, bond_ids, probs, seed,
                                    replicas)

    def test_closed_and_open_extremes(self):
        assert np.all(self._run(0.0) == 1)
        assert np.all(self._run(1.0) == 6)

    def test_sizes_within_torus(self):
        s = self._run(0.7, replicas=500)
        assert np.all((1 <= s) & (s <= 6))

    def test_replica_independence_of_order(self):
        # replicas draw disjoint key streams: prefix must not change
        sizes_a = self._run(0.5, replicas=10)
        sizes_b = self._run(0.5, replicas=30)
        assert np.array_equal(sizes_a, sizes_b[:10])

    def test_a_table_without_bonds_leaves_every_origin_alone(self):
        neighbors = np.zeros((5, 0), dtype=np.int64)
        sizes = percolation_clusters(neighbors, neighbors, np.zeros(0), 3, 20)
        np.testing.assert_array_equal(sizes, np.ones(20))

    @pytest.mark.parametrize("family,d,L,M,z,R", SCALAR_DFS_SPECS)
    def test_matches_the_scalar_dfs(self, family, d, L, M, z, R):
        sizes, want = _against_the_reference(family, d, L, M, z, R)
        assert np.any(sizes > 1)
        if z == 3.9:
            assert np.all(sizes == M ** d)  # every cluster fills the torus
        else:
            assert np.any(sizes < M ** d)
        np.testing.assert_array_equal(sizes, want)

    @pytest.mark.parametrize("spec", [SCALAR_DFS_SPECS[i] for i in (0, 2, 4)],
                             ids=lambda spec: "-".join(map(str, spec)))
    @pytest.mark.parametrize("batch", ["one", "seven", "default"])
    def test_batches_give_the_scalar_dfs(self, spec, batch, monkeypatch):
        # one replica per batch, then batches of 7 that leave a ragged last
        # one among the 100 replicas, then the default block
        n_sites = spec[3] ** spec[1]
        block = {"one": n_sites - 1, "seven": 7 * n_sites,
                 "default": kernels.CLUSTER_BLOCK}[batch]
        monkeypatch.setattr(kernels, "CLUSTER_BLOCK", block)
        np.testing.assert_array_equal(*_against_the_reference(*spec))

    def test_the_default_block_over_several_batches(self):
        # at 1 << 18, 256 replicas of the 32x32 torus per batch: two full
        # batches and a ragged last one of 88
        per_batch = kernels.CLUSTER_BLOCK // 32 ** 2
        full = 600 // per_batch
        assert full >= 2 and 600 % per_batch
        got, want = _against_the_reference("nn", 2, 1, 32, 0.8, 1.0,
                                           replicas=600)
        assert np.any(got[full * per_batch:] > 1)
        np.testing.assert_array_equal(got, want)


def _against_the_reference(family, d, L, M, z, R, replicas=100):
    """(percolation_clusters, percolation_reference) cluster sizes for the
    replicas of the spec."""
    grid = TorusGrid(d, M)
    cfg = PercConfig(grid, StepDistribution(family, d, L=L), z, R,
                     seed=4, replicas=replicas)
    got = percolation_clusters(*sampler_input(cfg), cfg.seed, cfg.replicas)
    offs, probs = bond_offsets(cfg)
    want = percolation_reference(offs, grid.strides, probs, M,
                                 grid.n_sites, len(offs), cfg.seed,
                                 cfg.replicas)
    return got, want


def percolation_reference(coords, strides, probs, M, n_sites, n_offsets,
                          seed, replicas):
    """percolation_clusters as a scalar DFS over torus coordinates.

    Each popped site probes, per offset j, its forward bond (id
    site * n_offsets + j) and its backward bond (owned by the neighbor it
    leads to), recomputing both neighbors from the site's coordinates.
    """
    d = coords.shape[1]
    sizes = np.zeros(replicas, dtype=np.int64)
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
    return sizes


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
        # ragged rows: site i has 1 + i % 3 neighbors
        idx = [[(i - 1) % n, (i + 1) % n, (i + 2) % n][:1 + i % 3]
               for i in range(n)]
        jj = [rng.choice([1.0, 0.3, 2.0 / 3.0], size=len(row)).tolist()
              for row in idx]
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

    @staticmethod
    def _assert_matches_reference(idx, jj, z, h, sweeps, corr_targets):
        args = (idx, jj, len(idx), z, h, 3, 2, sweeps, 4, 3)
        want = metropolis_reference(*args, corr_targets)
        got = metropolis_run(*args, corr_targets)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return got

    @pytest.mark.parametrize("block", [5, 4096])
    def test_a_dense_graph_matches_the_scalar_loop(self, block, monkeypatch):
        # every pair coupled: degree 11, so a site's code has 12 bits, and
        # random couplings give every site and code its own threshold
        monkeypatch.setattr(kernels, "DRAW_BLOCK", block)
        n = 12
        rng = np.random.default_rng(12)
        J = np.triu(rng.uniform(0.05, 0.6, size=(n, n)), 1)
        J += J.T
        idx = [[j for j in range(n) if j != i] for i in range(n)]
        jj = [J[i, row].tolist() for i, row in enumerate(idx)]
        targets = rng.integers(0, n, size=(n, n))
        for z, h in [(0.3, 0.25), (1.1, -0.4)]:
            self._assert_matches_reference(idx, jj, z, h, 120, targets)

    def test_a_site_without_neighbors_matches_the_scalar_loop(
            self, monkeypatch):
        # site 2 has an empty row, so its code is its own bit alone and only
        # the field moves it
        monkeypatch.setattr(kernels, "DRAW_BLOCK", 7)
        idx = [[1, 4], [0], [], [4], [3, 0]]
        jj = [[0.5, 1.0], [0.5], [], [0.8], [0.8, 1.0]]
        targets = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4]])
        for z, h in [(0.7, -0.4), (0.2, 0.0)]:
            self._assert_matches_reference(idx, jj, z, h, 200, targets)

    def test_thresholds_past_the_cutoff_match_the_scalar_loop(
            self, monkeypatch):
        # bond 0-1 is so strong that delta >= 40 whenever sites 0 and 1
        # agree (no flip) and delta <= -40 when they disagree (a sure
        # flip); the other sites' deltas stay small
        monkeypatch.setattr(kernels, "DRAW_BLOCK", 9)
        n = 6
        idx = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
        jj = [[0.5, 30.0], [30.0, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5],
              [0.5, 0.5]]
        _, corr = self._assert_matches_reference(
            idx, jj, 1.0, 0.2, 150, np.array([[1, 3]]))
        # sites 0 and 1 agree in every kept sweep; sites 0 and 3 do not always
        np.testing.assert_array_equal(corr[:, 0], 1.0)
        assert np.any(corr[:, 1] < 1.0)

    def test_a_multi_word_state_matches_the_scalar_loop(self, monkeypatch):
        # 100 sites of 5 bits each: the packed state spans many machine
        # words, and a block of 2 sweeps ends inside the chain
        monkeypatch.setattr(kernels, "DRAW_BLOCK", 250)
        grid = TorusGrid(2, 10)
        offs, _ = StepDistribution("nn", 2).support()
        J = coupling_matrix_from_torus(
            grid, {off: 0.5 + 0.25 * k
                   for k, off in enumerate(map(tuple, offs.tolist()))})
        idx = [np.flatnonzero(row).tolist() for row in J]
        jj = [row[nz].tolist() for row, nz in zip(J, idx)]
        targets = np.random.default_rng(10).integers(0, 100, size=(100, 3))
        self._assert_matches_reference(idx, jj, 0.4, 0.1, 13, targets)

    def test_only_one_block_of_states_is_held(self, monkeypatch):
        # the rows are the only memory that grows with the chain: ten times
        # the sweeps raise the peak by less than the larger rows' size
        monkeypatch.setattr(kernels, "_measure", lambda configs, _: configs)
        idx, jj = self._neighbors(6)
        targets = np.zeros((6, 1), dtype=np.int64)
        peaks = []
        for sweeps in (3000, 30000):
            with traced_peak() as traced:
                configs = metropolis_run(idx, jj, 6, 0.4, 0.0, 0, 0, sweeps,
                                         0, 1, targets)
            peaks.append(traced.peak)
        assert peaks[1] - peaks[0] <= configs.nbytes


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
