import importlib.util
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak
from lacelab.ising import (SPIN_CHUNK_BITS, IsingConfig,
                           coupling_matrix_from_torus,
                           exact_correlation_matrix, exact_ising, metropolis,
                           tau_and_g_relation_check)
from lacelab.torus import TorusGrid

_ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracles", _ORACLES)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

RING_TABLE = {(1,): 1.0, (-1,): 1.0}


def ring_correlation(M: int, K: float, r: int) -> float:
    """Transfer-matrix closed form for the M-cycle: (t^r + t^{M-r})/(1 + t^M)."""
    t = math.tanh(K)
    return (t ** r + t ** (M - r)) / (1.0 + t ** M)


def ring_transfer_matrix(M: int, K: float, h: float):
    """chi, m and g(r) of the M-cycle in a field, from the 2x2 transfer matrix.

    T[s, s'] = exp(K s s' + h (s + s') / 2), divided by its largest entry so
    that no power of it overflows.
    """
    s = np.array([1.0, -1.0])
    log_t = K * np.outer(s, s) + 0.5 * h * (s[:, None] + s[None, :])
    T = np.exp(log_t - log_t.max())
    S = np.diag(s)

    def power(r):
        return np.linalg.matrix_power(T, r)
    Z = np.trace(power(M))
    g = np.array([np.trace(S @ power(r) @ S @ power(M - r))
                  for r in range(M)]) / Z
    return float(g.sum()), float(np.trace(S @ power(M)) / Z), g


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IsingConfig(J=np.array([[0.0, -1.0], [-1.0, 0.0]]), z=0.5)
        with pytest.raises(ValueError):
            IsingConfig(J=np.array([[0.0, 1.0], [2.0, 0.0]]), z=0.5)
        with pytest.raises(ValueError):
            IsingConfig(J=np.array([[1.0, 1.0], [1.0, 1.0]]), z=0.5)
        ring = coupling_matrix_from_torus(TorusGrid(1, 6), RING_TABLE)
        with pytest.raises(ValueError, match="z must be >= 0"):
            IsingConfig(J=ring, z=-0.4)
        with pytest.raises(ValueError, match="replicas"):
            IsingConfig(J=ring, z=0.4, replicas=0)

    @pytest.mark.parametrize("field, value, message", [
        ("z", np.inf, "z must be finite"),
        ("z", np.nan, "z must be finite"),
        ("h", np.nan, "h must be finite"),
        ("h", -np.inf, "h must be finite"),
        ("J", np.inf, "J entries must be finite"),
        ("J", np.nan, "J entries must be finite"),
    ])
    def test_non_finite_parameters_are_rejected(self, field, value, message):
        # a NaN passes every comparison-based check, and an infinite z or h
        # gives NaN local fields (inf * 0) and so a NaN result
        kwargs = {"J": coupling_matrix_from_torus(TorusGrid(1, 6),
                                                  RING_TABLE),
                  "z": 0.4, "h": 0.1}
        if field == "J":
            kwargs["J"][0, 1] = kwargs["J"][1, 0] = value
        else:
            kwargs[field] = value
        with pytest.raises(ValueError, match=message):
            IsingConfig(**kwargs)

    def test_coupling_matrix_ring(self):
        J = coupling_matrix_from_torus(TorusGrid(1, 6), RING_TABLE)
        assert J[0, 1] == 1.0 and J[0, 5] == 1.0
        assert J[0, 2] == 0.0
        assert np.allclose(J, J.T)

    def test_coupling_aliasing_adds(self):
        # on M = 4 the offsets +2 and -2 reach the same site
        J = coupling_matrix_from_torus(TorusGrid(1, 4),
                                       {(2,): 0.3, (-2,): 0.3})
        assert J[0, 2] == pytest.approx(0.6)


class TestExact:
    def test_two_site_tanh_identity(self):
        J = 1.3
        z = 0.7
        rec = exact_ising(IsingConfig(J=[[0.0, J], [J, 0.0]], z=z))
        assert rec.g[1] == pytest.approx(math.tanh(z * J), abs=1e-13)
        assert rec.g[0] == pytest.approx(1.0, abs=1e-13)
        assert rec.m_hat == pytest.approx(0.0, abs=1e-13)

    def test_ring_matches_transfer_matrix(self):
        for M, z in ((4, 0.3), (6, 0.5)):
            Jm = coupling_matrix_from_torus(TorusGrid(1, M), RING_TABLE)
            rec = exact_ising(IsingConfig(J=Jm, z=z))
            for r in range(M):
                assert rec.g[r] == pytest.approx(
                    ring_correlation(M, z, min(r, M - r)), abs=1e-12)

    def test_field_breaks_symmetry(self):
        Jm = coupling_matrix_from_torus(TorusGrid(1, 4), RING_TABLE)
        rec = exact_ising(IsingConfig(J=Jm, z=0.4, h=0.3))
        assert rec.m_hat > 0.0

    @pytest.mark.parametrize("z,h", [(0.1, 400.0), (0.3, 0.2)])
    def test_odd_ring_in_a_field_matches_transfer_matrix(self, z, h):
        # 17 spins span 64 blocks of high configurations, and for h > 0 the
        # heaviest configuration (all up) lies in the last one
        M = 17
        Jm = np.zeros((M, M))
        for i in range(M):
            Jm[i, (i + 1) % M] = Jm[(i + 1) % M, i] = 1.0
        rec = exact_ising(IsingConfig(J=Jm, z=z, h=h))
        chi, m, g = ring_transfer_matrix(M, z, h)
        assert np.isfinite(rec.chi_hat) and np.isfinite(rec.m_hat)
        assert np.all(np.isfinite(rec.g))
        assert rec.chi_hat == pytest.approx(chi, rel=1e-9)
        assert rec.m_hat == pytest.approx(m, rel=1e-9)
        np.testing.assert_allclose(rec.g, g, rtol=1e-9)

    def test_correlation_matrix_psd(self):
        Jm = coupling_matrix_from_torus(TorusGrid(1, 6), RING_TABLE)
        corr = exact_correlation_matrix(IsingConfig(J=Jm, z=0.5))
        assert np.allclose(corr, corr.T)
        assert np.min(np.linalg.eigvalsh(corr)) > -1e-12

    def test_spin_limit_guard(self):
        with pytest.raises(ValueError):
            exact_correlation_matrix(IsingConfig(J=np.zeros((25, 25)), z=0.1))


# the oracle's low spins are 0..LOW-1; from LOW + 1 spins on, a block holds
# several high configurations, and from LOW + 3 on there are several blocks
LOW = SPIN_CHUNK_BITS - 2


def brute_force_ising(J, z, h):
    """<phi_0 phi_j> and <phi_0>, one configuration at a time."""
    n = len(J)
    configs = [np.array(c, dtype=float)
               for c in itertools.product((1.0, -1.0), repeat=n)]
    logw = [0.5 * z * (phi @ J @ phi) + h * phi.sum() for phi in configs]
    ref = max(logw)
    total, mag, g = 0.0, 0.0, np.zeros(n)
    for phi, lw in zip(configs, logw):
        w = math.exp(lw - ref)
        total += w
        mag += w * phi[0]
        g += w * phi[0] * phi
    return g / total, mag / total


def random_couplings(n, seed):
    J = np.random.default_rng(seed).uniform(0.0, 0.3, (n, n))
    J = J + J.T
    np.fill_diagonal(J, 0.0)
    return J


class TestExactOracle:
    """The exact oracle against two independent ones, to 1e-12 relative.

    A small correlation is the difference of two sums of order 1, so its
    rounding error is absolute: on the 20-ring at z = 0.4, g(8) = 4.4e-4
    is off by about 1e-15 (2e-12 relative), hence the 1e-14 floor.
    """

    @pytest.mark.parametrize("M", [4, 6, 12, 16, 18, 20])
    @pytest.mark.parametrize("z, h", [(0.4, 0.0), (0.4, 0.3), (0.4, -0.3),
                                      (0.1, 400.0)])
    def test_ring_matches_the_transfer_matrix(self, M, z, h):
        J = coupling_matrix_from_torus(TorusGrid(1, M), RING_TABLE)
        rec = exact_ising(IsingConfig(J=J, z=z, h=h))
        want = oracles.ring_ising(M, z, h)
        np.testing.assert_allclose(rec.g, want["g"], rtol=1e-12, atol=1e-14)
        assert rec.chi_hat == pytest.approx(want["chi"], rel=1e-12)
        assert rec.m_hat == pytest.approx(want["m"], rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [2, LOW + 1, LOW + 2, LOW + 3])
    @pytest.mark.parametrize("h", [0.0, 0.25, -0.7])
    def test_dense_couplings_match_a_brute_force_sum(self, n, h):
        J = random_couplings(n, seed=n)
        rec = exact_ising(IsingConfig(J=J, z=0.8, h=h))
        g, m = brute_force_ising(J, 0.8, h)
        np.testing.assert_allclose(rec.g, g, rtol=1e-12, atol=1e-14)
        assert rec.m_hat == pytest.approx(m, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n, h", [(6, 0.0), (LOW + 3, 0.25)])
    def test_correlation_matrix_row_0_is_the_oracle(self, n, h):
        config = IsingConfig(J=random_couplings(n, seed=n), z=0.8, h=h)
        corr = exact_correlation_matrix(config)
        np.testing.assert_array_equal(corr[0], exact_ising(config).g)
        np.testing.assert_allclose(corr, corr.T, rtol=1e-12)
        np.testing.assert_allclose(np.diag(corr), 1.0, rtol=1e-12)

    def test_log_weights_up_to_half_the_float_maximum(self):
        # |log w| <= z/2 sum|J| + |h| n = 4|h| here; half the float maximum
        # is 8.99e307
        J = coupling_matrix_from_torus(TorusGrid(1, 4), RING_TABLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = exact_ising(IsingConfig(J=J, z=0.3, h=2.2e307))
        assert rec.m_hat == 1.0 and rec.chi_hat == 4.0
        with pytest.raises(ValueError, match="log-weights overflow"):
            exact_ising(IsingConfig(J=J, z=0.3, h=-2.3e307))
        with pytest.raises(ValueError, match="log-weights overflow"):
            exact_correlation_matrix(IsingConfig(J=J, z=1e308))

    def test_memory_stays_below_half_a_mib_at_the_spin_limit(self):
        config = IsingConfig(
            J=coupling_matrix_from_torus(TorusGrid(1, 20), RING_TABLE), z=0.4)
        with traced_peak() as traced:
            exact_ising(config)
        assert traced.peak <= 512 * 1024


class TestMetropolis:
    def test_matches_exact_on_ring(self):
        grid = TorusGrid(1, 6)
        Jm = coupling_matrix_from_torus(grid, RING_TABLE)
        exact = exact_ising(IsingConfig(J=Jm, z=0.4))
        samp = metropolis(IsingConfig(J=Jm, z=0.4, sweeps=20000,
                                      burn_in=2000, thinning=2, seed=11,
                                      replicas=4, grid=grid))
        assert samp.equilibrated
        assert abs(samp.chi_hat - exact.chi_hat) <= 4 * samp.chi_se
        assert np.all(np.abs(samp.g - exact.g)
                      <= 5 * np.maximum(samp.g_se, 2e-3))

    def test_deterministic_in_seed(self):
        grid = TorusGrid(1, 4)
        Jm = coupling_matrix_from_torus(grid, RING_TABLE)
        kw = dict(J=Jm, z=0.4, sweeps=500, burn_in=100, thinning=2,
                  replicas=1, grid=grid)
        a = metropolis(IsingConfig(seed=1, **kw))
        b = metropolis(IsingConfig(seed=1, **kw))
        c = metropolis(IsingConfig(seed=2, **kw))
        assert a.chi_hat == b.chi_hat
        assert a.chi_hat != c.chi_hat

    def test_infinite_temperature_is_uncorrelated(self):
        grid = TorusGrid(1, 6)
        Jm = coupling_matrix_from_torus(grid, RING_TABLE)
        samp = metropolis(IsingConfig(J=Jm, z=0.0, sweeps=6000, burn_in=500,
                                      thinning=1, seed=0, replicas=2,
                                      grid=grid))
        assert abs(samp.m_hat) <= 4 * samp.m_se + 1e-9
        assert np.all(np.abs(samp.g[1:]) <= 5 * samp.g_se[1:] + 1e-9)

    def test_matches_exact_at_every_site_in_d2(self):
        # 2-d torus: g must average over torus translations, not over
        # shifts of the flattened index (which agree only in d = 1)
        grid = TorusGrid(2, 4)
        Jm = coupling_matrix_from_torus(grid, {(1, 0): 1.0, (-1, 0): 1.0,
                                               (0, 1): 1.0, (0, -1): 1.0})
        exact = exact_ising(IsingConfig(J=Jm, z=0.3))
        samp = metropolis(IsingConfig(J=Jm, z=0.3, sweeps=4000, burn_in=500,
                                      thinning=2, seed=5, replicas=2,
                                      grid=grid))
        outside = np.abs(samp.g - exact.g) > 4 * samp.g_se + 1e-12
        assert not np.any(outside), np.flatnonzero(outside)

    def test_needs_a_grid(self):
        # g averages over torus translations, which a plain matrix lacks
        Jm = coupling_matrix_from_torus(TorusGrid(1, 6), RING_TABLE)
        with pytest.raises(ValueError, match="needs the torus"):
            metropolis(IsingConfig(J=Jm, z=0.5))

    def test_grid_must_match_couplings(self):
        with pytest.raises(ValueError):
            IsingConfig(J=np.zeros((6, 6)), z=0.1, grid=TorusGrid(1, 4))


class TestStepBound:
    def test_holds_on_exact_instances(self):
        for M, z in ((4, 0.3), (6, 0.5), (8, 0.2)):
            grid = TorusGrid(1, M)
            Jm = coupling_matrix_from_torus(grid, RING_TABLE)
            cfg = IsingConfig(J=Jm, z=z)
            rec = tau_and_g_relation_check(cfg, exact_ising(cfg), grid,
                                           RING_TABLE)
            assert rec["holds"], rec

    def test_holds_on_sampled_instance_with_slack(self):
        # the check itself reads exact samples; a sampled g meets the
        # bound at every site within three of its standard errors
        grid = TorusGrid(1, 6)
        Jm = coupling_matrix_from_torus(grid, RING_TABLE)
        cfg = IsingConfig(J=Jm, z=0.4, sweeps=8000, burn_in=1000,
                          thinning=2, seed=3, replicas=2, grid=grid)
        samp = metropolis(cfg)
        tau = tau_and_g_relation_check(cfg, samp, grid, RING_TABLE)["tau"]
        assert tau == 2 * math.tanh(0.4)
        # one step to either neighbor, each with weight 1/2
        conv = 0.5 * (np.roll(samp.g, 1) + np.roll(samp.g, -1))
        excess = samp.g - (np.arange(6) == 0) - tau * conv
        assert np.all(excess <= 3.0 * samp.g_se + 1e-10), excess


def test_coupling_matrix_aliased_offsets_add_in_offset_order():
    # on M = 4, (2,0) and (-2,0) name the same pair; each adds val/2 from
    # both of its ends, offsets in table order
    grid = TorusGrid(2, 4)
    J = coupling_matrix_from_torus(
        grid, {(1, 0): 0.3, (2, 0): 0.1, (0, -1): 0.2, (-2, 0): 0.2,
               (0, 0): 5.0})
    assert J[0].tolist() == [0.0, 0.1, 0.0, 0.1, 0.15, 0.0, 0.0, 0.0,
                             0.30000000000000004, 0.0, 0.0, 0.0, 0.15, 0.0,
                             0.0, 0.0]
    swapped = coupling_matrix_from_torus(grid, {(-2, 0): 0.2, (2, 0): 0.1})
    assert swapped[0, 8] == 0.3
    # translation invariant and symmetric
    for site in range(16):
        x, y = divmod(site, 4)
        shifted = [J[site, 4 * ((x + a) % 4) + (y + b) % 4]
                   for a in range(4) for b in range(4)]
        assert shifted == J[0].tolist()
    assert np.array_equal(J, J.T)


def _spin_sample(g, g_se):
    from lacelab.ising import SpinSample
    return SpinSample(g=np.array(g), g_se=np.array(g_se), chi_hat=0.0,
                      chi_se=0.0, m_hat=0.0, m_se=0.0, samples=1)


def test_tau_and_g_relation_worst_site_d2():
    grid = TorusGrid(2, 4)
    table = {(0, 1): 1.0}  # one step direction: (D*G)(x) = G(x - (0,1))
    cfg = IsingConfig(J=coupling_matrix_from_torus(grid, table), z=1.0)
    g = [0.0] * 16
    g[0], g[5], g[6] = 1.0, 0.4, 0.5  # sites (0,0), (1,1), (1,2)
    rec = tau_and_g_relation_check(cfg, _spin_sample(g, [0.0] * 16), grid,
                                   table)
    # site 6 has excess 0.5 - tanh(1) * 0.4 < 0.4, the excess of site 5
    assert rec["worst_site"] == 5
    assert rec["worst_excess"] == 0.4
    assert rec["tau"] == math.tanh(1.0)
    assert not rec["holds"]
    # ties go to the first site; the check reads g, not its errors
    g = [0.0] * 16
    g[0], g[5], g[10] = 1.0, 1.0, 1.0
    sym = {(0, 1): 1.0, (0, -1): 1.0, (1, 0): 1.0, (-1, 0): 1.0}
    tie = tau_and_g_relation_check(cfg, _spin_sample(g, [0.0] * 16), grid,
                                   sym)
    assert (tie["worst_site"], tie["worst_excess"]) == (5, 1.0)
    g_se = [0.0] * 16
    g_se[5] = 0.1
    assert tau_and_g_relation_check(cfg, _spin_sample(g, g_se), grid,
                                    sym) == tie


@pytest.mark.parametrize("kw", [
    {"thinning": 0}, {"burn_in": -1}, {"sweeps": 10, "burn_in": 500},
    {"sweeps": 502, "burn_in": 500}, {"sweeps": 510, "burn_in": 500,
                                      "thinning": 10}])
def test_config_needs_two_kept_samples(kw):
    with pytest.raises(ValueError):
        IsingConfig(J=np.zeros((2, 2)), z=0.1, **kw)
