"""Ferromagnetic Ising model: exact enumeration oracle plus Metropolis.

Instances are explicit coupling matrices (n_sites x n_sites, symmetric,
nonnegative, zero diagonal).  Up to EXACT_SPIN_LIMIT (20) spins, the exact
oracle sums all 2^n configurations in one pass of the shared enumerator
(exact.bit_chunks), giving <phi_i phi_j> and <phi_0> together; a running
log-sum-exp keeps the weights finite under any field.  The helper
coupling_matrix_from_torus folds a translation-invariant coupling table
onto a torus; note that on very small tori distinct offsets can alias onto
the same pair, in which case their couplings add.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exact import EXACT_LIMIT, bit_chunks
from .kernels import metropolis_run
from .perc import batch_means_se
from .torus import TorusGrid

EXACT_SPIN_LIMIT = EXACT_LIMIT


@dataclass
class IsingConfig:
    J: np.ndarray    # symmetric coupling matrix, zero diagonal
    z: float         # inverse temperature
    h: float = 0.0
    sweeps: int = 4000
    burn_in: int = 500
    thinning: int = 2
    seed: int = 0
    replicas: int = 1
    grid: TorusGrid | None = None  # torus whose flattened sites index J

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        n = self.J.shape[0]
        if self.J.shape != (n, n):
            raise ValueError("J must be square")
        if np.any(self.J < 0):
            raise ValueError("ferromagnetic model needs J >= 0")
        if np.max(np.abs(self.J - self.J.T)) > 1e-12:
            raise ValueError("J must be symmetric")
        if np.max(np.abs(np.diag(self.J))) > 0:
            raise ValueError("J must have zero diagonal")
        if self.grid is not None and self.grid.n_sites != n:
            raise ValueError("grid has %d sites but J has %d"
                             % (self.grid.n_sites, n))
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        # kept sweeps: burn_in, burn_in + thinning, ... below sweeps
        if not 0 <= self.burn_in < self.sweeps - self.thinning:
            raise ValueError("need 0 <= burn_in < sweeps - thinning, so that "
                             "at least 2 samples are kept")

    @property
    def n_sites(self):
        return self.J.shape[0]


def coupling_matrix_from_torus(grid: TorusGrid, J_table: dict,
                               R: float | None = None):
    """Fold an offset->coupling table onto torus pairs (aliased offsets add)."""
    table = [(off, val) for off, val in J_table.items() if any(off) and (
        R is None or math.sqrt(sum(v * v for v in off)) <= R)]
    n = grid.n_sites
    offs = np.array([off for off, _ in table], dtype=np.int64)
    site = np.tile(np.arange(n), len(table))
    nb = grid.flat_index(grid.sites() + offs.reshape(-1, 1, grid.d)).ravel()
    half = np.repeat([val / 2.0 for _, val in table], n)
    keep = nb != site
    pairs = np.stack([site, nb], axis=1)[keep]
    # val/2 goes to [site, nb] and then to [nb, site], offset by offset and
    # site by site: np.add.at applies repeated indices in this order
    J = np.zeros((n, n))
    np.add.at(J, (pairs.ravel(), pairs[:, [1, 0]].ravel()),
              np.repeat(half[keep], 2))
    return J


def coupling_tail(J_table: dict, z: float, R: float) -> float:
    """Share of sum_y tanh(zJ(y)) lost to the range cutoff."""
    total, outside = 0.0, 0.0
    for off, val in J_table.items():
        if not any(off):
            continue
        t = math.tanh(z * val)
        total += t
        if math.sqrt(sum(v * v for v in off)) > R:
            outside += t
    return outside / total if total > 0 else 0.0


@dataclass
class SpinSample:
    g: np.ndarray        # G(t) = <phi_0 phi_t> per site index (translation avg)
    g_se: np.ndarray
    chi_hat: float
    chi_se: float
    m_hat: float
    m_se: float
    samples: int
    equilibrated: bool = True


def exact_ising(config: IsingConfig) -> SpinSample:
    """Exact expectations by summing all 2^n spin configurations."""
    n = config.n_sites
    corr, mag = _exact_moments(config)
    chi = float(np.sum(corr[0]))
    return SpinSample(g=corr[0].copy(), g_se=np.zeros(n), chi_hat=chi,
                      chi_se=0.0, m_hat=mag, m_se=0.0, samples=1 << n)


def exact_correlation_matrix(config: IsingConfig) -> np.ndarray:
    """Full <phi_i phi_j> matrix from the exact sum."""
    return _exact_moments(config)[0]


def _exact_moments(config: IsingConfig):
    """<phi_i phi_j> and <phi_0> in one pass of exact.bit_chunks.

    Weights are exp(log w - ref) with ref the largest log-weight seen so
    far (a running log-sum-exp): when a later chunk holds a larger one, the
    sums so far are rescaled, so no weight overflows however strong the
    field.
    """
    n = config.n_sites
    corr, mag, total, ref = np.zeros((n, n)), 0.0, 0.0, -np.inf
    for _, bits in bit_chunks(n, "spins"):
        phi = np.where(bits, 1.0, -1.0)
        logw = (0.5 * config.z * np.einsum("ic,ic->c", config.J @ phi, phi)
                + config.h * phi.sum(axis=0))
        top = float(logw.max())
        if top > ref:
            scale = math.exp(ref - top)
            corr *= scale
            mag *= scale
            total *= scale
            ref = top
        w = np.exp(logw - ref)
        total += float(w.sum())
        mag += float(phi[0] @ w)
        corr += (phi * w) @ phi.T
    return corr / total, mag / total


def metropolis(config: IsingConfig) -> SpinSample:
    """Single-spin-flip Metropolis with batch-means errors.

    With a grid, g[t] = <phi_i phi_{i + x_t}> averaged over every site i,
    where x_t is the torus vector of site t and + is torus translation.
    Without one, J is a plain coupling matrix and g[t] = <phi_0 phi_t>.
    """
    n = config.n_sites
    max_deg = int(np.max(np.sum(config.J > 0, axis=1)))
    neighbor_idx = np.full((n, max(max_deg, 1)), -1, dtype=np.int64)
    neighbor_j = np.zeros((n, max(max_deg, 1)))
    for i in range(n):
        nz = np.nonzero(config.J[i])[0]
        neighbor_idx[i, :len(nz)] = nz
        neighbor_j[i, :len(nz)] = config.J[i, nz]
    if config.grid is None:
        corr_targets = np.arange(n, dtype=np.int64)[None, :]
    else:
        sites = config.grid.sites()
        corr_targets = config.grid.flat_index(sites[:, None, :]
                                              + sites[None, :, :])
    mags, corrs = [], []
    for rep in range(config.replicas):
        mag, corr = metropolis_run(
            neighbor_idx, neighbor_j, n, config.z, config.h,
            config.seed, rep, config.sweeps, config.burn_in,
            config.thinning, corr_targets)
        mags.append(mag)
        corrs.append(corr)
    mag = np.concatenate(mags)
    corr = np.concatenate(corrs, axis=0)
    g = corr.mean(axis=0)
    g_se = np.array([batch_means_se(corr[:, t]) for t in range(n)])
    chi_samples = corr.sum(axis=1)
    half = len(mag) // 2
    drift = abs(np.mean(mag[:half]) - np.mean(mag[half:]))
    drift_scale = batch_means_se(mag) * 3.0
    return SpinSample(
        g=g, g_se=g_se,
        chi_hat=float(np.mean(chi_samples)),
        chi_se=batch_means_se(chi_samples),
        m_hat=float(np.mean(mag)), m_se=batch_means_se(mag),
        samples=len(mag),
        equilibrated=bool(drift <= max(drift_scale, 1e-9)))


def tau_and_g_relation_check(config: IsingConfig, sample: SpinSample,
                             grid: TorusGrid, J_table: dict,
                             sigma_slack: float = 3.0) -> dict:
    """Single-step bound: G(x) - delta <= tau (D*G)(x) within noise."""
    from .steps import ising_tau
    tau, dstep = ising_tau(J_table, config.z)
    g = np.asarray(sample.g)
    sites = grid.sites()
    conv = np.zeros(grid.n_sites)
    for off, w in dstep.items():
        conv += w * g[grid.flat_index(sites - np.asarray(off))]
    lhs = g.copy()
    lhs[0] -= 1.0
    slack = sigma_slack * np.where(sample.g_se > 0, sample.g_se, 0.0)
    excess = -(tau * conv + slack - lhs)
    worst_site = int(np.argmax(excess))  # the first site on ties
    worst = excess[worst_site]
    return {"tau": tau, "holds": worst <= 1e-10, "worst_excess": worst,
            "worst_site": worst_site}
