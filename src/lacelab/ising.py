"""Ferromagnetic Ising model: exact enumeration oracle plus a heat-bath
sampler.

Instances are explicit coupling matrices (n_sites x n_sites, symmetric,
nonnegative, zero diagonal).  Up to EXACT_SPIN_LIMIT (20) spins, the exact
oracle sums all 2^n configurations from the shared enumerator
(exact.split_configurations), giving row 0 of <phi_i phi_j> and <phi_0>
together: the low spins' rows and energy are built once, and the high
configurations follow 4 at a time, so a block costs one small matrix
product and one exp.  A running log-sum-exp keeps the weights finite under
any field whose log-weights fit in a float.  The helper
coupling_matrix_from_torus folds a translation-invariant coupling table
onto a torus; note that on very small tori distinct offsets can alias onto
the same pair, in which case their couplings add.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exact import EXACT_LIMIT, split_configurations
from .kernels import metropolis_run
from .perc import batch_means_se
from .torus import TorusGrid

EXACT_SPIN_LIMIT = EXACT_LIMIT
# A block of the exact sum is 2^SPIN_CHUNK_BITS configurations: 4 high
# ones times the 2^(SPIN_CHUNK_BITS - 2) rows of the low spins.  Its
# tracemalloc peak is 160 KiB at 16 spins and 198 KiB at the spin limit.
SPIN_CHUNK_BITS = 11


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
        if not np.all(np.isfinite(self.J)):
            raise ValueError("J entries must be finite")
        if not math.isfinite(self.z):
            raise ValueError("z must be finite")
        if not math.isfinite(self.h):
            raise ValueError("h must be finite")
        if np.any(self.J < 0):
            raise ValueError("ferromagnetic model needs J >= 0")
        if np.max(np.abs(self.J - self.J.T)) > 1e-12:
            raise ValueError("J must be symmetric")
        if np.max(np.abs(np.diag(self.J))) > 0:
            raise ValueError("J must have zero diagonal")
        if self.grid is not None and self.grid.n_sites != n:
            raise ValueError("grid has %d sites but J has %d"
                             % (self.grid.n_sites, n))
        if self.z < 0:
            raise ValueError("z must be >= 0 for the ferromagnetic model")
        if self.replicas < 1:
            raise ValueError("replicas must be positive")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        # kept sweeps: burn_in, burn_in + thinning, ... below sweeps
        if not 0 <= self.burn_in < self.sweeps - self.thinning:
            raise ValueError("need 0 <= burn_in < sweeps - thinning, so that "
                             "at least 2 samples are kept")

    @property
    def n_sites(self):
        return self.J.shape[0]


def coupling_matrix_from_torus(grid: TorusGrid, J_table: dict):
    """Fold an offset->coupling table onto torus pairs (aliased offsets add)."""
    offs = np.array(list(J_table), dtype=np.int64).reshape(-1, grid.d)
    vals = np.array(list(J_table.values()), dtype=float)
    keep = np.any(offs != 0, axis=1)
    offs, vals = offs[keep], vals[keep]
    n = grid.n_sites
    site = np.tile(np.arange(n), len(offs))
    nb = grid.flat_index(grid.sites() + offs[:, None, :]).ravel()
    half = np.repeat(vals / 2.0, n)
    keep = nb != site
    pairs = np.stack([site, nb], axis=1)[keep]
    # val/2 goes to [site, nb] and then to [nb, site], offset by offset and
    # site by site: np.add.at applies repeated indices in this order
    J = np.zeros((n, n))
    np.add.at(J, (pairs.ravel(), pairs[:, [1, 0]].ravel()),
              np.repeat(half[keep], 2))
    return J


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
    g, mag = _exact_moments(config.J, config.z, config.h)
    return SpinSample(g=g, g_se=np.zeros(n), chi_hat=float(np.sum(g)),
                      chi_se=0.0, m_hat=mag, m_se=0.0, samples=1 << n)


def exact_correlation_matrix(config: IsingConfig) -> np.ndarray:
    """Full <phi_i phi_j> matrix: row i is the exact oracle's row 0 on the
    couplings relabelled so that spin i is spin 0."""
    n = config.n_sites
    corr = np.empty((n, n))
    for i in range(n):
        perm = np.arange(n)
        perm[[0, i]] = perm[[i, 0]]
        corr[i, perm] = _exact_moments(config.J[np.ix_(perm, perm)],
                                       config.z, config.h)[0]
    return corr


def _exact_moments(J: np.ndarray, z: float, h: float):
    """<phi_0 phi_j> for every j, and <phi_0>, from one call of
    exact.split_configurations.

    The low spins 0..low-1, low = min(n, SPIN_CHUNK_BITS - 2), have 2^low
    rows; their energy e_lo and their field on the high spins,
    cross = z J_hl phi_lo, are built once.  The high configurations are
    taken 4 at a time, 2^SPIN_CHUNK_BITS configurations per block, and a
    block costs log w = phi_hi^T cross + e_hi + e_lo.  Summed over the
    high part are W_lo (the weight of each low row) and, for each high
    spin j, sum phi_j w phi_0; the low columns of row 0 are
    phi_lo (phi_0 W_lo) at the end.

    Weights are exp(log w - ref) with ref the largest log-weight seen so
    far (a running log-sum-exp): when a later block holds a larger one,
    the sums so far are rescaled, so no weight overflows however strong
    the field.  |log w| <= z/2 sum|J| + |h| n, and a bound above half the
    float maximum raises ValueError before the sum, so that neither
    log w nor log w - ref can overflow.
    """
    n = J.shape[0]
    low_bits, high_bits = split_configurations(n, "spins",
                                               SPIN_CHUNK_BITS - 2)
    with np.errstate(over="ignore"):
        bound = 0.5 * z * float(np.abs(J).sum()) + abs(h) * n
    if not bound <= 0.5 * sys.float_info.max:
        raise ValueError("exact Ising log-weights overflow: |log w| may "
                         "reach z/2 sum|J| + |h| n = %r" % bound)
    low = len(low_bits)
    phi_lo = np.where(low_bits, 1.0, -1.0)
    e_lo = _log_weights(J[:low, :low], z, h, phi_lo)
    cross = z * (J[low:, :low] @ phi_lo)
    w_lo, corr_hi, ref = np.zeros(1 << low), np.zeros(n - low), -np.inf
    for start in range(0, high_bits.shape[1], 4):
        phi_hi = np.where(high_bits[:, start:start + 4], 1.0, -1.0)
        e_hi = _log_weights(J[low:, low:], z, h, phi_hi)
        logw = phi_hi.T @ cross + e_hi[:, None] + e_lo
        top = float(logw.max())
        if top > ref:
            scale = math.exp(ref - top)
            w_lo *= scale
            corr_hi *= scale
            ref = top
        w = np.exp(logw - ref)
        w_lo += w.sum(axis=0)
        corr_hi += phi_hi @ (w @ phi_lo[0])
    total = float(w_lo.sum())
    g = np.concatenate([phi_lo @ (phi_lo[0] * w_lo), corr_hi]) / total
    return g, float(phi_lo[0] @ w_lo) / total


def _log_weights(J: np.ndarray, z: float, h: float, phi: np.ndarray):
    """z/2 phi^T J phi + h sum phi for each column of phi."""
    return 0.5 * z * np.einsum("ic,ic->c", J @ phi, phi) + h * phi.sum(axis=0)


def metropolis(config: IsingConfig) -> SpinSample:
    """Single-spin-flip heat-bath sampling with batch-means errors.

    Despite the name, kept for its callers, the rule is heat-bath: a flip
    is accepted with probability 1/(1 + exp(delta)), not min(1,
    exp(-delta)) (see kernels.metropolis_run).

    The config needs a grid: g[t] = <phi_i phi_{i + x_t}> averaged over
    every site i, where x_t is the torus vector of site t and + is torus
    translation.
    """
    if config.grid is None:
        raise ValueError("metropolis needs the torus whose sites index J")
    n = config.n_sites
    neighbor_idx, neighbor_j = [], []
    for row in config.J:
        nz = np.flatnonzero(row)
        neighbor_idx.append(nz.tolist())
        neighbor_j.append(row[nz].tolist())
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
                             grid: TorusGrid, J_table: dict) -> dict:
    """Single-step bound G(x) - delta_{0,x} <= tau (D*G)(x), pointwise on
    the sample's g; worst_excess is the largest G - delta - tau D*G."""
    from .steps import ising_tau
    tau, dstep = ising_tau(J_table, config.z)
    g = np.asarray(sample.g)
    sites = grid.sites()
    conv = np.zeros(grid.n_sites)
    for off, w in dstep.items():
        conv += w * g[grid.flat_index(sites - np.asarray(off))]
    lhs = g.copy()
    lhs[0] -= 1.0
    excess = lhs - tau * conv
    worst_site = int(np.argmax(excess))  # the first site on ties
    worst = excess[worst_site]
    return {"tau": tau, "holds": worst <= 1e-10, "worst_excess": worst,
            "worst_site": worst_site}
