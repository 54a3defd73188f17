"""Independent oracles for the benchmark's output checks.

None of these call into lacelab: each recomputes a quantity the program
reports from a closed form, a transfer matrix, a brute-force sum or a
published table, so a check built on one of them fails when the program is
wrong rather than agreeing with itself.
"""

import math

import numpy as np

# Number of n-step self-avoiding walks from the origin, n = 0, 1, ...
# (OEIS A001411, square lattice; A001412, simple cubic lattice).
SAW_COUNTS = {
    2: [1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292,
        324932, 881500, 2374444],
    3: [1, 6, 30, 150, 726, 3534, 16926, 81390, 387966, 1853886, 8809878],
}


def ring_cluster_law(M: int, p: float) -> np.ndarray:
    """P(|C(0)| = k), k = 0..M, for bond percolation on the M-site ring.

    A cluster of k < M sites is an arc through the origin (k placements)
    with k - 1 open bonds inside and its two boundary bonds closed; the
    whole ring is spanned when at most one of the M bonds is closed.
    """
    if M < 3 or not 0.0 <= p <= 1.0:
        raise ValueError("need M >= 3 and 0 <= p <= 1")
    law = np.zeros(M + 1)
    for k in range(1, M):
        law[k] = k * p ** (k - 1) * (1.0 - p) ** 2
    law[M] = p ** M + M * p ** (M - 1) * (1.0 - p)
    return law


def ring_ising(M: int, K: float, h: float) -> dict:
    """Exact Ising ring by transfer matrix.

    Weight exp(K sum_i s_i s_{i+1} + h sum_i s_i).  Returns the pair
    correlations g[r] = <s_0 s_r>, r = 0..M-1, chi = sum_r g[r] and
    m = <s_0>.  The matrix is divided by its largest entry exp(|K| + |h|)
    first, so strong fields do not overflow.
    """
    if M < 3:
        raise ValueError("need M >= 3")
    s = np.array([1.0, -1.0])
    T = np.exp(K * np.outer(s, s) + 0.5 * h * (s[:, None] + s[None, :])
               - (abs(K) + abs(h)))
    S = np.diag(s)
    powers = [np.eye(2)]
    for _ in range(M):
        powers.append(powers[-1] @ T)
    Z = np.trace(powers[M])
    g = np.array([np.trace(S @ powers[r] @ S @ powers[M - r]) / Z
                  for r in range(M)])
    return {"g": g, "chi": float(g.sum()),
            "m": float(np.trace(S @ powers[M]) / Z)}


def torus_ising_g(d: int, M: int, K: float, h: float = 0.0) -> np.ndarray:
    """<s_0 s_x> at every site of the d-torus with nn coupling K, by brute force.

    Sites are flattened row-major (first coordinate slowest).  All 2^n
    configurations are summed with one global log-weight reference, so the
    sum is exact up to rounding for any field.
    """
    n = M ** d
    if n > 20:
        raise ValueError("brute force limited to 20 spins")
    coords = np.array(np.unravel_index(np.arange(n), (M,) * d)).T
    bonds = []
    for i in range(n):
        for a in range(d):
            nb = coords[i].copy()
            nb[a] = (nb[a] + 1) % M
            bonds.append((i, int(np.ravel_multi_index(nb, (M,) * d))))
    u, v = np.array(bonds).T
    cfg = np.arange(1 << n, dtype=np.int64)
    phi = 2.0 * ((cfg[:, None] >> np.arange(n)) & 1) - 1.0
    logw = K * np.sum(phi[:, u] * phi[:, v], axis=1) + h * phi.sum(axis=1)
    w = np.exp(logw - logw.max())
    return (w @ (phi[:, :1] * phi)) / w.sum()


def sample_torus_percolation(d: int, M: int, p: float, replicas: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Origin-cluster sizes for nn bond percolation on the d-torus.

    Samples every bond of the torus at once and floods the origin's
    cluster by whole-array neighbour steps until it stops growing.  This
    shares no code and no random stream with lacelab's lazy sampler.
    """
    if M < 3:
        raise ValueError("need M >= 3 so that the two bonds of an axis differ")
    sizes = []
    axes = tuple(range(1, d + 1))
    batch = 2000  # tori sampled at once
    for start in range(0, replicas, batch):
        b = min(batch, replicas - start)
        # bond[a][r, x] joins x and x + e_a
        bond = [rng.random((b,) + (M,) * d) < p for _ in range(d)]
        reached = np.zeros((b,) + (M,) * d, dtype=bool)
        reached[(slice(None),) + (0,) * d] = True
        while True:
            grown = reached.copy()
            for a, ax in enumerate(axes):
                grown |= np.roll(reached, 1, axis=ax) & np.roll(bond[a], 1,
                                                                 axis=ax)
                grown |= np.roll(reached, -1, axis=ax) & bond[a]
            if np.array_equal(grown, reached):
                break
            reached = grown
        sizes.append(reached.reshape(b, -1).sum(axis=1))
    return np.concatenate(sizes).astype(float)


def mean_and_se(x: np.ndarray) -> tuple:
    """Sample mean and its standard error for independent samples."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(len(x)))
