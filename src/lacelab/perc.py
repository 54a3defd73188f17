"""Long-range bond percolation on finite tori with range truncation.

A bond {x, y} with minimal-image displacement within range R is occupied
independently with probability z * D_M(y - x) (clipped to [0,1] with a loud
warning when clipping binds).  bond_offsets picks one offset per bond
direction in one whole-array pass over the torus, with the range cut of
torus.within_range.  bond_table lists every bond of the torus once, as
the far end fwd[s, j] of offset j from site s, and is built once per
config (PercConfig.bonds); the exact oracle reads it as is, and the
sampler reads it from both ends, [fwd | bwd], with one bond id per bond.
The Monte Carlo sampler (kernels.percolation_clusters) grows the origin's
cluster of many replicas at once, one breadth-first level at a time over
that table, probing a bond only when its far end is not yet in the
cluster; the draw is keyed by (seed, replica, bond id), so the search
order cannot change the sample.
Instances of at most EXACT_BOND_LIMIT (20) bonds get an exact oracle:
exact_small takes all 2^bonds configurations from the shared enumerator
(exact.split_configurations), weighs the low bonds' configurations and
labels their clusters (min-label propagation) once, extends both to each
high configuration, and yields chi, the cluster-size law, the
connectivities from site 0 and dchi/dz together; with pivotal (the
default) also the whole pair-connectivity matrix and the pivotal sum.
exact_pair_matrix and russo_check read their numbers from it, and the size
law drives the magnetization checks.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exact import CHUNK_BITS, EXACT_LIMIT, split_configurations
from .kernels import percolation_clusters
from .steps import StepDistribution
from .torus import TorusGrid, within_range

EXACT_BOND_LIMIT = EXACT_LIMIT
SE_BATCHES = 25  # batch_means_se: batches, when there are samples for them


@dataclass(frozen=True)
class PercConfig:
    grid: TorusGrid
    dist: StepDistribution
    z: float
    R: float
    seed: int
    replicas: int = 400

    def __post_init__(self):
        if self.dist.family == "power":
            self.folded  # its weight stream leaves the norm (sup_d) free
        # written so that a NaN z fails it too
        if not 0 <= self.z <= 1.0 / self.dist.sup_d + 1e-12:
            raise ValueError("z must lie in [0, 1/sup_D]")
        if self.replicas < 1:
            raise ValueError("replicas must be positive")

    @cached_property
    def folded(self) -> np.ndarray:
        """D_M on the grid, folded once per config and read by bond_offsets
        and range_tail."""
        return self.dist.fold(self.grid).values

    @cached_property
    def bonds(self):
        """bond_table(self), built once per config and read by the sampler
        and the exact oracle, so its warnings fire once per run."""
        return bond_table(self)


def bond_offsets(config: PercConfig):
    """One representative per unordered bond direction within range R.

    One pass over the torus: offs lists every centered offset in
    lexicographic order and mirror[i] is the position of -offs[i] in that
    list, so of each pair o, -o only the later one (rank > mirror) is kept.
    Offsets other than 0 with rank == mirror (every coordinate 0 or -M/2)
    are their own negation mod M, which would make the forward and backward
    bond of a site coincide; such bonds are excluded (with a warning when
    they carry weight in range), so tori should satisfy M > 2R.
    """
    grid = config.grid
    half = grid.M // 2
    offs = grid.sites() - half
    rank = np.arange(grid.n_sites)
    mirror = grid.flat_index(half - offs)
    weight = config.folded.ravel()[grid.flat_index(offs)]
    in_range = within_range(offs, config.R)
    if np.any((rank == mirror) & np.any(offs != 0, axis=1) & in_range
              & (weight > 0.0)):
        warnings.warn("offset at half the torus period excluded; "
                      "use M > 2R", RuntimeWarning)
    probs = config.z * weight
    keep = (rank > mirror) & in_range & (probs > 0.0)
    probs = probs[keep]
    if np.any(probs > 1.0):
        warnings.warn("bond probability clipped at 1; z is outside the "
                      "regime the model is meant for", RuntimeWarning)
    return offs[keep], np.minimum(probs, 1.0)


def range_tail(config: PercConfig) -> float:
    """e_R: folded step weight beyond the cutoff R."""
    return float(np.sum(config.folded[~_in_range(config)]))


def _in_range(config: PercConfig) -> np.ndarray:
    """Sites whose centered displacement from the origin is within R."""
    xc = np.moveaxis(config.grid.centered_coords(), 0, -1)
    return within_range(xc, config.R)


@dataclass
class ClusterStats:
    sizes: np.ndarray
    chi_hat: float
    chi_se: float
    theta_hat: float
    histogram: dict
    samples: int
    e_R: float


def batch_means_se(x: np.ndarray) -> float:
    """Standard error of the mean from batch means; needs 2 samples."""
    n = len(x)
    if n < 2:
        raise ValueError("a standard error needs at least 2 samples, got %d"
                         % n)
    b = max(2, min(SE_BATCHES, n // 2))
    cut = (n // b) * b
    means = x[:cut].reshape(b, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(b))


def bond_table(config: PercConfig):
    """(offs, probs, fwd): bond_offsets and fwd[s, j], the far end of the
    bond that leaves site s along offs[j]; each bond of the torus once."""
    offs, probs = bond_offsets(config)
    grid = config.grid
    return offs, probs, grid.flat_index(grid.sites()[:, None, :] + offs)


def sampler_input(config: PercConfig):
    """(neighbors, bond_ids, probs) for kernels.percolation_clusters, from
    config.bonds.

    Columns [fwd | bwd] list every site's bonds in both directions; the
    bond from s back along offs[j] is the one that leaves bwd[s, j]
    forwards, so it takes that bond's id bwd[s, j] * n_offsets + j.
    """
    offs, probs, fwd = config.bonds
    grid = config.grid
    bwd = grid.flat_index(grid.sites()[:, None, :] - offs)
    ids = np.arange(fwd.size).reshape(fwd.shape)
    return (np.hstack([fwd, bwd]),
            np.hstack([ids, ids[bwd, np.arange(len(offs))]]),
            np.tile(probs, 2))


def sample_cluster(config: PercConfig) -> ClusterStats:
    """Monte Carlo cluster-of-origin statistics over independent replicas."""
    grid = config.grid
    sizes = np.asarray(percolation_clusters(*sampler_input(config),
                                            config.seed, config.replicas),
                       dtype=float)
    if np.any(sizes > grid.n_sites):
        raise AssertionError("cluster larger than the torus; sampler bug")
    hist_vals, hist_counts = np.unique(sizes.astype(int), return_counts=True)
    theta_cut = math.sqrt(grid.n_sites)
    return ClusterStats(
        sizes=sizes,
        chi_hat=float(np.mean(sizes)),
        chi_se=batch_means_se(sizes),
        theta_hat=float(np.mean(sizes > theta_cut)),
        histogram={int(v): int(c) for v, c in zip(hist_vals, hist_counts)},
        samples=config.replicas,
        e_R=range_tail(config))


# -- exact tiny-instance oracle ------------------------------------------

@dataclass
class ExactGraph:
    """Explicit site/bond instance for exhaustive enumeration.

    bonds: list of (u, v, q) with occupation probability p = clip(z*q, 0, 1);
    q plays the role of D_M(v-u) so dp/dz = q wherever the clip is inactive.
    A graph may hold any number of bonds; the exact oracles enumerate at
    most EXACT_BOND_LIMIT of them and raise ValueError beyond.
    """
    n_sites: int
    bonds: list


def exact_graph_from_config(config: PercConfig) -> ExactGraph:
    """Every bond of the torus, site-major then offset-minor: bond j of
    site s joins s to fwd[s, j] of config.bonds, the table the sampler
    reads.

    bond_offsets keeps one of each pair o, -o and no offset that is its own
    negation mod M, so no bond is a self-loop and no pair of sites is
    joined twice.
    """
    _, probs, fwd = config.bonds
    n = config.grid.n_sites
    site = np.repeat(np.arange(n), len(probs))
    q = np.tile(probs / config.z, n)  # z = 0 leaves no offsets
    bonds = list(zip(site.tolist(), fwd.ravel().tolist(), q.tolist()))
    return ExactGraph(n_sites=n, bonds=bonds)


def _cluster_labels(n_sites: int, ends: list, bits: np.ndarray) -> np.ndarray:
    """labels[i, r] = the smallest site joined to site i in configuration r.

    Min-label propagation over many configurations at once:
    every open bond lowers both its ends to the smaller of their labels.
    The bonds are swept forwards and then backwards, until a sweep changes
    nothing.
    """
    dtype = np.min_scalar_type(max(n_sites - 1, 0))
    labels = np.repeat(np.arange(n_sites, dtype=dtype)[:, None],
                       bits.shape[1], axis=1)
    sweep = list(zip(ends, bits))
    sweep += sweep[::-1]
    while True:
        before = labels.copy()
        for (u, v), open_b in sweep:
            low = np.minimum(labels[u], labels[v])
            np.copyto(labels[u], low, where=open_b)
            np.copyto(labels[v], low, where=open_b)
        if np.array_equal(labels, before):
            return labels


def exact_small(graph: ExactGraph, z: float, pivotal: bool = True) -> dict:
    """Exact chi, cluster law, connectivities and dchi/dz by enumeration.

    One call of exact.split_configurations covers all 2^B bond
    configurations: the low bonds 0..low-1, low = min(B, CHUNK_BITS), and
    the high bonds after them.  The weights w of the low rows and their
    z-derivatives dw are built once, bond by bond in bond order, with the
    product rule (no division by p, which may be subnormal), and
    _cluster_labels labels the low bonds' clusters once.  Each high
    configuration then continues the product rule with its high bonds'
    scalar factors, and merges the two clusters of each open high bond:
    a label is the smallest site of its cluster, so the larger label of the
    two gives way to the smaller.  pair_conn[j] = P(0 <-> j) sums w over
    the configurations where 0 and j share a label; |C(0)| is the number of
    sites sharing site 0's label, so chi = sum w |C(0)| and
    dchi/dz = sum dw |C(0)|.

    With pivotal, the full report: pair_matrix[i, j] = P(i <-> j), every
    row summed as row 0 is (n times its cost), and pivotal_sum, which
    recounts dchi/dz through bond pivotality,
    sum_b (dp_b/dz) sum_omega w(omega) (|C(0)| in omega with b open
    - |C(0)| in omega with b closed), read from the stored 2^B cluster
    sizes; the two must agree to 1e-12.
    A bond whose probability is clipped at 0 or 1 has dp/dz = 0.
    """
    B, n = len(graph.bonds), graph.n_sites
    # raises above the limit, before w
    low_bits, high_bits = split_configurations(B, "bonds", CHUNK_BITS)
    low, rows = low_bits.shape
    ends = [(u, v) for u, v, _ in graph.bonds]
    q = np.array([bond[2] for bond in graph.bonds], dtype=float)
    probs = np.clip(z * q, 0.0, 1.0)
    dprobs = np.where((z * q > 0.0) & (z * q < 1.0), q, 0.0)
    w = np.empty(1 << B)
    sizes = np.empty(1 << B, dtype=np.min_scalar_type(-n))
    G = np.zeros((n if pivotal else 1, n))  # row 0 only, without pivotal
    dchi = 0.0
    w_lo, dw_lo = np.ones(rows), np.zeros(rows)
    for b, open_b in enumerate(low_bits):
        factor = np.where(open_b, probs[b], 1.0 - probs[b])
        dw_lo = dw_lo * factor + w_lo * np.where(open_b, dprobs[b], -dprobs[b])
        w_lo *= factor
    labels_lo = _cluster_labels(n, ends[:low], low_bits)
    for k, open_hi in enumerate(high_bits.T):
        wc, dwc, labels = w_lo, dw_lo, labels_lo
        for b, is_open in enumerate(open_hi.tolist(), start=low):
            factor = probs[b] if is_open else 1.0 - probs[b]
            dwc = dwc * factor + wc * (dprobs[b] if is_open else -dprobs[b])
            wc = wc * factor
            if is_open:
                u, v = ends[b]
                labels = np.where(labels == np.maximum(labels[u], labels[v]),
                                  np.minimum(labels[u], labels[v]), labels)
        size = np.count_nonzero(labels == labels[0], axis=0)
        G += [(labels == labels[i]) @ wc for i in range(len(G))]
        dchi += float(np.sum(dwc * size))
        w[k * rows:(k + 1) * rows] = wc
        sizes[k * rows:(k + 1) * rows] = size
    pivotal_sum = 0.0
    if pivotal:
        for b in np.flatnonzero(dprobs):
            # configurations pair up as (bit b closed, bit b open)
            w3 = w.reshape(-1, 2, 1 << b)
            s3 = sizes.reshape(-1, 2, 1 << b)
            pivotal_sum += dprobs[b] * float(np.sum(
                (w3[:, 0] + w3[:, 1]) * (s3[:, 1] - s3[:, 0])))
    size_law = np.bincount(sizes, weights=w, minlength=n + 1)
    theta_cut = math.sqrt(n)
    rec = {
        "z": z,
        "chi": float(np.dot(w, sizes)),
        "dchi_dz": dchi,
        "pivotal_sum": pivotal_sum,
        "size_law": size_law,
        "pair_conn": G[0].copy(),
        "theta": float(np.sum(size_law[int(theta_cut) + 1:])),
    }
    if pivotal:
        rec["pair_matrix"] = G
    return rec


def russo_check(graph: ExactGraph, z: float) -> dict:
    """Derivative identity and the tree-graph bounds on an exact instance.

    Checks dchi/dz == pivotal sum (to 1e-12), dchi/dz <= chi^2, and
    dchi/dz >= chi^2 * sum_b in-range weight - chi^2 * triangle.  One
    enumeration serves all three; the triangle reads its pair matrix.
    """
    rec = exact_small(graph, z, pivotal=True)
    chi = rec["chi"]
    # per-site outgoing step weight within range (q doubles as D_M(v-u));
    # ordered-pair convention counts each unordered bond twice
    d_sum = 2.0 * sum(q for _, _, q in graph.bonds) / graph.n_sites
    nabla = _triangle(graph, rec["pair_matrix"])
    lower = chi ** 2 * d_sum - chi ** 2 * nabla
    return {
        "z": z,
        "dchi_dz": rec["dchi_dz"],
        "pivotal_sum": rec["pivotal_sum"],
        "match": abs(rec["dchi_dz"] - rec["pivotal_sum"]) <= 1e-12
                 * max(1.0, abs(rec["dchi_dz"])),
        "tree_graph_upper": chi ** 2,
        "upper_holds": rec["dchi_dz"] <= chi ** 2 * (1 + 1e-12),
        "lower_bound": lower,
        "lower_holds": rec["dchi_dz"] >= lower - 1e-12 * max(1.0, abs(lower)),
        "nabla": nabla,
    }


def _triangle(graph: ExactGraph, G: np.ndarray) -> float:
    """Triangle with one step-weighted displacement, from exact connectivities.

    nabla = sum over bonds (u,v), ordered both ways, of q * average over
    translations of G(v,s) G(s,t) G(t,u), from the pair-connectivity matrix.
    """
    total = 0.0
    for u, v, q in graph.bonds:
        for a, b in ((u, v), (v, u)):
            total += q * float(G[b] @ G @ G[:, a])
    return total / graph.n_sites


def exact_pair_matrix(graph: ExactGraph, z: float) -> np.ndarray:
    """G[i, j] = P(i connected to j), by exhaustive enumeration."""
    return exact_small(graph, z, pivotal=True)["pair_matrix"]


def magnetization(size_law: np.ndarray, h: float) -> float:
    """M(z,h) = sum_k (1 - exp(-k h)) P(|C| = k)."""
    k = np.arange(len(size_law))
    return float(np.sum((1.0 - np.exp(-k * h)) * size_law))


def magnetization_tail(size_law: np.ndarray, n: int) -> dict:
    """Cluster-tail sandwich through the magnetization at h = 1/n.

    Upper: P(|C| >= n) <= (1 - e^{-1})^{-1} M(z, 1/n).
    Lower: P(|C| >= n) >= M(z, 1/n) - (1/n) sum_{k<n} P(|C| >= k).
    """
    tail = float(np.sum(size_law[n:]))
    m = magnetization(size_law, 1.0 / n)
    upper = m / (1.0 - math.exp(-1.0))
    correction = (1.0 / n) * sum(float(np.sum(size_law[k:]))
                                 for k in range(1, n))
    lower = m - correction
    slack = 1e-12
    return {
        "n": n, "tail": tail,
        "upper": upper, "upper_holds": tail <= upper + slack,
        "lower": lower, "lower_holds": tail >= lower - slack,
        "M_at_1_over_n": m,
    }
