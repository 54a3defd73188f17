"""Hot loops shared by the samplers, and the counter RNG they draw from.

All randomness is counter based (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11): the uniform for key (seed, replica, counter)
is SplitMix64 applied three times, so any draw can be made on its own and
in any order.  counter_uniform makes one draw from Python ints masked to
64 bits; counter_uniforms makes a run of consecutive counters at once from
numpy uint64 arrays, which wrap the same way.  Both go through the one
_splitmix64, so the two give the same bits for the same key.
"""

import itertools

import numpy as np

# No kernel is compiled; perfbench/run.py records this in its environment.
USE_NUMBA = False

_MASK = (1 << 64) - 1
_INV_2_53 = 1.0 / float(1 << 53)
_SEED_KEY = 0xA0761D6478BD642F

# Counters per counter_uniforms call in metropolis_run: bounds the memory
# of the drawn uniforms whatever the chain length.
DRAW_BLOCK = 4096


def _splitmix64(x):
    """SplitMix64 output for state x: a Python int or a uint64 array."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def counter_uniform(seed, replica, counter):
    """Uniform in [0,1) keyed by (seed, replica, counter)."""
    # int() accepts numpy integers, which cannot be masked directly
    h = _splitmix64((int(seed) & _MASK) ^ _SEED_KEY)
    h = _splitmix64(h ^ (int(replica) & _MASK))
    h = _splitmix64(h ^ (int(counter) & _MASK))
    return (h >> 11) * _INV_2_53


def counter_uniforms(seed, replica, start, count):
    """counter_uniform(seed, replica, c) for c in start .. start + count - 1,
    as a float64 array."""
    h = _splitmix64((int(seed) & _MASK) ^ _SEED_KEY)
    h = _splitmix64(h ^ (int(replica) & _MASK))
    counters = np.arange(start, start + count, dtype=np.uint64)
    h = _splitmix64(counters ^ h)
    return (h >> 11).astype(np.float64) * _INV_2_53


def percolation_clusters(coords, strides, probs, M, n_sites, n_offsets,
                         seed, replicas, targets):
    """Grow the origin's cluster lazily for each replica.

    coords: (n_offsets, d) bond offsets, one representative per unordered
    bond direction; strides: torus flattening strides; probs: occupation
    probability per offset.  Bond randomness is keyed by
    (seed, replica, base_site * n_offsets + offset index) where base_site is
    the endpoint the offset points away from, so the decision is the same no
    matter which side reveals the bond first.

    Returns (sizes, hits): cluster size per replica and, per replica, a 0/1
    row recording which target sites joined the origin's cluster.
    """
    d = coords.shape[1]
    sizes = np.zeros(replicas, dtype=np.int64)
    hits = np.zeros((replicas, len(targets)), dtype=np.int64)
    parent = np.empty(n_sites, dtype=np.int64)
    in_cluster = np.zeros(n_sites, dtype=np.uint8)
    stack = np.empty(n_sites, dtype=np.int64)
    site_vec = np.empty(d, dtype=np.int64)
    for rep in range(replicas):
        for i in range(n_sites):
            parent[i] = -1
            in_cluster[i] = 0
        stack[0] = 0
        top = 1
        in_cluster[0] = 1
        size = 1
        while top > 0:
            top -= 1
            site = stack[top]
            for a in range(d):
                site_vec[a] = (site // strides[a]) % M
            for j in range(n_offsets):
                # forward neighbor: bond owned by this site
                nb = 0
                for a in range(d):
                    nb += ((site_vec[a] + coords[j, a]) % M) * strides[a]
                if in_cluster[nb] == 0:
                    bond_id = site * n_offsets + j
                    if counter_uniform(seed, rep, bond_id) < probs[j]:
                        in_cluster[nb] = 1
                        stack[top] = nb
                        top += 1
                        size += 1
                # backward neighbor: bond owned by that neighbor
                nb2 = 0
                for a in range(d):
                    nb2 += ((site_vec[a] - coords[j, a]) % M) * strides[a]
                if in_cluster[nb2] == 0:
                    bond_id2 = nb2 * n_offsets + j
                    if counter_uniform(seed, rep, bond_id2) < probs[j]:
                        in_cluster[nb2] = 1
                        stack[top] = nb2
                        top += 1
                        size += 1
        sizes[rep] = size
        for t in range(len(targets)):
            hits[rep, t] = in_cluster[targets[t]]
    return sizes, hits


def metropolis_run(neighbor_idx, neighbor_j, n_sites, z, h, seed, replica,
                   sweeps, burn_in, thinning, corr_targets):
    """Single-spin-flip dynamics on a fixed coupling graph.

    Flips are accepted with the heat-bath probability 1/(1 + exp(delta)).
    The textbook min(1, exp(-delta)) rule accepts downhill moves surely,
    which under a deterministic sequential scan makes the Ising chain
    non-ergodic (alternating configurations blink in a 2-cycle); the
    heat-bath rule keeps every acceptance strictly inside (0, 1) and has
    the same stationary measure.

    neighbor_idx[i, :] / neighbor_j[i, :] list each site's neighbors and
    coupling strengths, up to the first negative index.  The start is hot:
    spin i is up when counter i draws below 1/2.  Sweeps then visit the
    sites in order, site i of sweep k drawing counter n_sites * (k + 1) + i.
    Records, per kept sweep, the mean spin and, for each target t,
    phi_i * phi_{corr_targets[i, t]} averaged over the rows i of
    corr_targets (row i pairs site i with its partner for each t).

    Returns (mag_series, corr_series) with one row per kept sample.
    """
    z, h = float(z), float(h)
    neighbors = [list(itertools.takewhile(lambda pair: pair[0] >= 0,
                                          zip(idx, js)))
                 for idx, js in zip(neighbor_idx.tolist(),
                                    neighbor_j.tolist())]
    spins = np.where(counter_uniforms(seed, replica, 0, n_sites) < 0.5,
                     1, -1).tolist()
    kept = (sweeps - burn_in + thinning - 1) // thinning
    configs = np.empty((kept, n_sites), dtype=np.int8)
    # 1 + exp(delta) per distinct delta, from np.exp: math.exp may round
    # differently, and the acceptance test must keep its bits
    threshold = {}
    per_block = max(1, DRAW_BLOCK // n_sites)
    out = 0
    for first in range(0, sweeps, per_block):
        last = min(first + per_block, sweeps)
        draws = counter_uniforms(seed, replica, n_sites * (first + 1),
                                 n_sites * (last - first)).tolist()
        for sweep in range(first, last):
            at = (sweep - first) * n_sites
            for i, (pairs, u) in enumerate(
                    zip(neighbors, draws[at:at + n_sites])):
                local = 0.0
                for nb, coupling in pairs:
                    local += coupling * spins[nb]
                s = spins[i]
                delta = 2.0 * s * (z * local + h)
                if delta < 40.0:
                    t = threshold.get(delta)
                    if t is None:
                        t = threshold[delta] = 1.0 + float(np.exp(delta))
                    if u * t < 1.0:
                        spins[i] = -s
            if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
                configs[out] = spins
                out += 1
    return _measure(configs, corr_targets)


def _measure(configs, corr_targets):
    """Mean spin and target correlations of each kept configuration.

    Sums of +-1 values and products are integers, so each is exact and the
    single division by the count rounds as an accumulated float sum would.
    """
    n_rows, n_targets = corr_targets.shape
    mag = configs.sum(axis=1, dtype=np.int64) / configs.shape[1]
    corr = np.empty((len(configs), n_targets))
    anchors = configs[:, :n_rows]
    for t in range(n_targets):
        # phi_i phi_j = 1 - 2 [phi_i != phi_j]
        unequal = np.count_nonzero(anchors != configs[:, corr_targets[:, t]],
                                   axis=1)
        corr[:, t] = n_rows - 2 * unequal
    return mag, corr / n_rows
