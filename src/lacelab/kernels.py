"""Hot loops shared by the samplers, and the counter RNG they draw from.

All randomness is counter based (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11): the uniform for key (seed, replica, counter)
is SplitMix64 applied three times, so any draw can be made on its own and
in any order.  counter_uniform makes one draw from Python ints masked to
64 bits; counter_uniforms makes a run of consecutive counters at once from
numpy uint64 arrays, which wrap the same way.  Both go through the one
_splitmix64, so the two give the same bits for the same key.

percolation_clusters grows the origin's cluster by a depth-first search
over Python lists read from a bond table (perc.sampler_input) and draws
each bond it probes with one counter_uniform call; metropolis_run draws
its uniforms in blocks with counter_uniforms.
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


def percolation_clusters(neighbors, bond_ids, probs, seed, replicas, targets):
    """Grow the origin's cluster by depth-first search for each replica.

    Site s has a bond to neighbors[s, j] with id bond_ids[s, j], open with
    probability probs[j]; perc.sampler_input lists each bond from both of
    its ends under one id.  A bond is probed, with one counter_uniform draw
    keyed by (seed, replica, bond id), only when its far end is not yet in
    the cluster.  The key, not the order of the search, decides the bond,
    so any search order grows the same cluster.

    Returns (sizes, hits): cluster size per replica and, per replica, a 0/1
    row recording which target sites joined the origin's cluster.
    """
    rows = [list(zip(nbs, bonds, probs.tolist()))
            for nbs, bonds in zip(neighbors.tolist(), bond_ids.tolist())]
    targets = np.asarray(targets).tolist()
    sizes, hits = [], []
    for rep in range(replicas):
        in_cluster = bytearray(len(rows))
        in_cluster[0] = 1
        stack = [0]
        while stack:
            for nb, bond, p in rows[stack.pop()]:
                if not in_cluster[nb] and counter_uniform(seed, rep, bond) < p:
                    in_cluster[nb] = 1
                    stack.append(nb)
        sizes.append(in_cluster.count(1))
        hits.append([in_cluster[t] for t in targets])
    return np.array(sizes, dtype=np.int64), np.array(hits, dtype=np.int64)


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
