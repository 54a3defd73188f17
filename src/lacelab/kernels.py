"""Hot loops shared by the samplers.

Every kernel here is written as a plain-Python loop over numpy arrays and is
compiled with numba when available.  Setting the environment variable
LACELAB_NO_NUMBA=1 (or running without numba installed) selects the
interpreted path; results are bit-identical either way because all randomness
comes from counter-based integer hashing.
"""

import os

import numpy as np

USE_NUMBA = os.environ.get("LACELAB_NO_NUMBA", "0") != "1"
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

if not USE_NUMBA:
    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]):
            return args[0]
        return lambda f: f

_MASK = (1 << 64) - 1
_INV_2_53 = 1.0 / float(1 << 53)


# The splitmix64 counter hash needs genuine 64-bit wraparound.  Under numba
# that is native uint64 arithmetic; the interpreted path uses Python ints
# masked to 64 bits (numpy scalar uint64 would warn on every overflow).
# Both produce identical bits for identical keys.
if USE_NUMBA:
    @njit(cache=True)
    def _splitmix64(x):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    @njit(cache=True)
    def counter_uniform(seed, replica, counter):
        """Uniform in [0,1) keyed by (seed, replica, counter)."""
        h = _splitmix64(np.uint64(seed) ^ np.uint64(0xA0761D6478BD642F))
        h = _splitmix64(h ^ np.uint64(replica))
        h = _splitmix64(h ^ np.uint64(counter))
        return float(h >> np.uint64(11)) * _INV_2_53
else:
    def _splitmix64(x):
        z = (x + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def counter_uniform(seed, replica, counter):
        """Uniform in [0,1) keyed by (seed, replica, counter)."""
        # int() accepts numpy integers, which cannot be masked directly
        h = _splitmix64((int(seed) & _MASK) ^ 0xA0761D6478BD642F)
        h = _splitmix64(h ^ (int(replica) & _MASK))
        h = _splitmix64(h ^ (int(counter) & _MASK))
        return (h >> 11) * _INV_2_53


@njit(cache=True)
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


@njit(cache=True)
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
    coupling strengths.  Records, per kept sweep, the translation-free
    observables sum_i phi_i and phi_0 * phi_t for each target t, plus
    phi_i * phi_{corr pairs} accumulated over all base sites via the caller's
    target layout (corr_targets maps (site, t) -> partner site index).

    Returns (mag_series, corr_series) with one row per kept sample.
    """
    n_targets = corr_targets.shape[1]
    kept = (sweeps - burn_in + thinning - 1) // thinning
    mag = np.zeros(kept, dtype=np.float64)
    corr = np.zeros((kept, n_targets), dtype=np.float64)
    spins = np.empty(n_sites, dtype=np.int8)
    for i in range(n_sites):
        # deterministic hot start pattern, then burn in
        spins[i] = 1 if counter_uniform(seed, replica, i) < 0.5 else -1
    counter = n_sites
    out = 0
    for sweep in range(sweeps):
        for i in range(n_sites):
            local = 0.0
            for m in range(neighbor_idx.shape[1]):
                nb = neighbor_idx[i, m]
                if nb < 0:
                    break
                local += neighbor_j[i, m] * spins[nb]
            delta = 2.0 * spins[i] * (z * local + h)
            u = counter_uniform(seed, replica, counter)
            counter += 1
            if delta < 40.0 and u * (1.0 + np.exp(delta)) < 1.0:
                spins[i] = -spins[i]
        if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
            s = 0.0
            for i in range(n_sites):
                s += spins[i]
            mag[out] = s / n_sites
            for t in range(n_targets):
                acc = 0.0
                for i in range(n_sites):
                    acc += spins[i] * spins[corr_targets[i, t]]
                corr[out, t] = acc / n_sites
            out += 1
    return mag, corr
