"""Hot loops shared by the samplers, and the counter RNG they draw from.

All randomness is counter based (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11): the uniform for key (seed, replica, counter)
is SplitMix64 applied three times, so any draw can be made on its own and
in any order.  counter_uniform is the one generator: from Python ints
masked to 64 bits it makes one draw, and from uint64 arrays, which wrap
the same way, it makes one draw per element with the same bits.  Each
array round of SplitMix64 makes one fresh array and updates it in place.

percolation_clusters grows the origin's cluster of many replicas at once,
one breadth-first level at a time over flat index arrays, with one
counter_uniform call per level for every bond the level probes.  The
replicas of a batch, CLUSTER_BLOCK sites in all (256 replicas of a 32x32
torus), share each level's fixed count of numpy calls.
metropolis_run keeps a chain's state in one Python int that packs, per
site, the site's spin and a copy of each neighbor's spin, so a visit reads
its site's field with one shift and mask and a flip is one xor.  The field
keys a per-site table of flip thresholds, so the local field is summed only
the first time a site meets a state.  Uniforms are drawn in blocks of
consecutive counters, and the kept states of a block are unpacked into
int8 rows at its end.
"""

import numpy as np

# No kernel is compiled; perfbench/run.py records this in its environment.
USE_NUMBA = False

_MASK = (1 << 64) - 1
_INV_2_53 = 1.0 / float(1 << 53)
_SEED_KEY = 0xA0761D6478BD642F
_C0 = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)

# Counters per counter_uniform call in metropolis_run: bounds the memory
# of the drawn uniforms whatever the chain length.
DRAW_BLOCK = 4096
# Sites per replica batch in percolation_clusters: bounds the memory of the
# cluster flags (one byte per site, 256 KiB per batch) and of a level's
# probes whatever the replica count.  Each level costs about 40 numpy calls
# whatever its size, so a larger batch runs fewer levels.
CLUSTER_BLOCK = 1 << 18


def _splitmix64(x):
    """SplitMix64 output for state x: a Python int or a uint64 array.

    An array is not modified: the first add makes the one fresh array that
    the rest of the round updates in place, and uint64 arithmetic wraps as
    the int path's mask does.
    """
    if isinstance(x, np.ndarray):
        z = x + _C0
        z ^= z >> 30
        z *= _C1
        z ^= z >> 27
        z *= _C2
        z ^= z >> 31
        return z
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _key(x):
    """x as key material: an int masked to 64 bits, or a uint64 array."""
    if isinstance(x, np.ndarray) and x.ndim:
        return x.astype(np.uint64, copy=False)
    # int() accepts numpy integers and 0-d arrays, which cannot be masked
    # directly: in uint64 scalar arithmetic _splitmix64's add would warn
    return int(x) & _MASK


def counter_uniform(seed, replica, counter):
    """Uniform in [0,1) keyed by (seed, replica, counter).

    replica and counter are each an int or a uint64 array.  With an array
    the result is a float64 array, one draw per element of replica and
    counter broadcast together, bit for bit the draw of that element's key.
    """
    h = _splitmix64((int(seed) & _MASK) ^ _SEED_KEY)
    h = _splitmix64(h ^ _key(replica))
    h = _splitmix64(h ^ _key(counter))
    if isinstance(h, np.ndarray):
        return (h >> 11).astype(np.float64) * _INV_2_53
    return (h >> 11) * _INV_2_53


def percolation_clusters(neighbors, bond_ids, probs, seed, replicas):
    """Grow the origin's cluster for each replica, one level at a time.

    Site s has a bond to neighbors[s, j] with id bond_ids[s, j], open with
    probability probs[j]; perc.sampler_input lists each bond from both of
    its ends under one id.  A bond is probed, with the draw keyed by
    (seed, replica, bond id), only when its far end is not yet in the
    cluster.  The key, not the order of the search, decides the bond,
    so any search order grows the same cluster.

    Replicas run in batches of CLUSTER_BLOCK // n_sites, whose clusters
    live in one flat flag array: replica r's site s is entry
    r * n_sites + s.  Each level gathers the frontier's bonds, probes all
    of them with one counter_uniform call, and makes the far ends of the
    open ones, each counted once, the next frontier.

    Returns sizes, the cluster size per replica.
    """
    n_sites = len(neighbors)
    bond_ids = bond_ids.astype(np.uint64)
    sizes = np.ones(replicas, dtype=np.int64)
    per_batch = max(1, CLUSTER_BLOCK // n_sites)
    for first in range(0, replicas, per_batch):
        count = min(per_batch, replicas - first)
        in_cluster = np.zeros(count * n_sites, dtype=bool)
        frontier = np.arange(count) * n_sites
        in_cluster[frontier] = True
        while frontier.size:
            rep, site = np.divmod(frontier, n_sites)
            far = neighbors[site] + (frontier - site)[:, None]
            row, col = np.nonzero(~in_cluster[far])
            u = counter_uniform(seed, (rep[row] + first).astype(np.uint64),
                                bond_ids[site[row], col])
            new = np.sort(far[row, col][u < probs[col]])
            if new.size > 1:
                new = new[np.concatenate(([True], new[1:] != new[:-1]))]
            in_cluster[new] = True
            sizes[first:first + count] += np.bincount(new // n_sites,
                                                      minlength=count)
            frontier = new
    return sizes


def metropolis_run(neighbor_idx, neighbor_j, n_sites, z, h, seed, replica,
                   sweeps, burn_in, thinning, corr_targets):
    """Single-spin-flip dynamics on a fixed coupling graph.

    Flips are accepted with the heat-bath probability 1/(1 + exp(delta)).
    The textbook min(1, exp(-delta)) rule accepts downhill moves surely,
    which under a deterministic sequential scan makes the Ising chain
    non-ergodic (alternating configurations blink in a 2-cycle); the
    heat-bath rule keeps every acceptance strictly inside (0, 1) and has
    the same stationary measure.

    neighbor_idx[i] and neighbor_j[i] list site i's neighbors and their
    coupling strengths, one entry per neighbor.  The start is hot:
    spin i is up when counter i draws below 1/2.  Sweeps then visit the
    sites in order, site i of sweep k drawing counter n_sites * (k + 1) + i.
    Records, per kept sweep, the mean spin and, for each target t,
    phi_i * phi_{corr_targets[i, t]} averaged over the rows i of
    corr_targets (row i pairs site i with its partner for each t).

    The chain's state is one Python int.  Site i owns the field of width
    w = 1 + (largest row length) at bit w * i: its bit 0 is set when spin
    i is down and its bit k + 1 when the k-th entry of neighbor_idx[i] is
    down, so a neighbor listed twice owns two bits.  flips[j] sets every
    bit that spin j's sign is copied into, its own bit 0 among them, so a
    flip is state ^= flips[j]; a rejected visit changes nothing.  A visit
    reads site i's code as state >> (w * i) & mask, tables[i] maps the code
    to its threshold t, and site i flips when u * t < 1.  The first time
    site i meets a code, its local field is summed in neighbor order from
    the spins the code's bits hold, and t = 1 + exp(delta) comes from
    np.exp, shared across sites by delta (math.exp may round differently,
    and the test must keep its bits).  When delta >= 40, t is inf, which no
    u in [0, 1) accepts (0 * inf is nan).  Each visit thus tests the same
    float as the draw-by-draw loop.  Kept sweeps append the state, and each
    draw block's states are unpacked into their int8 rows at the block's
    end, so the memory held beyond the rows is one block's.

    Returns (mag_series, corr_series) with one row per kept sample.
    """
    configs = _heat_bath_rows(neighbor_idx, neighbor_j, n_sites, float(z),
                              float(h), seed, replica, sweeps, burn_in,
                              thinning)
    return _measure(configs, corr_targets)


def _heat_bath_rows(neighbor_idx, neighbor_j, n_sites, z, h, seed, replica,
                    sweeps, burn_in, thinning):
    """The int8 spin rows of metropolis_run's kept sweeps.

    Its chain state and tables are freed before the rows are measured.
    """
    width = 1 + max(map(len, neighbor_idx), default=0)
    mask = (1 << width) - 1
    offsets = range(0, width * n_sites, width)
    flips = [1 << off for off in offsets]
    for off, row in zip(offsets, neighbor_idx):
        for k, nb in enumerate(row):
            flips[nb] |= 1 << (off + k + 1)
    # from all spins up, flip each spin whose counter draws 1/2 or more
    hot = counter_uniform(seed, replica, np.arange(n_sites, dtype=np.uint64))
    state = 0
    for flip, u in zip(flips, hot.tolist()):
        if u >= 0.5:
            state ^= flip
    kept = (sweeps - burn_in + thinning - 1) // thinning
    configs = np.empty((kept, n_sites), dtype=np.int8)
    tables = [{} for _ in range(n_sites)]
    threshold = {}
    per_block = max(1, DRAW_BLOCK // n_sites)
    visits = list(zip(offsets, flips, neighbor_j, tables))
    states, out = [], 0
    for first in range(0, sweeps, per_block):
        last = min(first + per_block, sweeps)
        counters = np.arange(n_sites * (first + 1), n_sites * (last + 1),
                             dtype=np.uint64)
        draws = iter(counter_uniform(seed, replica, counters).tolist())
        for sweep in range(first, last):
            # zip ends on visits, before it takes a draw of the next sweep
            for (off, flip, couplings, table), u in zip(visits, draws):
                code = state >> off & mask
                try:
                    t = table[code]
                except KeyError:
                    local = 0.0
                    for k, coupling in enumerate(couplings):
                        local += coupling * (-1 if code >> (k + 1) & 1 else 1)
                    delta = 2.0 * (-1 if code & 1 else 1) * (z * local + h)
                    if delta not in threshold:
                        threshold[delta] = (1.0 + float(np.exp(delta))
                                            if delta < 40.0 else np.inf)
                    t = table[code] = threshold[delta]
                if u * t < 1.0:
                    state ^= flip
            if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
                states.append(state)
        configs[out:out + len(states)] = _unpack_spins(states, width, n_sites)
        out += len(states)
        states.clear()
    return configs


def _unpack_spins(states, width, n_sites):
    """The int8 spin rows of packed states: spin i is down when bit
    width * i is set."""
    n_bytes = (width * n_sites + 7) // 8
    packed = np.frombuffer(
        b"".join(s.to_bytes(n_bytes, "little") for s in states),
        dtype=np.uint8).reshape(len(states), n_bytes)
    down = np.unpackbits(packed, axis=1, bitorder="little")
    return 1 - 2 * down[:, :width * n_sites:width].astype(np.int8)


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
