"""Exact self-avoiding-walk enumeration and lace-coefficient extraction.

Walks are enumerated over the (possibly truncated) support of the step
distribution; each length-n walk contributes the product of its step
weights to c_n(x).  Sites are flat integers: x is sum_a x_a B^a with base
B = 2 n_max r + 1, where r is the largest |component| of a kept step, so
every step is one int delta.

The search is level-synchronous on numpy arrays.  The walks of length n
are the rows of a (W, n + 1) int array of their flat sites, in
lexicographic order of their steps.  One numpy step extends up to
WALK_BLOCK rows by every kept step at once and keeps, in the same order,
the new rows whose last site no earlier column holds.  Blocks are
extended depth first, so every level is still made in global
lexicographic order while only one block per level is alive; the last
level is only counted.  A level's sums over the walks' ends keep their
keys in the order the search first reaches them and add the weights in
search order.  Before searching, a budget that the walks along strictly
increasing coordinate sums alone exceed is refused.

In rational mode (nn/uniform families) every kept step weighs the same
w = 1/|Omega|, so c_n(x) = N_n(x) w^n with N_n(x) an exact int count.  The
search then starts from one first step s0 per orbit of G, the signed axis
permutations that map the kept steps onto themselves, and folds each
orbit back on arrays, N_n(g_s x) += N_n^{(s0)}(x) with g_s(s0) = s for
every s in the orbit: nn makes 1/(2d) of the walks.  c_n's keys come out
sorted.  Double mode (which the power family needs) carries the float
product of the step weights from every first step in one search with the
trivial group, so its keys come in the order a depth-first search would
first reach them and its sums are that search's sums, bit for bit.

Lace extraction convolves with the walks' own step set, the kept steps
and weights stored on the WalkSeries, so a series enumerated under a
support_radius is expanded with the same truncated D.  The recursion runs
on the same flat int keys, where the key of x + y is the sum of the keys
(no term leaves |x_a| <= n_max r < B/2), and turns them into x-tuples
once at the end.  Exactness matters there: the recursion is a telescoping
difference of nearly equal quantities.  In rational mode it runs on the
int counts N_n and unit steps, and pi_m = P_m w^m comes out only at the
end.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .steps import StepDistribution
from .torus import within_range

MAX_BRANCHING = 50
DEFAULT_NODE_BUDGET = 50_000_000
# walks extended per numpy step: the search holds at most one block's
# children per level
WALK_BLOCK = 1 << 12


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class WalkSeries:
    dist: StepDistribution
    n_max: int
    c: list          # c[n] is a dict mapping x-tuples to weights
    mode: str        # "rational" | "double"
    weight_loss: float = 0.0  # support truncation loss per step
    # the kept steps and their weights, as the enumeration used them
    steps: list = field(kw_only=True)
    weights: list = field(kw_only=True)
    # rational mode: counts[n] maps x-tuples to the int N_n(x) = c_n(x)
    # |Omega|^n, keyed like c[n]; None in double mode
    counts: list | None = field(default=None, kw_only=True)
    # walks of length >= 1 the search represents (the walks a search over
    # every first step makes), and the walks it made, each a shorter walk
    # extended by one step
    walks: int = field(default=0, kw_only=True)
    visited: int = field(default=0, kw_only=True)

    def mass(self, n: int):
        """sum_x c_n(x): in rational mode one exact division of the summed
        int counts, sum_x N_n(x) / |Omega|^n."""
        counts = self.counts[n] if self.counts else None
        if counts:
            return Fraction(sum(counts.values()), self.dist.support_size ** n)
        return sum(self.c[n].values())

    def masses(self):
        return [self.mass(n) for n in range(self.n_max + 1)]


def _branching_guard(n_steps: int):
    if n_steps > MAX_BRANCHING:
        raise ValueError("branching factor exceeds %d; pass a smaller "
                         "support_radius" % MAX_BRANCHING)


def _power_steps(dist: StepDistribution, support_radius) -> np.ndarray:
    """The power family's kept steps, decided slab by slab on the orthant
    sub-cube {0..floor(r)}^d by within_range's rule ||y||_2 <= r; the count
    is guarded as the slabs pass, and only the kept points are expanded to
    their sign images, in lexicographic order."""
    d, r, limit = dist.d, dist.support_radius, np.inf
    if support_radius is not None:
        within_range(np.zeros(d), support_radius)  # rejects R < 0 and NaN
        r, limit = int(min(r, support_radius)), support_radius
    kept, count = [], 0
    for x0, norms in dist.orthant_norm_slabs(r):
        keep = norms <= limit
        if x0[0] == 0:
            keep[(0,) * d] = False
        points = np.argwhere(keep)
        points[:, 0] += x0[0]
        count += len(points)
        _branching_guard(count)  # one image or more each
        kept.append(points)
    images = sorted(itertools.chain.from_iterable(
        itertools.product(*[(-v, v) if v else (0,) for v in y])
        for y in np.concatenate(kept).tolist()))
    return np.array(images, dtype=np.int64).reshape(-1, d)


def _support_for_enum(dist: StepDistribution, support_radius, mode):
    """Kept steps, their weights and the truncation loss: the support's
    mass (1 - tail_bound for the power family) less the kept mass.  nn and
    uniform filter their table by within_range."""
    if dist.family == "power":
        offs = _power_steps(dist, support_radius)
        probs, total = dist.probs_at(offs), 1.0 - dist.tail_bound
    else:
        offs, probs = dist.support()
        total = float(np.sum(probs))
        if support_radius is not None:
            keep = within_range(offs, support_radius)
            offs, probs = offs[keep], probs[keep]
    _branching_guard(len(offs))
    steps = [tuple(o) for o in offs.tolist()]
    if mode == "rational":
        weights = [dist.eval_d_exact(o) for o in offs]
    else:
        weights = [float(p) for p in probs]
    return steps, weights, total - float(np.sum(probs))


def _site_base(steps: list, n_max: int) -> int:
    """B = 2 n_max r + 1, r the largest |component| of a kept step: every
    site within n_max steps of the origin has |x_a| < B/2."""
    return 2 * n_max * max((abs(v) for s in steps for v in s), default=0) + 1


def _flatten(x: np.ndarray, base: int) -> np.ndarray:
    """The flat sites sum_a x_a base^a of the rows x of a (K, d) int array,
    in the smallest signed int type that holds +-base^d (Python ints,
    object, beyond int64), so sums of two sites cannot wrap."""
    d = x.shape[1]
    dtype = np.min_scalar_type(-base ** d)
    return x.astype(dtype) @ np.array([base ** a for a in range(d)],
                                      dtype=dtype)


def _unflatten(f: np.ndarray, base: int, d: int) -> np.ndarray:
    """The (K, d) int64 rows x of the flat sites f, |x_a| < base/2."""
    half = base // 2
    x = np.empty((len(f), d), dtype=np.int64)
    for a in range(d):
        x[:, a] = (f + half) % base - half
        f = (f - x[:, a]) // base
    return x


def _tuple_dict(keys: np.ndarray, vals: list, base: int, d: int,
                sort: bool = False) -> dict:
    """{x-tuple: value} for flat keys and their values, in the keys' order
    or, with sort, in x-tuple order."""
    x = _unflatten(keys, base, d)
    if sort:
        order = np.lexsort(x.T[::-1])
        x, vals = x[order], [vals[i] for i in order.tolist()]
    return dict(zip(map(tuple, x.tolist()), vals))


class _LevelSums:
    """Per flat end, the sum of the weights of a level's walks, keys in the
    order first reached and weights added in the order given; no weights
    counts the walks."""

    def __init__(self, key_dtype, val_dtype):
        self.keys = np.zeros(0, dtype=key_dtype)
        self.vals = np.zeros(0, dtype=val_dtype)
        self._index()

    def _index(self):
        self._order = np.argsort(self.keys, kind="stable")
        self._sorted = self.keys[self._order]

    def add(self, ends: np.ndarray, w: np.ndarray | None = None):
        if w is None:
            u, count = np.unique(ends, return_counts=True)
            first = np.arange(len(u))
        else:
            u, first, inv = np.unique(ends, return_index=True,
                                      return_inverse=True)
        at = np.searchsorted(self._sorted, u)
        old = at < len(self._sorted)
        old[old] = self._sorted[at[old]] == u[old]
        slot = np.empty(len(u), dtype=np.int64)
        slot[old] = self._order[at[old]]
        new = np.flatnonzero(~old)
        new = new[np.argsort(first[new])]
        if len(new):
            slot[new] = len(self.keys) + np.arange(len(new))
            self.keys = np.concatenate([self.keys, u[new]])
            self.vals = np.concatenate(
                [self.vals, np.zeros(len(new), dtype=self.vals.dtype)])
            self._index()
        if w is None:
            self.vals[slot] += count
        else:
            np.add.at(self.vals, slot[inv], w)


def _act(g: tuple, x: tuple) -> tuple:
    """g(x) for the signed axis permutation g = (perm, signs):
    g(x)_a = signs[a] x[perm[a]]."""
    perm, signs = g
    return tuple(sg * x[p] for p, sg in zip(perm, signs))


def _first_step_orbits(steps: list) -> list:
    """The kept steps' orbits under G, as [(i0, [g, ...]), ...]: each orbit's
    representative steps[i0] and, for every step s of the orbit, one g in G
    with g(steps[i0]) = s.

    G is generated by the axis reflections and axis swaps that map the kept
    steps onto themselves.  Every rational step set (nn, the uniform cube,
    either cut by a Euclidean radius) is invariant under all of them, so
    there G is the whole group of 2^d d! signed axis permutations.
    """
    if not steps:
        return []
    axes = tuple(range(len(steps[0])))
    ones = (1,) * len(axes)
    gens = [(axes, tuple(-1 if b == a else 1 for b in axes)) for a in axes]
    for a, b in itertools.combinations(axes, 2):
        perm = list(axes)
        perm[a], perm[b] = b, a
        gens.append((tuple(perm), ones))
    kept = set(steps)
    gens = [h for h in gens if all(_act(h, s) in kept for s in steps)]
    orbits, seen = [], set()
    for i0, s0 in enumerate(steps):
        if s0 in seen:
            continue
        member = {s0: (axes, ones)}  # s -> g with g(s0) = s
        queue = [s0]
        for s in queue:
            perm, signs = member[s]
            for h in gens:
                t = _act(h, s)
                if t not in member:
                    # h after g: x_a -> hsigns[a] signs[hperm[a]]
                    # x[perm[hperm[a]]]
                    hperm, hsigns = h
                    member[t] = (tuple(perm[p] for p in hperm),
                                 tuple(hs * signs[p]
                                       for p, hs in zip(hperm, hsigns)))
                    queue.append(t)
        seen.update(member)
        orbits.append((i0, list(member.values())))
    return orbits


def _walks_lower_bound(steps: list, n_max: int, cap: int) -> int:
    """sum_{n=1}^{n_max} k^n, k the kept steps with a positive coordinate
    sum, or a partial sum above cap: walks that take only those steps are
    self-avoiding, since the sum strictly increases along them, so this
    bounds the walks of length 1..n_max from below."""
    k = sum(1 for s in steps if sum(s) > 0)
    if k < 2:
        return k * n_max
    total, term = 0, 1
    for _ in range(n_max):
        term *= k
        total += term
        if total > cap:
            break
    return total


def enumerate_walks(dist: StepDistribution, n_max: int,
                    support_radius: float | None = None,
                    mode: str = "rational",
                    node_budget: int | None = None) -> WalkSeries:
    """Exact c_n(x) for n <= n_max by a level-synchronous self-avoiding
    search.

    node_budget (default DEFAULT_NODE_BUDGET) caps the walks of length >= 1
    the search makes or, in rational mode, represents: a walk made under a
    first step whose orbit holds k steps counts k times.  An n_max whose
    walks provably exceed it is refused before the search.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if mode not in ("rational", "double"):
        raise ValueError("mode must be 'rational' or 'double'")
    if mode == "rational" and dist.family == "power":
        raise ValueError("rational mode needs rational step weights")
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    steps, weights, loss = _support_for_enum(dist, support_radius, mode)
    if _walks_lower_bound(steps, n_max, node_budget) > node_budget:
        raise BudgetExceeded("n_max = %d needs more than the enumeration "
                             "budget of %d walks; use a smaller n_max"
                             % (n_max, node_budget))
    d = dist.d
    base = _site_base(steps, n_max)
    deltas = _flatten(np.array(steps, dtype=np.int64).reshape(-1, d), base)
    origin = np.zeros((1, 1), dtype=deltas.dtype)
    # rational mode counts walks (no weights) from one first step per
    # orbit into fresh sums, folded into `counts` and scaled at the end;
    # double mode keeps the trivial group and searches from every first
    # step at once, carrying the step products
    rational = mode == "rational"
    if rational:
        orbits = [(slice(i0, i0 + 1), images)
                  for i0, images in _first_step_orbits(steps)] if n_max else []
        step_w = one = None
    else:
        orbits = [(slice(None), [None])] if n_max and steps else []
        step_w, one = np.array(weights), np.ones(1)
    val_dtype = np.int64 if rational else np.float64
    counts = sums = [_LevelSums(deltas.dtype, val_dtype)
                     for _ in range(n_max + 1)]
    sums[0].add(origin[0], one)
    visited = walks = 0

    for moves, images in orbits:
        if rational:
            sums = [_LevelSums(deltas.dtype, val_dtype)
                    for _ in range(n_max + 1)]
        # each walk made under this orbit stands for its k images, so the
        # budget stays exact in walks
        k, before = len(images), visited
        limit = before + (node_budget - walks) // k
        # (walks of length n - 1 as rows, their weights, the steps to try,
        # the first row not yet extended), the deepest level last
        todo = [(origin, one, moves, 0)]
        while todo:
            paths, ws, moves, lo = todo.pop()
            if lo + WALK_BLOCK < len(paths):
                todo.append((paths, ws, moves, lo + WALK_BLOCK))
            block = paths[lo:lo + WALK_BLOCK]
            n = block.shape[1]
            ys = block[:, -1:] + deltas[moves]
            rows, cols = np.nonzero(
                ~(block[:, None, :] == ys[:, :, None]).any(axis=2))
            visited += len(rows)
            if visited > limit:
                raise BudgetExceeded("enumeration budget of %d walks "
                                     "exhausted; use a smaller n_max"
                                     % node_budget)
            ends = ys[rows, cols]
            wy = None if rational else ws[lo + rows] * step_w[moves][cols]
            sums[n].add(ends, wy)
            if n < n_max and len(rows):
                todo.append((np.concatenate([block[rows], ends[:, None]],
                                            axis=1), wy, slice(None), 0))
        walks += k * (visited - before)
        if rational:
            # fold back: N_n(g x) += N_n^{(s0)}(x) for each image g(s0)
            x = _unflatten(np.concatenate([s.keys for s in sums]), base, d)
            gx = [_flatten(x[:, list(perm)] * signs, base)
                  for perm, signs in images]
            at = 0
            for s, cn in zip(sums, counts):
                m = len(s.keys)
                cn.add(np.concatenate([g[at:at + m] for g in gx]),
                       np.tile(s.vals, k))
                at += m
    if rational:
        # every kept step weighs the same w = 1/|Omega|: c_n = N_n w^n
        counts = [_tuple_dict(cn.keys, cn.vals.tolist(), base, d, sort=True)
                  for cn in counts]
        w = Fraction(1, dist.support_size)
        c = []
        for n, cn in enumerate(counts):
            wn = w ** n
            c.append({x: v * wn for x, v in cn.items()})
    else:
        counts = None
        c = [_tuple_dict(s.keys, s.vals.tolist(), base, d) for s in sums]
    return WalkSeries(dist=dist, n_max=n_max, c=c, mode=mode,
                      weight_loss=loss, steps=steps, weights=weights,
                      counts=counts, walks=walks, visited=visited)


def _sparse_convolve(a: dict, b: dict):
    out = {}
    for xa, va in a.items():
        if va == 0:
            continue
        for xb, vb in b.items():
            key = xa + xb
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


@dataclass
class LaceCoefficients:
    pi: dict       # m -> dict of x-tuples
    # m -> P_m, the recursion's own unknowns on flat keys: pi_m |Omega|^m
    # as ints in rational mode, pi_m itself in double mode
    kernels: dict = field(repr=False)

    def mass(self, m: int):
        return sum(self.pi[m].values())


def _recursion_terms(series: WalkSeries, upto: int):
    """(a_0..a_upto, step kernel, out): what the recursion runs on, on flat
    keys, and out(P, m), which turns an unknown of order m back into x-tuple
    keys and scales it, pi_m = P_m w^m.  Rational mode: the int counts N_n
    with a unit kernel on the kept steps, and w = 1/|Omega|, the kept
    steps' common weight.  Double mode: c_n with the kept weights, and
    P_m = pi_m."""
    d, base = series.dist.d, _site_base(series.steps, series.n_max)

    def flat(p: dict) -> dict:
        x = np.array(list(p), dtype=np.int64).reshape(-1, d)
        return dict(zip(_flatten(x, base).tolist(), p.values()))

    def out(p: dict, m: int) -> dict:
        vals = list(p.values())
        if w is not None:
            wm = w ** m
            vals = [v * wm for v in vals]
        return _tuple_dict(np.array(list(p)), vals, base, d)

    if series.mode == "rational":
        a, step = series.counts, dict.fromkeys(series.steps, 1)
        w = Fraction(1, series.dist.support_size)
    else:
        a, step, w = series.c, dict(zip(series.steps, series.weights)), None
    return [flat(p) for p in a[:upto + 1]], flat(step), out


def _add_recursion(a: list, step: dict, kernels: dict, n: int, acc: dict,
                   sign: int) -> dict:
    """acc + sign [(step*a_n) + sum_m (P_m * a_{n+1-m})], over the m in
    kernels with 2 <= m <= n + 1, added term by term; zero entries are
    dropped."""
    terms = [(step, a[n])] + [(kernels[m], a[n + 1 - m])
                              for m in range(2, n + 2) if m in kernels]
    for u, v in terms:
        for k, x in _sparse_convolve(u, v).items():
            acc[k] = acc.get(k, 0) + sign * x
    return {k: v for k, v in acc.items() if v != 0}


def extract_lace(series: WalkSeries) -> LaceCoefficients:
    """Solve the step recursion for the correction kernels pi_m.

    pi_{n+1}(x) = c_{n+1}(x) - (D*c_n)(x) - sum_{m=2}^{n} (pi_m * c_{n+1-m})(x)

    In rational mode it runs on the counts N_n = c_n |Omega|^n, where it
    reads P_{n+1} = N_{n+1} - sum_{s kept} N_n(. - s) - sum_m P_m * N_{n+1-m}
    with P_m = pi_m |Omega|^m, all exact ints.
    """
    if series.n_max < 2:
        raise ValueError("need n_max >= 2")
    a, step, out = _recursion_terms(series, series.n_max)
    kernels = {}
    for n in range(1, series.n_max):
        kernels[n + 1] = _add_recursion(a, step, kernels, n, dict(a[n + 1]),
                                        -1)
    return LaceCoefficients(pi={m: out(p, m) for m, p in kernels.items()},
                            kernels=kernels)


def reconstruct_c(series: WalkSeries, lace: LaceCoefficients, n: int) -> dict:
    """c_{n+1} rebuilt from the recursion; must equal the enumerated value."""
    a, step, out = _recursion_terms(series, n)
    return out(_add_recursion(a, step, lace.kernels, n, {}, 1), n + 1)


def zc_estimate(series: WalkSeries) -> dict:
    """Ratio method on the masses S_n with Aitken extrapolation.

    Returns the last three ratio iterates alongside the extrapolated value
    rather than a single number; short series carry real uncertainty.
    """
    S = [float(m) for m in series.masses()]
    ratios = [S[n - 1] / S[n] for n in range(2, len(S)) if S[n] > 0]
    aitken = None
    if len(ratios) >= 3:
        r0, r1, r2 = ratios[-3], ratios[-2], ratios[-1]
        denom = r2 - 2 * r1 + r0
        if abs(denom) > 1e-300:
            aitken = r2 - (r2 - r1) ** 2 / denom
    return {"ratios": ratios[-3:], "aitken": aitken,
            "zc_est": aitken if aitken is not None else
            (ratios[-1] if ratios else None)}


def _powers(z, n_max: int) -> list:
    """[z^0, ..., z^n_max] for chi_series and two_point_series; a
    non-finite z and a float overflow become ValueErrors that name them."""
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    try:
        return [z ** n for n in range(n_max + 1)]
    except OverflowError:
        raise ValueError("z = %r overflows a float in z**%d"
                         % (z, n_max)) from None


def chi_series(series: WalkSeries, z: float) -> dict:
    """chi(z) as the truncated power series with a tail-ratio remainder."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    S = [float(m) for m in series.masses()]
    zn = _powers(z, series.n_max)
    partial = 0.0
    partials = []
    for n, s in enumerate(S):
        partial += s * zn[n]
        partials.append(partial)
    zc = zc_estimate(series)
    zc_val = zc["zc_est"]
    warning = None
    remainder = float("inf")
    if zc_val is not None and zc_val > 0:
        q = z / zc_val
        if q >= 1.0:
            warning = "z at or beyond the estimated radius of convergence"
        else:
            remainder = S[-1] * zn[-1] * q / (1.0 - q)
    return {"chi": partial, "partials": partials, "remainder": remainder,
            "zc": zc, "warning": warning}


def two_point_series(series: WalkSeries, z: float) -> dict:
    """G_z(x) = sum_n c_n(x) z^n from the truncated series."""
    out = {}
    for cn, w in zip(series.c, _powers(z, series.n_max)):
        for x, v in cn.items():
            out[x] = out.get(x, 0.0) + float(v) * w
    return out


def bubble_saw(series: WalkSeries, z: float) -> float:
    """B(z) = sum_x G_z(x)^2 from the truncated series."""
    g = two_point_series(series, z)
    return sum(v * v for v in g.values())


def check_diff_inequality(series: WalkSeries, z: float, zc_est: float,
                          B_est: float) -> dict:
    """Both sides of zc/(zc-z) <= chi(z) <= B(zc) (zc/(zc-z) + 1)."""
    if not 0 <= z < zc_est:
        raise ValueError("need 0 <= z < zc_est")
    cs = chi_series(series, z)
    chi = cs["chi"]
    lower = zc_est / (zc_est - z)
    upper = B_est * (lower + 1.0)
    rem = cs["remainder"]
    truncation_dominated = not np.isfinite(rem) or (
        rem > 0.1 * min(lower, upper))
    return {"z": z, "chi": chi, "lower": lower, "upper": upper,
            "lower_margin": chi - lower, "upper_margin": upper - chi,
            "remainder": rem, "truncation_dominated": truncation_dominated,
            "holds": (chi >= lower - rem) and (chi <= upper + rem)}
