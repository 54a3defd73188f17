"""Exact self-avoiding-walk enumeration and lace-coefficient extraction.

Walks are enumerated over the (possibly truncated) support of the step
distribution; each length-n walk contributes the product of its step
weights to c_n(x).  Sites are flat integers, axis 0 most significant: x is
sum_a x_a B^(d-1-a) with base B = 2 n_max r + 1, where r is the largest
|component| of a kept step, so every step is one int delta.  The digits
are balanced, |x_a| < B/2, so flat keys sort as their x-tuples do.

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

A series is kept once, as the search makes it and the recursion reads it:
levels[n] is the array of c_n's flat keys and the array of its values.
The x-tuple dicts, WalkSeries.c and LaceCoefficients.pi, are views built
the first time something reads them; the CLI reads neither.

In rational mode (nn/uniform families) every kept step weighs the same
w = 1/|Omega|, so c_n(x) = N_n(x) w^n and the values are the exact int
counts N_n(x).  The search then starts from one first step s0 per orbit
of the 2^d d! signed axis permutations, which map every rational step set
(nn, the uniform cube, either cut by a Euclidean radius) onto itself, and
folds each orbit back on arrays, N_n(g_s x) += N_n^{(s0)}(x) with
g_s(s0) = s for every s in the orbit: nn makes 1/(2d) of the walks.  The
levels come out sorted by key.  Double mode (which the power family needs)
carries the float product of the step weights from every first step in
one search with the trivial group, so its keys come in the order a
depth-first search would first reach them and its sums are that search's
sums, bit for bit.

Lace extraction convolves with the walks' own step set, the kept steps
and weights stored on the WalkSeries, so a series enumerated under a
support_radius is expanded with the same truncated D.  The recursion runs
on the levels' flat int keys, where the key of x + y is the sum of the
keys (no term leaves |x_a| <= n_max r < B/2).  Exactness matters there:
the recursion is a telescoping difference of nearly equal quantities.  In
rational mode it runs on the int counts N_n and unit steps, and keeps
P_m = pi_m |Omega|^m; pi_m itself is scaled only when read.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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
    # levels[n] = (flat keys, values) of c_n: the int counts
    # N_n(x) = c_n(x) |Omega|^n in rational mode, sorted by key; the float
    # c_n(x) in double mode, keys in the order first reached
    levels: list
    mode: str        # "rational" | "double"
    weight_loss: float = 0.0  # support truncation loss per step
    # the kept steps and their weights, as the enumeration used them
    steps: list = field(kw_only=True)
    weights: list = field(kw_only=True)
    # walks of length >= 1 the search represents (the walks a search over
    # every first step makes), and the walks it made, each a shorter walk
    # extended by one step
    walks: int = field(default=0, kw_only=True)
    visited: int = field(default=0, kw_only=True)

    @cached_property
    def c(self) -> list:
        """c[n] maps x-tuples to c_n(x), Fractions in rational mode, in the
        levels' key order; built the first time it is read."""
        return [self._view(keys, vals.tolist(), n)
                for n, (keys, vals) in enumerate(self.levels)]

    def _view(self, keys, vals: list, n: int) -> dict:
        """{x-tuple: value} for flat keys and values of order n, scaled in
        rational mode by w^n, w = 1/|Omega|."""
        if self.mode == "rational":
            wn = Fraction(1, self.dist.support_size ** n)
            vals = [v * wn for v in vals]
        return _tuple_dict(keys, vals, _site_base(self.steps, self.n_max),
                           self.dist.d)

    def _scale(self, total, n: int):
        """A sum of values of order n on the c scale: in rational mode one
        exact division, total / |Omega|^n."""
        if self.mode == "rational":
            return Fraction(total, self.dist.support_size ** n)
        return total

    def mass(self, n: int):
        """sum_x c_n(x), the values added in stored order."""
        return self._scale(sum(self.levels[n][1].tolist()), n)

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
        weights = [Fraction(1, dist.support_size)] * len(steps)
    else:
        weights = [float(p) for p in probs]
    return steps, weights, total - float(np.sum(probs))


def _site_base(steps: list, n_max: int) -> int:
    """B = 2 n_max r + 1, r the largest |component| of a kept step: every
    site within n_max steps of the origin has |x_a| < B/2."""
    return 2 * n_max * max((abs(v) for s in steps for v in s), default=0) + 1


def _flatten(x: np.ndarray, base: int) -> np.ndarray:
    """The flat sites sum_a x_a base^(d-1-a) of the rows x of a (K, d) int
    array, in the smallest signed int type that holds +-base^d (Python ints,
    object, beyond int64), so sums of two sites cannot wrap.  With
    |x_a| < base/2 they sort as the rows do lexicographically."""
    d = x.shape[1]
    dtype = np.min_scalar_type(-base ** d)
    return x.astype(dtype) @ np.array([base ** (d - 1 - a) for a in range(d)],
                                      dtype=dtype)


def _unflatten(f, base: int, d: int) -> np.ndarray:
    """The (K, d) int64 rows x of the flat sites f, |x_a| < base/2; f is
    read in _flatten's type, so no list of them turns unsigned."""
    f = np.asarray(f, dtype=np.min_scalar_type(-base ** d))
    half = base // 2
    x = np.empty((len(f), d), dtype=np.int64)
    for a in reversed(range(d)):
        x[:, a] = (f + half) % base - half
        f = (f - x[:, a]) // base
    return x


def _tuple_dict(keys, vals: list, base: int, d: int) -> dict:
    """{x-tuple: value} for flat keys and their values, in the keys' order."""
    x = _unflatten(keys, base, d)
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


def _first_step_orbits(steps: list) -> list:
    """The kept steps' orbits under G, the 2^d d! signed axis permutations,
    as [(i0, [g, ...]), ...] in steps order: each orbit's representative
    steps[i0], its first step, and for every step s of the orbit one
    g = (perm, signs) in G with g(steps[i0]) = s, where
    g(x)_a = signs[a] x[perm[a]].

    An orbit is the set of steps with the same sorted |components|.  A step
    set that holds part of one is not invariant under G and is refused.
    """
    classes = {}
    for i, s in enumerate(steps):
        classes.setdefault(tuple(sorted(map(abs, s))), []).append(i)
    orbits = []
    for mags, members in classes.items():
        size = (math.factorial(len(mags)) * 2 ** sum(map(bool, mags))
                // math.prod(map(math.factorial, Counter(mags).values())))
        if len(members) != size:
            raise ValueError("the kept steps are not invariant under the "
                             "signed axis permutations")
        s0 = steps[members[0]]
        axes0 = sorted(range(len(s0)), key=lambda a: abs(s0[a]))
        images = []
        for s in (steps[i] for i in members):
            # axes of equal rank in |component| are matched
            perm = [0] * len(s)
            for a0, a in zip(axes0, sorted(range(len(s)),
                                           key=lambda a: abs(s[a]))):
                perm[a] = a0
            images.append((tuple(perm), tuple(-1 if v * s0[p] < 0 else 1
                                              for v, p in zip(s, perm))))
        orbits.append((members[0], images))
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
                    mode: str = "rational") -> WalkSeries:
    """Exact c_n(x) for n <= n_max by a level-synchronous self-avoiding
    search.

    DEFAULT_NODE_BUDGET caps the walks of length >= 1 the search makes or,
    in rational mode, represents: a walk made under a first step whose
    orbit holds k steps counts k times.  An n_max whose walks provably
    exceed it is refused before the search.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if mode not in ("rational", "double"):
        raise ValueError("mode must be 'rational' or 'double'")
    if mode == "rational" and dist.family == "power":
        raise ValueError("rational mode needs rational step weights")
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
    # orbit into fresh sums, folded into `counts`;
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
    levels = []
    for cn in counts:  # the search's own sums in double mode
        order = np.argsort(cn.keys) if rational else slice(None)
        levels.append((cn.keys[order], cn.vals[order]))
    return WalkSeries(dist=dist, n_max=n_max, levels=levels, mode=mode,
                      weight_loss=loss, steps=steps, weights=weights,
                      walks=walks, visited=visited)


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
    series: WalkSeries = field(repr=False)
    # m -> P_m, the recursion's own unknowns on flat keys: pi_m |Omega|^m
    # as ints in rational mode, pi_m itself in double mode
    kernels: dict = field(repr=False)

    @cached_property
    def pi(self) -> dict:
        """m -> pi_m as a dict of x-tuples, in P_m's key order; built the
        first time it is read."""
        return {m: self.series._view(list(p), list(p.values()), m)
                for m, p in self.kernels.items()}

    def mass(self, m: int):
        """sum_x pi_m(x), P_m's values added in stored order."""
        return self.series._scale(sum(self.kernels[m].values()), m)


def _recursion_terms(series: WalkSeries, upto: int):
    """(a_0..a_upto, step kernel): what the recursion runs on, dicts on the
    levels' flat keys.  Rational mode: the int counts N_n with a unit
    kernel on the kept steps.  Double mode: c_n with the kept weights."""
    base = _site_base(series.steps, series.n_max)
    deltas = _flatten(np.array(series.steps, dtype=np.int64).reshape(
        -1, series.dist.d), base).tolist()
    weights = ([1] * len(deltas) if series.mode == "rational"
               else series.weights)
    a = [dict(zip(keys.tolist(), vals.tolist()))
         for keys, vals in series.levels[:upto + 1]]
    return a, dict(zip(deltas, weights))


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
    a, step = _recursion_terms(series, series.n_max)
    kernels = {}
    for n in range(1, series.n_max):
        kernels[n + 1] = _add_recursion(a, step, kernels, n, dict(a[n + 1]),
                                        -1)
    return LaceCoefficients(series, kernels)


def reconstruct_c(series: WalkSeries, lace: LaceCoefficients, n: int) -> dict:
    """c_{n+1} rebuilt from the recursion; must equal the enumerated value."""
    a, step = _recursion_terms(series, n)
    p = _add_recursion(a, step, lace.kernels, n, {}, 1)
    return series._view(list(p), list(p.values()), n + 1)


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
    """G_z(x) = sum_n c_n(x) z^n from the truncated series, on x-tuples in
    the order the levels first hold them.  A rational c_n(x) is the one
    int division N_n(x) / |Omega|^n, which rounds as float(c_n(x)) does."""
    out = {}
    rational = series.mode == "rational"
    for n, ((keys, vals), w) in enumerate(zip(series.levels,
                                             _powers(z, series.n_max))):
        q = series.dist.support_size ** n if rational else 1
        for k, v in zip(keys.tolist(), vals.tolist()):
            out[k] = out.get(k, 0.0) + v / q * w
    return _tuple_dict(list(out), out.values(),
                       _site_base(series.steps, series.n_max), series.dist.d)


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
