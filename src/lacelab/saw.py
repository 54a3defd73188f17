"""Exact self-avoiding-walk enumeration and lace-coefficient extraction.

Walks are enumerated depth-first over the (possibly truncated) support of
the step distribution; each length-n walk contributes the product of its
step weights to c_n(x).  The search runs on flat integer coordinates: a
site x is the int sum_a x_a B^a with base B = 2 n_max r + 1, where r is
the largest |component| of a kept step, so every step is one int delta
and the self-avoidance set holds ints.

In rational mode (nn/uniform families) every kept step weighs the same
1/|Omega|, so c_n(x) = N_n(x) / |Omega|^n with N_n(x) an exact int count;
the counts become Fractions only once, at the end.  Exactness matters for
the coefficient extraction: it is a telescoping difference of nearly equal
quantities.  Double mode (power family) carries the float product of the
step weights along the same search.

Lace extraction convolves with the walks' own step set, the kept steps
and weights stored on the WalkSeries, so a series enumerated under a
support_radius is expanded with the same truncated D.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .steps import StepDistribution
from .torus import within_range

MAX_BRANCHING = 50
DEFAULT_NODE_BUDGET = 50_000_000


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

    def mass(self, n: int):
        """sum_x c_n(x)."""
        return sum(self.c[n].values())

    def masses(self):
        return [self.mass(n) for n in range(self.n_max + 1)]


def _branching_guard(n_steps: int):
    if n_steps > MAX_BRANCHING:
        raise ValueError("branching factor exceeds %d; pass a smaller "
                         "support_radius" % MAX_BRANCHING)


def _power_steps(dist: StepDistribution, support_radius) -> np.ndarray:
    """The power family's kept steps, decided on the orthant sub-cube
    {0..floor(r)}^d by within_range's rule ||y||_2 <= r; only the kept
    points are expanded to their sign images, in lexicographic order."""
    d, r = dist.d, dist.support_radius
    if support_radius is None:
        keep = np.ones((r + 1,) * d, dtype=bool)
    else:
        within_range(np.zeros(d), support_radius)  # rejects R < 0 and NaN
        r = int(min(r, support_radius))
        keep = dist.orthant_norms(r) <= support_radius
    keep[(0,) * d] = False
    _branching_guard(int(np.count_nonzero(keep)))  # one image or more each
    images = sorted(itertools.chain.from_iterable(
        itertools.product(*[(-v, v) if v else (0,) for v in y])
        for y in np.argwhere(keep).tolist()))
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


def _unflatten(f: int, base: int, d: int) -> tuple:
    """The x-tuple of flat coordinate f = sum_a x_a base^a, |x_a| < base/2."""
    half = base // 2
    x = []
    for _ in range(d):
        digit = (f + half) % base - half
        x.append(digit)
        f = (f - digit) // base
    return tuple(x)


def enumerate_walks(dist: StepDistribution, n_max: int,
                    support_radius: float | None = None,
                    mode: str = "rational",
                    node_budget: int = DEFAULT_NODE_BUDGET) -> WalkSeries:
    """Exact c_n(x) for n <= n_max by self-avoiding DFS."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if mode not in ("rational", "double"):
        raise ValueError("mode must be 'rational' or 'double'")
    if mode == "rational" and dist.family == "power":
        raise ValueError("rational mode needs rational step weights")
    steps, weights, loss = _support_for_enum(dist, support_radius, mode)
    r = max((abs(v) for step in steps for v in step), default=0)
    base = 2 * n_max * r + 1
    strides = [base ** a for a in range(dist.d)]
    deltas = [sum(v * s for v, s in zip(step, strides)) for step in steps]
    # rational mode counts walks (unit int weights), scaled at the end
    rational = mode == "rational"
    moves = list(zip(deltas, [1] * len(steps) if rational else weights))
    zero, one = (0, 1) if rational else (0.0, 1.0)
    sums = [dict() for _ in range(n_max + 1)]
    sums[0][0] = one
    nodes = 0
    last = n_max - 1

    path = {0}
    def dfs(x, n, w):
        nonlocal nodes
        sn = sums[n + 1]
        for delta, wstep in moves:
            y = x + delta
            if y in path:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded("enumeration budget exhausted")
            wy = w * wstep
            sn[y] = sn.get(y, zero) + wy
            if n < last:
                path.add(y)
                dfs(y, n + 1, wy)
                path.discard(y)

    if n_max > 0:
        dfs(0, 0, one)
    key = {f: _unflatten(f, base, dist.d) for sn in sums for f in sn}
    if rational:
        # every kept step weighs the same 1/|Omega|: c_n = N_n w^n
        w = weights[0] if weights else Fraction(0)
        c = []
        for n, sn in enumerate(sums):
            wn = w ** n
            c.append({key[f]: count * wn for f, count in sn.items()})
    else:
        c = [{key[f]: v for f, v in sn.items()} for sn in sums]
    return WalkSeries(dist=dist, n_max=n_max, c=c, mode=mode,
                      weight_loss=loss, steps=steps, weights=weights)


def _sparse_convolve(a: dict, b: dict):
    out = {}
    for xa, va in a.items():
        if va == 0:
            continue
        for xb, vb in b.items():
            key = tuple(p + q for p, q in zip(xa, xb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


@dataclass
class LaceCoefficients:
    pi: dict  # m -> dict of x-tuples

    def mass(self, m: int):
        return sum(self.pi[m].values())

    def abs_mass_at(self, z):
        """sum_m z^m sum_x |pi_m(x)|, the coefficient-magnitude margin."""
        return sum(z ** m * sum(abs(v) for v in p.values())
                   for m, p in self.pi.items())


def _add_recursion(series: WalkSeries, pi: dict, n: int, acc: dict,
                   sign: int) -> dict:
    """acc + sign [(D*c_n) + sum_m (pi_m * c_{n+1-m})], over the m in pi
    with 2 <= m <= n + 1, added term by term; zero entries are dropped."""
    d_map = dict(zip(series.steps, series.weights))
    terms = [(d_map, series.c[n])] + [(pi[m], series.c[n + 1 - m])
                                      for m in range(2, n + 2) if m in pi]
    for a, b in terms:
        for k, v in _sparse_convolve(a, b).items():
            acc[k] = acc.get(k, 0) + sign * v
    return {k: v for k, v in acc.items() if v != 0}


def extract_lace(series: WalkSeries) -> LaceCoefficients:
    """Solve the step recursion for the correction kernels pi_m.

    pi_{n+1}(x) = c_{n+1}(x) - (D*c_n)(x) - sum_{m=2}^{n} (pi_m * c_{n+1-m})(x)
    """
    if series.n_max < 2:
        raise ValueError("need n_max >= 2")
    pi = {}
    for n in range(1, series.n_max):
        pi[n + 1] = _add_recursion(series, pi, n, dict(series.c[n + 1]), -1)
    return LaceCoefficients(pi=pi)


def reconstruct_c(series: WalkSeries, lace: LaceCoefficients, n: int) -> dict:
    """c_{n+1} rebuilt from the recursion; must equal the enumerated value."""
    return _add_recursion(series, lace.pi, n, {}, 1)


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
    """[z^0, ..., z^n_max] for chi_series and two_point_series; a float
    overflow becomes a ValueError that names it."""
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
