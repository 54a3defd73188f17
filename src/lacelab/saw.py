"""Exact self-avoiding-walk enumeration and lace-coefficient extraction.

Walks are enumerated depth-first over the (possibly truncated) support of
the step distribution; each length-n walk contributes the product of its
step weights to c_n(x).  In rational mode the weights are exact Fractions
(nn/uniform families), which matters for the coefficient extraction: it is
a telescoping difference of nearly equal quantities.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .steps import StepDistribution

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

    def mass(self, n: int):
        """sum_x c_n(x)."""
        return sum(self.c[n].values())

    def masses(self):
        return [self.mass(n) for n in range(self.n_max + 1)]


def _support_for_enum(dist: StepDistribution, support_radius, mode):
    offs, probs = dist.support()
    loss = 0.0
    if support_radius is not None:
        keep = np.sqrt(np.sum(offs.astype(float) ** 2, axis=1)) <= support_radius
        loss = float(np.sum(probs[~keep]))
        offs, probs = offs[keep], probs[keep]
    if len(offs) > MAX_BRANCHING:
        raise ValueError(
            "branching factor %d exceeds %d; pass a smaller support_radius"
            % (len(offs), MAX_BRANCHING))
    steps = [tuple(int(v) for v in o) for o in offs]
    if mode == "rational":
        weights = [dist.eval_d_exact(o) for o in offs]
    else:
        weights = [float(p) for p in probs]
    return steps, weights, loss


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
    zero = Fraction(0) if mode == "rational" else 0.0
    one = Fraction(1) if mode == "rational" else 1.0
    origin = (0,) * dist.d
    c = [dict() for _ in range(n_max + 1)]
    c[0][origin] = one
    nodes = 0

    path = {origin}
    def dfs(x, n, w):
        nonlocal nodes
        if n == n_max:
            return
        for step, wstep in zip(steps, weights):
            y = tuple(a + b for a, b in zip(x, step))
            if y in path:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded("enumeration budget exhausted")
            wy = w * wstep
            c[n + 1][y] = c[n + 1].get(y, zero) + wy
            path.add(y)
            dfs(y, n + 1, wy)
            path.discard(y)

    dfs(origin, 0, one)
    return WalkSeries(dist=dist, n_max=n_max, c=c, mode=mode, weight_loss=loss)


def _sparse_convolve(a: dict, b: dict, zero):
    out = {}
    for xa, va in a.items():
        if va == zero:
            continue
        for xb, vb in b.items():
            key = tuple(p + q for p, q in zip(xa, xb))
            out[key] = out.get(key, zero) + va * vb
    return {k: v for k, v in out.items() if v != zero}


def _d_convolve(series: WalkSeries, a: dict):
    steps, weights, _ = _support_for_enum(series.dist, None, series.mode)
    d_map = dict(zip(steps, weights))
    zero = Fraction(0) if series.mode == "rational" else 0.0
    return _sparse_convolve(d_map, a, zero)


@dataclass
class LaceCoefficients:
    pi: dict  # m -> dict of x-tuples

    def mass(self, m: int):
        return sum(self.pi[m].values())

    def abs_mass_at(self, z):
        """sum_m z^m sum_x |pi_m(x)|, the coefficient-magnitude margin."""
        return sum(z ** m * sum(abs(v) for v in p.values())
                   for m, p in self.pi.items())


def extract_lace(series: WalkSeries) -> LaceCoefficients:
    """Solve the step recursion for the correction kernels pi_m.

    pi_{n+1}(x) = c_{n+1}(x) - (D*c_n)(x) - sum_{m=2}^{n} (pi_m * c_{n+1-m})(x)
    """
    if series.n_max < 2:
        raise ValueError("need n_max >= 2")
    zero = Fraction(0) if series.mode == "rational" else 0.0
    pi = {}
    for n in range(1, series.n_max):
        acc = dict(series.c[n + 1])
        dc = _d_convolve(series, series.c[n])
        for k, v in dc.items():
            acc[k] = acc.get(k, zero) - v
        for m in range(2, n + 1):
            pc = _sparse_convolve(pi[m], series.c[n + 1 - m], zero)
            for k, v in pc.items():
                acc[k] = acc.get(k, zero) - v
        pi[n + 1] = {k: v for k, v in acc.items() if v != zero}
    return LaceCoefficients(pi=pi)


def reconstruct_c(series: WalkSeries, lace: LaceCoefficients, n: int) -> dict:
    """c_{n+1} rebuilt from the recursion; must equal the enumerated value."""
    zero = Fraction(0) if series.mode == "rational" else 0.0
    acc = _d_convolve(series, series.c[n])
    for m in range(2, n + 2):
        if m not in lace.pi:
            continue
        if n + 1 - m < 0:
            continue
        pc = _sparse_convolve(lace.pi[m], series.c[n + 1 - m], zero)
        for k, v in pc.items():
            acc[k] = acc.get(k, zero) + v
    return {k: v for k, v in acc.items() if v != zero}


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
