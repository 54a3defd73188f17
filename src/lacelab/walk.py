"""Random-walk Green's function and the s-condition integral beta.

k-space: on the dual grid of side M the folded transform equals the
lattice one, Dhat_M(k) = Dhat(k), and every family is even in each
coordinate and symmetric under permutations of the axes.  So a mean over
the M^d points k = 2 pi j / M of the dual grid is a sum over its chamber,
the sorted index tuples 0 <= j_1 <= ... <= j_d <= M/2, each weighted by the
exact number of grid points it stands for (DualOrthant): C(M/2 + d, d)
points, and nothing of size M^d is built.  nn and uniform take Dhat at a
chamber point from their closed form (StepDistribution.closed_form),
combining the per-axis factors of its indices; the power family gathers it
from its orthant 0 <= j_a <= M/2 (StepDistribution.fourier_d_grid), one
contraction of its weight stream, and beta_on_grids takes every grid's
orthant and the fold from one stream (StepDistribution.fold_and_grids).
beta_kspace is the Riemann sum over the dual grid with the k = 0 mode
excluded.

Working set: the chamber is built block by block over j_1, one axis at a
time, and a block holds no more points than the one of j_1 = 0 (or 2^11,
if more); a sum whose working set is out of reach of memory
(_memory_limit) is refused with MemoryError before it starts.  The
regions a sum may keep (k != 0, ||k||_inf <= 1/L and its complement) are
tests on the largest index j_d.  The whole dual grid is built only by
folded_dhat, for the TwoPointInput of diag and infrared.

x-space oracle: beta_xspace folds D onto the torus (StepDistribution.fold),
transforms it by one FFT (real_dft) and takes beta_kspace of the whole
transformed grid, with the same k = 0 exclusion.  A convolution chain of D
and the critical Green's function would add only Parseval's identity, so
the independent content is fold + FFT against the family's transform on
the chamber; the two must agree to rounding.  Convergence to the
infinite-lattice integral is probed by refining the grid M -> 2M -> 4M in
k-space and judged by refinement_divergent; beta_on_grids folds only its
first grid.
"""

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from .steps import StepDistribution
from .torus import (TorusField, TorusGrid, convolve, field_at_zero,
                    real_dft)

# A refinement sequence is flagged divergent when successive increments
# fail to shrink.  Convergent cases contract geometrically, but barely
# finite ones only at ratio ~ 1/2 per doubling, so the cut sits at 1
# (increments must strictly decrease).
CAUCHY_RATIO = 1.0

# A k-space sum is refused before it starts when its working set exceeds
# this share of the memory the process may have (physical memory, or the
# address-space limit if that is lower); the rest is left to the
# interpreter, the run's other arrays and the host.
MEMORY_SHARE = 0.5


def _physical_memory() -> float:
    """Bytes of physical memory; inf where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no name
        return math.inf


def _memory_limit() -> float:
    """Bytes the process may hold: physical memory, or the address-space
    limit if that is lower."""
    limit = _physical_memory()
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limit = min(limit, soft)
    return limit


@dataclass(frozen=True)
class DualOrthant:
    """Dhat at k = 2 pi j / M for 0 <= j_a <= M/2, read on its chamber.

    Dhat is even in each coordinate and symmetric under permutations of the
    axes, so the chamber 0 <= j_1 <= ... <= j_d <= M/2 stands for the whole
    dual grid: the tuple j for its d!/prod_v n_v! orderings (n_v the number
    of axes with j_a = v) times its 2^(number of 0 < j_a < M/2) sign
    images.  A point's Dhat comes from a key carried axis by axis: start is
    the key of no axis, extend(key, j) appends the index j to the points of
    an array of keys, and dhat(key) maps keys to Dhat (it may overwrite
    them)."""
    M: int
    d: int
    start: int | float
    extend: Callable
    dhat: Callable

    @property
    def _block_points(self) -> int:
        """The most points a block holds: those with j_1 = 0,
        C(M/2 + d - 1, d - 1), or 2^11 if more.  A block costs a few dozen
        numpy calls besides its points, so small grids go in few blocks."""
        h = self.M // 2
        return max(math.comb(h + self.d - 1, self.d - 1), 1 << 11)

    def _blocks(self) -> list:
        """The ranges [lo, hi) of j_1 that the chamber is summed in, block by
        block: consecutive j_1 share a block while it holds no more points
        than _block_points."""
        h, d = self.M // 2, self.d
        sizes = [math.comb(h - j + d - 1, d - 1) for j in range(h + 1)]
        cap, ranges, lo = self._block_points, [], 0
        while lo <= h:
            hi, n = lo + 1, sizes[lo]
            while hi <= h and n + sizes[hi] <= cap:
                hi, n = hi + 1, n + sizes[hi]
            ranges.append((lo, hi))
            lo = hi
        return ranges

    def _block(self, j1: np.ndarray, keep: np.ndarray) -> tuple:
        """(key, weight) of the chamber points whose j_1 is in j1 and whose
        largest index j_d keep sets: their keys and the number of grid
        points each stands for."""
        h = self.M // 2
        images = np.full(h + 1, 2.0)  # sign images of an index
        images[[0, h]] = 1.0
        last, run, weight = j1, np.ones(len(j1)), images[j1]
        key = self.extend(np.full(len(j1), self.start), j1)
        for a in range(2, self.d + 1):
            # each point takes j = last .. M/2 on axis a, in that order, so
            # its first child is the one that repeats its largest index
            count = h + 1 - last
            first = np.cumsum(count) - count
            j = np.arange(first[-1] + count[-1]) - np.repeat(first - last,
                                                             count)
            grown = np.ones(len(j))  # axes holding the largest index
            grown[first] = run + 1
            run = grown
            # d!/prod n_v! grows by a / n_v when index v lands on axis a
            weight = np.repeat(weight, count)
            weight *= a
            weight /= run
            weight *= images[j]
            key = self.extend(np.repeat(key, count), j)
            last = j
        inside = keep[last]
        return key[inside], weight[inside]

    def mean(self, term, keep=None) -> float:
        """M^-d sum over the whole dual grid of term(Dhat(k)), term a plain
        function of an array of Dhat values.  With keep, a bool array over
        j = 0 .. M/2, only over the k whose largest index j_d it sets.

        Working set: one block of the chamber (_blocks), at about 64 bytes
        a point (keys, indices, weights and the term's temporaries); a sum
        whose largest block exceeds MEMORY_SHARE of _memory_limit() raises
        MemoryError before it starts."""
        need = 64 * self._block_points
        have = MEMORY_SHARE * _memory_limit()
        if need > have:
            raise MemoryError(
                "Unable to allocate %.3g GiB for the k-space working set of "
                "M = %d in d = %d (%.3g GiB may be spent on it); use a "
                "smaller M" % (need / 2 ** 30, self.M, self.d,
                               have / 2 ** 30))
        if keep is None:
            keep = np.ones(self.M // 2 + 1, dtype=bool)
        total = 0.0
        for lo, hi in self._blocks():
            if not keep[lo:].any():
                break  # every later point has j_d >= lo too
            key, weight = self._block(np.arange(lo, hi), keep)
            total += float(np.sum(weight * term(self.dhat(key))))
            del key, weight  # freed before the next block is built
        return total / self.M ** self.d


def _dual_axis(grid: TorusGrid) -> np.ndarray:
    """k = 2 pi j / M for j = 0 .. M/2, one axis of the dual orthant."""
    return 2.0 * np.pi * np.arange(grid.M // 2 + 1) / grid.M


def _stored_orthant(M: int, values: np.ndarray) -> DualOrthant:
    """An orthant held whole (the power family's); a key is the flat index
    of its point."""
    m = M // 2 + 1
    return DualOrthant(M, values.ndim, 0,
                       lambda key, j: np.add(key * m, j, out=key),
                       partial(np.take, values))


def dual_orthant(dist: StepDistribution, grid: TorusGrid) -> DualOrthant:
    """Dhat on the orthant of grid's dual grid, from the family (no fold).
    nn and uniform combine their closed form's per-axis factors point by
    point; the power family's transform is one contraction of its weight
    stream, so its orthant is taken once and stored."""
    t = _dual_axis(grid)
    if dist.family == "power":
        return _stored_orthant(grid.M, dist.fourier_d_grid(t))
    factors, combine, to_dhat = dist.closed_form(t)
    return DualOrthant(grid.M, grid.d, float(combine.identity),
                       lambda key, j: combine(key, factors[j], out=key),
                       to_dhat)


def folded_dhat(dist: StepDistribution, grid: TorusGrid) -> np.ndarray:
    """Dhat_M on the whole dual grid (real array), mirrored from the
    family's transform on the orthant: index m of an axis is orthant entry
    min(m, M - m).  It equals the transform of the torus-folded D, which is
    not built."""
    m = np.arange(grid.M)
    fold = np.minimum(m, grid.M - m)
    return dist.fourier_d_grid(_dual_axis(grid))[np.ix_(*[fold] * grid.d)]


def resolvent(dhat: np.ndarray, z: float) -> np.ndarray:
    """1/(1 - z Dhat(k)) on the dual grid; requires 0 <= z < 1."""
    if not 0.0 <= z < 1.0:
        raise ValueError("z must lie in [0, 1)")
    return 1.0 / (1.0 - z * dhat)


def nonzero_modes(shape) -> np.ndarray:
    """Mask of the dual grid with the k = 0 mode left out."""
    mask = np.ones(shape, dtype=bool)
    mask[(0,) * len(shape)] = False
    return mask


# Terms of DualOrthant.mean: plain functions of an array of Dhat values.

def _power_term(n: int):
    return lambda v: v ** n


def _beta_term(s: int):
    return lambda v: v ** 2 / (1.0 - v) ** s


def _inverse_power_term(p: int):
    return lambda v: 1.0 / (1.0 - v) ** p


def beta_kspace(dhat, s: int) -> float:
    """k-space beta = M^-d sum_{k != 0} Dhat(k)^2 / (1 - Dhat(k))^s, over
    the whole dual grid dhat or a DualOrthant's chamber, where k = 0 is the
    one point with j_d = 0."""
    term = _beta_term(s)
    if isinstance(dhat, DualOrthant):
        return dhat.mean(term, np.arange(dhat.M // 2 + 1) > 0)
    vals = dhat[nonzero_modes(dhat.shape)]
    return float(np.sum(term(vals)) / dhat.size)


def return_probability(dist: StepDistribution, grid: TorusGrid, n: int) -> float:
    """D^{*n}(0) by repeated torus convolution."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    dm = dist.fold(grid)
    acc = dm
    for _ in range(n - 1):
        acc = convolve(acc, dm)
    return field_at_zero(acc)


def return_probability_kspace(dist: StepDistribution, grid: TorusGrid,
                              n: int) -> float:
    """D^{*n}(0) = M^-d sum_k Dhat(k)^n, over the orthant."""
    return dual_orthant(dist, grid).mean(_power_term(n))


@dataclass
class BetaReport:
    s: int
    M: int
    beta_kspace: float
    beta_xspace: float
    sup_d: float
    zero_mode_policy: str
    refinement: list  # [(M, beta_kspace)]
    divergent: bool
    analytic_threshold: float
    analytic_finite: bool
    tail_bound: float = 0.0


def _beta_xspace(dm: TorusField, s: int) -> float:
    """The same beta from the FFT of the fold D_M on the whole dual grid."""
    return beta_kspace(real_dft(dm), s)


def refinement_divergent(values) -> bool:
    """The divergence rule on beta at M, 2M, 4M (CAUCHY_RATIO above)."""
    if len(values) < 3:
        return False
    d1 = abs(values[1] - values[0])
    d2 = abs(values[2] - values[1])
    return d2 > CAUCHY_RATIO * d1


def beta_on_grids(dist: StepDistribution, grids, s: int) -> BetaReport:
    """beta in k-space on each grid of a sequence and in x-space on the
    first; the k-space values come from the orthant transform, and only the
    first grid is folded, for the x-space side.  The power family takes
    every transform and the fold from one weight stream."""
    if s not in (2, 3):
        raise ValueError("s must be 2 or 3")
    if dist.family == "power":
        dm, dhats = dist.fold_and_grids(grids[0],
                                        [_dual_axis(g) for g in grids])
        orths = [_stored_orthant(g.M, v) for g, v in zip(grids, dhats)]
    else:
        dm, orths = dist.fold(grids[0]), [dual_orthant(dist, g) for g in grids]
    seq = [(g.M, beta_kspace(orth, s)) for g, orth in zip(grids, orths)]
    return BetaReport(
        s=s, M=grids[0].M, beta_kspace=seq[0][1],
        beta_xspace=_beta_xspace(dm, s),
        sup_d=dist.sup_d,
        zero_mode_policy="k=0 dual point excluded, from the chamber sum "
                         "and from the x-space side's FFT of the fold",
        refinement=seq, divergent=refinement_divergent([v for _, v in seq]),
        analytic_threshold=dist.alpha_wedge_2 * s,
        analytic_finite=dist.d > dist.alpha_wedge_2 * s,
        tail_bound=dist.tail_bound)


def beta(dist: StepDistribution, grid: TorusGrid, s: int,
         refinements: int = 3) -> BetaReport:
    """beta_on_grids on grid and its refinements M, 2M, ... (refinements
    grids in all; the base grid is used even at 0)."""
    rep = beta_on_grids(dist, [TorusGrid(grid.d, grid.M * 2 ** i)
                               for i in range(max(refinements, 1))], s)
    rep.refinement = rep.refinement[:refinements]
    return rep


# -- the value-DP oracle for product-form transforms ----------------------

def _group(x: np.ndarray, decimals: int):
    """Group x by its values rounded to decimals places; returns an unrounded
    member of each group and the group of every entry."""
    _, first, inv = np.unique(np.round(x, decimals), return_index=True,
                              return_inverse=True)
    return x[first], inv


def _combine_dp(vals: np.ndarray, d: int, op, decimals: int = 10):
    """Distribution of d-fold sums (op = np.add) or products (np.multiply)
    of one grid axis' values.

    Returns (keys, counts) with counts summing to M^d.  Valid because the
    nn and uniform transforms depend on k only through sum_j cos(k_j) or
    prod_j W(k_j).
    """
    v, inv = _group(vals, 12)
    c = np.bincount(inv)
    keys = np.array([float(op.identity)])
    cnts = np.array([1.0])
    for _ in range(d):
        keys, inv = _group(op.outer(keys, v).ravel(), decimals)
        cnts = np.bincount(inv, weights=np.outer(cnts, c).ravel())
    return keys, cnts


def beta_separable(dist: StepDistribution, M: int, s: int) -> float:
    """k-space beta for nn/uniform by a DP over the values of the combined
    closed form, grouped by rounding: the value-DP oracle of the chamber
    sum.  No program path calls it; the tests and perfbench's check_rw_beta
    read it."""
    grid = TorusGrid(dist.d, M)
    t = 2.0 * np.pi * np.arange(grid.M) / grid.M
    factors, combine, to_dhat = dist.closed_form(t)
    keys, cnts = _combine_dp(factors, dist.d, combine)
    dhat = to_dhat(keys)
    mask = np.abs(1.0 - dhat) > 1e-12
    return float(np.sum(cnts[mask] * dhat[mask] ** 2
                        / (1.0 - dhat[mask]) ** s) / grid.n_sites)


def beta_scaling_table(family: str, s: int, sweep: dict) -> list:
    """Sweep beta over d (nn) or L (uniform, power) on the dual grid of
    side sweep["M"], held fixed so the swept parameter is the only variable.
    The nn and uniform rows are beta_kspace on the grid's chamber, the
    power rows run beta with 3 refinements.  Rows: (parameter, beta, scaled
    beta).
    """
    rows = []
    if family == "nn":
        M = sweep["M"]
        for d in sweep["d_values"]:
            b = beta_kspace(dual_orthant(StepDistribution("nn", d),
                                         TorusGrid(d, M)), s)
            rows.append({"d": d, "M": M, "beta": b, "scaled": d * b,
                         "scale": "d*beta"})
    elif family == "uniform":
        d, M = sweep["d"], sweep["M"]
        for L in sweep["L_values"]:
            b = beta_kspace(dual_orthant(StepDistribution("uniform", d, L=L),
                                         TorusGrid(d, M)), s)
            rows.append({"L": L, "M": M, "beta": b, "scaled": L ** d * b,
                         "scale": "L^%d*beta" % d})
    elif family == "power":
        d, grid = sweep["d"], TorusGrid(sweep["d"], sweep["M"])
        for L in sweep["L_values"]:
            # a missing alpha fails StepDistribution's own check
            dist = StepDistribution("power", d, L=L, alpha=sweep.get("alpha"))
            rep = beta(dist, grid, s)
            rows.append({"L": L, "M": grid.M, "beta": rep.beta_kspace,
                         "scaled": L ** d * rep.beta_kspace,
                         "scale": "L^%d*beta" % d,
                         "divergent": rep.divergent})
    else:
        raise ValueError("unknown family %r" % family)
    return rows


def bound_diagnostics(dist: StepDistribution, grid: TorusGrid, s: int) -> dict:
    """Cauchy-Schwarz split of beta, with the spread-out region split.

    beta <= sqrt(D^{*4}(0)) * sqrt(mean_k (1-Dhat)^{-2s}), both sides on the
    same grid with the zero mode excluded; for L > 1 families the k-sum is
    also split at ||k||_inf = 1/L, a test on the largest index of a chamber
    point.
    """
    orth = dual_orthant(dist, grid)
    k = _dual_axis(grid)
    nonzero = k > 0
    lhs = beta_kspace(orth, s)
    d4 = orth.mean(_power_term(4))
    inv = orth.mean(_inverse_power_term(2 * s), nonzero)
    rhs = math.sqrt(d4) * math.sqrt(inv)

    record = {"s": s, "M": grid.M, "beta": lhs,
              "d4_return": d4, "inverse_power_mean": inv,
              "cauchy_schwarz_rhs": rhs, "holds": lhs <= rhs * (1 + 1e-12)}

    if dist.L > 1:
        inner = k <= 1.0 / dist.L
        record["inner_region"] = orth.mean(_beta_term(s), nonzero & inner)
        record["outer_region"] = orth.mean(_beta_term(s), ~inner)
    return record
