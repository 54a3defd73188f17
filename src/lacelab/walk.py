"""Random-walk Green's function and the s-condition integral beta.

k-space: on the dual grid of side M the folded transform equals the
lattice one, Dhat_M(k) = Dhat(k), and every family is even in each
coordinate.  So the k-space paths take Dhat from the family itself
(steps.closed_form_grid; StepDistribution.fourier_d_grid for the power
family) on one orthant, 0 <= j_a <= M/2, of the dual grid (DualOrthant),
and sum over it with each entry weighted by its mirror images; nothing of
size M^d is built.  beta_kspace is the Riemann sum over the dual grid with
the k = 0 mode excluded.

Working set: one slab (one row of the orthant's first axis) and one
scratch slab, both reused; the terms (_beta_term, _power_term,
_inverse_power_term) run in place in them, so a slab makes no temporaries.
A sum whose working set is out of reach of memory (_memory_limit) is
refused with MemoryError before it starts.  For nn and uniform the orthant
is never built: DualOrthant keeps the per-axis factors of the closed form
and computes each slab into the slab buffer (steps.closed_form_grid),
entry by entry as the whole grid would.  The power family stores its
orthant, one contraction of its weight stream, and copies a slab of it into
the buffer; beta_on_grids takes every grid's orthant and the fold from one
stream (StepDistribution.fold_and_grids).  The masks (k != 0 per slab, the ||k||_inf <= 1/L
region as one bool orthant) are the only orthant-shaped arrays; the whole
grid is built only by DualOrthant.full, for the TwoPointInput of diag and
infrared.  The contraction order is fixed: every slab is contracted to one
row of the (M/2 + 1)^2 array that the whole-array sum reaches, and the last
two contractions run on it, so the sums keep the bits of the whole-array
reduction.

x-space oracle: beta_xspace folds D onto the torus (StepDistribution.fold),
transforms it by FFT (real_dft) and convolves with the zero-mode-removed
Green's function.  The two sides are independent constructions that must
agree to rounding (Parseval).  Convergence to the infinite-lattice integral
is probed by refining the grid M -> 2M -> 4M in k-space and judged by
refinement_divergent; beta_on_grids folds only its first grid.
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

from .steps import StepDistribution, _outer_reduce, closed_form_grid
from .torus import (TorusField, TorusGrid, convolve, field_at_zero,
                    real_dft, real_idft, reflect)

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
# Bytes per slab entry that DualOrthant.mean holds at once: the slab
# buffer and the term's scratch (float64 each), and the keep mask and its
# complement (bool each).
SLAB_ENTRY_BYTES = 18


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
    """Dhat at k = 2 pi j / M for 0 <= j_a <= M/2, shape (M/2 + 1,)^d.

    Dhat is even in each coordinate, so this orthant is the whole dual
    grid: entry j stands for the 2^(number of 0 < j_a < M/2) grid points
    (+-j_1, ..., +-j_d) mod M.  It is read a slab at a time: slab(rows, out)
    gives Dhat on those rows of axis 0, computed or copied into out (a
    buffer of slab_shape); without out, a new array or a view of a stored
    orthant (DualOrthant.stored)."""
    M: int
    d: int
    slab: Callable

    @classmethod
    def stored(cls, M: int, values: np.ndarray) -> "DualOrthant":
        """An orthant held whole; a slab is copied into out if given."""
        def slab(rows, out=None):
            if out is None:
                return values[rows]
            out[...] = values[rows]
            return out
        return cls(M, values.ndim, slab)

    @property
    def shape(self) -> tuple:
        return (self.M // 2 + 1,) * self.d

    @property
    def slab_shape(self) -> tuple:
        """One row of axis 0; the whole orthant when d = 1."""
        m = self.M // 2 + 1
        return (1 if self.d > 1 else m,) + (m,) * (self.d - 1)

    def mean(self, term, keep=None) -> float:
        """M^-d sum over the whole dual grid of term(Dhat(k)).  With keep,
        only over the entries where keep(rows) is set: the mask of the slab
        on those rows of axis 0, or None for the whole slab.  term(v, out)
        gives the term on the slab v, in v or in out (a scratch of v's
        shape) or in a new array; it may overwrite v.

        Working set: the slab buffer, the scratch and the masks of one slab
        (SLAB_ENTRY_BYTES per entry); a sum whose working set exceeds
        MEMORY_SHARE of _memory_limit() raises MemoryError before it starts.
        The contraction order is fixed by the whole-array reduction,
        `total @ images` d times on the masked term: each slab is
        contracted d - 2 times, which gives row i of the (m, m) array that
        reduction reaches at that point, and the last two contractions run
        on that array.  A slab contracted down to a scalar sums in another
        order and moves the last digits."""
        d, m = self.d, self.M // 2 + 1
        need = SLAB_ENTRY_BYTES * math.prod(self.slab_shape)
        have = MEMORY_SHARE * _memory_limit()
        if need > have:
            raise MemoryError(
                "Unable to allocate %.3g GiB for the k-space working set of "
                "M = %d in d = %d (%.3g GiB may be spent on it); use a "
                "smaller M" % (need / 2 ** 30, self.M, d, have / 2 ** 30))
        images = np.full(m, 2.0)
        images[[0, -1]] = 1.0
        buf = np.empty(self.slab_shape)
        scratch = np.empty_like(buf)
        rows = len(buf)
        total = np.empty((m,) * min(d, 2))
        for i in range(0, m, rows):
            block = slice(i, i + rows)
            mask = None if keep is None else keep(block)
            slab = self.slab(block, buf)
            if mask is not None:
                drop = ~mask
                slab[drop] = 0.0
            slab = term(slab, scratch)
            if mask is not None:
                slab[drop] = 0.0
            for _ in range(d - 2):
                slab = slab @ images
            total[block] = slab
        for _ in range(min(d, 2)):
            total = total @ images
        return float(total) / self.M ** d

    def full(self) -> np.ndarray:
        """The whole dual grid in numpy index order (index m of an axis is
        orthant entry min(m, M - m))."""
        m = np.arange(self.M)
        fold = np.minimum(m, self.M - m)
        return self.slab(slice(None))[np.ix_(*[fold] * self.d)]


def _dual_axis(grid: TorusGrid) -> np.ndarray:
    """k = 2 pi j / M for j = 0 .. M/2, one axis of the dual orthant."""
    return 2.0 * np.pi * np.arange(grid.M // 2 + 1) / grid.M


def dual_orthant(dist: StepDistribution, grid: TorusGrid) -> DualOrthant:
    """Dhat on the orthant of grid's dual grid, from the family (no fold).
    nn and uniform keep their per-axis factors and build a slab only when
    it is read; the power family's transform is one contraction of its
    weight stream, so its orthant is taken once and stored."""
    t = _dual_axis(grid)
    if dist.family == "power":
        return DualOrthant.stored(grid.M, dist.fourier_d_grid(t))
    return DualOrthant(grid.M, grid.d,
                       partial(closed_form_grid, dist.closed_form(t), grid.d))


def folded_dhat(dist: StepDistribution, grid: TorusGrid) -> np.ndarray:
    """Dhat_M on the whole dual grid (real array), mirrored from the orthant.
    It equals the transform of the torus-folded D, which is not built."""
    return dual_orthant(dist, grid).full()


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


def _kspace_mean(dhat, term, region=None) -> float:
    """M^-d sum of term(Dhat(k)) over k != 0 (and inside region, if given).
    dhat is the whole dual grid or a DualOrthant, region a mask of its
    shape.  On the orthant the mask is built slab by slab (DualOrthant.mean):
    k = 0 lies in slab 0."""
    if isinstance(dhat, DualOrthant):
        def slab_keep(block):
            if block.start > 0:
                return None if region is None else region[block]
            keep = nonzero_modes(dhat.slab_shape)
            if region is not None:
                keep &= region[block]
            return keep
        return dhat.mean(term, slab_keep)
    keep = nonzero_modes(dhat.shape)
    if region is not None:
        keep &= region
    vals = dhat[keep]
    return float(np.sum(term(vals, np.empty_like(vals))) / dhat.size)


# Terms of DualOrthant.mean, term(v, out): each takes the operations of the
# expression in its docstring in the same order, in place, so every entry
# keeps its bits and a slab makes no temporaries.

def _power_term(n: int):
    """v ** n."""
    def term(v, out):
        v **= n
        return v
    return term


def _beta_term(s: int):
    """v ** 2 / (1.0 - v) ** s."""
    def term(v, out):
        np.subtract(1.0, v, out=out)
        out **= s
        v **= 2
        v /= out
        return v
    return term


def _inverse_power_term(p: int):
    """1.0 / (1.0 - v) ** p."""
    def term(v, out):
        np.subtract(1.0, v, out=v)
        v **= p
        return np.divide(1.0, v, out=v)
    return term


def beta_kspace(dhat, s: int, region=None) -> float:
    """k-space beta = M^-d sum_{k != 0} Dhat(k)^2 / (1 - Dhat(k))^s, over
    the whole dual grid dhat or a DualOrthant."""
    return _kspace_mean(dhat, _beta_term(s), region)


def _critical(dhat: np.ndarray) -> np.ndarray:
    vals = np.zeros_like(dhat)
    mask = nonzero_modes(dhat.shape)
    vals[mask] = 1.0 / (1.0 - dhat[mask])
    return vals


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
    """The same beta through x-space convolutions of D_M and C_1, with C_1
    built from the FFT of the fold."""
    c1 = real_idft(TorusField(dm.grid, _critical(real_dft(dm)), "k"))
    u = convolve(dm, c1)  # D * C_1
    if s == 2:
        # (D*C1*D*C1)(0) = sum_x u(x) u(-x)
        return float(np.sum(u.values * reflect(u).values))
    uu = convolve(u, u)
    return field_at_zero(convolve(uu, c1))


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
        orths = [DualOrthant.stored(g.M, v) for g, v in zip(grids, dhats)]
    else:
        dm, orths = dist.fold(grids[0]), [dual_orthant(dist, g) for g in grids]
    seq = [(g.M, beta_kspace(orth, s)) for g, orth in zip(grids, orths)]
    return BetaReport(
        s=s, M=grids[0].M, beta_kspace=seq[0][1],
        beta_xspace=_beta_xspace(dm, s),
        sup_d=dist.sup_d,
        zero_mode_policy="k=0 dual point excluded; x-space C_1 built from "
                         "the transform with its zero mode removed",
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


# -- separable fast path for product-form transforms ---------------------

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
    """k-space beta for nn/uniform without materializing the M^d grid."""
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
    The power rows run beta with 3 refinements.  Rows: (parameter, beta,
    scaled beta).
    """
    rows = []
    if family == "nn":
        M = sweep["M"]
        for d in sweep["d_values"]:
            b = beta_separable(StepDistribution("nn", d), M, s)
            rows.append({"d": d, "M": M, "beta": b, "scaled": d * b,
                         "scale": "d*beta"})
    elif family == "uniform":
        d, M = sweep["d"], sweep["M"]
        for L in sweep["L_values"]:
            b = beta_separable(StepDistribution("uniform", d, L=L), M, s)
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
    also split at ||k||_inf = 1/L.
    """
    orth = dual_orthant(dist, grid)
    lhs = beta_kspace(orth, s)
    d4 = orth.mean(_power_term(4))
    inv = _kspace_mean(orth, _inverse_power_term(2 * s))
    rhs = math.sqrt(d4) * math.sqrt(inv)

    record = {"s": s, "M": grid.M, "beta": lhs,
              "d4_return": d4, "inverse_power_mean": inv,
              "cauchy_schwarz_rhs": rhs, "holds": lhs <= rhs * (1 + 1e-12)}

    if dist.L > 1:
        # max_a k_a <= 1/L axis by axis: one bool orthant, no index grid
        k = _dual_axis(grid)
        inner = _outer_reduce(np.logical_and, k <= 1.0 / dist.L, grid.d,
                              out=np.ones(orth.shape, dtype=bool))
        record["inner_region"] = beta_kspace(orth, s, inner)
        record["outer_region"] = beta_kspace(orth, s, ~inner)
    return record
