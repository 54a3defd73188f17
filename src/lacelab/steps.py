"""The three step-distribution families and their condition verifiers.

Families:
  nn       D(x) = 1/(2d) on |x| = 1.
  uniform  D(x) = 1/((2L+1)^d - 1) on 0 < ||x||_inf <= L.
  power    D(x) = (|x/L| v 1)^{-d-alpha} / norm_const on x != 0, with the
           normalization summed over the truncated support plus an integral
           tail bound so that sum_x D(x) = 1 by construction.

All families put no mass at the origin and are invariant under coordinate
permutations and sign flips.  nn and uniform list their support as one
table.  The power family stores no weight table.  One stream (_h_stream)
yields its unnormalised orthant weights h(x) times the sign images of x,
for x >= 0, slab by slab over axis 0 into one reused buffer of about _SLAB
entries; the transform, the fold and the moments read it, each result
being the sum over h divided by the norm at the end.  The constructor
streams nothing: norm_const and tail_bound are computed on first read, and
the first stream run to its end records sum h, so a transform read first
leaves the norm free.  probs_at (the support, the SAW steps) evaluates h
at the points it is asked for.

The transform is built from the family, never from a fold: nn and uniform
by their closed forms axis by axis, the power family by contracting its
weight stream with a per-axis cosine table one axis at a time.
fourier_d_grid gives Dhat on a whole product grid.  walk.py's k-space sums
read nn and uniform through closed_form, combining its per-axis factors at
each point of the dual grid's chamber, and the power family through
fourier_d_grid on the dual orthant.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .torus import TorusField, TorusGrid

POWER_POINT_BUDGET = int(2e7)  # support-point cap for the power family
POWER_TAIL_TARGET = 1e-9
_CHUNK = 1 << 20
_SLAB = 1 << 16  # entries of one slab of the power family's weight stream
# largest array fourier_d builds to take the power transform on the product
# of its k rows' per-axis values; beyond it the rows go one by one
PRODUCT_GRID_LIMIT = 1 << 22


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _power_tail_bound(d: int, L: int, alpha: float, R: float) -> float:
    """Upper bound on sum_{|x| > R} (|x/L| v 1)^{-d-alpha}.

    Unit cells centered at lattice points x with |x| > R cover the region
    |y| > R - sqrt(d)/2, on which the integrand dominates each cell value.
    """
    r0 = max(R - math.sqrt(d), 1.0)
    return 2.0 * _sphere_area(d) * L ** (d + alpha) * r0 ** (-alpha) / alpha


def dirichlet_kernel(t, L: int) -> np.ndarray:
    """sum_{|x| <= L} cos(t x) = sin((2L+1) t/2) / sin(t/2), one axis."""
    n = 2 * L + 1
    small = np.abs(np.sin(t / 2)) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, float(n), np.sin(n * t / 2) / np.sin(t / 2))


def _reduce_axes(op, axes, out: np.ndarray) -> np.ndarray:
    """out op= axes[0][j_0] op axes[1][j_1] op ..., in place and in axis
    order, where out's axis a is indexed by j_a."""
    for a, vals in enumerate(axes):
        op(out, vals.reshape((-1,) + (1,) * (len(axes) - 1 - a)), out=out)
    return out


def _axis_cosines(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """cos(t_i x_j), the per-axis table of the power transform."""
    return np.cos(np.multiply.outer(t, x.astype(float)))


def _slab_step(R: int, d: int) -> int:
    """Rows of axis 0 in one slab of the orthant {0..R}^d: as many as fit
    in _SLAB entries, at least one."""
    return max(1, _SLAB // (R + 1) ** (d - 1))


def _slabs(R: int, d: int):
    """Yield the axis-0 coordinates of each slab of the orthant {0..R}^d."""
    step = _slab_step(R, d)
    for i in range(0, R + 1, step):
        yield np.arange(i, min(i + step, R + 1))


def _other_axes(R: int, d: int) -> np.ndarray:
    """0..R, the coordinates of axes 1 .. d-1 of the orthant {0..R}^d; none
    at d = 1, whose one axis only ever goes by slabs."""
    return np.arange(R + 1 if d > 1 else 0)


def _slab_norms(x0: np.ndarray, r: int, d: int) -> np.ndarray:
    """||y||_2 on the rows x0 of the orthant {0..r}^d."""
    x2 = _other_axes(r, d).astype(float) ** 2
    out = np.zeros((len(x0),) + (r + 1,) * (d - 1))
    _reduce_axes(np.add, [x0.astype(float) ** 2] + [x2] * (d - 1), out)
    return np.sqrt(out, out=out)


def _add_rows_mod(acc: np.ndarray, rows: np.ndarray, start: int) -> None:
    """acc[j] += rows[k] for every k with start + k = j mod M, M = len(acc):
    the rows up to the next multiple of M, then whole periods, then the
    rest."""
    M = len(acc)
    s = start % M
    head = min(-s % M, len(rows))
    acc[s:s + head] += rows[:head]
    body = rows[head:]
    whole = len(body) - len(body) % M
    acc += body[:whole].reshape((-1, M) + body.shape[1:]).sum(axis=0)
    acc[:len(body) - whole] += body[whole:]


class _FoldSum:
    """The orthant weights folded onto (Z / M Z)^d, fed by a weight stream,
    one axis at a time: y != 0 sends half its weight to y mod M and half to
    -y mod M, so a folded axis is (A[j] + A[-j mod M]) / 2 with A[j] the sum
    of the weights at y = j mod M.  Axis 0 is summed as the slabs pass, the
    other axes by result() on the (M, ...) array that leaves."""

    def __init__(self, M: int, d: int):
        self.M, self.d, self.sum = M, d, None

    def add(self, x0: np.ndarray, h: np.ndarray):
        if self.sum is None:
            self.sum = np.zeros((self.M,) + h.shape[1:])
        _add_rows_mod(self.sum, h, x0[0])

    def result(self) -> np.ndarray:
        flip = -np.arange(self.M) % self.M
        out = self.sum
        for a in range(self.d):
            if a:
                periodic = np.zeros((self.M,) + out.shape[1:])
                _add_rows_mod(periodic, out, 0)
                out = periodic
            out = np.moveaxis(0.5 * (out + out[flip]), 0, -1)
        return out


class _GridSum:
    """sum over the orthant of h(x) prod_a cos(ts[a] x_a) on the product
    grid of the per-axis values ts, shape (len(ts[0]), ..., len(ts[-1])),
    fed by a weight stream.  Each slab is contracted with the cosine tables
    of axes 1 .. d-1, one tensordot each, then with axis 0's in blocks of
    rows whose table stays within _CHUNK entries.  result() reads the sum
    at index, all of it by default."""

    def __init__(self, ts, R: int, index=Ellipsis):
        x = _other_axes(R, len(ts))
        self.t0, self.tables = ts[0], [_axis_cosines(t, x) for t in ts[1:]]
        self.step = max(1, _CHUNK // len(ts[0]))
        self.sum = np.zeros(tuple(len(t) for t in ts))
        self.index = index

    def add(self, x0: np.ndarray, h: np.ndarray):
        for table in self.tables:
            h = np.tensordot(h, table, axes=(1, 1))
        for i in range(0, len(x0), self.step):
            rows = slice(i, i + self.step)
            self.sum += np.tensordot(_axis_cosines(self.t0, x0[rows]),
                                     h[rows], axes=(1, 0))

    def result(self) -> np.ndarray:
        return self.sum[self.index]


class _RowSums:
    """sum over the orthant of h(x) prod_a cos(k_a x_a) at each row k of an
    (n, d) array, fed by a weight stream: each slab is contracted with each
    row's cosines, axis by axis."""

    def __init__(self, ks: np.ndarray, R: int):
        self.ks, self.x = ks, _other_axes(R, ks.shape[1])
        self.sum = np.zeros(len(ks))

    def add(self, x0: np.ndarray, h: np.ndarray):
        for n, k in enumerate(self.ks):
            v = h
            for a, ka in enumerate(k):
                xa = x0 if a == 0 else self.x
                v = np.cos(ka * xa) @ v.reshape(len(xa), -1)
            self.sum[n] += v.item()

    def result(self) -> np.ndarray:
        return self.sum


class _MomentSums:
    """sum over the orthant of |x|^kappa h(x) at each kappa, fed by a weight
    stream."""

    def __init__(self, kappas, R: int, d: int):
        self.kappas, self.R, self.d = kappas, R, d
        self.sum = [0.0] * len(kappas)

    def add(self, x0: np.ndarray, h: np.ndarray):
        r = _slab_norms(x0, self.R, self.d)
        if x0[0] == 0:
            r[(0,) * self.d] = 1.0  # no mass there; keeps 0^kappa finite
        for j, kappa in enumerate(self.kappas):
            self.sum[j] += float(np.sum(r ** kappa * h))


def _grid_points(axis: np.ndarray, d: int) -> np.ndarray:
    """Every point of axis^d as rows, the last coordinate varying fastest."""
    return np.stack([c.ravel() for c in
                     np.meshgrid(*([axis] * d), indexing="ij")], axis=1)


def _k_sample(axis: np.ndarray, d: int, seed: int) -> np.ndarray:
    """axis^d for d <= 3; above that, len(axis)^3 points drawn from it."""
    if d <= 3:
        return _grid_points(axis, d)
    rng = np.random.default_rng(seed)
    return axis[rng.integers(0, len(axis), size=(len(axis) ** 3, d))]


@dataclass(frozen=True)
class StepDistribution:
    family: str  # "nn" | "uniform" | "power"
    d: int
    L: int = 1
    alpha: float | None = None
    support_radius: int | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.family not in ("nn", "uniform", "power"):
            raise ValueError("unknown family %r" % (self.family,))
        if self.family != "nn" and self.L < 1:
            raise ValueError("L must be a positive integer")
        if self.family == "nn" and self.L != 1:
            raise ValueError("a range L applies to the uniform and power "
                             "families only")
        if self.family != "power" and self.alpha is not None:
            raise ValueError("alpha applies to the power family only")
        if self.family != "power" and self.support_radius is not None:
            raise ValueError("a truncation applies to the power family only")
        if self.family == "power":
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("power family needs alpha > 0")
            radius = self.support_radius
            if radius is None:
                radius = self._default_power_radius()
            elif not isinstance(radius, (int, np.integer)) or radius < 1:
                raise ValueError("truncation must be an integer >= 1")
            object.__setattr__(self, "support_radius", radius)

    # -- power-law truncation policy ------------------------------------
    def _default_power_radius(self) -> int:
        d, L, a = self.d, self.L, self.alpha
        # crude lower bound on the norm: the 2d nearest neighbors alone (h=1)
        target = POWER_TAIL_TARGET * 2 * d
        r = 10.0 * L
        while _power_tail_bound(d, L, a, r) > target and r < 1e12:
            r *= 2.0
        budget_r = int((POWER_POINT_BUDGET ** (1.0 / d) - 1) / 2)
        return int(min(r, max(budget_r, 2 * L)))

    def _h_stream(self):
        """Yield (x0, h) for the slabs of the orthant {0..R}^d over axis 0,
        x0 the slab's axis-0 coordinates: h(x) = (|x/L| v 1)^{-d-alpha}
        times the number of sign images of x, 2^(number of x_a != 0), 0 at
        the origin.  Each slab is built in place in one reused buffer,
        overwritten by the next, and each entry by the same operations in
        the same order as in the whole orthant.  The first stream run to its
        end records sum h, added up slab by slab, so every stream gives the
        norm the same bits."""
        d, R, L = self.d, self.support_radius, self.L
        x = _other_axes(R, d)
        x2, images = (x / L) ** 2, np.where(x > 0, 2.0, 1.0)
        buf = np.empty((min(_slab_step(R, d), R + 1),) + (R + 1,) * (d - 1))
        record = "_h_sum" not in vars(self)
        total = 0.0
        for x0 in _slabs(R, d):
            h = buf[:len(x0)]
            h.fill(0.0)
            _reduce_axes(np.add, [(x0 / L) ** 2] + [x2] * (d - 1), h)
            np.sqrt(h, out=h)
            np.maximum(h, 1.0, out=h)
            np.power(h, -(d + self.alpha), out=h)
            _reduce_axes(np.multiply,
                         [np.where(x0 > 0, 2.0, 1.0)] + [images] * (d - 1), h)
            if x0[0] == 0:
                h[(0,) * d] = 0.0
            if record:
                total += float(np.sum(h))
            yield x0, h
        if record:
            object.__setattr__(self, "_h_sum", total)

    def _feed(self, sinks) -> float:
        """Run one weight stream into every sink's add; the norm."""
        for x0, h in self._h_stream():
            for sink in sinks:
                sink.add(x0, h)
        return self.norm_const

    @cached_property
    def norm_const(self) -> float:
        """Power family: sum h over the truncated support plus the integral
        tail bound, so that sum_x D(x) = 1 by construction; sum h comes from
        the first stream that ran to its end, or from one run now.  0 for
        nn and uniform."""
        if self.family != "power":
            return 0.0
        if "_h_sum" not in vars(self):
            self._feed([])
        return self._h_sum + _power_tail_bound(self.d, self.L, self.alpha,
                                               self.support_radius)

    @property
    def tail_bound(self) -> float:
        """The D-mass beyond the truncation bound (power family), else 0."""
        if self.family != "power":
            return 0.0
        return (_power_tail_bound(self.d, self.L, self.alpha,
                                  self.support_radius) / self.norm_const)

    # -- the support -------------------------------------------------------
    @property
    def support_size(self) -> int:
        """|Omega|: 2d (nn), (2L+1)^d - 1 (uniform), (2R+1)^d - 1 (power,
        truncated at ||x||_inf <= R)."""
        if self.family == "nn":
            return 2 * self.d
        R = self.L if self.family == "uniform" else self.support_radius
        return (2 * R + 1) ** self.d - 1

    def support(self):
        """(offsets, probs) of the whole support: nn's 2d neighbours, or the
        cube 0 < ||x||_inf <= R (L for uniform) in lexicographic order."""
        if self.family == "nn":
            eye = np.eye(self.d, dtype=np.int64)
            offs = np.stack([eye, -eye], axis=1).reshape(-1, self.d)
        else:
            R = self.L if self.family == "uniform" else self.support_radius
            cube = _grid_points(np.arange(-R, R + 1, dtype=np.int64), self.d)
            offs = cube[np.any(cube != 0, axis=1)]
        if self.family == "power":
            return offs, self.probs_at(offs)
        return offs, np.full(len(offs), 1.0 / self.support_size)

    def probs_at(self, offs) -> np.ndarray:
        """Power-family D at the rows of an (n, d) array of offsets in the
        support: h at |x| without its images, by the stream's operations
        in its order, over the norm.  The image count is a power of 2, so
        this has the bits of the stream entry over its images."""
        y = np.abs(offs)
        r2 = np.zeros(len(y))
        for a in range(self.d):
            r2 += (y[:, a] / self.L) ** 2
        h = np.power(np.maximum(np.sqrt(r2), 1.0), -(self.d + self.alpha))
        return h / self.norm_const

    def orthant_norm_slabs(self, r: int):
        """Yield (x0, ||y||_2 on those rows) for the slabs of the orthant
        sub-cube {0..r}^d over axis 0, x0 their axis-0 coordinates."""
        for x0 in _slabs(r, self.d):
            yield x0, _slab_norms(x0, r, self.d)

    # -- evaluation ------------------------------------------------------
    @property
    def sup_d(self) -> float:
        if self.family == "power":
            return 1.0 / self.norm_const
        return 1.0 / self.support_size

    @property
    def alpha_wedge_2(self) -> float:
        return min(self.alpha, 2.0) if self.family == "power" else 2.0

    # -- Fourier ----------------------------------------------------------
    def closed_form(self, t):
        """The nn/uniform transform axis by axis: the factors at t, the ufunc
        that combines them over the d axes, and the map from the combined
        key to Dhat, which overwrites the key array.  nn: sum_a cos k_a,
        divided by d; uniform: the product of Dirichlet kernels less the
        origin term, divided by |Omega|."""
        if self.family == "nn":
            return np.cos(t), np.add, lambda key: np.divide(key, self.d,
                                                            out=key)
        if self.family == "uniform":
            return (dirichlet_kernel(t, self.L), np.multiply,
                    lambda key: np.divide(np.subtract(key, 1.0, out=key),
                                          self.support_size, out=key))
        raise ValueError("separable path needs a product-form transform")

    def fourier_d(self, k) -> np.ndarray | float:
        """Dhat(k) = sum_x D(x) cos(k.x); k is (d,) or (n, d).  The power
        family reads one weight stream (see _dhat_sink)."""
        k = np.asarray(k, dtype=float)
        single = k.ndim == 1
        ks = k[None, :] if single else k
        if ks.shape[-1] != self.d:
            raise ValueError("k must have %d components" % self.d)
        if self.family != "power":
            factors, combine, dhat = self.closed_form(ks)
            out = dhat(combine.reduce(factors, axis=-1))
        else:
            out = self.scan([ks], [])[0][0]
        return float(out[0]) if single else out

    def fourier_d_grid(self, t) -> np.ndarray:
        """Dhat on the product grid t^d, shape (len(t),)^d, for one axis of
        k values t; built axis by axis, never point by point, and for nn
        and uniform in place: every entry starts from the combine identity,
        takes axes 0 .. d-1 in turn, then the key -> Dhat map, in one grid."""
        t = np.asarray(t, dtype=float)
        if self.family == "power":
            return self._power_transform([t] * self.d)
        factors, combine, to_dhat = self.closed_form(t)
        # allocated before any work, so a grid too large fails at once
        key = np.full((len(t),) * self.d, float(combine.identity))
        return to_dhat(_reduce_axes(combine, [factors] * self.d, key))

    def _power_transform(self, ts) -> np.ndarray:
        """Dhat on the product grid of the per-axis values ts, shape
        (len(ts[0]), ..., len(ts[d-1])): one weight stream, over the norm."""
        sink = _GridSum(ts, self.support_radius)
        norm = self._feed([sink])
        return sink.result() / norm

    def _dhat_sink(self, ks: np.ndarray):
        """The sink of sum h(x) cos(k.x) at the rows of an (n, d) array ks:
        the product grid of the rows' distinct per-axis values when it and
        a slab's partial contractions stay within PRODUCT_GRID_LIMIT entries
        (a scan grid, or k sampled from one), the rows one by one
        otherwise."""
        d, R = self.d, self.support_radius
        axes = [np.unique(ks[:, a], return_inverse=True) for a in range(d)]
        sizes = [len(u) for u, _ in axes]
        rows = min(_slab_step(R, d), R + 1)
        largest = max([math.prod(sizes)] + [
            rows * math.prod(sizes[1:a + 1]) * (R + 1) ** (d - 1 - a)
            for a in range(1, d)])
        if largest > PRODUCT_GRID_LIMIT:
            return _RowSums(ks, R)
        return _GridSum([u for u, _ in axes], R,
                        tuple(inv for _, inv in axes))

    def fourier_d_support_sum(self, ks) -> np.ndarray:
        """Dhat at the rows of an (n, d) array ks as a sum over the support
        in row blocks (oracle for the closed forms)."""
        ks = np.asarray(ks, dtype=float)
        offs, probs = self.support()
        out = np.zeros(len(ks))
        step = max(1, _CHUNK // max(len(ks), 1))
        for i in range(0, len(offs), step):
            out += np.cos(ks @ offs[i:i + step].T.astype(float)) \
                @ probs[i:i + step]
        return out

    # -- torus folding ------------------------------------------------------
    def fold(self, grid: TorusGrid) -> TorusField:
        """D_M(x) = sum over images y = x mod M of D(y)."""
        return self.fold_and_grids(grid, [])[0]

    def fold_and_grids(self, grid: TorusGrid, ts) -> tuple:
        """(fold(grid), [fourier_d_grid(t) for t in ts]); the power family
        reads one weight stream for all of them, nn and uniform add up
        their support."""
        if grid.d != self.d:
            raise ValueError("grid dimension mismatch")
        if self.family != "power":
            offs, probs = self.support()
            vals = np.zeros(grid.n_sites)
            np.add.at(vals, grid.flat_index(offs), probs)
            return (TorusField(grid, vals.reshape(grid.shape), "x"),
                    [self.fourier_d_grid(t) for t in ts])
        fold = _FoldSum(grid.M, self.d)
        grids = [_GridSum([np.asarray(t, dtype=float)] * self.d,
                          self.support_radius) for t in ts]
        norm = self._feed([fold] + grids)
        return (TorusField(grid, fold.result() / norm, "x"),
                [sink.result() / norm for sink in grids])

    # -- moments and condition scan -------------------------------------
    def moments(self, kappas) -> list:
        """Sum |x|^kappa D(x) at each kappa, or "divergent" for the power
        family at kappa >= alpha, decided analytically; the power family
        sums every convergent one over one weight stream."""
        if self.family == "power":
            return self.scan([], kappas)[1]
        offs, p = self.support()
        r = np.sqrt(np.sum(offs.astype(float) ** 2, axis=1))
        return [float(np.sum(r ** kappa * p)) for kappa in kappas]

    def scan(self, samples, kappas):
        """(Dhat at the rows of each (n, d) array in samples, the moment at
        each kappa).  The power family reads one weight stream for all of
        them and divides by the norm at the end."""
        if self.family != "power":
            return [self.fourier_d(k) for k in samples], self.moments(kappas)
        sinks = [self._dhat_sink(np.asarray(k, dtype=float)) for k in samples]
        finite = [kappa for kappa in kappas if kappa < self.alpha]
        moments = _MomentSums(finite, self.support_radius, self.d)
        if finite:
            sinks.append(moments)
        norm = self._feed(sinks) if sinks else None
        sums = iter(moments.sum)
        return ([sink.result() / norm for sink in sinks[:len(samples)]],
                [next(sums) / norm if kappa < self.alpha else "divergent"
                 for kappa in kappas])

    def to_spec(self) -> dict:
        out = {"family": self.family, "d": self.d}
        if self.family != "nn":
            out["L"] = self.L
        if self.family == "power":
            out["alpha"] = self.alpha
            out["truncation"] = self.support_radius
        return out

    @classmethod
    def from_spec(cls, spec: dict) -> "StepDistribution":
        return cls(family=spec["family"], d=int(spec["d"]),
                   L=int(spec.get("L", 1)),
                   alpha=spec.get("alpha"),
                   support_radius=spec.get("truncation"))


@dataclass
class ConditionReport:
    c1_hat: float
    c2_hat: float
    sup_d: float
    moment_table: list
    ok: bool
    violations: list
    grid_res: int
    eps: float


def verify_conditions(dist: StepDistribution, grid_res: int = 16,
                      eps: float = 0.1) -> ConditionReport:
    """Scan the dual grid for the small-k and large-k constants.

    c1_hat: largest c1 with 1 - Dhat(k) >= c1 L^{a^2} |k|^{a^2} on tested k
    with ||k||_inf <= 1/L (a^2 = alpha wedge 2); c2_hat: largest c2 with
    1 - Dhat > c2 outside that box and 1 - Dhat < 2 - c2 everywhere.
    """
    if grid_res < 4:
        raise ValueError("grid_res must be >= 4")
    # kappa = 2 + eps and alpha - eps must sit strictly beside 2 and alpha
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if dist.family == "power" and not eps < dist.alpha:
        raise ValueError(f"eps must be < alpha = {dist.alpha} for the power "
                         f"family, got {eps}")
    d, L = dist.d, dist.L
    aw2 = dist.alpha_wedge_2

    axis = 2.0 * np.pi * (np.arange(grid_res) - grid_res // 2) / grid_res
    # always include a fine sample of the inner box ||k||_inf <= 1/L
    inner_axis = np.linspace(-1.0 / L, 1.0 / L, grid_res)
    # each sample is its own product grid, so its per-axis values stay few;
    # the power family reads one weight stream for both and the moments
    samples = [_k_sample(axis, d, 12345), _k_sample(inner_axis, d, 54321)]
    kappas = [2.0, 2.0 + eps]
    if dist.family == "power":
        kappas += [dist.alpha - eps, dist.alpha]
    dhats, moments = dist.scan(samples, kappas)
    ks = np.concatenate(samples)
    dhat = np.concatenate(dhats)
    keep = np.any(ks != 0.0, axis=1)
    ks = ks[keep]

    one_minus = 1.0 - dhat[keep]
    norm_inf = np.max(np.abs(ks), axis=1)
    norm_2 = np.sqrt(np.sum(ks ** 2, axis=1))

    violations = []
    small = norm_inf <= 1.0 / L
    if np.any(small):
        ratios = one_minus[small] / (L ** aw2 * norm_2[small] ** aw2)
        c1_hat = float(np.min(ratios))
        if c1_hat <= 0:
            worst = ks[small][int(np.argmin(ratios))]
            violations.append({"condition": "small-k lower bound",
                               "k": worst.tolist()})
    else:
        c1_hat = float("nan")
    large = ~small
    c2_low = float(np.min(one_minus[large])) if np.any(large) else float("inf")
    c2_high = float(np.min(2.0 - one_minus))
    c2_hat = min(c2_low, c2_high)
    if c2_hat <= 0:
        violations.append({"condition": "large-k bounds", "k": None})

    table = list(zip(kappas, moments))

    return ConditionReport(c1_hat=c1_hat, c2_hat=c2_hat, sup_d=dist.sup_d,
                           moment_table=table, ok=not violations,
                           violations=violations, grid_res=grid_res, eps=eps)


def ising_tau(J: dict, z: float):
    """tau(z) = sum_y tanh(z J(y)) and the induced step weights.

    J maps offset tuples to nonnegative couplings (origin excluded); both
    tau and D(x) = tanh(z J(x)) / tau are returned.
    """
    if any(v < 0 for v in J.values()):
        raise ValueError("couplings must be nonnegative")
    terms = {x: math.tanh(z * Jx) for x, Jx in J.items() if any(x)}
    tau = sum(terms.values())
    if tau == 0.0:
        raise ValueError("tau(z) = 0: step normalization undefined")
    return tau, {x: t / tau for x, t in terms.items()}
