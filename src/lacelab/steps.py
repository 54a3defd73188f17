"""The three step-distribution families and their condition verifiers.

Families:
  nn       D(x) = 1/(2d) on |x| = 1.
  uniform  D(x) = 1/((2L+1)^d - 1) on 0 < ||x||_inf <= L.
  power    D(x) = (|x/L| v 1)^{-d-alpha} / norm_const on x != 0, with the
           normalization summed over the truncated support plus an integral
           tail bound so that sum_x D(x) = 1 by construction.

All families put no mass at the origin and are invariant under coordinate
permutations and sign flips.  nn and uniform list their support as one
table.  The power family's one weight table is its orthant mass, the weight
of each x >= 0 with its sign images, made once in the constructor; its
norm, transform, moments, fold, support and SAW steps all read it.

The transform is built from the family, never from a fold: nn and uniform
by their closed forms axis by axis, the power family by contracting its
orthant mass with a per-axis cosine table one axis at a time.
fourier_d_grid gives Dhat on a whole product grid; closed_form_grid, the
one home of the nn/uniform grid, also gives it a slab of rows at a time,
which is how walk.py's k-space paths read those two families.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .torus import TorusField, TorusGrid

POWER_POINT_BUDGET = int(2e7)  # support-point cap for the power family
POWER_TAIL_TARGET = 1e-9
_CHUNK = 1 << 20
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


def _outer_reduce(op, vals: np.ndarray, d: int, out=None,
                  rows=slice(None)) -> np.ndarray:
    """out[j] = op over the d axes of vals[j_a], shape (len(vals),)^d, into
    out if given (so out[j] op= ...); the whole array is allocated before any
    work, so a grid too large for memory fails at once.  With rows, only
    those rows of axis 0: shape (len(vals[rows]),) + (len(vals),)^(d-1),
    each entry by the same operations in the same order as in the whole."""
    if out is None:
        out = np.full((len(vals[rows]),) + (len(vals),) * (d - 1),
                      float(op.identity))
    for a in range(d):
        axis = vals[rows] if a == 0 else vals
        op(out, axis.reshape((-1,) + (1,) * (d - 1 - a)), out=out)
    return out


def closed_form_grid(form, d: int, rows=slice(None), out=None) -> np.ndarray:
    """Dhat from a closed form (StepDistribution.closed_form at t) on the
    product grid t^d, or on its rows `rows` of axis 0, built in place, in
    out if given (a buffer of the rows' shape; its contents are
    overwritten).  Every entry starts from the combine identity, takes axis
    0, then axes 1 .. d-1, then the key -> Dhat map, so a slab of rows
    equals the same rows of the whole grid bit for bit."""
    factors, combine, to_dhat = form
    if out is not None:
        out.fill(combine.identity)
    return to_dhat(_outer_reduce(combine, factors, d, out=out, rows=rows))


def _axis_cosines(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """cos(t_i x_j), the per-axis table of the power transform."""
    return np.cos(np.multiply.outer(t, x.astype(float)))


def _fold_orthant(mass: np.ndarray, M: int) -> np.ndarray:
    """The orthant mass folded onto (Z / M Z)^d, one axis at a time: y != 0
    sends half its mass to y mod M and half to -y mod M, so the folded axis
    is (A[j] + A[-j mod M]) / 2 with A[j] the sum of mass[y], y = j mod M."""
    out = mass
    flip = -np.arange(M) % M
    for _ in range(mass.ndim):
        n = len(out)
        whole = n - n % M
        periodic = out[:whole].reshape((-1, M) + out.shape[1:]).sum(axis=0)
        periodic[:n - whole] += out[whole:]
        out = np.moveaxis(0.5 * (periodic + periodic[flip]), 0, -1)
    return out


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
    # power family only, computed in __post_init__
    norm_const: float = field(default=0.0, init=False, compare=False)
    tail_bound: float = field(default=0.0, init=False, compare=False)
    orthant_mass: np.ndarray | None = field(default=None, init=False,
                                            compare=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.family not in ("nn", "uniform", "power"):
            raise ValueError("unknown family %r" % (self.family,))
        if self.family != "nn" and self.L < 1:
            raise ValueError("L must be a positive integer")
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
            h = self._power_orthant_h(radius)
            tail = _power_tail_bound(self.d, self.L, self.alpha, radius)
            norm = float(np.sum(h)) + tail
            h /= norm
            object.__setattr__(self, "norm_const", norm)
            object.__setattr__(self, "tail_bound", tail / norm)
            object.__setattr__(self, "orthant_mass", h)

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

    def _power_orthant_h(self, R: int) -> np.ndarray:
        """h(x) = (|x/L| v 1)^{-d-alpha} times the number of sign images of
        x, 2^(number of x_a != 0), on the orthant {0..R}^d; 0 at the origin.
        Built in place: one array of (R+1)^d floats."""
        d = self.d
        h = _outer_reduce(np.add, (np.arange(R + 1) / self.L) ** 2, d)
        np.sqrt(h, out=h)
        np.maximum(h, 1.0, out=h)
        np.power(h, -(d + self.alpha), out=h)
        images = np.full(R + 1, 2.0)
        images[0] = 1.0
        _outer_reduce(np.multiply, images, d, out=h)
        h[(0,) * d] = 0.0
        return h

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
        support: mass[|x|] / 2^(number of x_a != 0)."""
        y = np.abs(offs)
        return (self.orthant_mass[tuple(y.T)]
                / 2.0 ** np.count_nonzero(y, axis=1))

    def orthant_norms(self, r: int) -> np.ndarray:
        """||y||_2 on the orthant sub-cube {0..r}^d, shape (r + 1,)^d."""
        x2 = np.arange(r + 1, dtype=float) ** 2
        return np.sqrt(_outer_reduce(np.add, x2, self.d))

    # -- evaluation ------------------------------------------------------
    def eval_d(self, x) -> float:
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.d,):
            raise ValueError("x must be a %d-vector" % self.d)
        if not np.any(x):
            return 0.0
        if self.family == "power":
            r = float(np.sqrt(np.sum((x / self.L) ** 2)))
            return max(r, 1.0) ** (-(self.d + self.alpha)) / self.norm_const
        inside = (np.sum(np.abs(x)) == 1 if self.family == "nn"
                  else np.max(np.abs(x)) <= self.L)
        return 1.0 / self.support_size if inside else 0.0

    def eval_d_exact(self, x) -> Fraction:
        """Exact rational value; nn and uniform families only."""
        if self.family == "power":
            raise ValueError("exact rationals only for nn/uniform families")
        return Fraction(1, self.support_size) if self.eval_d(x) else Fraction(0)

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
        """Dhat(k) = sum_x D(x) cos(k.x); k is (d,) or (n, d).

        The power family takes the product grid of the rows' distinct
        per-axis values when that grid is small (a scan grid, or k sampled
        from one), and the rows one by one otherwise."""
        k = np.asarray(k, dtype=float)
        single = k.ndim == 1
        ks = k[None, :] if single else k
        if ks.shape[-1] != self.d:
            raise ValueError("k must have %d components" % self.d)
        if self.family != "power":
            factors, combine, dhat = self.closed_form(ks)
            out = dhat(combine.reduce(factors, axis=-1))
        else:
            axes = [np.unique(ks[:, a], return_inverse=True)
                    for a in range(self.d)]
            sizes = [len(u) for u, _ in axes]
            width = self.support_radius + 1
            largest = max(math.prod(sizes[:a + 1]) * width ** (self.d - a - 1)
                          for a in range(self.d))
            if largest <= PRODUCT_GRID_LIMIT:
                grid = self._power_transform([u for u, _ in axes])
                out = grid[tuple(inv for _, inv in axes)]
            else:
                out = np.array([self._power_transform(row[:, None]).item()
                                for row in ks])
        return float(out[0]) if single else out

    def fourier_d_grid(self, t) -> np.ndarray:
        """Dhat on the product grid t^d, shape (len(t),)^d, for one axis of
        k values t; built axis by axis, never point by point, and for nn
        and uniform in place (closed_form_grid): one grid."""
        t = np.asarray(t, dtype=float)
        if self.family == "power":
            return self._power_transform([t] * self.d)
        return closed_form_grid(self.closed_form(t), self.d)

    def _power_transform(self, ts) -> np.ndarray:
        """sum over the orthant of mass(x) prod_a cos(ts[a] x_a), shape
        (len(ts[0]), ..., len(ts[d-1])): one tensordot per axis.  The first
        axis goes in blocks of x_0, so its cosine table stays small even
        when the orthant is one long axis."""
        mass = self.orthant_mass
        x = np.arange(self.support_radius + 1)
        step = max(1, _CHUNK // len(ts[0]))
        out = sum(np.tensordot(mass[i:i + step],
                               _axis_cosines(ts[0], x[i:i + step]),
                               axes=(0, 1))
                  for i in range(0, len(x), step))
        for t in ts[1:]:
            out = np.tensordot(out, _axis_cosines(t, x), axes=(0, 1))
        return out

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
        if grid.d != self.d:
            raise ValueError("grid dimension mismatch")
        if self.family == "power":
            vals = _fold_orthant(self.orthant_mass, grid.M)
        else:
            offs, probs = self.support()
            vals = np.zeros(grid.n_sites)
            np.add.at(vals, grid.flat_index(offs), probs)
        return TorusField(grid, vals.reshape(grid.shape), "x")

    # -- moments and condition scan -------------------------------------
    def moment(self, kappa: float):
        """Sum |x|^kappa D(x), or "divergent" for the power family at kappa
        >= alpha, decided analytically.  The power family sums its orthant
        mass."""
        if self.family == "power":
            if kappa >= self.alpha:
                return "divergent"
            r = self.orthant_norms(self.support_radius)
            r[(0,) * self.d] = 1.0  # no mass there; keeps 0^kappa finite
            return float(np.sum(r ** kappa * self.orthant_mass))
        offs, p = self.support()
        r = np.sqrt(np.sum(offs.astype(float) ** 2, axis=1))
        return float(np.sum(r ** kappa * p))

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
    d, L = dist.d, dist.L if dist.family != "nn" else 1
    aw2 = dist.alpha_wedge_2

    axis = 2.0 * np.pi * (np.arange(grid_res) - grid_res // 2) / grid_res
    # always include a fine sample of the inner box ||k||_inf <= 1/L
    inner_axis = np.linspace(-1.0 / L, 1.0 / L, grid_res)
    # each sample is one call, so its per-axis values stay a small grid
    samples = [_k_sample(axis, d, 12345), _k_sample(inner_axis, d, 54321)]
    ks = np.concatenate(samples)
    dhat = np.concatenate([dist.fourier_d(sample) for sample in samples])
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

    table = []
    kappas = [2.0, 2.0 + eps]
    if dist.family == "power":
        kappas += [dist.alpha - eps, dist.alpha]
    for kappa in kappas:
        table.append((kappa, dist.moment(kappa)))

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
