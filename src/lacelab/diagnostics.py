"""Diagram values, bootstrap functions, and the standalone inequalities.

All quantities live on a dual grid: a TwoPointInput carries a real symmetric
Ghat together with the step weight tau, from which chi = Ghat(0) and
lambda = 1 - 1/chi follow.  The comparison Green's function is
Chat_lambda(k) = 1/(1 - lambda Dhat(k)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .steps import StepDistribution
from .torus import (TorusField, TorusGrid, convolve, delta_k, dft,
                    field_at_zero, is_symmetric, one_minus_cos_sum, real_dft,
                    real_idft, reflect)
from .walk import beta_kspace, folded_dhat, nonzero_modes, resolvent

F3_EXHAUSTIVE_MAX_SITES = 4096
# above that size f3 is the max over F3_RNG_PAIRS pairs (k, l) drawn from
# np.random.default_rng(F3_RNG_SEED)
F3_RNG_PAIRS = 20000
F3_RNG_SEED = 0
U_CONSTANT = 200.0
COS_G_CONSTANT = 300.0
# bubble_triangle: k/x agreement of B and T, relative to the size of their
# rounding error, M^-d sum_k Ghat^2 and M^-d sum_k |Ghat|^3
CROSS_CHECK_TOL = 1e-9


@dataclass
class TwoPointInput:
    grid: TorusGrid
    ghat: np.ndarray   # real symmetric transform of the two-point function
    tau: float
    dhat: np.ndarray   # transform of the folded step weights

    def __post_init__(self):
        self.ghat = np.asarray(self.ghat, dtype=float)
        self.dhat = np.asarray(self.dhat, dtype=float)
        if self.ghat.shape != self.grid.shape:
            raise ValueError("ghat shape mismatch")
        if self.dhat.shape != self.grid.shape:
            raise ValueError("dhat shape mismatch")

    @property
    def chi(self) -> float:
        return float(self.ghat[(0,) * self.grid.d])

    @property
    def lam(self) -> float:
        if not self.chi > 0:  # written so that a NaN chi fails it too
            raise ValueError("chi = Ghat(0) must be positive, got %r"
                             % self.chi)
        lam = 1.0 - 1.0 / self.chi
        if not -1e-12 <= lam <= 1.0 + 1e-12:
            raise ValueError("lambda = 1 - 1/chi outside [0, 1]")
        return min(max(lam, 0.0), 1.0)

    def c_lambda(self) -> np.ndarray:
        return 1.0 / (1.0 - self.lam * self.dhat)

    def f2(self) -> float:
        """sup_k Ghat(k) / Chat_lambda(k)."""
        return float(np.max(self.ghat / self.c_lambda()))

    def gtilde_hat(self) -> np.ndarray:
        """tau Dhat Ghat, the transform of the one-step-smoothed G."""
        return self.tau * self.dhat * self.ghat

    def bubble(self) -> float:
        """B = M^-d sum_k Ghat(k)^2."""
        return _mean(self.grid, self.ghat ** 2)

    def bubble_tilde(self) -> float:
        """B_tilde = M^-d sum_k (tau Dhat(k) Ghat(k))^2."""
        return _mean(self.grid, self.gtilde_hat() ** 2)


def free_two_point(dist: StepDistribution, grid: TorusGrid,
                   z: float) -> TwoPointInput:
    """The exactly solvable walk input: Ghat = 1/(1 - z Dhat), tau = z < 1,
    with Dhat taken from the family on the dual grid (walk.folded_dhat), not
    from a fold and FFT."""
    dhat = folded_dhat(dist, grid)
    return TwoPointInput(grid=grid, ghat=resolvent(dhat, z), tau=z, dhat=dhat)


@dataclass
class DiagramReport:
    B: float
    T: float
    nabla: float
    B_tilde: float
    psi_mass: float | None
    f1: float
    f2: float
    f3: float
    infrared_sup: float
    flags: list


def serialize_input(inp: TwoPointInput) -> dict:
    return {"d": inp.grid.d, "M": inp.grid.M, "tau": inp.tau,
            "ghat": inp.ghat.ravel().tolist(),
            "dhat": inp.dhat.ravel().tolist()}


def deserialize_input(doc: dict) -> TwoPointInput:
    """The TwoPointInput of a document serialize_input wrote; one that is
    not a JSON object, lacks one of its keys or holds a value of the wrong
    type, such as a d or M that is not an integer or a tau that is not a
    number, or a NaN or an infinity in tau, ghat or dhat, is a
    ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("the two-point input is not a JSON object")
    missing = [k for k in ("d", "M", "tau", "ghat", "dhat") if k not in doc]
    if missing:
        raise ValueError("the two-point input has no %s"
                         % ", ".join(missing))
    for key, types, name in (("d", (int,), "an integer"),
                             ("M", (int,), "an integer"),
                             ("tau", (int, float), "a number")):
        if type(doc[key]) not in types:  # nor a bool or a string
            raise ValueError("the two-point input holds a value of the "
                             "wrong type: %s must be %s, got %r"
                             % (key, name, doc[key]))
    try:
        grid = TorusGrid(doc["d"], doc["M"])
        inp = TwoPointInput(
            grid=grid,
            ghat=np.asarray(doc["ghat"], dtype=float).reshape(grid.shape),
            tau=float(doc["tau"]),
            dhat=np.asarray(doc["dhat"], dtype=float).reshape(grid.shape))
    except TypeError as exc:
        raise ValueError("the two-point input holds a value of the wrong "
                         "type: %s" % exc) from None
    for key in ("tau", "ghat", "dhat"):
        if not np.all(np.isfinite(getattr(inp, key))):
            raise ValueError("the two-point input's %s must be finite, "
                             "got NaN or an infinity" % key)
    return inp


def _mean(grid: TorusGrid, arr: np.ndarray) -> float:
    return float(np.sum(arr) / grid.n_sites)


def bubble_triangle(inp: TwoPointInput):
    """B, T, nabla, B-tilde on the grid, cross-checked in x-space."""
    g = inp.ghat
    if not is_symmetric(TorusField(inp.grid, g, "k")):
        raise ValueError("ghat must be symmetric")
    grid = inp.grid
    B = inp.bubble()
    T = _mean(grid, g ** 3)
    nabla = _mean(grid, inp.dhat * g ** 3)
    B_tilde = inp.bubble_tilde()

    gx = _g_x(inp)
    gg = convolve(gx, gx)
    B_x = field_at_zero(gg)
    if abs(B - B_x) > CROSS_CHECK_TOL * max(1.0, B):
        raise AssertionError("bubble k/x cross-check failed")
    # (G*G*G)(0) = sum_x (G*G)(x) G(-x)
    T_x = float(np.sum(gg.values * reflect(gx).values))
    # equals T when Ghat >= 0, as on every input the program builds
    T_scale = _mean(grid, np.abs(g) ** 3)
    if abs(T - T_x) > CROSS_CHECK_TOL * max(1.0, T_scale):
        raise AssertionError("triangle k/x cross-check failed")
    return B, T, nabla, B_tilde


def _g_x(inp: TwoPointInput) -> TorusField:
    """G(x), the real inverse transform of Ghat."""
    return real_idft(TorusField(inp.grid, inp.ghat, "k"))


def g_tilde_field(inp: TwoPointInput) -> TorusField:
    """tau (D*G)(x), the single-step-smoothed two-point function."""
    return real_idft(TorusField(inp.grid, inp.gtilde_hat(), "k"))


def chain_of_bubbles(inp: TwoPointInput) -> dict:
    """Mass of the bubble chain sum_{j>=1} (Gtilde^2)^{*j}; needs
    B_tilde < 1/2.  On the torus the mass of a convolution is the product
    of the masses, so the j-th term has mass B_tilde^j and the chain
    B_tilde / (1 - B_tilde).  bound_holds, mass <= 2 B_tilde, is then the
    statement B_tilde <= 1/2."""
    b_tilde = float(np.sum(g_tilde_field(inp).values ** 2))
    if b_tilde >= 0.5:
        return {"B_tilde": b_tilde, "converged": False, "psi_mass": None,
                "bound_holds": None}
    mass = b_tilde / (1.0 - b_tilde)
    return {"B_tilde": b_tilde, "converged": True, "psi_mass": mass,
            "bound_holds": mass <= 2.0 * b_tilde + 1e-12}


def u_weight(c_lam: np.ndarray, grid: TorusGrid, k, l):
    """U(k, l) = 200 / C(k) * [C(l-k)C(l) + C(l)C(l+k) + C(l-k)C(l+k)]
    for (..., d) index arrays k and l that broadcast together."""
    v = c_lam.ravel()
    a, b, c = (v[i] for i in grid.stencil(k, l))
    return U_CONSTANT / v[grid.flat_index(k)] * (a * b + b * c + a * c)


def bootstrap_f(inp: TwoPointInput) -> tuple:
    """f1 = tau, f2 = sup Ghat/Chat_lambda, f3 = sup |Delta_k Ghat| / U."""
    grid = inp.grid
    c_lam = inp.c_lambda()
    g = inp.ghat
    f3 = 0.0
    if grid.n_sites <= F3_EXHAUSTIVE_MAX_SITES:
        # exhaustive over k: one np.roll pass over every l per k.  These are
        # the delta_k and u_weight formulas term for term (the tests hold
        # them bit-equal); at 4096 sites, gathering through their stencil
        # indices instead costs 3-5x as much.
        axes = tuple(range(grid.d))
        for k in np.ndindex(grid.shape):
            minus_k = tuple(-a for a in k)
            num = np.abs(np.roll(g, k, axes) + np.roll(g, minus_k, axes)
                         - 2.0 * g)
            cp = np.roll(c_lam, minus_k, axes)
            cm = np.roll(c_lam, k, axes)
            den = (U_CONSTANT / c_lam[k]
                   * (cm * c_lam + c_lam * cp + cm * cp))
            f3 = float(np.fmax.reduce(num / den, axis=None,
                                      initial=f3))  # skips 0/0 pairs
        mode = "exhaustive"
    else:
        # the same stream as F3_RNG_PAIRS draws of k then l, size d each
        pairs = np.random.default_rng(F3_RNG_SEED).integers(
            0, grid.M, size=(F3_RNG_PAIRS, 2, grid.d))
        k, l = pairs[:, 0], pairs[:, 1]
        ratio = (np.abs(delta_k(TorusField(grid, g, "k"), k, l))
                 / u_weight(c_lam, grid, k, l))
        f3 = float(np.fmax.reduce(ratio, initial=f3))  # skips 0/0 pairs
        mode = "sampled"
    return inp.tau, inp.f2(), f3, mode


def infrared_check(inp: TwoPointInput) -> float:
    """sup_k |Ghat(k) (1/chi + tau (1 - Dhat(k))) - 1|."""
    rho = inp.ghat * (1.0 / inp.chi + inp.tau * (1.0 - inp.dhat))
    return float(np.max(np.abs(rho - 1.0)))


def diagram_report(inp: TwoPointInput) -> DiagramReport:
    B, T, nabla, B_tilde = bubble_triangle(inp)
    chain = chain_of_bubbles(inp)
    f1, f2, f3, mode = bootstrap_f(inp)
    flags = ["f3:" + mode]
    if not chain["converged"]:
        flags.append("bubble-chain-not-convergent")
    return DiagramReport(B=B, T=T, nabla=nabla, B_tilde=B_tilde,
                         psi_mass=chain["psi_mass"], f1=f1, f2=f2, f3=f3,
                         infrared_sup=infrared_check(inp), flags=flags)


# -- standalone inequality checks -----------------------------------------

def trig_lemma_check(a_field: TorusField, k, l) -> dict:
    """Second-difference bound for A = 1/(1 - ahat), symmetric a, ||a||_1 < 1.

    |Delta_k A(l)| <= (A(l-k) + A(l+k)) A(l) (|a|hat(0) - |a|hat(k))
                      + 8 A(l-k) A(l) A(l+k)
                        (|a|hat(0) - |a|hat(l)) (|a|hat(0) - |a|hat(k))
    for each (k, l) of (..., d) index arrays that broadcast together.
    """
    grid = a_field.grid
    if float(np.sum(np.abs(a_field.values))) >= 1.0:
        raise ValueError("need ||a||_1 < 1")
    A = TorusField(grid, 1.0 / (1.0 - real_dft(a_field)), "k")
    abshat = real_dft(TorusField(grid, np.abs(a_field.values), "x")).ravel()
    Alk, Al, Apk = (A.values.ravel()[i] for i in grid.stencil(k, l))
    at = grid.flat_index
    a0, ak, al = abshat[0], abshat[at(k)], abshat[at(l)]
    # delta_k gathers the same three values again, so that Delta keeps its
    # one definition; the repeat is one O(pairs) gather
    lhs = np.abs(delta_k(A, k, l))
    rhs = (Alk + Apk) * Al * (a0 - ak) + 8.0 * Alk * Al * Apk \
        * (a0 - al) * (a0 - ak)
    return {"lhs": lhs, "rhs": rhs,
            "holds": lhs <= rhs + 1e-9 * np.maximum(1.0, rhs)}


def cos_split_check(t_parts) -> dict:
    """1 - cos(sum t_n) <= (2N+3) sum_n (1 - cos t_n), N = len - 1."""
    t = np.asarray(t_parts, dtype=float)
    n_parts = len(t)
    lhs = 1.0 - math.cos(float(np.sum(t)))
    rhs = (2 * (n_parts - 1) + 3) * float(np.sum(1.0 - np.cos(t)))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12}


def delta_vs_cos_sum_check(g_field: TorusField, k, l) -> dict:
    """|Delta_k ghat(l)| <= 2 sum_x (1 - cos k.x) |g(x)| for symmetric g,
    for (..., d) index arrays k and l that broadcast together."""
    lhs = np.abs(delta_k(dft(g_field), k, l))
    rhs = 2.0 * one_minus_cos_sum(g_field, k)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-10}


def c_lambda_identity_check(dhat: np.ndarray, lam: float) -> dict:
    """0 <= Chat_lambda(k) (1 - Dhat(k)) <= 2 on the whole grid."""
    num = 1.0 - np.asarray(dhat, dtype=float)
    den = 1.0 - lam * np.asarray(dhat, dtype=float)
    # lam = 1, Dhat = 1 is a removable 0/0 point with limit 1
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(den == 0.0, 1.0, num / np.where(den == 0.0, 1.0, den))
    lo, hi = float(np.min(vals)), float(np.max(vals))
    return {"min": lo, "max": hi,
            "holds": lo >= -1e-12 and hi <= 2.0 + 1e-12}


def open_vs_closed_bubble_check(inp: TwoPointInput) -> dict:
    """Pointwise (G*G)(x) <= B and (Gt*Gt)(x) <= B_tilde."""
    gx, gt = _g_x(inp), g_tilde_field(inp)
    max_open = float(np.max(convolve(gx, gx).values))
    max_open_tilde = float(np.max(convolve(gt, gt).values))
    B, B_tilde = inp.bubble(), inp.bubble_tilde()
    return {"B": B, "B_tilde": B_tilde,
            "holds": (max_open <= B + 1e-10
                      and max_open_tilde <= B_tilde + 1e-10),
            "max_open": max_open, "max_open_tilde": max_open_tilde}


def cos_g_bound_check(inp: TwoPointInput, k_index, K: float) -> dict:
    """sup_x (1 - cos k.x) G(x) <= 300 K (1 - lam Dhat(k)) (C*C)(0),
    for each k of a (..., d) index array."""
    grid = inp.grid
    lhs = np.max(grid.one_minus_cos(k_index) * _g_x(inp).values,
                 axis=tuple(range(-grid.d, 0)))
    cc0 = _mean(grid, inp.c_lambda() ** 2)  # (C*C)(0) by Parseval
    dhat_k = inp.dhat.ravel()[grid.flat_index(k_index)]
    rhs = COS_G_CONSTANT * K * (1.0 - inp.lam * dhat_k) * cc0
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12}


def b_tilde_beta_bound_check(inp: TwoPointInput) -> dict:
    """B_tilde <= 4 K^4 mean_k Dhat^2/(1-Dhat)^2 with K = max(f1, f2).

    The k = 0 mode is excluded from both sides (on the right it is a genuine
    singularity; in the continuum it carries no measure).
    """
    K = max(inp.tau, inp.f2())
    B_tilde = float(np.sum(inp.gtilde_hat()[nonzero_modes(inp.grid.shape)]
                           ** 2) / inp.grid.n_sites)
    beta2 = beta_kspace(inp.dhat, 2)
    rhs = 4.0 * K ** 4 * beta2
    return {"B_tilde": B_tilde, "rhs": rhs, "K": K,
            "holds": B_tilde <= rhs + 1e-12}
