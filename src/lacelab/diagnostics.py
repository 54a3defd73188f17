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
                    field_at_zero, idft, one_minus_cos_sum, reflect)
from .walk import beta_kspace, folded_dhat, resolvent

F3_EXHAUSTIVE_MAX_SITES = 4096
U_CONSTANT = 200.0
COS_G_CONSTANT = 300.0


@dataclass
class TwoPointInput:
    grid: TorusGrid
    ghat: np.ndarray   # real symmetric transform of the two-point function
    tau: float
    dhat: np.ndarray   # transform of the folded step weights
    ghat_se: np.ndarray | None = None  # sampler noise, optional

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
        lam = 1.0 - 1.0 / self.chi
        if not -1e-12 <= lam <= 1.0 + 1e-12:
            raise ValueError("lambda = 1 - 1/chi outside [0, 1]")
        return min(max(lam, 0.0), 1.0)

    def c_lambda(self) -> np.ndarray:
        return 1.0 / (1.0 - self.lam * self.dhat)


def free_two_point(dist: StepDistribution, grid: TorusGrid,
                   z: float) -> TwoPointInput:
    """The exactly solvable walk input: Ghat = 1/(1 - z Dhat), tau = z < 1."""
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
    grid = TorusGrid(int(doc["d"]), int(doc["M"]))
    return TwoPointInput(
        grid=grid,
        ghat=np.asarray(doc["ghat"], dtype=float).reshape(grid.shape),
        tau=float(doc["tau"]),
        dhat=np.asarray(doc["dhat"], dtype=float).reshape(grid.shape))


def _mean(grid: TorusGrid, arr: np.ndarray) -> float:
    return float(np.sum(arr) / grid.n_sites)


def bubble_triangle(inp: TwoPointInput, cross_check_tol: float = 1e-9):
    """B, T, nabla, B-tilde on the grid, cross-checked in x-space."""
    g = inp.ghat
    g_reflected = reflect(TorusField(inp.grid, g, "k")).values
    if np.max(np.abs(g - g_reflected)) > 1e-9 * max(
            1.0, float(np.max(np.abs(g)))):
        raise ValueError("ghat must be symmetric")
    grid = inp.grid
    B = _mean(grid, g ** 2)
    T = _mean(grid, g ** 3)
    nabla = _mean(grid, inp.dhat * g ** 3)
    B_tilde = _mean(grid, (inp.tau * inp.dhat * g) ** 2)

    gx = _g_x(inp)
    B_x = field_at_zero(convolve(gx, gx))
    if abs(B - B_x) > cross_check_tol * max(1.0, B):
        raise AssertionError("bubble k/x cross-check failed")
    T_x = field_at_zero(convolve(convolve(gx, gx), gx))
    if abs(T - T_x) > cross_check_tol * max(1.0, T):
        raise AssertionError("triangle k/x cross-check failed")
    return B, T, nabla, B_tilde


def _g_x(inp: TwoPointInput) -> TorusField:
    """G(x), the real inverse transform of Ghat."""
    gx = idft(TorusField(inp.grid, inp.ghat.astype(complex), "k"))
    return TorusField(inp.grid, gx.values.real, "x")


def g_tilde_field(inp: TwoPointInput) -> TorusField:
    """tau (D*G)(x), the single-step-smoothed two-point function."""
    vals = np.fft.fftn(inp.tau * inp.dhat * inp.ghat) / inp.grid.n_sites
    return TorusField(inp.grid, vals.real, "x")


def chain_of_bubbles(inp: TwoPointInput, tol: float = 1e-12) -> dict:
    """Mass of the bubble chain sum_j (Gtilde^2)^{*j}; needs B_tilde < 1/2."""
    gt = g_tilde_field(inp)
    link = TorusField(inp.grid, gt.values ** 2, "x")
    b_tilde = float(np.sum(link.values))
    if b_tilde >= 0.5:
        return {"B_tilde": b_tilde, "converged": False, "psi_mass": None,
                "bound_holds": None}
    acc = link.copy()
    mass = float(np.sum(acc.values))
    term = acc
    while True:
        term = convolve(term, link)
        inc = float(np.sum(term.values))
        mass += inc
        if abs(inc) < tol:
            break
    return {"B_tilde": b_tilde, "converged": True, "psi_mass": mass,
            "bound_holds": mass <= 2.0 * b_tilde + 1e-12}


def u_weight(c_lam: np.ndarray, grid: TorusGrid, k, l) -> float:
    """U(k, l) = 200 / C(k) * [C(l-k)C(l) + C(l)C(l+k) + C(l-k)C(l+k)]."""
    M = grid.M
    k = np.asarray(k, dtype=int)
    l = np.asarray(l, dtype=int)
    a = float(c_lam[tuple((l - k) % M)])
    b = float(c_lam[tuple(l % M)])
    c = float(c_lam[tuple((l + k) % M)])
    return U_CONSTANT / float(c_lam[tuple(k % M)]) * (a * b + b * c + a * c)


def bootstrap_f(inp: TwoPointInput, rng_pairs: int = 20000,
                seed: int = 0) -> tuple:
    """f1 = tau, f2 = sup Ghat/Chat_lambda, f3 = sup |Delta_k Ghat| / U."""
    grid = inp.grid
    c_lam = inp.c_lambda()
    f1 = inp.tau
    f2 = float(np.max(inp.ghat / c_lam))
    g = inp.ghat
    M = grid.M
    f3 = 0.0
    if grid.n_sites <= F3_EXHAUSTIVE_MAX_SITES:
        # exhaustive over k: one vectorized pass per k index
        axes = tuple(range(grid.d))
        for k in np.ndindex(grid.shape):
            minus_k = tuple(-a for a in k)
            num = np.abs(np.roll(g, k, axes) + np.roll(g, minus_k, axes)
                         - 2.0 * g)
            cp = np.roll(c_lam, minus_k, axes)
            cm = np.roll(c_lam, k, axes)
            den = (U_CONSTANT / c_lam[k]
                   * (cm * c_lam + c_lam * cp + cm * cp))
            f3 = max(f3, float(np.max(num / den)))
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        ghat = TorusField(grid, g, "k")
        for _ in range(rng_pairs):
            k = rng.integers(0, M, size=grid.d)
            l = rng.integers(0, M, size=grid.d)
            num = abs(delta_k(ghat, k, l))
            f3 = max(f3, num / u_weight(c_lam, grid, k, l))
        mode = "sampled"
    return f1, f2, f3, mode


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
    """
    grid = a_field.grid
    if float(np.sum(np.abs(a_field.values))) >= 1.0:
        raise ValueError("need ||a||_1 < 1")
    ahat = np.real(dft(a_field).values)
    abshat = np.real(dft(TorusField(grid, np.abs(a_field.values), "x")).values)
    A = 1.0 / (1.0 - ahat)
    M = grid.M
    k = np.asarray(k, dtype=int)
    l = np.asarray(l, dtype=int)
    Alk = float(A[tuple((l - k) % M)])
    Al = float(A[tuple(l % M)])
    Apk = float(A[tuple((l + k) % M)])
    a0 = float(abshat[(0,) * grid.d])
    ak = float(abshat[tuple(k % M)])
    al = float(abshat[tuple(l % M)])
    lhs = abs(Alk + Apk - 2.0 * Al)
    rhs = (Alk + Apk) * Al * (a0 - ak) + 8.0 * Alk * Al * Apk \
        * (a0 - al) * (a0 - ak)
    return {"lhs": lhs, "rhs": rhs,
            "holds": lhs <= rhs + 1e-9 * max(1.0, rhs)}


def cos_split_check(t_parts) -> dict:
    """1 - cos(sum t_n) <= (2N+3) sum_n (1 - cos t_n), N = len - 1."""
    t = np.asarray(t_parts, dtype=float)
    n_parts = len(t)
    lhs = 1.0 - math.cos(float(np.sum(t)))
    rhs = (2 * (n_parts - 1) + 3) * float(np.sum(1.0 - np.cos(t)))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12}


def delta_vs_cos_sum_check(g_field: TorusField, k, l) -> dict:
    """|Delta_k ghat(l)| <= 2 sum_x (1 - cos k.x) |g(x)| for symmetric g."""
    lhs = abs(complex(delta_k(dft(g_field), k, l)))
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
    grid = inp.grid
    gx = _g_x(inp)
    open_bubble = convolve(gx, gx).values
    B = _mean(grid, inp.ghat ** 2)
    gt = g_tilde_field(inp)
    open_tilde = convolve(gt, gt).values
    B_tilde = _mean(grid, (inp.tau * inp.dhat * inp.ghat) ** 2)
    return {
        "B": B, "B_tilde": B_tilde,
        "holds": bool(np.max(open_bubble) <= B + 1e-10
                      and np.max(open_tilde) <= B_tilde + 1e-10),
        "max_open": float(np.max(open_bubble)),
        "max_open_tilde": float(np.max(open_tilde)),
    }


def cos_g_bound_check(inp: TwoPointInput, k_index, K: float) -> dict:
    """sup_x (1 - cos k.x) G(x) <= 300 K (1 - lam Dhat(k)) (C*C)(0)."""
    grid = inp.grid
    lhs = float(np.max(grid.one_minus_cos(k_index) * _g_x(inp).values))
    c_lam = inp.c_lambda()
    cc0 = _mean(grid, c_lam ** 2)  # (C*C)(0) by Parseval
    kidx = tuple(np.mod(np.asarray(k_index, dtype=int), grid.M))
    rhs = COS_G_CONSTANT * K * (1.0 - inp.lam * inp.dhat[kidx]) * cc0
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12}


def b_tilde_beta_bound_check(inp: TwoPointInput) -> dict:
    """B_tilde <= 4 K^4 mean_k Dhat^2/(1-Dhat)^2 with K = max(f1, f2).

    The k = 0 mode is excluded from both sides (on the right it is a genuine
    singularity; in the continuum it carries no measure).
    """
    grid = inp.grid
    f1 = inp.tau
    f2 = float(np.max(inp.ghat / inp.c_lambda()))
    K = max(f1, f2)
    mask = np.ones(grid.shape, dtype=bool)
    mask[(0,) * grid.d] = False
    B_tilde = float(np.sum(
        (inp.tau * inp.dhat[mask] * inp.ghat[mask]) ** 2) / grid.n_sites)
    beta2 = beta_kspace(inp.dhat, 2)
    rhs = 4.0 * K ** 4 * beta2
    return {"B_tilde": B_tilde, "rhs": rhs, "K": K,
            "holds": B_tilde <= rhs + 1e-12}
