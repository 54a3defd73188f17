"""Finite periodic box Z^d / M Z^d with exact DFTs and convolutions.

Conventions: the dual grid is {2*pi*m/M : m in {-M/2,...,M/2-1}}^d, stored in
numpy index order (index m represents frequency 2*pi*m/M, wrapped).  The
transform is fhat(k) = sum_x f(x) exp(+i k.x), so dft = M^d * ifftn and
idft = fftn / M^d.  x-space fields live on {0,...,M-1}^d; wherever a
magnitude |x| matters the centered representative in {-M/2,...,M/2-1}^d is
used; within_range(offsets, R) is the one range cut ||x||_2 <= R.
"""

from dataclasses import dataclass

import numpy as np

REAL_DFT_TOL = 1e-10  # real_dft: largest |imag| / max(1, |real|)
SYMMETRY_TOL = 1e-9  # is_symmetric: largest |f(-x) - f(x)| / max(1, |f|)


@dataclass(frozen=True)
class TorusGrid:
    d: int
    M: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.M < 4 or self.M % 2 != 0:
            raise ValueError("M must be even and >= 4")

    @property
    def shape(self):
        return (self.M,) * self.d

    @property
    def n_sites(self):
        return self.M ** self.d

    def centered_coords(self):
        """Per-axis centered representatives, shape (d, M, ..., M)."""
        c = np.indices(self.shape)
        return np.where(c >= self.M // 2, c - self.M, c)

    def one_minus_cos(self, k_index) -> np.ndarray:
        """1 - cos(k.x) per site, k = 2 pi k_index / M, x centered; (..., d)
        k_index gives (..., M, ..., M), each k with its scalar call's bits."""
        k = 2.0 * np.pi * np.asarray(k_index, dtype=float) / self.M
        k = k.reshape(k.shape + (1,) * self.d)
        phase = np.sum(k * self.centered_coords(), axis=-self.d - 1)
        return 1.0 - np.cos(phase)

    @property
    def strides(self):
        """Row-major flattening strides (M^(d-1), ..., M, 1)."""
        return self.M ** np.arange(self.d - 1, -1, -1, dtype=np.int64)

    def flat_index(self, coords):
        """Flat site index of integer coordinates (..., d), wrapped mod M."""
        return np.mod(np.asarray(coords, dtype=np.int64), self.M) @ self.strides

    def stencil(self, k_index, l_index):
        """Flat indices of l - k, l and l + k, the sites of a second
        difference, for (..., d) index arrays that broadcast together."""
        k = np.asarray(k_index, dtype=np.int64)
        l = np.asarray(l_index, dtype=np.int64)
        at = self.flat_index
        return at(l - k), at(l), at(l + k)

    def sites(self):
        """Coordinates of every site in flat-index order, shape (M^d, d)."""
        return np.indices(self.shape).reshape(self.d, -1).T


def within_range(offsets, R) -> np.ndarray:
    """||x||_2 <= R for each offset x of an (..., d) array.

    R must be >= 0; the test is written so that NaN fails it too.
    """
    if not R >= 0:
        raise ValueError("R must be >= 0")
    return np.sqrt(np.sum(np.square(offsets), axis=-1)) <= R


@dataclass
class TorusField:
    grid: TorusGrid
    values: np.ndarray
    space: str = "x"  # "x" or "k"

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")
        if self.space not in ("x", "k"):
            raise ValueError("space tag must be 'x' or 'k'")


def dft(f: TorusField) -> TorusField:
    if f.space != "x":
        raise ValueError("dft expects an x-space field")
    vhat = np.fft.ifftn(f.values) * f.grid.n_sites
    return TorusField(f.grid, vhat, "k")


def idft(fhat: TorusField) -> TorusField:
    if fhat.space != "k":
        raise ValueError("idft expects a k-space field")
    v = np.fft.fftn(fhat.values) / fhat.grid.n_sites
    return TorusField(fhat.grid, v, "x")


def real_dft(f: TorusField) -> np.ndarray:
    """Transform of a symmetric field, returned as a real array."""
    vhat = dft(f).values
    if (np.max(np.abs(vhat.imag))
            > REAL_DFT_TOL * max(1.0, np.max(np.abs(vhat.real)))):
        raise ValueError("field is not symmetric enough for a real transform")
    return vhat.real


def real_idft(fhat: TorusField) -> TorusField:
    """Real part of the inverse transform of a symmetric k-space field, as
    an x-space field.  The imaginary part is dropped unchecked: symmetry is
    the caller's to check (bubble_triangle does for an input ghat)."""
    return TorusField(fhat.grid, idft(fhat).values.real, "x")


def convolve(f: TorusField, g: TorusField) -> TorusField:
    """(f*g)(x) = sum_y f(y) g(x-y), computed through the transform."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    if f.space != "x" or g.space != "x":
        raise ValueError("convolve expects x-space fields")
    vhat = np.fft.ifftn(f.values) * np.fft.ifftn(g.values) * f.grid.n_sites
    out = np.fft.fftn(vhat)
    if np.isrealobj(f.values) and np.isrealobj(g.values):
        out = out.real
    return TorusField(f.grid, out, "x")


def delta_k(ghat: TorusField, k_index, l_index):
    """ghat(l-k) + ghat(l+k) - 2 ghat(l) with periodic index wrap, for
    (..., d) index arrays k and l that broadcast together."""
    if ghat.space != "k":
        raise ValueError("delta_k expects a k-space field")
    minus, at, plus = ghat.grid.stencil(k_index, l_index)
    v = ghat.values.ravel()
    return v[minus] + v[plus] - 2.0 * v[at]


def one_minus_cos_sum(g: TorusField, k_index):
    """sum_x [1 - cos(k.x)] |g(x)| with x in the centered domain, for each
    k of a (..., d) index array."""
    if g.space != "x":
        raise ValueError("one_minus_cos_sum expects an x-space field")
    return np.sum(g.grid.one_minus_cos(k_index) * np.abs(g.values),
                  axis=tuple(range(-g.grid.d, 0)))


def field_at_zero(f: TorusField) -> float:
    return float(np.real(f.values[(0,) * f.grid.d]))


def reflect(f: TorusField) -> TorusField:
    """g(x) = f(-x mod M); the same map reflects k-space fields."""
    idx = tuple(slice(None, None, -1) for _ in range(f.grid.d))
    return TorusField(f.grid, np.roll(f.values[idx], 1, axis=tuple(range(f.grid.d))), f.space)


def is_symmetric(f: TorusField) -> bool:
    return bool(np.max(np.abs(reflect(f).values - f.values))
                <= SYMMETRY_TOL * max(1.0, float(np.max(np.abs(f.values)))))
