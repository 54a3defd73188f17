import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lacelab.perc import PercConfig, bond_offsets, range_tail
from lacelab.saw import enumerate_walks
from lacelab.steps import StepDistribution
from lacelab.torus import (TorusField, TorusGrid, convolve, delta_k, dft,
                           field_at_zero, idft, is_symmetric,
                           one_minus_cos_sum, real_dft, reflect, within_range)

from conftest import dual_values

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def delta_field(grid: TorusGrid) -> TorusField:
    v = np.zeros(grid.shape)
    v[(0,) * grid.d] = 1.0
    return TorusField(grid, v, "x")


def convolve_direct(f: TorusField, g: TorusField) -> TorusField:
    """(f*g)(x) = sum_y f(y) g(x-y) by direct O(M^{2d}) summation: the
    oracle for convolve."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    grid = f.grid
    sites = grid.sites()
    gv = g.values.ravel()
    out = np.zeros(grid.n_sites, dtype=np.result_type(f.values, g.values))
    for y, fy in zip(sites, f.values.ravel()):
        if fy == 0:
            continue
        out += fy * gv[grid.flat_index(sites - y)]
    return TorusField(grid, out.reshape(grid.shape), "x")


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(0, 8)
    with pytest.raises(ValueError):
        TorusGrid(2, 5)
    with pytest.raises(ValueError):
        TorusGrid(2, 2)
    g = TorusGrid(3, 6)
    assert g.shape == (6, 6, 6)
    assert g.n_sites == 216


@pytest.mark.parametrize("R", [-1.0, -1e-300, float("nan"), -np.inf])
def test_a_negative_or_nan_range_is_rejected(R):
    with pytest.raises(ValueError, match="R must be >= 0"):
        within_range(np.zeros((3, 2)), R)


def test_range_zero_keeps_only_the_origin():
    x = np.array([[0, 0], [1, 0], [0, -1]])
    assert within_range(x, 0.0).tolist() == [True, False, False]
    assert within_range(x, np.inf).tolist() == [True, True, True]


@pytest.mark.parametrize("x", [(1, 0), (1, 1), (1, 2)])
def test_an_offset_at_exactly_R_is_in_range(x):
    # R = 1, sqrt 2, sqrt 5, met exactly by x, so every reader of the one
    # range rule keeps x
    norm2 = x[0] ** 2 + x[1] ** 2
    R = math.sqrt(norm2)
    neg = (-x[0], -x[1])
    assert within_range(x, R)
    grid = TorusGrid(2, 8)
    dist = StepDistribution("uniform", 2, L=2)
    cfg = PercConfig(grid, dist, 0.5, R, seed=0)
    kept = set(map(tuple, bond_offsets(cfg)[0].tolist()))
    assert x in kept or neg in kept
    offs, probs = dist.support()
    beyond = np.sum(offs ** 2, axis=1) > norm2
    assert range_tail(cfg) == pytest.approx(float(np.sum(probs[beyond])))
    assert x in enumerate_walks(dist, 1, support_radius=R).steps


def test_centered_coords_range():
    g = TorusGrid(2, 6)
    c = g.centered_coords()
    assert c.min() == -3 and c.max() == 2
    k = dual_values(g)
    assert k.min() >= -np.pi - 1e-12 and k.max() < np.pi


def test_field_validation():
    g = TorusGrid(2, 4)
    with pytest.raises(ValueError):
        TorusField(g, np.zeros((4, 5)), "x")
    with pytest.raises(ValueError):
        TorusField(g, np.zeros((4, 4)), "q")


def test_delta_transform_is_one():
    g = TorusGrid(2, 6)
    fhat = dft(delta_field(g))
    assert np.max(np.abs(fhat.values - 1.0)) < 1e-12


@given(st.sampled_from([(1, 8), (2, 6), (1, 4)]),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_dft_idft_round_trip(shape_spec, seed):
    d, M = shape_spec
    g = TorusGrid(d, M)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=g.shape)
    f = TorusField(g, v, "x")
    back = idft(dft(f))
    assert np.max(np.abs(back.values - v)) < 1e-10


def test_space_tags_enforced():
    g = TorusGrid(1, 4)
    f = TorusField(g, np.ones(4), "x")
    with pytest.raises(ValueError):
        idft(f)
    with pytest.raises(ValueError):
        dft(TorusField(g, np.ones(4), "k"))
    with pytest.raises(ValueError):
        convolve(f, TorusField(g, np.ones(4), "k"))


def test_real_dft_rejects_asymmetric_fields():
    g = TorusGrid(1, 8)
    v = np.zeros(8)
    v[1] = 1.0  # no mirror mass at -1
    with pytest.raises(ValueError):
        real_dft(TorusField(g, v, "x"))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_convolve_matches_direct_oracle(seed):
    g = TorusGrid(2, 6)
    rng = np.random.default_rng(seed)
    f = TorusField(g, rng.normal(size=g.shape), "x")
    h = TorusField(g, rng.normal(size=g.shape), "x")
    a = convolve(f, h).values
    b = convolve_direct(f, h).values
    assert np.max(np.abs(a - b)) < 1e-10


def test_convolution_mass_is_multiplicative():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(3)
    f = TorusField(g, rng.random(8), "x")
    h = TorusField(g, rng.random(8), "x")
    out = convolve(f, h)
    assert abs(np.sum(out.values)
               - np.sum(f.values) * np.sum(h.values)) < 1e-10


def test_convolution_with_delta_is_identity():
    g = TorusGrid(2, 4)
    rng = np.random.default_rng(5)
    f = TorusField(g, rng.normal(size=g.shape), "x")
    out = convolve(f, delta_field(g))
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_reflect_and_symmetry():
    g = TorusGrid(1, 6)
    v = np.array([1.0, 2.0, 3.0, 4.0, 3.0, 2.0])
    f = TorusField(g, v, "x")
    assert is_symmetric(f)
    assert np.allclose(reflect(f).values, v)
    v2 = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert not is_symmetric(TorusField(g, v2, "x"))


def test_delta_k_against_manual_indices():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(7)
    vhat = rng.normal(size=8) + 1j * rng.normal(size=8)
    f = TorusField(g, vhat, "k")
    got = delta_k(f, (3,), (2,))
    want = vhat[(2 - 3) % 8] + vhat[(2 + 3) % 8] - 2 * vhat[2]
    assert abs(got - want) < 1e-12


def test_one_minus_cos_sum_zero_at_k_zero():
    g = TorusGrid(2, 6)
    rng = np.random.default_rng(9)
    f = TorusField(g, rng.normal(size=g.shape), "x")
    assert one_minus_cos_sum(f, (0, 0)) == 0.0
    assert one_minus_cos_sum(f, (1, 2)) >= 0.0


def test_field_at_zero():
    g = TorusGrid(2, 4)
    v = np.zeros(g.shape)
    v[0, 0] = 2.5
    assert field_at_zero(TorusField(g, v, "x")) == 2.5


def test_strides_and_flat_index():
    grid = TorusGrid(3, 4)
    assert grid.strides.tolist() == [16, 4, 1]
    assert grid.flat_index([1, 2, 3]) == 27
    # wraps modulo M and broadcasts over leading axes
    assert grid.flat_index([[-1, 0, 5], [4, 4, 4]]).tolist() == [49, 0]
    sites = grid.sites()
    assert sites.shape == (64, 3)
    assert grid.flat_index(sites).tolist() == list(range(64))
