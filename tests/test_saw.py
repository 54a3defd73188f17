import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lacelab import saw
from lacelab.saw import (DEFAULT_NODE_BUDGET, MAX_BRANCHING, BudgetExceeded,
                         _walks_lower_bound, chi_series,
                         check_diff_inequality, bubble_saw, enumerate_walks,
                         extract_lace, reconstruct_c, two_point_series,
                         zc_estimate)
from lacelab.steps import StepDistribution
from lacelab.torus import within_range

from conftest import traced_peak

SQUARE_COUNTS = [4, 12, 36, 100, 284, 780, 2172, 5916]


def enumerate_reference(dist, n_max, support_radius=None, mode="rational"):
    """The tuple-coordinate DFS with a Fraction or float product per node.

    Returns (c, nodes): c[n] maps x-tuples to weights in the order the
    search first reaches them, and nodes counts the walks of length >= 1.
    """
    offs, probs = dist.support()
    if support_radius is not None:
        keep = np.sqrt(np.sum(offs.astype(float) ** 2, axis=1)) <= support_radius
        offs, probs = offs[keep], probs[keep]
    assert len(offs) <= MAX_BRANCHING
    steps = [tuple(int(v) for v in o) for o in offs]
    if mode == "rational":
        weights = [Fraction(1, dist.support_size)] * len(steps)
    else:
        weights = [float(p) for p in probs]
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
            wy = w * wstep
            c[n + 1][y] = c[n + 1].get(y, zero) + wy
            path.add(y)
            dfs(y, n + 1, wy)
            path.discard(y)

    dfs(origin, 0, one)
    return c, nodes


def typed_items(items):
    """c_n's items in order, with the type of each value and coordinate."""
    return [(x, v, type(v), tuple(type(a) for a in x)) for x, v in items]


def reference_items(dist, n_max, support_radius, mode):
    """The reference c_n's items in the order enumerate_walks emits them:
    the orbit search sorts rational keys; double mode keeps the order in
    which the search first reaches them."""
    want, _ = enumerate_reference(dist, n_max, support_radius, mode)
    return [typed_items(sorted(cn.items()) if mode == "rational"
                        else cn.items()) for cn in want]


def sparse_convolve(a, b):
    out = {}
    for xa, va in a.items():
        for xb, vb in b.items():
            key = tuple(p + q for p, q in zip(xa, xb))
            out[key] = out.get(key, 0) + va * vb
    return out


def lace_reference(c, steps, weights):
    """pi_m by the recursion on the Fraction series c_n itself:
    pi_{n+1} = c_{n+1} - D*c_n - sum_{m=2}^{n} pi_m * c_{n+1-m}."""
    d_map = dict(zip(steps, weights))
    pi = {}
    for n in range(1, len(c) - 1):
        acc = dict(c[n + 1])
        terms = [(d_map, c[n])] + [(pi[m], c[n + 1 - m])
                                   for m in range(2, n + 1)]
        for a, b in terms:
            for x, v in sparse_convolve(a, b).items():
                acc[x] = acc.get(x, 0) - v
        pi[n + 1] = {x: v for x, v in acc.items() if v != 0}
    return pi


# (family, d, distribution kwargs, n_max, support_radius, mode)
REFERENCE_SPECS = [
    ("nn", 1, {}, 10, None, "rational"),
    ("nn", 2, {}, 8, None, "rational"),
    ("nn", 3, {}, 5, None, "rational"),
    ("nn", 4, {}, 4, None, "rational"),
    ("nn", 2, {}, 0, None, "rational"),
    ("nn", 3, {}, 1, None, "rational"),
    ("uniform", 1, {"L": 1}, 6, None, "rational"),
    ("uniform", 1, {"L": 2}, 6, None, "rational"),
    ("uniform", 1, {"L": 2}, 6, 1.0, "rational"),
    ("uniform", 2, {"L": 1}, 5, None, "rational"),
    ("uniform", 2, {"L": 1}, 1, None, "rational"),
    ("uniform", 2, {"L": 2}, 3, None, "rational"),
    ("uniform", 2, {"L": 2}, 4, 1.5, "rational"),
    ("uniform", 2, {"L": 2}, 4, 2.0, "rational"),
    ("uniform", 2, {"L": 2}, 3, 0.5, "rational"),
    ("nn", 2, {}, 7, None, "double"),
    ("nn", 3, {}, 4, None, "double"),
    ("nn", 2, {}, 0, None, "double"),
    ("power", 1, {"alpha": 1.5, "support_radius": 8}, 5, 3.0, "double"),
    ("power", 2, {"alpha": 1.5, "support_radius": 8}, 4, 2.0, "double"),
    ("power", 2, {"alpha": 0.7, "L": 2, "support_radius": 8}, 1, 2.5,
     "double"),
]


@pytest.mark.parametrize("family,d,kw,n_max,radius,mode", REFERENCE_SPECS)
def test_enumeration_matches_the_reference(family, d, kw, n_max, radius,
                                           mode):
    dist = StepDistribution(family, d, **kw)
    series = enumerate_walks(dist, n_max, support_radius=radius, mode=mode)
    want = reference_items(dist, n_max, radius, mode)
    assert len(series.c) == n_max + 1
    for n in range(n_max + 1):
        assert typed_items(series.c[n].items()) == want[n], n


# every spec in each mode its family has: nn and uniform run in both
BOTH_MODES = REFERENCE_SPECS + [
    spec[:5] + ("double",) for spec in REFERENCE_SPECS
    if spec[5] == "rational" and spec[:5] + ("double",) not in REFERENCE_SPECS]


@pytest.mark.parametrize("family,d,kw,n_max,radius,mode", BOTH_MODES)
def test_block_splits_keep_the_search_order(family, d, kw, n_max, radius,
                                            mode, monkeypatch):
    # blocks of 3 walks split every level; the levels must still come in
    # lexicographic order, which fixes double mode's keys and float sums
    dist = StepDistribution(family, d, **kw)
    whole = enumerate_walks(dist, n_max, support_radius=radius, mode=mode)
    monkeypatch.setattr(saw, "WALK_BLOCK", 3)
    split = enumerate_walks(dist, n_max, support_radius=radius, mode=mode)
    want = reference_items(dist, n_max, radius, mode)
    for n in range(n_max + 1):
        assert typed_items(split.c[n].items()) == want[n], n
    assert (split.visited, split.walks) == (whole.visited, whole.walks)
    if n_max >= 2:
        got, before = extract_lace(split).pi, extract_lace(whole).pi
        assert list(got) == list(before)
        for m in got:
            assert typed_items(got[m].items()) == typed_items(
                before[m].items()), m


def test_the_search_working_set_is_bounded():
    # 942,710 walks made, in blocks; the walks of one level are never
    # held at once
    with traced_peak() as traced:
        series = enumerate_walks(StepDistribution("nn", 2), 14)
    assert series.visited == 942710
    assert traced.peak <= 8 * 2 ** 20


def test_a_long_walk_needs_no_recursion():
    # a depth-first search recursing once per step ends in RecursionError
    # past about 1000 steps
    series = enumerate_walks(StepDistribution("nn", 1), 1500)
    assert series.walks == 3000
    assert series.c[1500] == {(-1500,): Fraction(1, 2 ** 1500),
                              (1500,): Fraction(1, 2 ** 1500)}


def test_sites_beyond_int64_are_python_ints():
    # nn d=23 to n = 3 has base 7, and 7^23 > 2^64 flat sites.  Up to three
    # steps a walk is self-avoiding exactly when no step undoes the one
    # before it: the shortest cycle of Z^d has four steps
    series = enumerate_walks(StepDistribution("nn", 23), 3)
    steps = np.array(series.steps)
    undo = (steps[:, None, :] + steps[None, :, :] == 0).all(axis=2)
    i, j, k = np.nonzero(~undo[:, :, None] & ~undo[None, :, :])
    want = Counter(map(tuple, (steps[i] + steps[j] + steps[k]).tolist()))
    keys, counts = series.levels[3]
    assert keys.dtype == object
    # flat keys sum_a x_a 7^(22 - a), in x-tuple order
    assert [(k, type(k), n, type(n))
            for k, n in zip(keys.tolist(), counts.tolist())] == [
        (sum(v * 7 ** (22 - a) for a, v in enumerate(x)), int, n, int)
        for x, n in sorted(want.items())]
    lace = extract_lace(series)
    assert reconstruct_c(series, lace, 1) == series.c[2]


def signed_permutations(d):
    return [(perm, signs) for perm in itertools.permutations(range(d))
            for signs in itertools.product((-1, 1), repeat=d)]


def act(g, x):
    perm, signs = g
    return tuple(sg * x[p] for p, sg in zip(perm, signs))


# (family, d, distribution kwargs, support_radius)
ORBIT_SPECS = ([("nn", d, {}, None) for d in (1, 2, 3, 4)]
               + [("uniform", d, {"L": L}, radius)
                  for d in (1, 2, 3) for L in (1, 2)
                  for radius in (None, 1.0, 1.5, 2.0, 2.5)])


@pytest.mark.parametrize("family,d,kw,radius", ORBIT_SPECS)
def test_first_step_orbits_are_the_signed_permutation_orbits(family, d, kw,
                                                             radius):
    offs, _ = StepDistribution(family, d, **kw).support()
    if radius is not None:
        offs = offs[within_range(offs, radius)]
    steps = list(map(tuple, offs.tolist()))
    group = signed_permutations(d)
    orbits = saw._first_step_orbits(steps)
    covered = []
    for i0, images in orbits:
        s0 = steps[i0]
        orbit = {act(g, s0) for g in group}
        # the representative is the orbit's first step
        assert i0 == min(i for i, s in enumerate(steps) if s in orbit)
        # one signed permutation per step of the orbit, in steps order
        assert all(g in group for g in images)
        assert [act(g, s0) for g in images] == [s for s in steps
                                                if s in orbit]
        covered += [act(g, s0) for g in images]
    assert [i0 for i0, _ in orbits] == sorted(i0 for i0, _ in orbits)
    assert sorted(covered) == sorted(steps)


@pytest.mark.parametrize("steps", [
    [(1, 0), (0, 1)],
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)],
    [(2, 1, 0), (-2, 1, 0), (2, -1, 0), (-2, -1, 0)],
])
def test_a_step_set_with_part_of_an_orbit_is_refused(steps):
    with pytest.raises(ValueError, match="not invariant"):
        saw._first_step_orbits(steps)


@pytest.mark.parametrize("d,base", [(1, 5), (1, 9), (2, 5), (2, 7), (3, 7),
                                    (4, 5)])
def test_flat_keys_sort_as_x_tuples_on_a_whole_box(d, base):
    # the box |x_a| < base/2, made in lexicographic order
    h = base // 2
    x = np.array(list(itertools.product(range(-h, h + 1), repeat=d)))
    keys = saw._flatten(x, base)
    assert np.all(np.diff(keys) > 0)
    np.testing.assert_array_equal(saw._unflatten(keys, base, d), x)


def test_flat_keys_beyond_int64_sort_as_x_tuples():
    # nn d=23 to n = 3: base 7, and 7^23 > 2^64, so the keys are Python ints
    x = np.random.default_rng(5).integers(-3, 4, size=(2000, 23))
    x[:50, :20] = 0  # some rows share long prefixes
    keys = saw._flatten(x, 7)
    assert keys.dtype == object
    rows = list(map(tuple, x.tolist()))
    assert sorted(range(len(rows)), key=keys.__getitem__) == sorted(
        range(len(rows)), key=rows.__getitem__)
    np.testing.assert_array_equal(saw._unflatten(keys, 7, 23), x)


@pytest.mark.parametrize("family,d,kw,n_max,radius,mode", REFERENCE_SPECS)
def test_the_refusal_bound_is_a_lower_bound(family, d, kw, n_max, radius,
                                            mode):
    dist = StepDistribution(family, d, **kw)
    series = enumerate_walks(dist, n_max, support_radius=radius, mode=mode)
    assert _walks_lower_bound(series.steps, n_max,
                              DEFAULT_NODE_BUDGET) <= series.walks


def test_a_hopeless_n_max_is_refused_before_the_search():
    steps = enumerate_walks(StepDistribution("nn", 2), 0).steps
    # nn d=2 to n = 16 makes 27.4M walks, within the budget; to n = 30 the
    # walks that only go up or right alone number 2^31 - 2
    assert _walks_lower_bound(steps, 16, DEFAULT_NODE_BUDGET) == 2 ** 17 - 2
    assert _walks_lower_bound(steps, 30,
                              DEFAULT_NODE_BUDGET) > DEFAULT_NODE_BUDGET
    with pytest.raises(BudgetExceeded, match="n_max = 30 needs more"):
        enumerate_walks(StepDistribution("nn", 2), 30)
    # one step with a positive sum: n_max walks at least
    with pytest.raises(BudgetExceeded, match="needs more"):
        enumerate_walks(StepDistribution("nn", 1), 10 ** 9)


# among them uniform L=2 cut at radius 1.5, whose 8 kept steps each weigh
# 1/24, and radius 0.5, which keeps no step
RATIONAL_LACE_SPECS = [spec for spec in REFERENCE_SPECS
                       if spec[5] == "rational" and spec[3] >= 2]


@pytest.mark.parametrize("family,d,kw,n_max,radius,mode",
                         RATIONAL_LACE_SPECS)
def test_integer_lace_matches_the_fraction_recursion(family, d, kw, n_max,
                                                     radius, mode):
    dist = StepDistribution(family, d, **kw)
    series = enumerate_walks(dist, n_max, support_radius=radius, mode=mode)
    c, _ = enumerate_reference(dist, n_max, radius, mode)
    want = lace_reference(c, series.steps, series.weights)
    lace = extract_lace(series)
    assert lace.pi == want
    assert all(type(v) is Fraction for p in lace.pi.values()
               for v in p.values())
    for n in range(1, n_max):
        truth = {x: v for x, v in c[n + 1].items() if v != 0}
        assert reconstruct_c(series, lace, n) == truth, n


@pytest.mark.parametrize("d,n_max", [(2, 7), (3, 5)])
def test_nn_visits_one_node_in_2d(d, n_max):
    # one first step stands for all 2d; a search over every first step
    # would visit all the walks it represents
    dist = StepDistribution("nn", d)
    _, nodes = enumerate_reference(dist, n_max)
    series = enumerate_walks(dist, n_max)
    assert series.walks == nodes
    assert series.visited * 2 * d == nodes
    double = enumerate_walks(dist, n_max, mode="double")
    assert double.visited == double.walks == nodes


@pytest.mark.parametrize("family,d,kw,n_max,radius,mode", [
    ("nn", 2, {}, 7, None, "rational"),
    ("uniform", 2, {"L": 2}, 4, 1.5, "rational"),
    ("nn", 3, {}, 4, None, "double"),
])
def test_budget_is_exact_in_nodes(family, d, kw, n_max, radius, mode,
                                  monkeypatch):
    dist = StepDistribution(family, d, **kw)
    _, nodes = enumerate_reference(dist, n_max, radius, mode)
    monkeypatch.setattr(saw, "DEFAULT_NODE_BUDGET", nodes)
    enumerate_walks(dist, n_max, support_radius=radius, mode=mode)
    monkeypatch.setattr(saw, "DEFAULT_NODE_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_walks(dist, n_max, support_radius=radius, mode=mode)


@pytest.fixture(scope="module")
def default_power():
    """The d=2, alpha=1.2 power family at its default truncation: 19,989,840
    support points."""
    return StepDistribution("power", 2, alpha=1.2)


@pytest.fixture(scope="module")
def square_series():
    return enumerate_walks(StepDistribution("nn", 2), 8, mode="rational")


class TestEnumeration:
    def test_known_square_lattice_counts(self, square_series):
        for n, want in enumerate(SQUARE_COUNTS, start=1):
            got = square_series.mass(n) * Fraction(4) ** n
            assert got == want, n

    def test_d1_masses_closed_form(self):
        series = enumerate_walks(StepDistribution("nn", 1), 12)
        for n in range(1, 13):
            assert series.mass(n) == Fraction(2, 2 ** n)

    def test_double_mode_matches_rational(self):
        r = enumerate_walks(StepDistribution("nn", 2), 5, mode="rational")
        f = enumerate_walks(StepDistribution("nn", 2), 5, mode="double")
        for n in range(6):
            for x, v in r.c[n].items():
                assert float(v) == pytest.approx(f.c[n][x], abs=1e-12)

    def test_endpoint_symmetry(self, square_series):
        for n in range(1, 9):
            cn = square_series.c[n]
            for x, v in cn.items():
                assert cn[tuple(-a for a in x)] == v

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(saw, "DEFAULT_NODE_BUDGET", 100)
        with pytest.raises(BudgetExceeded):
            enumerate_walks(StepDistribution("nn", 3), 10)

    def test_branching_guard(self):
        with pytest.raises(ValueError):
            enumerate_walks(StepDistribution("uniform", 2, L=4), 3)

    def test_support_radius_reduces_branching(self):
        series = enumerate_walks(StepDistribution("uniform", 2, L=4), 2,
                                 support_radius=2.0)
        assert series.weight_loss > 0.0
        assert series.mass(1) < 1

    def test_series_keeps_the_steps_it_took(self):
        dist = StepDistribution("uniform", 2, L=2)
        series = enumerate_walks(dist, 1, support_radius=1.5)
        assert len(series.steps) == 8
        assert all(max(map(abs, x)) == 1 for x in series.steps)
        assert series.weights == [Fraction(1, 24)] * 8
        assert list(series.c[1]) == series.steps

    def test_rejecting_a_large_support_stays_small(self, default_power):
        # 19,989,840 power-law steps; the old filter materialised them all
        # and peaked near 950 MB before it rejected them
        with traced_peak() as traced:
            with pytest.raises(ValueError, match="branching factor"):
                enumerate_walks(default_power, 2, mode="double")
        assert traced.peak < 8e6

    def test_a_large_support_radius_is_refused_on_the_orthant(
            self, default_power):
        # the signed cube ||x||_inf <= 1000 holds 4,004,000 offsets, 64 MB
        # of them alone; its orthant holds a quarter as many points
        with traced_peak() as traced:
            with pytest.raises(ValueError, match="branching factor"):
                enumerate_walks(default_power, 2, mode="double",
                                support_radius=1000)
        assert traced.peak < 32e6

    def test_a_support_radius_evaluates_only_its_cube(self, default_power,
                                                      expansions):
        series = enumerate_walks(default_power, 3, mode="double",
                                 support_radius=2)
        # only the kept steps are expanded from the orthant; the support
        # is never built
        assert expansions == {"support_calls": 0, "points": 12}
        assert series.steps == [(-2, 0), (-1, -1), (-1, 0), (-1, 1), (0, -2),
                                (0, -1), (0, 1), (0, 2), (1, -1), (1, 0),
                                (1, 1), (2, 0)]
        # the dropped weights summed over the whole support; the cube's own
        # dropped weights come to 0.0939
        assert abs(series.weight_loss - 0.2819791764260304) <= 1e-12

    @pytest.mark.parametrize("kw,radius", [
        ({"d": 1, "alpha": 1.5, "support_radius": 8}, 3.0),
        ({"d": 2, "alpha": 1.5, "support_radius": 8}, 2.0),
        ({"d": 2, "alpha": 0.7, "L": 2, "support_radius": 8}, 2.5),
        ({"d": 3, "alpha": 1.5, "support_radius": 6}, 1.0),
    ])
    def test_power_weight_loss_is_the_dropped_mass(self, kw, radius):
        dist = StepDistribution("power", **kw)
        offs, probs = dist.support()
        dropped = np.sqrt(np.sum(offs.astype(float) ** 2, axis=1)) > radius
        series = enumerate_walks(dist, 1, mode="double",
                                 support_radius=radius)
        assert abs(series.weight_loss - float(np.sum(probs[dropped]))) <= 1e-12

    def test_power_needs_double_mode(self):
        dist = StepDistribution("power", 2, alpha=1.5, support_radius=8)
        with pytest.raises(ValueError):
            enumerate_walks(dist, 2, mode="rational", support_radius=2.0)
        series = enumerate_walks(dist, 2, mode="double", support_radius=2.0)
        assert 0.0 < float(series.mass(2)) < 1.0


def lace_walk_sum(d, m):
    """P_m(x) = sum over the (2d)^m memoryless nn walks w of m steps that
    end at x of J[0, m](w), where J is defined walk by walk by
    K[0, b] = K[1, b] + sum_{j=1}^{b} J[0, j] K[j, b] with K[b, b] = 1:

        J[0, m] = K[0, m] - K[1, m] - sum_{j=1}^{m-1} J[0, j] K[j, m]

    and K[a, b] the indicator that w[a..b] is self-avoiding.  Vectorised
    over the walks; exact ints."""
    eye = np.eye(d, dtype=np.int64)
    moves = np.concatenate([eye, -eye])
    choice = np.indices((2 * d,) * m).reshape(m, -1).T
    pos = np.concatenate([np.zeros((len(choice), 1, d), dtype=np.int64),
                          np.cumsum(moves[choice], axis=1)], axis=1)
    meet = np.all(pos[:, :, None, :] == pos[:, None, :, :], axis=-1)
    meet &= np.triu(np.ones((m + 1, m + 1), dtype=bool), 1)

    def avoid(a, b):
        return (~np.any(meet[:, a:b + 1, a:b + 1], axis=(1, 2))).astype(
            np.int64)

    J = [None]
    for j in range(1, m + 1):
        J.append(avoid(0, j) - avoid(1, j)
                 - sum((J[i] * avoid(i, j) for i in range(1, j)),
                       np.zeros(len(pos), dtype=np.int64)))
    ends = Counter()
    for x, v in zip(map(tuple, pos[:, -1].tolist()), J[m].tolist()):
        ends[x] += v
    return ends


class TestLace:
    def test_pi2_is_minus_d_at_origin(self, square_series):
        lace = extract_lace(square_series)
        assert lace.pi[2] == {(0, 0): Fraction(-1, 4)}

    def test_pi2_uses_the_truncated_step_set(self):
        # 8 kept steps of weight 1/24: pi_2 = -sum_y D(y)^2 at the origin
        series = enumerate_walks(StepDistribution("uniform", 2, L=2), 4,
                                 support_radius=1.5)
        lace = extract_lace(series)
        assert lace.pi[2] == {(0, 0): Fraction(-1, 72)}
        for n in range(1, 4):
            assert reconstruct_c(series, lace, n) == series.c[n + 1]

    def test_reconstruction_exact(self, square_series):
        lace = extract_lace(square_series)
        for n in range(1, 8):
            rebuilt = reconstruct_c(square_series, lace, n)
            truth = {x: v for x, v in square_series.c[n + 1].items()
                     if v != 0}
            assert rebuilt == truth

    @pytest.mark.parametrize("d,m_max", [(2, 6), (3, 5)])
    def test_pi_is_the_walk_sum_of_the_lace_indicator(self, d, m_max):
        # an oracle apart from the recursion on c_n: P_m(x) summed over all
        # memoryless nn walks of m steps from 0 to x, walk by walk
        lace = extract_lace(enumerate_walks(StepDistribution("nn", d),
                                            m_max))
        masses = []
        for m in range(2, m_max + 1):
            P = lace_walk_sum(d, m)
            want = {x: Fraction(p, (2 * d) ** m) for x, p in P.items()
                    if p != 0}
            assert lace.pi[m] == want, m
            masses.append(sum(P.values()))
        if d == 2:
            assert masses == [-4, 4, -12, 28, -68]

    def test_pi_masses_alternate_in_sign(self, square_series):
        lace = extract_lace(square_series)
        # the first coefficients of the square lattice alternate: pi_2 < 0,
        # pi_3 > 0, ...
        assert lace.mass(2) < 0
        assert lace.mass(3) > 0
        assert lace.mass(4) < 0


class TestSeriesFunctions:
    def test_chi_series_d1_closed_form(self):
        series = enumerate_walks(StepDistribution("nn", 1), 20)
        for z in (0.5, 1.0, 1.5):
            # chi(z) = 1 + sum_{n=1}^{20} 2^{1-n} z^n (truncated geometric)
            want = 1.0 + sum(2.0 ** (1 - n) * z ** n for n in range(1, 21))
            got = chi_series(series, z)
            assert got["chi"] == pytest.approx(want, rel=1e-12)
            # zc is estimated as exactly 2 here, so the geometric remainder
            # equals the true tail (2+z)/(2-z) - want
            assert got["remainder"] == pytest.approx(
                (2 + z) / (2 - z) - want, rel=1e-6)

    def test_chi_warns_beyond_radius(self):
        series = enumerate_walks(StepDistribution("nn", 1), 10)
        rec = chi_series(series, 2.5)
        assert rec["warning"] is not None

    def test_two_point_at_z_zero(self, square_series):
        g = two_point_series(square_series, 0.0)
        assert g[(0, 0)] == 1.0
        assert all(v == 0.0 for x, v in g.items() if x != (0, 0))

    def test_bubble_lower_bound(self, square_series):
        # B(z) >= G(0)^2 = 1
        assert bubble_saw(square_series, 0.3) >= 1.0

    def test_zc_estimate_square_lattice(self, square_series):
        rec = zc_estimate(square_series)
        # weighted convention: true value 2d/mu = 4/2.638 = 1.5163...
        assert 1.3 < rec["zc_est"] < 1.6

    def test_diff_inequality_holds(self, square_series):
        zc = zc_estimate(square_series)["zc_est"]
        b = bubble_saw(square_series, 0.5)
        rec = check_diff_inequality(square_series, 0.5, zc, b)
        assert rec["holds"]
        assert not rec["truncation_dominated"]

    @pytest.mark.parametrize("z", [float("nan"), float("inf")])
    def test_a_non_finite_z_is_rejected(self, square_series, z):
        for fn in (chi_series, two_point_series, bubble_saw):
            with pytest.raises(ValueError, match="z must be finite"):
                fn(square_series, z)

    def test_diff_inequality_validation(self, square_series):
        with pytest.raises(ValueError):
            check_diff_inequality(square_series, 2.0, 1.5, 1.0)
