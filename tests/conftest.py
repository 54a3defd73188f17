import tracemalloc

import numpy as np
import pytest

from lacelab.steps import StepDistribution
from lacelab.walk import _stored_orthant


class traced_peak:
    """Traces the allocations of a with block:
        with traced_peak() as traced:
            ...
        traced.peak  # the block's tracemalloc peak, in bytes"""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def chamber_points(orth, keep=None):
    """(key, weight) of the chamber points of a walk.DualOrthant whose
    largest index keep sets (all by default), block by block in the order
    its sums take them."""
    if keep is None:
        keep = np.ones(orth.M // 2 + 1, dtype=bool)
    blocks = [orth._block(np.arange(lo, hi), keep)
              for lo, hi in orth._blocks()]
    return (np.concatenate([key for key, _ in blocks]),
            np.concatenate([weight for _, weight in blocks]))


def index_orthant(M, d):
    """A walk.DualOrthant whose Dhat at a point is the point's flat index
    in the orthant (M/2 + 1,)^d: its chamber keys name its points."""
    m = M // 2 + 1
    return _stored_orthant(M, np.arange(m ** d).reshape((m,) * d))


def dual_values(grid):
    """Per-axis dual variable 2*pi*m/M of a TorusGrid, wrapped to
    [-pi, pi), shape (d, M, ..., M)."""
    return 2.0 * np.pi * grid.centered_coords() / grid.M


@pytest.fixture
def fold_calls(monkeypatch):
    """Records the grid side M of every fold: StepDistribution.fold and
    the power family's beta both fold through fold_and_grids."""
    calls = []
    fold = StepDistribution.fold_and_grids

    def counting_fold(self, grid, ts):
        calls.append(grid.M)
        return fold(self, grid, ts)

    monkeypatch.setattr(StepDistribution, "fold_and_grids", counting_fold)
    return calls


@pytest.fixture
def streams(monkeypatch):
    """Records the dimension of every power-family weight stream started."""
    calls = []
    stream = StepDistribution._h_stream

    def counting_stream(self):
        calls.append(self.d)
        return stream(self)

    monkeypatch.setattr(StepDistribution, "_h_stream", counting_stream)
    return calls


@pytest.fixture
def dist_inits(monkeypatch):
    """Records the family of every StepDistribution constructed."""
    calls = []
    post_init = StepDistribution.__post_init__

    def counting_post_init(self):
        calls.append(self.family)
        post_init(self)

    monkeypatch.setattr(StepDistribution, "__post_init__", counting_post_init)
    return calls


@pytest.fixture
def expansions(monkeypatch):
    """Counts the StepDistribution.support calls and the power-family
    offsets whose weight is evaluated one by one (probs_at), the points
    expanded from the orthant to signed steps."""
    counts = {"support_calls": 0, "points": 0}
    support, probs_at = StepDistribution.support, StepDistribution.probs_at

    def counting_support(self):
        counts["support_calls"] += 1
        return support(self)

    def counting_probs_at(self, offs):
        counts["points"] += len(offs)
        return probs_at(self, offs)

    monkeypatch.setattr(StepDistribution, "support", counting_support)
    monkeypatch.setattr(StepDistribution, "probs_at", counting_probs_at)
    return counts
