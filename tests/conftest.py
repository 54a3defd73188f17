import pytest

from lacelab.steps import StepDistribution


@pytest.fixture
def fold_calls(monkeypatch):
    """Records the grid side M of every StepDistribution.fold call."""
    calls = []
    fold = StepDistribution.fold

    def counting_fold(self, grid):
        calls.append(grid.M)
        return fold(self, grid)

    monkeypatch.setattr(StepDistribution, "fold", counting_fold)
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
    offsets whose weight is read from the orthant mass (probs_at), the
    points expanded from the orthant to signed steps."""
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
