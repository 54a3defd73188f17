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
