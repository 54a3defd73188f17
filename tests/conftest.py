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
