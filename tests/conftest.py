import pytest

from mangledworlds import DiffusionParams


@pytest.fixture
def desk() -> DiffusionParams:
    """The standard desk-scale continuum parameters used across suites."""
    return DiffusionParams(v=1.0, w=0.5, eps=0.1)
