import pytest
from hypothesis import HealthCheck, settings

from modalkit import leading
from modalkit.pitch import _Table

# Keep the whole suite fast; the properties here are cheap and uniform, so
# a few dozen examples each is plenty.
settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def cold_walks(monkeypatch):
    """modalkit.leading with its three walk tables empty for one test: the letters,
    and the tokens and rows derived from them; each is restored after the test."""
    for name in ("_WALKS", "_WALK_TOKENS", "_WALK_ROWS"):
        monkeypatch.setattr(leading, name, _Table(getattr(leading, name)._derive))
    return leading
