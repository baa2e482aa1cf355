import pytest

from xmodal import cli


@pytest.fixture(autouse=True)
def _empty_retrieve_memo(monkeypatch):
    """Each test starts with no index kept by an earlier test's retrieve, which would
    spare the embed calls some tests count."""
    monkeypatch.setattr(cli, "_INDEXES", None)
