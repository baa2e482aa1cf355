import pytest

from xmodal import cli, data


@pytest.fixture(autouse=True)
def _empty_process_memos(monkeypatch):
    """Each test starts with no index kept by an earlier test's retrieve, which would
    spare the embed calls some tests count, and no archive held by an earlier test's
    load_dataset, which would spare the sidecar reads and hashes some tests count."""
    monkeypatch.setattr(cli, "_INDEXES", None)
    monkeypatch.setattr(data, "_HELD", None)
