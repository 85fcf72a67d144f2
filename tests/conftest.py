"""Fixtures shared by the test modules."""

import pytest

from gyrokit import sampling


@pytest.fixture
def scan_chunk(monkeypatch):
    """Setter of the scan's block size: scan_chunk(size) sets
    sampling.SCAN_CHUNK, the one module that reads it, until the test ends,
    and returns size.  Tests that cross block boundaries do so at a small
    size, so that they stay cheap whatever the default is."""

    def set_size(size: int) -> int:
        monkeypatch.setattr(sampling, "SCAN_CHUNK", size)
        return size

    return set_size
