"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def scan_chunk(monkeypatch):
    """Setter of the scan's block size: scan_chunk(size) sets SCAN_CHUNK in
    every gyrokit module that holds it, until the test ends, and returns
    size.  Tests that cross block boundaries do so at a small size, so that
    they stay cheap whatever the default is."""

    def set_size(size: int) -> int:
        held = [m for name, m in sys.modules.items() if name.split(".")[0] == "gyrokit"]
        for module in held:
            if hasattr(module, "SCAN_CHUNK"):
                monkeypatch.setattr(module, "SCAN_CHUNK", size)
        return size

    return set_size
