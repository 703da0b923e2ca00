"""Tests for random-access byte sources."""

import pytest

from repro.formats.source import BytesSource


def test_bytes_source_size_and_read():
    source = BytesSource(b"0123456789")
    assert source.size() == 10
    assert source.read_at(2, 3) == b"234"


def test_bytes_source_read_past_end_clamped():
    source = BytesSource(b"0123")
    assert source.read_at(2, 100) == b"23"
    assert source.read_at(10, 5) == b""


def test_bytes_source_read_all():
    assert BytesSource(b"abc").read_all() == b"abc"


def test_bytes_source_rejects_negative():
    source = BytesSource(b"abc")
    with pytest.raises(ValueError):
        source.read_at(-1, 2)
    with pytest.raises(ValueError):
        source.read_at(0, -2)
