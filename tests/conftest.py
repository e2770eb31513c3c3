"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from helpers import build_guard_net


@pytest.fixture
def guard_net():
    return build_guard_net()
