"""Checks that every test of the suite meets."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread it started still alive: a served device
    or a stub must end with the block that started it, not in a later test."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads still alive after the test: {left}"
