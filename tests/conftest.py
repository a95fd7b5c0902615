"""Checks that run around every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After each test the test process has no child left: every process the
    test started, such as the CSV reader's workers, was reaped. A leaked
    process is reported against the test that started it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test process has a child left (pid {pid or 'still running'})")
