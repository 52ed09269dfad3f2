import multiprocessing
import sys

import numpy as np
import pytest

from dualct.tomo import GridSpec, Image, fan_geometry, parallel_geometry


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the one-line-per-criterion acceptance summary, if it ran."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def grid8():
    return GridSpec(8, 8, 1.0)


@pytest.fixture
def grid16():
    return GridSpec(16, 16, 1.0)


@pytest.fixture
def par16(grid16):
    return parallel_geometry(18, 20, grid16)


@pytest.fixture
def fan16(grid16):
    return fan_geometry(18, 20, grid16)


def random_image(grid, rng):
    return Image(grid, rng.standard_normal(grid.shape))


def _send_result(conn, target, args):
    conn.send(target(*args))
    conn.close()


def in_forked_child(target, *args, timeout=30.0):
    """``target(*args)`` run in a "fork" child, which must finish within
    ``timeout`` seconds; returns what it returned."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_send_result, args=(send, target, args))
    proc.start()
    try:
        assert recv.poll(timeout), "the child returned nothing in time"
        got = recv.recv()
        proc.join(timeout)
        assert not proc.is_alive() and proc.exitcode == 0
    finally:
        proc.kill()
        proc.join()
        recv.close()
        send.close()
    return got
