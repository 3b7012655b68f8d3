import glob

import pytest


def _child_pids(pid="self") -> set:
    """Pids of the children of process pid (this one by default), zombies
    included, read without waiting on any of them."""
    pids = set()
    for path in glob.glob("/proc/%s/task/*/children" % pid):
        try:
            with open(path, "r", encoding="ascii") as fh:
                pids.update(int(p) for p in fh.read().split())
        except FileNotFoundError:  # a thread that ended since the glob
            pass
    return pids


@pytest.fixture
def child_pids():
    """The function that lists a process's children."""
    return _child_pids


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process behind unreaped."""
    before = _child_pids()
    yield
    leaked = _child_pids() - before
    if leaked:
        pytest.fail("left unreaped child processes: %s" % sorted(leaked), pytrace=False)
