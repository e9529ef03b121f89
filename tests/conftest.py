import os

import pytest


@pytest.fixture(autouse=True)
def scrub_environment(monkeypatch):
    # Stray CLOUDMIMO_ variables would silently override test configs.
    for name in list(os.environ):
        if name.startswith("CLOUDMIMO_"):
            monkeypatch.delenv(name)


@pytest.fixture
def forced_split(monkeypatch):
    """``force(cpus)`` makes the trial kernel split every run across
    ``cpus`` (1 to 3) CPUs, whatever its work, and returns the list of
    the pids it has forked so far.  Afterwards no child may be left."""
    from cloudmimo import experiment
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def force(cpus: int) -> list:
        assert 1 <= cpus <= 3     # never more processes than that
        monkeypatch.setattr(experiment, "WORK_PER_WORKER", 0)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        return forks

    monkeypatch.setattr(os, "fork", counted_fork)
    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
