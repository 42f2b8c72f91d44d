import contextlib
import signal

import pytest

# Each setup, call and teardown phase of a test must end within this many
# seconds (the slowest phase takes about 30 s on one CPU).  A stuck phase
# fails with TimeoutError, so one wedged test cannot stall the whole run.
PHASE_TIME_LIMIT_S = 150


def _phase_expired(signum, frame):
    raise TimeoutError(f"test phase exceeded {PHASE_TIME_LIMIT_S} s")


@contextlib.contextmanager
def _phase_time_limit():
    previous = signal.signal(signal.SIGALRM, _phase_expired)
    signal.setitimer(signal.ITIMER_REAL, PHASE_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _phase_time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _phase_time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    with _phase_time_limit():
        return (yield)


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session per pytest run (driver contract: tests own the session)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    try:
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()
