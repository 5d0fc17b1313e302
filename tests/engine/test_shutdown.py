"""Engine lifecycle: shutdown, drain, and post-shutdown rejection."""

from __future__ import annotations

import concurrent.futures
import threading
import time

import pytest

from repro.common.cancellation import CancellationToken
from repro.common.errors import EngineError
from repro.engine import Engine, WorkloadItem
from repro.sql import parse_query

SCAN_SQL = "SELECT count(padding) FROM t WHERE c2 < 900"


def scan_item() -> WorkloadItem:
    # The row oracle by name: the drain tests need an execution that is
    # still in flight when they look (the batch drive is done in ~1 ms).
    return WorkloadItem(query=parse_query(SCAN_SQL), exec_mode="row")


class HeldToken(CancellationToken):
    """A token whose checkpoints wait until the test lets go, so the
    execution is still in flight whenever the test looks, however fast
    the scan and however the threads are scheduled."""

    def __init__(self) -> None:
        super().__init__()
        self.release = threading.Event()

    def checkpoint(self) -> None:
        self.release.wait(timeout=5.0)
        super().checkpoint()


class TestRejectAfterShutdown:
    def test_session_raises(self, synthetic_db):
        engine = Engine(synthetic_db)
        assert not engine.closed
        assert engine.shutdown() is True
        assert engine.closed
        with pytest.raises(EngineError, match="shut down"):
            engine.session()

    def test_execute_raises(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()  # obtained before shutdown
        engine.shutdown()
        with pytest.raises(EngineError, match="shut down"):
            engine.execute(scan_item(), session=session)

    def test_shutdown_is_idempotent(self, synthetic_db):
        engine = Engine(synthetic_db)
        assert engine.shutdown() is True
        assert engine.shutdown() is True


class TestOneExecutionAtATime:
    def test_second_execute_while_one_runs_raises(self, synthetic_db):
        """An engine runs one execution at a time: a second ``execute`` or
        ``execute_plan`` while a background thread is inside ``execute``
        fails with a typed error instead of racing the engine's state."""
        engine = Engine(synthetic_db)
        item = scan_item()
        plan = engine.session().optimize(item.query)
        token = HeldToken()
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            running = pool.submit(engine.execute, item, None, token)
            deadline = time.monotonic() + 5.0
            while engine.active_executions == 0:
                assert time.monotonic() < deadline, "execution never started"
                time.sleep(0.0005)
            with pytest.raises(EngineError, match="in flight"):
                engine.execute(item)
            with pytest.raises(EngineError, match="in flight"):
                engine.execute_plan(item.query, plan, exec_mode="row")
            token.release.set()
            executed = running.result(timeout=5.0)
        assert executed.result.rows == [(900,)]
        assert engine.active_executions == 0
        # The refused call left the books balanced: the next one runs.
        assert engine.execute(item).result.rows == [(900,)]


class TestDrain:
    def test_drain_waits_for_in_flight_execution(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()
        token = HeldToken()
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            running = pool.submit(engine.execute, scan_item(), session, token)
            deadline = time.monotonic() + 5.0
            while engine.active_executions == 0:
                assert time.monotonic() < deadline, "execution never started"
                time.sleep(0.0005)
            # Let go only once the drain is waiting on the execution.
            threading.Timer(0.05, token.release.set).start()
            assert engine.shutdown(drain=True) is True
            # drain returned only after the worker left execute():
            assert engine.active_executions == 0
            executed = running.result(timeout=5.0)
        assert executed.result.rows == [(900,)]

    def test_drain_false_returns_without_waiting(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()
        token = HeldToken()
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            running = pool.submit(engine.execute, scan_item(), session, token)
            deadline = time.monotonic() + 5.0
            while engine.active_executions == 0:
                assert time.monotonic() < deadline, "execution never started"
                time.sleep(0.0005)
            # flips the flag but does not block on the in-flight run
            assert engine.shutdown(drain=False) is False
            assert engine.closed
            token.release.set()
            executed = running.result(timeout=5.0)  # still completes
        assert executed.result.rows == [(900,)]

    def test_drain_timeout_reports_false(self, synthetic_db):
        engine = Engine(synthetic_db)
        session = engine.session()
        token = HeldToken()
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            running = pool.submit(engine.execute, scan_item(), session, token)
            deadline = time.monotonic() + 5.0
            while engine.active_executions == 0:
                assert time.monotonic() < deadline, "execution never started"
                time.sleep(0.0005)
            assert engine.shutdown(drain=True, timeout=0.0) is False
            token.release.set()
            running.result(timeout=5.0)
        # a later drain with no deadline observes the quiesced engine
        assert engine.shutdown(drain=True) is True
