"""CancellationToken unit behaviour (no executor involved)."""

from __future__ import annotations

import pytest

from repro.common.cancellation import CancellationToken
from repro.common.errors import ExecutionError, QueryCancelled


class TestCancel:
    def test_starts_live(self):
        token = CancellationToken()
        assert not token.cancelled
        token.checkpoint()  # no-op while live
        assert token.checks == 1

    def test_cancel_makes_next_checkpoint_raise(self):
        token = CancellationToken()
        token.cancel("deadline of 5.0ms exceeded")
        with pytest.raises(QueryCancelled, match="deadline of 5.0ms"):
            token.checkpoint()

    def test_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("deadline exceeded")
        token.cancel("shutdown: service stopping")
        assert token.reason == "deadline exceeded"
        with pytest.raises(QueryCancelled, match="deadline exceeded"):
            token.checkpoint()

    def test_query_cancelled_is_an_execution_error(self):
        # the service maps executor failures by hierarchy; QueryCancelled
        # must stay inside ExecutionError for that mapping to hold
        assert issubclass(QueryCancelled, ExecutionError)
        err = QueryCancelled("why")
        assert err.reason == "why"


class TestCancelAfterChecks:
    def test_self_cancels_on_nth_checkpoint(self):
        token = CancellationToken(cancel_after_checks=3)
        token.checkpoint()
        token.checkpoint()
        assert not token.cancelled
        with pytest.raises(QueryCancelled, match="cancel_after_checks=3"):
            token.checkpoint()
        assert token.checks == 3

    def test_validates_count(self):
        with pytest.raises(ValueError, match="cancel_after_checks"):
            CancellationToken(cancel_after_checks=0)

    def test_repr_shows_state(self):
        token = CancellationToken()
        assert "live" in repr(token)
        token.cancel("bored")
        assert "bored" in repr(token)


class _SpentClock:
    """A stopwatch that has already run for ``elapsed_seconds``."""

    def __init__(self, elapsed_seconds: float) -> None:
        self.elapsed_seconds = elapsed_seconds


class TestDeadline:
    def test_spent_budget_raises_at_first_checkpoint(self):
        token = CancellationToken(deadline=(_SpentClock(0.002), 0.001))
        assert not token.cancelled  # only a checkpoint reads the clock
        with pytest.raises(QueryCancelled, match="deadline of 1.0ms exceeded"):
            token.checkpoint()
        assert token.checks == 1

    def test_live_budget_passes_checkpoints(self):
        clock = _SpentClock(0.0)
        token = CancellationToken(deadline=(clock, 1.0))
        token.checkpoint()
        token.checkpoint()
        assert not token.cancelled
        clock.elapsed_seconds = 1.0
        with pytest.raises(QueryCancelled, match="deadline of 1000.0ms"):
            token.checkpoint()
