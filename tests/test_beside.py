"""The request lane to a forked child (``solitonlab._beside``), which the
compact chart, the sweep's shares and the probe's second lane all use."""

import os
import time

import pytest

from solitonlab import _beside


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_where(x):
    """x squared and the process that computed it."""
    return x * x, os.getpid()


def _raising_on_odd(x):
    if x % 2:
        raise ArithmeticError(f"odd request {x}")
    return x


def test_answers_come_back_in_request_order():
    with _beside(_square_where) as lane:
        for x in range(5):
            lane.ask(x)
        answers = [lane.answer() for _ in range(5)]
    assert [square for square, _ in answers] == [0, 1, 4, 9, 16]
    # every request is served by one child, not by this process
    (pid,) = {pid for _, pid in answers}
    assert (pid != os.getpid()) == hasattr(os, "fork")
    _no_child_left()


def test_answers_interleave_with_requests():
    with _beside(_square_where) as lane:
        for x in (3, 7):
            lane.ask(x)
            assert lane.answer()[0] == x * x
    _no_child_left()


def test_an_exception_is_raised_by_answer_and_the_lane_serves_on():
    with _beside(_raising_on_odd) as lane:
        for x in (1, 2, 3, 4):
            lane.ask(x)
        with pytest.raises(ArithmeticError, match="odd request 1"):
            lane.answer()
        assert lane.answer() == 2
        with pytest.raises(ArithmeticError, match="odd request 3"):
            lane.answer()
        assert lane.answer() == 4
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child needs os.fork")
def test_a_child_that_exits_mid_request_is_reaped_and_named():
    parent = os.getpid()

    def exiting(x):
        if x == 2 and os.getpid() != parent:
            os._exit(5)
        return x

    with _beside(exiting) as lane:
        for x in (1, 2, 3):
            lane.ask(x)
        assert lane.answer() == 1
        message = r"the child process ended with no result \(wait status 1280\)"
        with pytest.raises(RuntimeError, match=message):
            lane.answer()
        _no_child_left()  # reaped by the answer that found it gone
        # a request to the child gone is not an error; its answer is
        lane.ask(4)
        with pytest.raises(RuntimeError, match=message):
            lane.answer()
    _no_child_left()


def test_without_fork_the_answers_are_the_same(monkeypatch):
    requests = [0, 1, 2, 3]

    def answers():
        with _beside(_raising_on_odd) as lane:
            for x in requests:
                lane.ask(x)
            got = []
            for _ in requests:
                try:
                    got.append(lane.answer())
                except ArithmeticError as exc:
                    got.append(str(exc))
        return got

    forked = answers()
    monkeypatch.delattr(os, "fork")
    here = answers()
    assert here == forked == [0, "odd request 1", 2, "odd request 3"]
    # without fork, fn runs in this process, when its answer is taken
    calls = []
    with _beside(calls.append) as lane:
        lane.ask("x")
        assert calls == []
        lane.answer()
        assert calls == ["x"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child needs os.fork")
def test_leaving_by_an_exception_kills_and_reaps_a_busy_child():
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with _beside(time.sleep) as lane:
            lane.ask(60)
            raise KeyboardInterrupt
    assert time.monotonic() - start < 30.0
    _no_child_left()


def test_leaving_normally_reaps_a_child_with_requests_unanswered():
    with _beside(_square_where) as lane:
        for x in range(3):
            lane.ask(x)
        assert lane.answer()[0] == 0
    _no_child_left()
