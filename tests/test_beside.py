"""The request lane to a forked child (``solitonlab._beside``), which the
compact chart, the sweep's shares, the probe's second lane and the streamed
trajectory.csv all use, and the rule for an optional lane (``_lanes``)."""

import os
import signal
import time

import pytest

from solitonlab import _beside, _lanes


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


def _lanes_here(x):
    return _lanes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child needs os.fork")
def test_no_optional_lane_while_a_lane_is_open_or_in_its_child(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _lanes() == 2
    with _beside(_lanes_here) as lane:
        assert _lanes() == 1
        lane.ask(None)
        assert lane.answer() == 1  # in the child
        with _beside(_lanes_here) as inner:
            inner.ask(None)
            assert inner.answer() == 1
        assert _lanes() == 1
    assert _lanes() == 2
    # a block that raised leaves the lane closed too
    with pytest.raises(ArithmeticError):
        with _beside(_lanes_here):
            raise ArithmeticError
    assert _lanes() == 2
    _no_child_left()


def test_one_cpu_or_no_fork_gives_no_optional_lane(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _lanes() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _lanes() == 1


def _none(x):
    return None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the child needs os.fork")
def test_a_long_request_stream_answered_at_the_end_does_not_stall():
    # 3000 requests of 16 kB, each a full pipe many times over, and their
    # answers, a few bytes each, all left unread until the last is sent:
    # each ask waits only for the child to read, never for this process
    block = bytes(16 * 1024)

    def stalled(signum, frame):
        raise TimeoutError("the request stream stalled")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        with _beside(_none) as lane:
            for _ in range(3000):
                lane.ask(block)
            answers = [lane.answer() for _ in range(3000)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert answers == [None] * 3000
    _no_child_left()
