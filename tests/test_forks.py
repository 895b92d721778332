import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from macdlab import forks
from macdlab.forks import fork_map

from conftest import no_child_left

PARENT = os.getpid()


def traced(item):
    """The item, the process that ran it, and one line to each stream."""
    print(f"out {item}")
    print(f"err {item}", file=sys.stderr)
    return item, os.getpid()


def raise_on(bad, error, stuck=None):
    """`traced`, except that item `bad` raises `error` and item `stuck`
    sleeps for a minute."""
    def fn(item):
        if item == bad:
            raise error
        if item == stuck:
            time.sleep(60)
        return traced(item)
    return fn


@pytest.mark.parametrize("count", [1, 2, 3, 40])
def test_results_come_back_in_item_order(count, cpus, capsys):
    rng = np.random.default_rng(count)
    for _ in range(5):
        items = list(range(int(rng.integers(1, 30))))
        weights = rng.integers(1, 100, len(items)).tolist()
        forked = cpus(count)
        results = fork_map(traced, items, weights)
        assert [item for item, _ in results] == items
        assert no_child_left()
        processes = min(count, len(items))
        assert len(forked) == processes - 1
        assert len({pid for _, pid in results}) == processes
        assert results[0][1] == PARENT
        printed = capsys.readouterr()
        assert printed.out == "".join(f"out {item}\n" for item in items)
        assert printed.err == "".join(f"err {item}\n" for item in items)


def test_no_items(cpus):
    cpus(4)
    assert fork_map(traced, [], []) == []


@pytest.mark.parametrize("bad", [1, 3], ids=["in this process's block", "in a child's block"])
def test_exception_is_raised_once_every_child_is_reaped(bad, cpus, capsys):
    """Items 0-1, 2-3, 4-5 and 6-7 run in four processes. The exception
    keeps its type and message; the text of the items before it is
    printed, that of the items after it is not, and the last child,
    stuck, is killed."""
    forked = cpus(4)
    start = time.perf_counter()
    with pytest.raises(LookupError, match=f"^no {bad}$"):
        fork_map(raise_on(bad, LookupError(f"no {bad}"), stuck=7), range(8), [1] * 8)
    assert len(forked) == 3 and no_child_left()
    assert time.perf_counter() - start < 30
    assert capsys.readouterr().out == "".join(f"out {item}\n" for item in range(bad))


@pytest.mark.parametrize("bad", [0, 2], ids=["in this process's block", "in a child's block"])
def test_interrupt_kills_and_reaps_every_child(bad, cpus):
    forked = cpus(2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        fork_map(raise_on(bad, KeyboardInterrupt, stuck=3), range(4), [1] * 4)
    assert len(forked) == 1 and no_child_left()
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("end, status", [(lambda: os._exit(3), 3),
                                         (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
                         ids=["os._exit(3)", "SIGKILL"])
def test_child_that_ends_without_its_reply_is_an_error(end, status, cpus):
    def fn(item):
        if os.getpid() != PARENT:
            end()
        return item

    cpus(2)
    with pytest.raises(RuntimeError, match=rf"ended without its result \(exit status {status}\)"):
        fork_map(fn, range(4), [1] * 4)
    assert no_child_left()


@pytest.mark.parametrize("lacking", ["os.fork", "os.sched_getaffinity", "a single thread"])
def test_one_process_where_fork_is_missing_or_unsafe(lacking, cpus, capsys, monkeypatch):
    forked = cpus(2)
    stop = threading.Event()
    threads = [threading.Thread(target=stop.wait)] if lacking == "a single thread" else []
    for thread in threads:
        thread.start()
    if not threads:
        monkeypatch.delattr(os, lacking.removeprefix("os."))
    try:
        assert fork_map(traced, range(4), [1] * 4) == [(item, PARENT) for item in range(4)]
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
    assert forked == [] and no_child_left()
    assert capsys.readouterr().out == "out 0\nout 1\nout 2\nout 3\n"


def test_blocks_are_contiguous_and_balanced_by_weight():
    items = list("abcde")
    weights = [150, 150, 120, 8, 150]
    for count in range(1, len(items) + 1):
        blocks = forks._blocks(items, weights, count)
        assert len(blocks) == count and all(blocks)
        assert [item for block in blocks for item in block] == items
    assert forks._blocks(items, weights, 2) == [["a", "b"], ["c", "d", "e"]]
    assert list(map(len, forks._blocks(items[:4], [1000, 1, 1, 1], 3))) == [1, 1, 2]
    assert forks._blocks([], [], 1) == [[]]


def test_processes_follow_cpus_items_and_weight(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    days = forks.DAYS_PER_PROCESS
    assert forks._processes([days]) == 1
    assert forks._processes([days] * 2) == 2
    assert forks._processes([days - 1] * 2) == 1
    assert forks._processes([2 * days] * 3) == 3
    assert forks._processes([days] * 9) == 4
    assert forks._processes([]) == 1
