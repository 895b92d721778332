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


def in_process_order(results, pids, stream):
    """The text `traced` printed to `stream` for `results`, as the
    processes `pids` replay it: each one's items in turn, in item order."""
    return "".join(f"{stream} {item}\n" for pid in pids for item, ran in results if ran == pid)


@pytest.mark.parametrize("count", [1, 2, 3, 40])
def test_results_come_back_in_item_order(count, cpus, capsys):
    """Each item's text is replayed once, this process's first, then each
    child's in fork order."""
    rng = np.random.default_rng(count)
    for _ in range(5):
        items = list(range(int(rng.integers(1, 30))))
        weights = rng.integers(1, 100, len(items)).tolist()
        forked = cpus(count)
        results = fork_map(traced, items, weights)
        assert [item for item, _ in results] == items
        assert no_child_left()
        assert len(forked) == min(count, len(items)) - 1
        assert {pid for _, pid in results} <= {PARENT, *forked}
        printed = capsys.readouterr()
        assert printed.out == in_process_order(results, [PARENT, *forked], "out")
        assert printed.err == in_process_order(results, [PARENT, *forked], "err")


def test_a_slow_process_runs_fewer_items(cpus):
    """While this process is held up in its first item, the child takes
    every other one. The child's items take a little time too, so that
    it cannot take them all before this process takes one."""
    def fn(item):
        time.sleep(1 if os.getpid() == PARENT else 0.05)
        return item, os.getpid()

    forked = cpus(2)
    pids = [pid for _, pid in fork_map(fn, range(8), [1] * 8)]
    assert pids.count(PARENT) == 1 and set(pids) == {PARENT, *forked}
    assert no_child_left()


def test_no_items(cpus):
    cpus(4)
    assert fork_map(traced, [], []) == []


def stuck_or_raising(raising, error, marker):
    """`traced`, after a short sleep so that each process pulls a block,
    except that: this process raises `error` when `raising` is "this
    process"; in the children, the first item to create the file
    `marker` sleeps for a minute, and each later one raises `error` when
    `raising` is "a child"."""
    def fn(item):
        if os.getpid() == PARENT and raising == "this process":
            raise error
        time.sleep(0.05)
        if os.getpid() != PARENT:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                if raising == "a child":
                    raise error from None
            else:
                time.sleep(60)
        return traced(item)
    return fn


@pytest.mark.parametrize("raising", ["this process", "a child"])
def test_exception_is_raised_once_every_child_is_reaped(raising, cpus, tmp_path):
    """One child is stuck whichever block it pulled, and the exception,
    raised in this process or in the other child, ends the call: it
    keeps its type and message, and the stuck child is killed."""
    forked = cpus(3)
    start = time.perf_counter()
    fn = stuck_or_raising(raising, LookupError(f"failed in {raising}"), tmp_path / "stuck")
    with pytest.raises(LookupError, match=f"^failed in {raising}$"):
        fork_map(fn, range(12), [1] * 12)
    assert len(forked) == 2 and no_child_left()
    assert time.perf_counter() - start < 30


def test_a_block_that_raises_ends_the_pulling(cpus):
    """The child raises in its first item while this process, slow, is in
    its first block: no process takes another block."""
    ran = []

    def fn(item):
        if os.getpid() != PARENT:
            raise LookupError("failed in a child")
        ran.append(item)
        time.sleep(0.2)
        return item

    cpus(2)
    with pytest.raises(LookupError, match="^failed in a child$"):
        fork_map(fn, range(20), [1] * 20)
    assert len(ran) < 10 and no_child_left()


@pytest.mark.parametrize("raising", ["this process", "a child"])
def test_interrupt_kills_and_reaps_every_child(raising, cpus, tmp_path):
    forked = cpus(3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        fork_map(stuck_or_raising(raising, KeyboardInterrupt, tmp_path / "stuck"),
                 range(12), [1] * 12)
    assert len(forked) == 2 and no_child_left()
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("end, status", [(lambda: os._exit(3), 3),
                                         (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
                         ids=["os._exit(3)", "SIGKILL"])
def test_child_that_ends_without_its_reply_is_an_error(end, status, cpus):
    """This process sleeps in each item, so that the child pulls one."""
    def fn(item):
        if os.getpid() != PARENT:
            end()
        time.sleep(0.2)
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
    assert forks.processes([days]) == 1
    assert forks.processes([days] * 2) == 2
    assert forks.processes([days - 1] * 2) == 1
    assert forks.processes([2 * days] * 3) == 3
    assert forks.processes([days] * 9) == 4
    assert forks.processes([]) == 1


def test_processes_follow_a_given_weight_per_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert forks.processes([100] * 8, per_process=400) == 2
    assert forks.processes([100] * 8, per_process=401) == 1
    assert forks.processes([100] * 8, per_process=1) == 4
    count = forks.processes([100] * 8, per_process=200)
    assert [len(block) for block in forks._blocks(list(range(8)), [100] * 8, count)] == [2] * 4


def test_work_spread_in_a_child_stays_in_its_process(cpus, capsys):
    """Each of two processes spreads three items: this one over two
    processes, the child over itself alone. Each sleeps before its
    spread, so that neither pulls both items."""
    def nested(item):
        time.sleep(0.2)
        return os.getpid(), [pid for _, pid in fork_map(traced, [item] * 3, [1] * 3)]

    forked = cpus(2)
    outer = fork_map(nested, range(2), [1] * 2)
    assert len(forked) == 2 and no_child_left()
    [mine] = [item for item, (pid, _) in enumerate(outer) if pid == PARENT]
    (_, here), (child, there) = outer[mine], outer[1 - mine]
    assert set(here) <= {PARENT, *forked} and child in forked and child not in here
    assert there == [child] * 3
    assert capsys.readouterr().out == f"out {mine}\n" * 3 + f"out {1 - mine}\n" * 3


def block_pids(block):
    """The block and the process that ran it."""
    return block, os.getpid()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_pulled_blocks_come_back_in_block_order(count, cpus):
    rng = np.random.default_rng(count)
    for size in (1, 5, 40):
        items = list(range(size))
        weights = rng.integers(1, 100, size).tolist()
        forked = cpus(count)
        results = forks.map_pulled(block_pids, items, weights, count)
        assert len(forked) == count - 1 and no_child_left()
        blocks = [block for block, _ in results]
        assert blocks == forks._blocks(items, weights, min(count * forks.PULLS_PER_PROCESS, size))
        assert {pid for _, pid in results} <= {PARENT, *forked}


def test_a_slow_process_pulls_fewer_blocks(cpus):
    """While this process is held up in its first block, the child takes
    every other one. The child's blocks take a little time too, so that
    it cannot take them all before this process takes one."""
    def fn(block):
        time.sleep(1 if os.getpid() == PARENT else 0.05)
        return block_pids(block)

    forked = cpus(2)
    pids = [pid for _, pid in forks.map_pulled(fn, range(8), [1] * 8, 2)]
    assert pids.count(PARENT) == 1 and set(pids) == {PARENT, *forked}
    assert no_child_left()


@pytest.mark.parametrize("raising", ["this process", "a child"])
def test_pulled_block_that_raises_reaps_every_child(raising, cpus):
    def fn(block):
        if (os.getpid() == PARENT) == (raising == "this process"):
            raise LookupError(f"failed in {raising}")
        time.sleep(0.05)  # so that each process pulls a block
        return block

    forked = cpus(3)
    with pytest.raises(LookupError, match=f"^failed in {raising}$"):
        forks.map_pulled(fn, range(12), [1] * 12, 3)
    assert len(forked) == 2 and no_child_left()
