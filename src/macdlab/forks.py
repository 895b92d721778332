"""An ordered map over items, spread over forked processes: `fork_map`.

Stdlib only, and kept out of `macdlab.__all__`.
"""

import bisect
import io
import itertools
import os
import pickle
import signal
import sys
import threading

# The least weight, in days of series work, per process. A forked child
# costs 5-10 ms (the fork of a ~35 MB process, copy-on-write faults, the
# reaping); on a 2-core x86_64 host, denoise, the cheapest command per
# day, ran no faster in two processes than in one on 4 x 1,500 days, and
# ~20% faster on 8 x 1,500.
DAYS_PER_PROCESS = 6000


def _processes(weights: list) -> int:
    """One process per CPU this process may run on, at most one per item
    and per DAYS_PER_PROCESS of weight. One where os.fork or
    os.sched_getaffinity is missing, or where another thread runs (a
    forked child would hold only the calling thread)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), len(weights),
                      sum(weights) // DAYS_PER_PROCESS))


def _blocks(items: list, weights: list, count: int) -> list[list]:
    """`items` cut into `count` (at most len(items), one if none)
    contiguous, non-empty blocks of about equal weight each."""
    ends = list(itertools.accumulate(weights))
    cuts = [0]
    for k in range(1, count):
        cut = bisect.bisect_left(ends, ends[-1] * k / count) + 1
        cuts.append(min(max(cut, cuts[-1] + 1), len(items) - count + k))
    cuts.append(len(items))
    return [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _reply(fn, block: list) -> bytes:
    """A child's reply to `block`, pickled: the results of `fn`, the text it
    printed to stdout and stderr, and the exception that ended the block."""
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    results, error = [], None
    try:
        for item in block:
            results.append(fn(item))
    except BaseException as exc:
        error = exc
    return pickle.dumps((results, sys.stdout.getvalue(), sys.stderr.getvalue(), error))


def _fork(fn, block: list) -> tuple:
    """The pid of a forked child that sends its `_reply` to `block` through
    a pipe, and the pipe's read end. The child never returns into its
    caller: it ends with os._exit, exit status 0 once its reply is sent."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            with open(write_fd, "wb") as fh:
                fh.write(_reply(fn, block))
            os._exit(0)
    except BaseException:
        if os.getpid() == parent:  # the fork failed
            os.close(read_fd)
        raise
    finally:
        if os.getpid() != parent:
            os._exit(1)
        os.close(write_fd)
    return pid, open(read_fd, "rb")


def fork_map(fn, items, weights) -> list:
    """`[fn(x) for x in items]`, with what `fn` prints in item order.

    The items are cut into `_processes(weights)` contiguous `_blocks`, a
    weight being an item's cost in days of work. This process runs the
    first block, a `_fork`ed child each other one, all at once; only the
    results and exceptions must pickle. When `fn` raises, the text of the
    items before it is replayed and that of later ones is not, every child
    is reaped (killed if still running), then the exception is raised; a
    child that ends without its reply is a RuntimeError.
    """
    items, weights = list(items), list(weights)
    first, *rest = _blocks(items, weights, _processes(weights))
    children = []  # (pid, reply pipe) of each child not reaped, in block order
    try:
        sys.stdout.flush()  # a child must inherit no unwritten text
        sys.stderr.flush()  # that it could write a second time
        for block in rest:
            children.append(_fork(fn, block))
        results = [fn(item) for item in first]
        while children:
            pid, reply = children[0]
            with reply:
                data = reply.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status or not data:
                raise RuntimeError(f"a worker process ended without its result "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            done, out, err, error = pickle.loads(data)
            results += done
            sys.stdout.write(out)
            sys.stderr.write(err)
            if error is not None:
                raise error
    finally:
        for pid, reply in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reply.close()
    return results
