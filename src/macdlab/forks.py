"""Work spread over forked processes, results in order: `map_pulled`
runs blocks of items in processes that take them one at a time from one
queue as each gets free, and `fork_map` runs items through it.

Stdlib only, and kept out of `macdlab.__all__`.
"""

import bisect
import io
import itertools
import os
import pickle
import select
import signal
import sys
import threading

# The least weight, in days of series work, per process. A forked child
# costs 5-10 ms (the fork of a ~35 MB process, copy-on-write faults, the
# reaping); on a 2-core x86_64 host, denoise, the cheapest command per
# day, ran no faster in two processes than in one on 4 x 1,500 days, and
# ~20% faster on 8 x 1,500.
DAYS_PER_PROCESS = 6000

# Blocks per process of a `map_pulled` call: the more, the less a process
# that ends its last block early waits for the others, and the more
# per-block work is repeated.
PULLS_PER_PROCESS = 4
# A `map_pulled` queue holds each block index in this many bytes, and
# at most PIPE_BUF bytes, which a pipe takes before any process reads.
_INDEX_BYTES = 2
_MAX_PULLED = select.PIPE_BUF // _INDEX_BYTES

# True in a child that `_fork` made: work it spreads stays in its process.
_forked = False


def processes(weights: list, per_process: int | None = None) -> int:
    """One process per CPU this process may run on, at most one per item
    and per `per_process` (DAYS_PER_PROCESS when None) of weight. One
    where os.fork or os.sched_getaffinity is missing, where another
    thread runs (a forked child would hold only the calling thread), or
    in a forked child."""
    if _forked or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    per_process = DAYS_PER_PROCESS if per_process is None else per_process
    return max(1, min(len(os.sched_getaffinity(0)), len(weights),
                      sum(weights) // per_process))


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


def _reply(fn) -> bytes:
    """A child's reply, pickled: the result of `fn()` (None if it raised),
    the text it printed to stdout and stderr, and the exception it
    raised."""
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    result, error = None, None
    try:
        result = fn()
    except BaseException as exc:
        error = exc
    return pickle.dumps((result, sys.stdout.getvalue(), sys.stderr.getvalue(), error))


def _fork(fn) -> tuple:
    """The pid of a forked child that sends its `_reply` to `fn` through a
    pipe, and the pipe's read end. The child never returns into its
    caller: it ends with os._exit, exit status 0 once its reply is sent."""
    global _forked
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _forked = True
            os.close(read_fd)
            with open(write_fd, "wb") as fh:
                fh.write(_reply(fn))
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


def map_pulled(fn, items, weights, count: int) -> list:
    """`[fn(block) for block in blocks]`, `blocks` being `items` cut into
    `count * PULLS_PER_PROCESS` (at most one per item) contiguous
    `_blocks` by their weights.

    `count` processes, this one and `_fork`ed children, each take the
    next block from one queue, a pipe of block indices written before
    the fork, as soon as they are done with the last; so a process whose
    CPU is slowed by other work takes fewer blocks, and none waits long
    for the others. Only the results and exceptions must pickle. What
    `fn` prints comes in process order: this process's as it runs, then
    each child's. A block that raises empties the queue, so each process
    ends with the block it holds; the exception ends the call as soon as
    it reaches this process: it replays that child's text, kills and
    reaps every child, then raises the exception. A child that ends
    without its reply is a RuntimeError.
    """
    items, weights = list(items), list(weights)
    pulls = min(count * PULLS_PER_PROCESS, len(items), _MAX_PULLED)
    blocks = _blocks(items, weights, max(1, pulls))

    def pull():
        done = {}
        try:
            # A read of a pipe is atomic, so each read takes one whole index.
            while index := os.read(read_fd, _INDEX_BYTES):
                index = int.from_bytes(index, "little")
                done[index] = fn(blocks[index])
        except BaseException:
            while os.read(read_fd, select.PIPE_BUF):  # so that no process takes another block
                pass
            raise
        return done

    read_fd, write_fd = os.pipe()
    children = {}  # reply pipe -> pid of each child not reaped, in fork order
    try:
        with open(write_fd, "wb") as queue:
            queue.write(b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(blocks))))
        sys.stdout.flush()  # a child must inherit no unwritten text
        sys.stderr.flush()  # that it could write a second time
        for _ in range(count - 1):
            pid, reply = _fork(pull)
            children[reply] = pid
        results, replies = pull(), {}
        while len(replies) < len(children):
            # A child writes its reply once its work is done, so a read
            # that has begun ends soon.
            for reply in select.select([r for r in children if r not in replies], [], [])[0]:
                with reply:
                    data = reply.read()
                if not data:
                    status = os.waitpid(children.pop(reply), 0)[1]
                    raise RuntimeError(f"a worker process ended without its result "
                                       f"(exit status {os.waitstatus_to_exitcode(status)})")
                done, out, err, error = replies[reply] = pickle.loads(data)
                if error is not None:
                    sys.stdout.write(out)
                    sys.stderr.write(err)
                    raise error
        for reply in children:
            done, out, err, _ = replies[reply]
            sys.stdout.write(out)
            sys.stderr.write(err)
            results.update(done)
    finally:
        os.close(read_fd)
        for reply, pid in children.items():
            os.kill(pid, signal.SIGKILL)  # harmless to a child that has ended
            os.waitpid(pid, 0)
            reply.close()
    return [results[index] for index in range(len(blocks))]


def fork_map(fn, items, weights) -> list:
    """`[fn(x) for x in items]` by `map_pulled`, a weight being an item's
    cost in days of work, on `processes(weights)` processes."""
    weights = list(weights)
    blocks = map_pulled(lambda block: [fn(item) for item in block], items, weights,
                        processes(weights))
    return [result for block in blocks for result in block]
