"""Work spread over forked processes, results in order: `fork_map` over
items, `map_blocks` over blocks that `cut` makes, and `map_pulled` over
blocks that its processes take one at a time as each gets free.

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


def cut(items, weights, per_process: int | None = None) -> list[list]:
    """`items` cut into `processes(weights, per_process)` contiguous
    `_blocks`, a weight being an item's cost."""
    items, weights = list(items), list(weights)
    return _blocks(items, weights, processes(weights, per_process))


def _reply(fn, block: list) -> bytes:
    """A child's reply to `block`, pickled: the result of `fn(block)` (None
    if it raised), the text it printed to stdout and stderr, and the
    exception it raised."""
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    result, error = None, None
    try:
        result = fn(block)
    except BaseException as exc:
        error = exc
    return pickle.dumps((result, sys.stdout.getvalue(), sys.stderr.getvalue(), error))


def _fork(fn, block: list) -> tuple:
    """The pid of a forked child that sends its `_reply` to `block` through
    a pipe, and the pipe's read end. The child never returns into its
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


def map_blocks(fn, blocks: list) -> list:
    """`[fn(block) for block in blocks]`, with what `fn` prints in block
    order.

    This process runs the first block, a `_fork`ed child each other one,
    all at once; only the results and exceptions must pickle. When `fn`
    raises, the text of the blocks before it and of its own block up to
    the raise is replayed and that of later ones is not, every child is
    reaped (killed if still running), then the exception is raised; a
    child that ends without its reply is a RuntimeError.
    """
    first, *rest = blocks
    children = []  # (pid, reply pipe) of each child not reaped, in block order
    try:
        sys.stdout.flush()  # a child must inherit no unwritten text
        sys.stderr.flush()  # that it could write a second time
        for block in rest:
            children.append(_fork(fn, block))
        results = [fn(first)]
        while children:
            pid, reply = children[0]
            with reply:
                data = reply.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status or not data:
                raise RuntimeError(f"a worker process ended without its result "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            result, out, err, error = pickle.loads(data)
            sys.stdout.write(out)
            sys.stderr.write(err)
            if error is not None:
                raise error
            results.append(result)
    finally:
        for pid, reply in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reply.close()
    return results


def map_pulled(fn, items, weights, count: int) -> list:
    """`[fn(block) for block in blocks]`, `blocks` being `items` cut into
    `count * PULLS_PER_PROCESS` (at most one per item) contiguous
    `_blocks` by their weights.

    `map_blocks` runs `count` processes, this one and forked children,
    that each take the next block from one queue, a pipe of block
    indices written before the fork, as soon as they are done with the
    last; so a process whose CPU is slowed by other work takes fewer
    blocks, and none waits long for the others. Errors and reaping are
    those of `map_blocks`; what `fn` prints comes in process order.
    """
    items, weights = list(items), list(weights)
    pulls = min(count * PULLS_PER_PROCESS, len(items), _MAX_PULLED)
    blocks = _blocks(items, weights, max(1, pulls))

    def pull(_):
        done = {}
        # A read of a pipe is atomic, so each read takes one whole index.
        while index := os.read(read_fd, _INDEX_BYTES):
            index = int.from_bytes(index, "little")
            done[index] = fn(blocks[index])
        return done

    read_fd, write_fd = os.pipe()
    try:
        with open(write_fd, "wb") as queue:
            queue.write(b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(blocks))))
        results = {}
        for done in map_blocks(pull, [None] * count):
            results.update(done)
    finally:
        os.close(read_fd)
    return [results[index] for index in range(len(blocks))]


def fork_map(fn, items, weights) -> list:
    """`[fn(x) for x in items]`, with what `fn` prints in item order.

    The items are `cut` by their weights, a weight being an item's cost
    in days of work, and the blocks run by `map_blocks`.
    """
    blocks = map_blocks(lambda block: [fn(item) for item in block], cut(items, weights))
    return [result for block in blocks for result in block]
