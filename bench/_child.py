"""The forked-child runner of the timing harnesses, and the machine record they print.

Only the standard library and numpy are used, nothing of macdlab, so a
harness that runs its children here still runs on older checkouts.
"""

from __future__ import annotations

import os
import pickle
import platform
import sys
import time
import traceback

import numpy as np


def forked(work):
    """Run work() in a child forked for it alone, with its stdout on /dev/null.

    Returns work()'s result, pickled back through a pipe; the child's
    rusage from wait4 (it covers the child's own forked children too:
    the larger peak, the summed faults and CPU seconds); and the wall
    seconds from the fork to the reaping. A child that raises, a failed
    check's SystemExit included, prints its traceback on stderr, and the
    harness exits with status 1.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            reply = memoryview(pickle.dumps(work()))
            while reply:  # os.write: a file object opened here raised the child's peak RSS 0.7 MB
                reply = reply[os.write(write, reply):]
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        reply = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"a forked child failed (exit code {code})")
    return pickle.loads(reply), usage, wall


def machine() -> dict:
    """The CPUs this process may run on, and the Python, numpy and hardware it runs."""
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}
