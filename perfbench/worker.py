"""The interpreters that import macdlab and run its CLI commands for the
benchmark.

Two uses:

  worker.py ROOT setup WORKLOAD SEED CSV
      Import macdlab, generate the workload's input and write it to CSV,
      then print {"slices_s": ..., "probe": ...} (see probe.py) and exit.
      The parent times this whole process as one set-up.

  worker.py ROOT serve
      Import macdlab, then serve requests read as JSON lines on stdin,
      answering each with one JSON line on stdout:
        {"argv": [...], "trace": bool, "spans": PATH}
            -> {"rc": int, "s": wall seconds less probe slices,
                "probe": mean probe slice seconds during the command,
                "maxrss_kb": peak resident memory of the command's process}
      Each command runs in a child forked for it alone, so it starts
      from the state a fresh `import macdlab` leaves and nothing one
      command computes (a cache, say) carries over to the next; the
      import itself is paid once, in set-up. A traced command writes its
      spans (tracer.py) to PATH as it ends. The commands' own printing
      goes to /dev/null; their stderr is kept.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from probe import Sampler
from tracer import Tracer


def _import_program(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    from macdlab import cli

    return cli


def setup(root: str, workload: str, seed: int, csv_path: str) -> None:
    sampler = Sampler()
    sampler.start()
    _import_program(root)
    import gen
    from spec import WORKLOADS

    gen.write_csv(WORKLOADS[workload].instruments(seed), csv_path)
    slices_s, probe = sampler.stop()
    print(json.dumps({"slices_s": slices_s, "probe": probe}))


def run_command(cli, req: dict) -> dict:
    """Run one command in this process; the reply less maxrss_kb."""
    main = cli.main
    tracer = None
    if req["trace"]:
        tracer = Tracer()
        tracer.install("macdlab")
        main = tracer.span("cli.main", cli.main)
    sampler = Sampler()
    sampler.start()
    start = time.perf_counter()
    rc = main(req["argv"])
    elapsed = time.perf_counter() - start
    slices_s, probe = sampler.stop()
    if tracer is not None:
        with open(req["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return {"rc": rc, "s": elapsed - slices_s, "probe": probe}


def serve(root: str) -> None:
    cli = _import_program(root)
    proto = sys.stdout
    sys.stdout = open(os.devnull, "w", encoding="utf-8")
    for line in sys.stdin:
        req = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            status = 1
            try:
                os.write(write_fd, json.dumps(run_command(cli, req)).encode())
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
        if status != 0 or not data:
            sys.exit(f"worker: command {req['argv']} ended without a reply (status {status})")
        reply = json.loads(data)
        reply["maxrss_kb"] = usage.ru_maxrss
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    if sys.argv[2] == "setup":
        setup(sys.argv[1], sys.argv[3], int(sys.argv[4]), sys.argv[5])
    else:
        serve(sys.argv[1])
