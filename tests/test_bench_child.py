"""bench/_child.py's `forked`, the runner the timing harnesses fork their
children with, and cli_memory's check of --repeats.

The failure cases run a small harness in a Python subprocess, so that
its exit status and stderr are those a harness run from the shell gives.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import no_child_left

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def harness(body: str) -> subprocess.CompletedProcess:
    """Run `body` as a script that imports forked from bench/_child.py."""
    script = f"import sys\nsys.path.insert(0, {str(BENCH)!r})\nfrom _child import forked\n{body}"
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)


def test_forked_returns_the_result_the_rusage_and_the_wall_seconds(bench):
    # a reply larger than a pipe's buffer, which the child writes as the parent reads
    big = [1.5, None, *range(100_000)]
    result, usage, wall = bench("_child").forked(lambda: (os.getpid(), big))
    assert result[0] != os.getpid() and result[1] == big
    assert usage.ru_maxrss > 0 and wall > 0
    assert no_child_left()


def test_the_childs_stdout_does_not_reach_the_parents():
    done = harness("import os\n"
                   "def work():\n"
                   "    print('printed by the child', flush=True)\n"
                   "    os.write(1, b'written by the child')\n"
                   "    return 7\n"
                   "print(forked(work)[0])\n")
    assert (done.returncode, done.stdout, done.stderr) == (0, "7\n", "")


@pytest.mark.parametrize("failure, message", [
    ("1 / 0", "ZeroDivisionError: division by zero"),
    ("sys.exit('a check failed')", "SystemExit: a check failed"),
])
def test_a_failing_child_exits_the_harness_with_status_1(failure, message):
    done = harness(f"forked(lambda: {failure})\nprint('not reached')\n")
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback (most recent call last)" in done.stderr and message in done.stderr


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_cli_memory_rejects_repeats_below_1_before_forking(bench, monkeypatch, capsys, repeats):
    cli_memory = bench("cli_memory")
    monkeypatch.setattr(cli_memory, "forked", lambda work: pytest.fail("forked a child"))
    with pytest.raises(SystemExit) as exited:
        cli_memory.main([f"--repeats={repeats}"])
    assert exited.value.code == 2
    assert f"--repeats must be at least 1, got {repeats}" in capsys.readouterr().err
