"""Runs the benchmark's CLI children and measures each one.

The kernel reports a child's peak RSS as at least the peak RSS its parent
had when it forked the child. The benchmark process grows (numpy, recal,
parsed outputs), so it does not fork CLI units itself. It starts this small
helper first, and the helper forks them:

    python3 perfbench/spawner.py

Each line read from standard input is a JSON list ``[cmd, stderr_path]``.
The helper runs ``cmd`` to completion and writes back one JSON line,
``[exit code, wall seconds, peak RSS in MB]``. It ends at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

UNIT_TIMEOUT_S = 120.0


def run_child(cmd: list[str], stderr_path: str) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(UNIT_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def main() -> int:
    for line in sys.stdin:
        cmd, stderr_path = json.loads(line)
        print(json.dumps(run_child(cmd, stderr_path)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
