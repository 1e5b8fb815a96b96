"""Run one command; print its wall time, exit code and peak RSS as JSON.

Usage: ``python3 perfbench/launch.py TIMEOUT_S COMMAND [ARGS...]``

On Linux a child's ``ru_maxrss`` is at least the resident size of the
process that started it.  The benchmark holds large simulation vectors,
so it starts every timed run through this small process, and the peak it
reports is the run's own.  The command is killed after TIMEOUT_S seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launch.py TIMEOUT_S COMMAND [ARGS...]", file=sys.stderr)
        return 2
    timeout = float(argv[0])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv[1:], stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"exit": proc.returncode, "wall_s": wall,
                      "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
