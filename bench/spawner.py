"""Starts, times and reaps CLI children for ``calls.Runner``.

Linux counts the RSS high-water mark of the process that starts a child into
the child's ``ru_maxrss``. The benchmark process grows as it generates
corpora and reads outputs, so children are started from this small process
instead, whose own high-water mark stays below any CLI call's.

Reads one JSON request per line (``argv``, ``cwd``, ``out``, ``err``,
``timeout``) and answers each with ``[exit code, seconds, ru_maxrss KiB]``.
Children inherit this process's environment. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, seconds, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
