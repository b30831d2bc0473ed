"""Starts the benchmark's child processes from a small interpreter.

A child's max RSS, as ``wait4`` reports it, is never below the resident size
of the process it was forked from: Linux carries the parent's high-water mark
across ``fork`` and ``exec``. Started straight from the benchmark process,
which imports cloudcost and runs it in-process, every child would report the
benchmark's own size. So ``run.py`` starts this script once with
``python -I -S``, about 11 MB resident, and has it start every child.

Protocol, one JSON object per line. A request on stdin is
``{"argv": [...], "stdout": path, "stderr": path}``. The answer on stdout is
``{"pid": n}`` once the child has started, then ``{"code", "wall", "cpu",
"rss_kib"}`` once it has ended: exit code, wall s, user+sys CPU s, max RSS
KiB. The script exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            print(json.dumps({"pid": proc.pid}), flush=True)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_kib": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
