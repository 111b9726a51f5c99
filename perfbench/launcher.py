"""Starts the benchmark's child processes from a small process.

On Linux a child's ``ru_maxrss`` includes the resident set of the process
that forked it, recorded when the child calls exec.  Forked from the
benchmark itself, which holds numpy, scipy and the inputs, every child would
read as large as the benchmark.  This launcher is started before those
imports and forks every command instead.

Protocol: one JSON job per stdin line (``argv``, ``cwd``, ``env``, ``stdout``,
``stderr`` paths); one JSON line back per job with the child's wall seconds,
``ru_maxrss`` in KiB and exit code.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(job["argv"], stdout=out, stderr=err,
                                     cwd=job["cwd"], env=job["env"])
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"seconds": seconds, "rss_kib": usage.ru_maxrss,
                          "returncode": child.returncode}), flush=True)


if __name__ == "__main__":
    main()
