"""Run one command; report its wall time and peak resident set.

    python3 -S perfbench/spawn.py REPORT -- PROGRAM ARG...

Linux seeds a process's peak resident set with the memory of the
process that execs it, so a command started straight from the benchmark
would report the benchmark's own memory. Started from this small
interpreter instead, the command reports its own. The wall time runs
from fork to reap, so this interpreter's start-up is not in it.
REPORT receives "<wall seconds> <peak KiB>"; the exit code is the
command's.
"""

import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    report, argv = argv[0], argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status = os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(report, "w", encoding="ascii") as handle:
        handle.write(f"{wall!r} {peak}\n")
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
