"""Run one command and report its wall time and resources.

    python3 -S -E perfbench/spawn.py FD PROGRAM [ARG ...]

A child's ``ru_maxrss`` starts at the resident size of the process that
forked it, so the benchmark forks its children from this small interpreter
instead of from itself.  PROGRAM must be an absolute path.  When the child
has ended, one line ``wall_s cpu_s maxrss_kib exit_code`` is written to the
file descriptor FD.  Only built-in modules are imported.
"""

import os
import sys
import time


def main(fd: int, argv: list) -> None:
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.write(fd, (f"{wall!r} {usage.ru_utime + usage.ru_stime!r} "
                  f"{usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n"
                  ).encode())


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2:])
