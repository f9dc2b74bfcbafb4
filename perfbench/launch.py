"""Run commands one at a time and report each one's wall time, CPU time and peak RSS.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "stdout": PATH,
"stderr": PATH, "timeout": SECONDS}``; one JSON reply per line on stdout,
``{"rc", "wall_s", "cpu_s", "maxrss_kb"}``.  The command's stdout and stderr
go to the named files, so everything it prints is written before it exits.
A command still running after its timeout is killed.

Linux carries the peak RSS of the spawning process into a child's
``ru_maxrss`` (vfork and exec keep the old address space's high-water mark).
This process imports nothing beyond the standard library and stays small, so
the peak it reports is the command's own.  It must be started before the
benchmark allocates anything large.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # the timer fired just after the child was reaped
        pass


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: _kill(proc.pid))
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "rc": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
