"""Runs the benchmark's child processes one at a time and reports their rusage.

run.py starts one launcher per run and sends it every child to run. The
launcher's small address space is the point: Linux records the memory of
the process that spawns a child in the child's ``ru_maxrss``, so a child
spawned straight from run.py (which holds numpy and scipy) would report
run.py's size as its own peak.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stdout": path
or null, "stderr": path}``; one JSON reply per stdout line, ``{"rc",
"wall_s", "cpu_s", "rss_mb"}``. The launcher exits when stdin closes; on
SIGTERM it kills the child it is running, waits for it and exits.
"""

import json
import os
import signal
import sys
import time

running: list[int] = []


def _terminate(signum, frame):
    for pid in running:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    sys.exit(128 + signum)


def run(request: dict) -> dict:
    argv = request["argv"]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"] or os.devnull,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    running.append(pid)
    _, status, usage = os.wait4(pid, 0)
    running.remove(pid)
    wall = time.perf_counter() - start
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
