"""Start the benchmark's stage processes and report their wall time and peak RSS.

A child started with vfork/exec, as ``subprocess`` does, reports at least the
peak RSS of the process that started it as its own ``ru_maxrss``. The
benchmark's process grows while it checks outputs and runs the traced pass,
so it starts the stages through this small process, which stays near the
size of a bare interpreter, far below any stage.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "cwd": "...", "stderr": "...", "timeout_s": 1.0}``, and one
JSON reply per line on standard output,
``{"wall_s": 1.0, "maxrss_kb": 1, "exit_code": 0}``. A child still running
after ``timeout_s`` is killed. The launcher exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(argv: list[str], cwd: str, stderr: str, timeout_s: float) -> dict:
    with open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err,
        )
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit_code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["stderr"],
                    request["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
