"""Launches the benchmark's children from a process that stays small.

On Linux a child's ``ru_maxrss`` is at least the peak RSS of the process
that forked it, so children are not forked from the benchmark itself, whose
peak grows while it checks large outputs. This process reads one JSON
request per line on stdin ({"cmd", "env", "cwd", "stdout", "stderr",
"timeout"}), runs that child to completion and answers one JSON line on
stdout: wall time from spawn to exit, rusage of that child alone from
``os.wait4``, exit code, and whether the timeout killed it.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        lock = threading.Lock()
        state = {"exited": False, "killed": False}
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, env=req["env"],
                                cwd=req["cwd"])

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused before the timer is off.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "maxrss_kb": usage.ru_maxrss, "cpu": usage.ru_utime + usage.ru_stime,
            "code": proc.returncode, "timed_out": state["killed"]}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
