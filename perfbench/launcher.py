"""Starts the CLI processes of the cli_readme workload, one per request.

Reads one JSON request per stdin line, {"argv", "cwd", "stdout", "stderr"},
runs it to completion and answers one JSON line, {"rc", "maxrss_kb"}.

Why a middleman: Linux charges a new process, when it execs, with the peak
RSS of the memory it ran on before the exec.  A child started straight from
the benchmark (which has the package and its timing records loaded) would
report at least the benchmark's own peak.  Children started from this small
process report at least this process's peak instead, which is well below
the CLI's.
"""

import json
import os
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            # wait4 reaps the child and gives its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
