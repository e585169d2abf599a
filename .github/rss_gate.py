"""Run a command and fail when its max RSS is above a limit.

Usage: python .github/rss_gate.py LIMIT_MB cmd [arg ...]

Prints the command's wall time and the max RSS of the largest process it
waited for, in MB. Exits 1 when that is above LIMIT_MB, else with the
command's exit code.
"""

import resource
import subprocess
import sys
import time


def main(argv):
    limit, cmd = int(argv[0]), argv[1:]
    t = time.perf_counter()
    code = subprocess.run(cmd).returncode
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
    print(f"{time.perf_counter() - t:.1f} s, max RSS {rss} MB")
    if rss > limit:
        sys.exit(f"max RSS {rss} MB is above {limit} MB")
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
