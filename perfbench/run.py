"""Build the benchmark program from source and run one workload.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program's last line of output is the JSON result. Build output goes to
stderr; a failed build exits with the build's non-zero status and prints
no result.
"""

import os
import subprocess
import sys

TARGET = "./perfbench/bin/main.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
