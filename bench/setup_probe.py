"""Time one cold set-up of a workload in a fresh interpreter.

Prints the seconds taken to import quiverhom from ./src and build the
workload's algebras and modules.  run.py starts this several times and
reports the median as setup_s:

    python3 bench/setup_probe.py <workload>
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    sys.path.insert(0, str(Path.cwd() / "src"))
    t0 = perf_counter()
    import quiverhom

    workload.build(quiverhom)
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
