"""List the verify trial seeds in range(POOL) whose trial reports a
violation in exact or float mode.

The verify workloads draw trial seeds from range(POOL).  A drawn seed that
fails would make the count of failed operations depend on --seed, so the
benchmark never draws these seeds; it runs them as fixed operations in every
round instead (workloads.KNOWN_FALSE_INTER).  Rerun this when the program's
trial generators change, and update that tuple from its output:

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/screen.py
"""

import sys

from cxlab import experiments

from workloads import DEPTH, POOL


def main() -> int:
    for name in experiments.VERIFY_NAMES:
        bad = [s for s in range(POOL)
               if any(not r.holds and not r.degenerate
                      for mode in ("exact", "float")
                      for r in experiments.run_verify_suite(name, 1, DEPTH, s, mode))]
        print(name, bad, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
