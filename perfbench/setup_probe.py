"""Time one fresh set-up of a workload and print the seconds it took.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Set-up is the import of toruskms (with numpy) followed by loading and
validating the workload's scenario and thread.  It runs in its own process so
that every import is cold; the interpreter's own start-up is not counted.
"""

import sys
import time

from workloads import WORKLOADS, load_inputs, use_source_tree


def main() -> int:
    spec = WORKLOADS[sys.argv[1]]
    use_source_tree()
    start = time.perf_counter()
    load_inputs(spec)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
