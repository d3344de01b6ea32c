"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_child.py <workload> <seed>``.
Prints ``{"setup_s": ...}``: the seconds from before ``import repro`` to a
constructed model, which every user pays on every run.
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import models

    models.WORKLOADS[name]().setup(seed)
    print(json.dumps({"setup_s": perf_counter() - _T0}))


if __name__ == "__main__":
    main()
