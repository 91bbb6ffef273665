"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

Prints one JSON object: import_s (importing pexprk, numpy and scipy
included), transform_s (the order-4 tableau transform the reference needs)
and setup_s (import, config validation, the transform and build_study).
run.py starts this several times per run, because an interpreter imports a
module only once.
"""

import json
import sys
from time import perf_counter

from workloads import WORKLOADS


def main(name: str) -> int:
    start = perf_counter()
    from pexprk.harness import build_study
    from pexprk.tableaux import transformed

    import_s = perf_counter() - start
    cfg = WORKLOADS[name].run_config()
    cfg.validate()
    before = perf_counter()
    transformed(4)
    transform_s = perf_counter() - before
    build_study(cfg)
    setup_s = perf_counter() - start
    print(json.dumps({"import_s": import_s, "transform_s": transform_s, "setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
