"""Set-up time of a fresh interpreter: import curvcalc and curvcalc.cli,
then run the workload's warm-up job. run.py starts this several times.
The host speed probe is timed right after, so run.py can scale the set-up
time to reference seconds.

    python3 perfbench/setup_child.py WORKLOAD WARMUP_SPEC_JSON
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from program import import_curvcalc  # noqa: E402

PROBES = 7


def main(name, spec_path):
    import_curvcalc()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    workload.run(spec, workload.prepare(spec))
    setup_s = time.perf_counter() - _START
    import hostspeed

    probe = hostspeed.HostProbe()
    probe_s = statistics.median(probe() for _ in range(PROBES))
    print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))


if __name__ == "__main__":
    main(*sys.argv[1:])
