"""Write the committed reference observations the benchmark checks against.

    python3 bench/make_reference.py --workload stream-io --seeds 0-11

For each seed it sets the workload up, runs one pass and stores what
``observe`` recorded in ``bench/reference/<workload>.json``, keyed by
seed. Regenerate only when a change to spikekit's outputs has been
explained and accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True,
                        help="inclusive range such as 0-19")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    run.prepare()
    import workloads

    path = run.reference_path(args.workload)
    refs = run.load_references(args.workload) if os.path.exists(path) else {}
    kind = workloads.WORKLOADS[args.workload]
    with run.scratch_dir("reference") as work_dir:
        for seed in range(first, last + 1):
            start, usage = time.perf_counter(), resource.getrusage(
                resource.RUSAGE_SELF)
            workload = kind(seed, work_dir)
            workload.setup()
            record = workload.observe(workload.run_pass(0))
            bad = workload.check(record, None)
            if bad:
                print(f"seed {seed}: {bad[:3]}", file=sys.stderr)
                return 1
            refs[str(seed)] = workload.reference(record)
            now = resource.getrusage(resource.RUSAGE_SELF)
            print(f"seed {seed}: {time.perf_counter() - start:.2f} s wall, "
                  f"{now.ru_utime - usage.ru_utime:.2f} s user, "
                  f"{now.ru_stime - usage.ru_stime:.2f} s sys", flush=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    rows = [f"{json.dumps(seed)}: {json.dumps(refs[seed])}"
            for seed in sorted(refs, key=int)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")   # a line per seed
    return 0


if __name__ == "__main__":
    sys.exit(main())
