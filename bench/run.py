"""spikekit benchmark runner.

    python3 bench/run.py --workload stream-io --seed 0 --seconds 45 --trace 0

Runs one workload (see bench/README.md) in this process, so its peak RSS
is its own. It imports spikekit from ``src/`` beside this directory, builds
the workload's inputs from ``--seed``, then runs timed passes up to the
pass boundary nearest to ``--seconds`` (at least one pass) and checks every
pass's outputs. Scratch files go under ``.bench_work/`` in the checkout and
are removed at exit.

With ``--trace 0`` the final line carries the end-to-end metrics, whose
times are user CPU seconds stated at a reference machine speed (see
calibrate.py). With ``--trace 1`` untraced and traced passes alternate and
the final line carries the per-layer metrics of the traced passes. Earlier
lines give the environment, latency percentiles and workload figures for
people.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("stream-io", "fewshot-64")
# One BLAS thread: never more than nproc, and the same on every machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
SETUP_REPEATS = 5
# A 0.2 s import varies by +-15% between interpreters: take more samples.
IMPORT_REPEATS = 9
MAX_MESSAGES = 10
# Calibration (see calibrate.py): blocks run before the set-ups, and after
# each pass for this share of the pass's CPU time.
CAL_START_S = 1.0
CAL_SHARE = 0.1

FS_MAGIC = {0x01021994: "tmpfs", 0xEF53: "ext4", 0x794C7630: "overlayfs",
            0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
            0x65735546: "fuse", 0x01021997: "9p"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def fs_type(path: str) -> str:
    """File-system type of ``path`` from statfs(2)'s magic number."""
    buf = ctypes.create_string_buffer(256)
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    magic = struct.unpack_from("l", buf.raw)[0] & 0xFFFFFFFF
    return FS_MAGIC.get(magic, hex(magic))


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(work_dir: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "work_fs": fs_type(work_dir), "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def latency_line(name: str, samples: list[float]) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(samples)
    line = f"{name}: median {statistics.median(samples):.6g} s"
    tail = [p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10]
    if tail:
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        line += f", p{tail[0]} {cuts[tail[0] - 1]:.6g} s"
    else:
        line += " (no tail percentile: fewer than 40 samples)"
    return line + f" (n={n})"


def cpu_user_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def reference_path(workload: str) -> str:
    return os.path.join(BENCH_DIR, "reference", f"{workload}.json")


def load_references(workload: str) -> dict:
    """Committed reference observations, keyed by seed."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A fresh directory under .bench_work/ in the checkout, removed (with
    .bench_work/ when it is left empty) on exit."""
    path = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))


def prepare() -> None:
    """Pin the BLAS thread count, put spikekit and the benchmark on the
    import path and import spikekit."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, BENCH_DIR]
    import spikekit  # noqa: F401


def import_seconds() -> float:
    """Median user CPU time of ``import spikekit`` in fresh interpreters,
    which a single in-process import cannot give more than once."""
    code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
            "t = resource.getrusage(resource.RUSAGE_SELF).ru_utime; "
            "import spikekit; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_utime - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def run(args, work_dir: str, import_s: float) -> dict:
    import workloads
    from calibrate import REF_BLOCK_S, Calibration
    from spantrace import COUNTS, Tracer

    kind = workloads.WORKLOADS[args.workload]
    ref = load_references(args.workload).get(str(args.seed))

    cal = Calibration()
    cal.measure(CAL_START_S)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None             # free the previous set-up's inputs
        workload = kind(args.seed, work_dir)
        start = cpu_user_s()
        workload.setup()
        setup_times.append(cpu_user_s() - start)

    tracer = Tracer() if args.trace else None
    wall = {False: [], True: []}
    cpu = {False: [], True: []}
    records, messages = [], []
    attempted = failed = 0
    min_passes = 2 if args.trace else 1
    start = time.perf_counter()
    index = 0
    # Stop at the pass boundary nearest to --seconds: a pass expected to
    # end further past it than the run now falls short is not started.
    while index < min_passes or time.perf_counter() - start + \
            statistics.median(wall[False] + wall[True]) / 2 < args.seconds:
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.install()
        t0, c0 = time.perf_counter(), cpu_user_s()
        try:
            out = workload.run_pass(index)
        except Exception:           # the run goes on and counts the failure
            out = None
            messages.append(traceback.format_exc(limit=3))
        t1, c1 = time.perf_counter(), cpu_user_s()
        if traced:
            tracer.uninstall()
        wall[traced].append(t1 - t0)
        cpu[traced].append(c1 - c0)
        cal.measure(CAL_SHARE * (c1 - c0))
        attempted += workload.ops_per_pass
        bad = ["output not checked"] * workload.ops_per_pass
        if out is not None:
            try:
                seen = workload.observe(out)
                bad = workload.check(seen, ref)
                if not traced:
                    records.append(seen)
            except Exception:       # a malformed output fails the pass
                messages.append(traceback.format_exc(limit=3))
            del out
            messages += bad
        failed += min(len(bad), workload.ops_per_pass)
        index += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = cal.factor()
    setup_s = (import_s + statistics.median(setup_times)) * speed
    lines = [f"workload {args.workload} seed {args.seed}: "
             f"{index} passes, reference "
             f"{'committed' if ref else 'absent (invariant checks only)'}",
             f"setup_s: median {statistics.median(setup_times):.6g} s of "
             f"user CPU over {SETUP_REPEATS} set-ups plus median import "
             f"{import_s:.6g} s over {IMPORT_REPEATS} fresh interpreters",
             f"calibration: median block {REF_BLOCK_S / speed:.6g} s of user "
             f"CPU over {len(cal.samples)} blocks, reference {REF_BLOCK_S} s; "
             f"set-up and pass times are scaled by {speed:.6g}"]
    lines.append(latency_line("pass wall", wall[False]))
    lines.append(latency_line("pass user CPU", cpu[False]))
    if records:
        for name, samples in workload.op_latencies(records).items():
            lines.append(latency_line(name, samples))
        for name, (value, unit) in workload.info(records,
                                                 wall[False]).items():
            lines.append(f"{name}: {value:.6g} {unit}")
    lines.append(f"ops_failed_ratio: {failed / attempted:.6g} "
                 f"({failed} of {attempted} operations)")
    lines += [f"FAILED: {m.strip()}" for m in messages[:MAX_MESSAGES]]

    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"),
                   "pass_ref_cpu_s": (statistics.median(cpu[False]) * speed,
                                      "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        traced_passes = len(wall[True])
        layers = tracer.summary(traced_passes)
        units = {name: unit for name, (unit, _) in COUNTS.items()}
        metrics = {}
        for name, value in layers.items():
            unit = units.get(name) or ("count" if name.endswith(".calls")
                                       else "s")
            metrics[name] = (value, unit)
        traced_s = statistics.median(wall[True])
        overhead_s = (statistics.median(cpu[True])
                      - statistics.median(cpu[False]))
        coverage = tracer.self_time_total() / sum(wall[True])
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (overhead_s, "s")
        metrics["trace.coverage"] = (coverage, "ratio")
        lines.append(f"traced pass: median {traced_s:.6g} s wall against "
                     f"{statistics.median(wall[False]):.6g} s untraced; "
                     f"tracing overhead {overhead_s:.6g} s of user CPU; "
                     f"root spans cover {coverage:.6g} of the traced time")
        lines.append("computed from call shapes: " + ", ".join(
            f"{name} {layers[name]:.6g}" for name in COUNTS))
        lines += [f"absent: {name} (reported as 0)"
                  for name in tracer.absent]
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spikekit", "__init__.py")):
        print(f"error: no spikekit sources under {SRC}", file=sys.stderr)
        return 2
    prepare()
    import_s = import_seconds()
    with scratch_dir(args.workload) as work_dir:
        print("env " + json.dumps(environment(work_dir), sort_keys=True))
        result = run(args, work_dir, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
