#!/usr/bin/env python3
"""Minor page faults, system time and peak RSS per training epoch of a benchmark workload.

    python3 tools/epoch_faults.py long_train 202 [--checkout ../parent]

Builds the workload's inputs and model with `perfbench/workloads.py` (BLAS
pinned to one thread, as in `perfbench/run.py`), trains once for the
workload's own epoch count with a run directory as the benchmark does, and
reads `getrusage` from the trainer's per-epoch `log` hook. An epoch's
interval runs from the previous hook call (or the start of training) to
its own, so it holds the epoch's training steps and validation, and the
previous epoch's checkpoint save. One JSON line per epoch goes to standard
output: wall seconds, minor faults, system seconds, and the process's peak
RSS at the end of the epoch. Faults and system time per epoch show whether
the allocator hands memory back to the OS and faults it in again each
batch, which the end-to-end metrics do not.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def epoch_record(epoch: int, wall_s: float, before, after) -> dict:
    """One epoch's line from `getrusage` readings at its start and its end."""
    return {
        "epoch": epoch,
        "wall_s": round(wall_s, 3),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "peak_rss_mb": round(after.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--checkout", type=Path, default=HERE,
                        help="source checkout whose src/ and perfbench/ are used")
    args = parser.parse_args(argv)

    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "perfbench")]
    import run  # perfbench/run.py: stdlib only at import, so BLAS is pinned before numpy

    run.single_blas_thread()
    sys.path[:0] = [str(root / "src")]
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}")
    prep = W.prepare(W.WORKLOADS[args.workload], args.seed)
    epoch = 0
    mark = resource.getrusage(resource.RUSAGE_SELF)

    def after_epoch(_model, seconds):
        nonlocal epoch, mark
        now = resource.getrusage(resource.RUSAGE_SELF)
        line = epoch_record(epoch, seconds, mark, now)
        print(json.dumps({"workload": args.workload, "seed": args.seed, **line}), flush=True)
        epoch += 1
        mark = resource.getrusage(resource.RUSAGE_SELF)

    with tempfile.TemporaryDirectory(prefix="epoch-faults-") as run_dir:
        t0 = time.perf_counter()
        result = W.train_run(prep, run_dir, model=prep.model, after_epoch=after_epoch)
    if result.error:
        print(f"epoch_faults: training failed: {result.error}", file=sys.stderr)
        return 1
    print(f"epoch_faults: {epoch} epochs in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
