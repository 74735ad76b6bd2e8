#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --label pr7 \\
        --run long_train:201-210 --run desk_train:221-230

Each pair runs `perfbench/run.py --workload W --seed S --trace 0` (run length
is the benchmark's own default) once in the parent checkout and once in the change checkout (by default the one holding
this script), alternating which side runs first. Per workload and end-to-end
metric, the file gives each side's median and quartiles over the pairs, the
ratio of the change's median to the parent's, the pairs in which the change
read better (ties count for neither) and the failed operations per side; the
raw value of every run is kept under `runs`. Before each run a fixed
calibration loop (pure Python plus one small numpy product) is timed and kept
beside the run as `calibration_s` (the fastest of 5 passes), with its
quartiles per side in the summary: it measures the host's speed at that moment, so runs in different
files, or on different hosts, can be set side by side. The file is rewritten
after every pair, so a stopped sweep keeps what it measured. A markdown table
of the result goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BENCH_COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --trace 0"
TIER1_COMMAND = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
CALIBRATION_PASSES = 5


def seed_range(text: str) -> tuple[str, list[int]]:
    """`workload:first-last` (or `workload:seed`) -> (workload, seeds)."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected workload:first-last, got {text!r}") from None
    if not workload or hi < lo:
        raise argparse.ArgumentTypeError(f"expected workload:first-last, got {text!r}")
    return workload, list(range(lo, hi + 1))


def tier1(text: str) -> dict:
    passed, _, seconds = text.partition(":")
    return {"passed": int(passed), "seconds": float(seconds)}


def calibrate() -> float:
    """The fastest of CALIBRATION_PASSES timed passes of a fixed CPU loop.
    One pass catches host bursts: within one sweep the same checkout read
    0.027 to 0.069 s."""
    return min(calibration_pass() for _ in range(CALIBRATION_PASSES))


def calibration_pass() -> float:
    """Seconds of a fixed CPU loop: interpreter work (the benchmark's
    per-op overhead) plus one small float32 product (its kernels)."""
    a = np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
    t0 = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i % 7
    for _ in range(2000):
        a @ a
    return time.perf_counter() - t0


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run; its last output line, or a failure record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"failed": 1, "attempted": 1, "error": f"exit {done.returncode}: {tail}"}
    result = json.loads(lines[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def sig(x: float) -> float:
    return float(f"{x:.4g}")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": sig(values[0]), "q1": sig(values[0]), "q3": sig(values[0])}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": sig(median), "q1": sig(q1), "q3": sig(q3)}


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    """Per-metric statistics over the pairs in which both sides produced metrics."""
    pairs = [r for r in runs if all("metrics" in r[side] for side in SIDES)]
    out = {}
    for m in declared if pairs else []:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r[side]["metrics"][name] for r in pairs] for side in SIDES}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        stats = {side: quartiles(vals[side]) for side in SIDES}
        base = statistics.median(vals["parent"])
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            **stats,
            "ratio": round(statistics.median(vals["change"]) / base, 3) if base else None,
            "change_better_in": wins,
            "pairs": len(pairs),
        }
    return out


def table(workloads: dict) -> str:
    rows = ["| workload | metric | parent | change | ratio | change better in |",
            "|---|---|---|---|---|---|"]
    for workload, w in workloads.items():
        for name, m in w["metrics"].items():
            p, c = m["parent"], m["change"]
            rows.append(f"| {workload} | {name} | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                        f" | {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | {m['ratio']}"
                        f" | {m['change_better_in']}/{m['pairs']} |")
        p, c = w["calibration_s"]["parent"], w["calibration_s"]["change"]
        rows.append(f"| {workload} | calibration_s | {p['median']:.4g} [{p['q1']:.4g}, "
                    f"{p['q3']:.4g}] | {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | | |")
        failed = w["failed_operations"]
        rows.append(f"| {workload} | failed operations | {failed['parent']} | {failed['change']}"
                    " | | |")
    return "\n".join(rows)


def git_commit(checkout: Path) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    parser.add_argument("--change", type=Path, default=HERE, help="change source checkout")
    parser.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    parser.add_argument("--run", type=seed_range, action="append", required=True,
                        metavar="WORKLOAD:FIRST-LAST", help="a workload and its pair seeds")
    parser.add_argument("--what", default="", help="what the change does, one line")
    parser.add_argument("--host", default="", help="the host the pairs ran on")
    parser.add_argument("--tier1-parent", type=tier1, metavar="PASSED:SECONDS",
                        help=f"tests passed and wall seconds of `{TIER1_COMMAND}` on the parent")
    parser.add_argument("--tier1-change", type=tier1, metavar="PASSED:SECONDS",
                        help="the same on the change")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path}: no perfbench/run.py")
    with open(checkouts["change"] / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)["end_to_end"]
    out_path = args.out or checkouts["change"] / f"BENCH_{args.label}.json"
    report = {
        "what": args.what,
        "parent_commit": git_commit(checkouts["parent"]),
        "command": BENCH_COMMAND,
        "host": args.host,
        "statistic": "median and quartiles [q1, q3] (inclusive method) over the pairs; "
                     "ratio is change median / parent median; change_better_in counts "
                     "pairs, ties for neither",
        "workloads": {},
    }
    if args.tier1_parent or args.tier1_change:
        report["tier1"] = {"command": TIER1_COMMAND,
                           "parent": args.tier1_parent, "change": args.tier1_change}

    pair_index = 0
    for workload, seeds in args.run:
        runs: list[dict] = []
        for seed in seeds:
            order = SIDES if pair_index % 2 == 0 else SIDES[::-1]
            pair_index += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                calibration = calibrate()
                t0 = time.perf_counter()
                pair[side] = run_once(checkouts[side], workload, seed)
                pair[side]["calibration_s"] = sig(calibration)
                print(f"{workload} seed {seed} {side}: {time.perf_counter() - t0:.0f} s, "
                      f"{pair[side].get('error') or pair[side]['metrics']}",
                      file=sys.stderr, flush=True)
            runs.append(pair)
            report["workloads"][workload] = {
                "seeds": [r["seed"] for r in runs],
                "failed_operations": {side: sum(r[side]["failed"] for r in runs)
                                      for side in SIDES},
                "metrics": summarise(runs, declared),
                "calibration_s": {side: quartiles([r[side]["calibration_s"] for r in runs])
                                  for side in SIDES},
                "runs": runs,
            }
            tmp = out_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
            tmp.replace(out_path)
    print(table(report["workloads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
