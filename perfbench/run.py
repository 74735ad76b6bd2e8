#!/usr/bin/env python3
"""vulnpool benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. With `--trace 0` the last line of standard output carries the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run.
The lines before it, and `.perfbench/<workload>-seed<n>-trace<k>.json`, add
the environment, the input digest and profile, and every failed check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_SETUPS, MIN_SETUP_S = 3, 1.5  # set-ups per run, at least; setup_s is their median


def single_blas_thread() -> int:
    """One BLAS thread, before numpy loads; returns the CPUs this process may use.

    The matrices here are small: on a shared 2-vCPU host a second OpenBLAS
    thread made a chain of 256x64 products 2 to 3 times slower, and 5 times
    slower while another process kept one CPU busy, so two-thread runs
    measured the neighbours rather than the program."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "commit": commit,
    }


def ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics

def run_untraced(W, w, seed: int, seconds: float, tmp: Path):
    from vulnpool import trainer

    checks = W.Checks()
    prep = W.prepare(w, seed)
    setups = [prep.setup_s]
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_S:
        other = W.prepare(w, seed)
        setups.append(other.setup_s)
        checks.check(W.digest(other.samples) == W.digest(prep.samples),
                     "a repeated set-up generated other inputs")
    test = prep.split.test

    # after every epoch, predict for as long as the epoch took, so that training
    # and predicting sample the whole run alike, through whatever states the
    # host passes; then predict on the best checkpoint loaded back, the way
    # `vulnpool eval` does
    parts = []
    run_dirs = (str(tmp / f"run{i}") for i in itertools.count())
    runs = W.train_phase(prep, seconds, run_dirs, checks, lambda model, s: parts.append(
        W.predict_phase(model, test, checks, s, min_requests=0)))
    training = runs[0]
    model = prep.model
    if runs[-1].best is not None:
        model, _, _ = trainer.load_checkpoint(tmp / f"run{len(runs) - 1}" / "best.ckpt",
                                              prep.vocab)
        W.check_round_trip(runs[-1].best, model, test, checks)
    missing = W.MIN_REQUESTS - sum(len(p.latencies) for p in parts)
    parts.append(W.predict_phase(model, test, checks, min_requests=max(missing, len(test))))
    predicted = W.PredictResult.combine(parts)

    anchoring = W.check_quality(w, model, test, predicted, checks)
    losses = training.losses()
    metrics = {
        "setup_s": statistics.median(setups),
        "train_samples_per_s": sum(r.samples for r in runs) / sum(r.seconds for r in runs),
        "predict_ms_p50": ms(statistics.fmean(predicted.pass_p50)),
        "predict_ms_p99": ms(W.percentile(predicted.latencies, 99)),
        "predict_samples_per_s": predicted.eval_samples_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setups": len(setups),
        "training_runs": len(runs),
        "predict_requests": len(predicted.latencies),
        "predict_passes": len(predicted.pass_p50),
        "predict_ms_p50_pooled": ms(statistics.median(predicted.latencies)),
        "evaluate_samples": predicted.eval_samples,
        "initial_train_loss": losses[0] if losses else None,
        "final_train_loss": losses[-1] if losses else None,
        "test_f1": predicted.report.f1,
        "anchoring_rate": anchoring,
    }
    return prep, metrics, checks, notes


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics

def run_traced(W, w, seed: int, tmp: Path):
    from vulnpool import trainer
    from tracer import END, NAME, OPS0, OPS1, START, Tracer

    checks = W.Checks()
    tracer = Tracer(w.name)
    traced_wall = 0.0

    t0 = time.perf_counter()
    with tracer:
        prep = W.prepare(w, seed)
    traced_wall += time.perf_counter() - t0
    test = prep.split.test

    cpu0, r0 = os.times(), time.perf_counter()
    reference = W.train_run(prep, str(tmp / "reference"))
    cpu1, r1 = os.times(), time.perf_counter()
    W.record_training(reference, checks, None)
    window0 = time.perf_counter()
    with tracer:
        training = W.train_run(prep, str(tmp / "traced"), prep.model)
    window1 = time.perf_counter()
    W.record_training(training, checks, reference)
    overhead = training.seconds / reference.seconds
    useful_rows = w.epochs * sum(
        W.useful_rows(prep, s) for s in prep.split.train + prep.split.val
    )
    model = prep.model
    with tracer:
        t0 = time.perf_counter()
        if training.best is not None:
            model, _, _ = trainer.load_checkpoint(tmp / "traced" / "best.ckpt", prep.vocab)
            W.check_round_trip(training.best, model, test, checks)
        predicted = W.predict_phase(model, test, checks, min_requests=len(test))
    traced_wall += window1 - window0 + time.perf_counter() - t0
    train_samples = training.samples
    W.check_quality(w, model, test, predicted, checks)

    totals = tracer.totals()
    window = tracer.totals(window0, window1)

    def total(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    validation_s = save_s = 0.0
    train_ops = 0
    for span, train in zip(tracer.spans, tracer.within("trainer.train")):
        if span[NAME] == "trainer.train":
            train_ops += span[OPS1] - span[OPS0]
        elif train and span[NAME] == "evaluate.evaluate_model":
            validation_s += span[END] - span[START]
            train_ops -= span[OPS1] - span[OPS0]
        elif train and span[NAME] == "trainer.save_checkpoint":
            save_s += span[END] - span[START]
    predict_ops = sum(s[OPS1] - s[OPS0] for s in tracer.spans if s[NAME] == "model.predict")
    steps = tracer.step_times()
    rows = window.get("encoder.encode", {}).get("value", 0)
    cpu = (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / (r1 - r0)

    metrics = {
        "corpus.generate_s": total("corpus.generate"),
        "corpus.strip_comments_s": total("corpus.strip_comments"),
        "corpus.split_s": total("corpus.split"),
        "tokenizer.build_vocab_s": total("tokenizer.build_vocab"),
        "tokenizer.encode_s": total("tokenizer.encode"),
        "tokenizer.encode_calls": total("tokenizer.encode", "calls"),
        "encoder.embed_s": total("encoder.embed"),
        "encoder.encode_s": total("encoder.encode"),
        "encoder.encode_calls": total("encoder.encode", "calls"),
        "encoder.rows_encoded": total("encoder.encode", "value"),
        "encoder.padded_row_share": max(0.0, 1 - useful_rows / rows) if rows else 0.0,
        "pool.select_s": total("pool.select") + total("pool.select_masked"),
        "pool.adapt_s": total("pool.adapt"),
        "pool.surrogate_s": total("pool.surrogate"),
        "pool.select_calls": total("pool.select", "calls") + total("pool.select_masked", "calls"),
        "model.forward_s": total("model.forward"),
        "model.forward_self_s": total("model.forward", "self_s"),
        "model.loss_s": total("model.loss"),
        "model.predict_s": total("model.predict"),
        "numcore.backward_s": total("numcore.backward"),
        "numcore.backward_calls": total("numcore.backward", "calls"),
        "numcore.ops_per_train_sample": train_ops / train_samples,
        "numcore.ops_per_predict": predict_ops / max(1, total("model.predict", "calls")),
        "trainer.adam_s": total("trainer.adam"),
        "trainer.step_ms_p50": ms(statistics.median(steps)) if steps else 0.0,
        "trainer.step_ms_p99": ms(W.percentile(steps, 99)) if steps else 0.0,
        "trainer.validation_s": validation_s,
        "trainer.checkpoint_save_s": save_s,
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.bytes_written": total("checkpoint.save", "value"),
        "evaluate.evaluate_model_s": total("evaluate.evaluate_model"),
        "config.build_model_s": total("config.build_model"),
        "process.cpu_util": cpu,
        "trace.overhead_ratio": overhead,
    }

    layer_self: dict[str, float] = {}
    for name, t in totals.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t["self_s"]
    self_sum = sum(layer_self.values())
    checks.check(self_sum <= traced_wall,
                 f"traced self times {self_sum:.3f} s exceed the traced wall {traced_wall:.3f} s")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{w.name}-seed{seed}-spans.jsonl"
    tracer.write(spans_path)
    notes = {
        "absent": tracer.absent,
        "trainer_steps": len(steps),
        "traced_wall_s": traced_wall,
        "self_time_sum_s": self_sum,
        "layer_self_s": dict(sorted(layer_self.items(), key=lambda kv: -kv[1])),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "op_counts": dict(tracer.op_counts.most_common()),
    }
    return prep, metrics, checks, notes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vulnpool" / "__init__.py").is_file():
        print(f"perfbench: no vulnpool sources under {src}", file=sys.stderr)
        return 2
    nproc = single_blas_thread()
    sys.path.insert(0, str(src))
    import vulnpool
    import workloads as W

    if Path(vulnpool.__file__).resolve().parent != (src / "vulnpool").resolve():
        print(f"perfbench: vulnpool imported from {vulnpool.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            prep, metrics, checks, notes = run_traced(W, w, args.seed, tmp)
        else:
            prep, metrics, checks, notes = run_untraced(W, w, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if list(units) != list(metrics):
        raise RuntimeError(f"metrics {list(metrics)} differ from BENCHMARK.json {list(units)}")

    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(nproc),
        "inputs": W.input_profile(w, prep.samples),
        "split": [len(prep.split.train), len(prep.split.val), len(prep.split.test)],
        "notes": notes,
        "error_rate": checks.failed / checks.attempted,
        "failures": checks.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=2)

    for key in ("environment", "inputs", "notes"):
        print(f"{key}: {json.dumps(report[key])}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {report['error_rate']:.6g} ({checks.failed} of {checks.attempted})")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
