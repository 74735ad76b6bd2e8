"""Seeded inputs and the two benchmark workloads.

Both workloads drive vulnpool only through its public entry points:
`config.RunConfig`/`config.build_model`, `trainer.train`,
`trainer.load_checkpoint`, `VulnPoolModel.predict` and
`evaluate.evaluate_model`. The seed given on the command line is the only
source of variation; the program sees only the inputs generated from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import statistics
import time

from vulnpool import config, corpus, evaluate, tokenizer, trainer

# 2800 desk functions split into 2002 / 406 / 392 (stratified per language and label)
RATIOS = (5 / 7, 1 / 7, 1 / 7)
VOCAB_SIZE = 1024
# the least number of per-request latencies taken, so that p99 has ten samples beyond it
MIN_REQUESTS = 1000
# closed-loop passes over the held-out set per evaluate_model pass
STREAM_PASSES_PER_EVAL = 2

DESK_RUN = dict(
    mode="pool_masked", d_model=32, d_ffn=64, n_layers=1, n_heads=2, max_tokens=80,
    batch_size=32, lr=1e-3, lam=0.1, prompt_len=5, top_k=1,
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    n_per_language: int  # input functions per language
    join: int  # synthetic functions joined into one input function
    filter_tokens: int  # preprocessing length filter, in framed tokens
    run: dict  # RunConfig fields
    epochs: int  # epochs of one training run
    ratios: tuple = RATIOS  # train / val / test shares
    min_f1: float = 0.0  # acceptance thresholds checked on the test split
    min_anchoring: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_train",
            n_per_language=400, join=1, filter_tokens=80, run=DESK_RUN, epochs=5,
            min_f1=0.90, min_anchoring=0.95,
        ),
        Workload(
            name="long_train",
            n_per_language=60, join=6, filter_tokens=512,
            # batch 8: the per-sample graphs of a 32-sample batch hold about 0.9 GB
            run={**DESK_RUN, "d_model": 64, "d_ffn": 128, "n_layers": 2, "max_tokens": 256,
                 "batch_size": 8},
            # a large held-out share steadies the mean request length between seeds
            ratios=(0.5, 0.1, 0.4), epochs=2,
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs

def generate_inputs(w: Workload, seed: int) -> list[corpus.CodeSample]:
    """The workload's functions, a pure function of (workload, seed).

    A joined function is one labelled lead function among `join - 1` safe
    fillers of the same language; the lead sits in the first three parts, so
    truncation at max_tokens keeps the planted sink that carries the label."""
    if w.join == 1:
        return corpus.generate_synthetic(w.n_per_language, 0.5, seed)
    # one vulnerable part per 2 * join parts: half of the leads are vulnerable
    parts = corpus.generate_synthetic(w.n_per_language * w.join, 1 / (2 * w.join), seed)
    rng = random.Random(seed)
    samples = []
    for language in corpus.LANGUAGES:
        vulnerable = [s for s in parts if s.language is language and s.label]
        safe = [s for s in parts if s.language is language and not s.label]
        rng.shuffle(vulnerable)
        rng.shuffle(safe)
        for i in range(w.n_per_language):
            lead = vulnerable.pop() if i % 2 else safe.pop()
            group = [safe.pop() for _ in range(w.join - 1)]
            group.insert(rng.randrange(3), lead)
            samples.append(
                corpus.CodeSample(
                    id=f"{language.name.lower()}-long-{i:04d}",
                    language=language,
                    code="\n".join(s.code for s in group),
                    label=lead.label,
                )
            )
    return samples


def digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(json.dumps([s.id, s.language.tag, s.label, s.code]).encode("utf-8") + b"\n")
    return h.hexdigest()


def input_profile(w: Workload, samples) -> dict:
    """Digest and framed-length profile: the properties padding-based changes depend on."""
    lengths = sorted(tokenizer.token_length(s.code) for s in samples)
    max_tokens = w.run["max_tokens"]
    return {
        "digest": digest(samples),
        "n": len(samples),
        "vulnerable_share": sum(s.label for s in samples) / len(samples),
        "framed_tokens_min": lengths[0],
        "framed_tokens_median": statistics.median(lengths),
        "framed_tokens_max": lengths[-1],
        "truncated_share": sum(n > max_tokens for n in lengths) / len(lengths),
    }


# ---------------------------------------------------------------------------
# set-up

@dataclasses.dataclass
class Prepared:
    samples: list
    split: corpus.DatasetSplit
    vocab: tokenizer.Vocabulary
    cfg: config.RunConfig
    model: object  # the model the first training run trains
    setup_s: float


def prepare(w: Workload, seed: int) -> Prepared:
    """Generate, preprocess and build the model."""
    t0 = time.perf_counter()
    samples = generate_inputs(w, seed)
    stripped = [
        dataclasses.replace(s, code=corpus.strip_comments(s.code, s.language)) for s in samples
    ]
    kept, _ = corpus.filter_by_length(stripped, w.filter_tokens)
    split = corpus.split_dataset(kept, w.ratios, seed)
    vocab = tokenizer.build_vocab(split.train, VOCAB_SIZE)
    cfg = config.RunConfig(seed=seed, epochs=w.epochs, **w.run)
    model = config.build_model(cfg, vocab)
    return Prepared(samples, split, vocab, cfg, model, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# measured phases

class Checks:
    """Output checks and operations: a failure is counted, the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, attempted: int, failed: int = 0, why: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(why)

    def check(self, ok: bool, why: str):
        self.ops(1, 0 if ok else 1, why)


@dataclasses.dataclass
class TrainResult:
    best: object
    history: object
    seconds: float
    samples: int  # epochs x train samples
    batches: int
    error: str | None = None

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.seconds

    def losses(self) -> list[float]:
        if self.history is None:
            return []
        return [self.history.initial_train_loss] + [e.train_loss for e in self.history.epochs]


def train_run(prep: Prepared, run_dir: str, model=None, after_epoch=None) -> TrainResult:
    """One `trainer.train` call with a run directory, as `vulnpool train` makes it.

    `after_epoch(model, seconds)`, if given, runs from the trainer's per-epoch
    `log` hook with the seconds since the previous epoch ended; its own time
    is taken out of the training time."""
    model = model if model is not None else config.build_model(prep.cfg, prep.vocab)
    tcfg = config.build_train_config(prep.cfg)
    n = len(prep.split.train)
    samples = tcfg.epochs * n
    batches = tcfg.epochs * math.ceil(n / tcfg.batch_size)
    paused = 0.0

    def log(_line):
        nonlocal mark, paused
        start = time.perf_counter()
        after_epoch(model, start - mark)
        mark = time.perf_counter()
        paused += mark - start

    t0 = mark = time.perf_counter()
    try:
        best, history = trainer.train(model, prep.split, tcfg, run_dir=run_dir,
                                      log=log if after_epoch else None)
    except Exception as exc:  # divergence or a defect: counted, and the run goes on
        seconds = time.perf_counter() - t0 - paused
        return TrainResult(None, None, seconds, samples, batches, repr(exc))
    return TrainResult(best, history, time.perf_counter() - t0 - paused, samples, batches)


def record_training(result: TrainResult, checks: Checks, reference: TrainResult | None):
    """Every batch loss is finite; a repeated run reproduces the first."""
    checks.ops(result.batches, 1 if result.error else 0, f"training failed: {result.error}")
    if result.error is None:
        losses = result.losses()
        checks.check(all(math.isfinite(v) for v in losses), "non-finite epoch loss")
        checks.check(losses[-1] < losses[0], "training did not lower the train loss")
    if reference is not None and reference.error is None and result.error is None:
        checks.check(result.losses() == reference.losses(),
                     "a repeated training run did not reproduce the first one")


def train_phase(prep: Prepared, seconds: float, run_dirs, checks: Checks,
                after_epoch) -> list[TrainResult]:
    """Repeat the training run from a fresh model while another one fits in
    `seconds` of training; every run is identical, so quality comes from any
    of them. `after_epoch(model, seconds)` runs after every epoch of every
    run (see `train_run`)."""
    results: list[TrainResult] = []
    for run_dir in run_dirs:
        result = train_run(prep, run_dir, None if results else prep.model, after_epoch)
        record_training(result, checks, results[0] if results else None)
        results.append(result)
        if sum(r.seconds for r in results) + result.seconds > seconds:
            break
    return results


@dataclasses.dataclass
class PredictResult:
    latencies: list[float]  # seconds per streamed request
    pass_p50: list[float]  # median latency of each closed-loop pass
    eval_samples: int
    eval_seconds: float
    report: object  # of the last evaluate_model pass
    predictions: list

    @property
    def eval_samples_per_s(self) -> float:
        return self.eval_samples / self.eval_seconds

    @classmethod
    def combine(cls, parts: list["PredictResult"]) -> "PredictResult":
        """Pooled latencies and evaluate throughput; the last part's answers."""
        return cls(
            [x for p in parts for x in p.latencies],
            [x for p in parts for x in p.pass_p50],
            sum(p.eval_samples for p in parts),
            sum(p.eval_seconds for p in parts),
            parts[-1].report,
            parts[-1].predictions,
        )


def predict_phase(model, samples, checks: Checks, seconds: float = 0.0,
                  min_requests: int = MIN_REQUESTS) -> PredictResult:
    """Closed-loop passes over `samples` (one client: the next request goes out
    when the previous one is answered), with an `evaluate_model` pass over the
    same samples after every STREAM_PASSES_PER_EVAL of them and after the
    last, for `seconds` and at least `min_requests` requests; both paths thus
    sample the same stretch of time. Every answer must equal the first answer
    for its sample on both paths."""
    latencies: list[float] = []
    pass_p50: list[float] = []
    first: dict[str, object] = {}
    eval_samples, eval_seconds = 0, 0.0
    t0 = time.perf_counter()
    passes = 0
    done = False
    while not done:
        changed = failed = 0
        error = None
        lo = len(latencies)
        for s in samples:
            start = time.perf_counter()
            try:
                p = model.predict(s)
            except Exception as exc:  # counted as a failed request; the run goes on
                failed += 1
                error = f"predict {s.id}: {exc!r}"
                continue
            latencies.append(time.perf_counter() - start)
            seen = first.setdefault(s.id, p)
            changed += seen.label != p.label or bool((seen.logits != p.logits).any())
        checks.ops(len(samples), failed, f"{failed} predict requests raised; last: {error}")
        checks.check(changed == 0, f"{changed} repeated requests changed their answer")
        if len(latencies) > lo:
            pass_p50.append(statistics.median(latencies[lo:]))
        passes += 1
        done = passes * len(samples) >= min_requests and time.perf_counter() - t0 >= seconds
        if passes % STREAM_PASSES_PER_EVAL and not done:
            continue
        start = time.perf_counter()
        report, predictions = evaluate.evaluate_model(model, samples)
        eval_seconds += time.perf_counter() - start
        eval_samples += len(samples)
        differ = sum(s.id in first and first[s.id].label != p.label
                     for s, p in zip(samples, predictions))
        checks.ops(len(samples), differ, f"{differ} evaluate_model labels differ from predict")
    return PredictResult(latencies, pass_p50, eval_samples, eval_seconds, report, predictions)


def check_quality(w: Workload, model, samples, result: PredictResult, checks: Checks):
    """The acceptance thresholds on test F1 and language anchoring."""
    anchoring = anchoring_rate(model, samples, result.predictions)
    checks.check(result.report.f1 >= w.min_f1, f"test F1 {result.report.f1:.4f} < {w.min_f1}")
    checks.check(anchoring >= w.min_anchoring,
                 f"anchoring rate {anchoring:.4f} < {w.min_anchoring}")
    return anchoring


def anchoring_rate(model, samples, predictions) -> float:
    """Share of samples whose free selection picks their own language's matrix."""
    if model.assignment is None:
        return 0.0
    hits = sum(
        p.selection is not None and p.selection.i_star in model.assignment.indices_for(s.language)
        for s, p in zip(samples, predictions)
    )
    return hits / len(samples)


def check_round_trip(before, after, samples, checks: Checks):
    """Logits after a checkpoint round trip equal those before it, bit for bit."""
    differ = sum(
        (before.predict(s).logits != after.predict(s).logits).any() for s in samples
    )
    checks.check(differ == 0, f"{differ} logits changed across the checkpoint round trip")


def useful_rows(prep: Prepared, s) -> int:
    """Rows the encoder needs for one sample: its framed tokens after
    truncation, plus the prompt rows the pool prepends."""
    cfg = prep.cfg
    prompt = 0 if cfg.mode == "backbone_only" else cfg.top_k * cfg.prompt_len
    return min(tokenizer.token_length(s.code), cfg.max_tokens) + prompt


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100 * len(ordered)) - 1)
    return ordered[k]
