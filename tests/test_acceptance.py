"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale runs train
real models on the synthetic corpus and take a few minutes on CPU.
"""

import dataclasses
import json
import math
import pathlib
import statistics
import time

import numpy as np
import pytest

from vulnpool import cli, corpus, evaluate as ev, numcore as nc, pool as pl
from vulnpool import tokenizer as tok, trainer
from vulnpool.config import RunConfig
from vulnpool.corpus import LANGUAGES, Language
from vulnpool.encoder import EncoderConfig
from vulnpool.model import ModelConfig, VulnPoolModel
from vulnpool.trainer import TrainConfig


def verdict(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: metric oracle
#
# published reference operating points (recall %, precision %, f1 %):
# 15 method-comparison rows, 6 backbone-ablation rows, 7 per-language rows

REFERENCE_POINTS = [
    # method comparison
    (99.61, 52.02, 68.35),
    (98.63, 51.28, 67.47),
    (96.66, 52.99, 68.45),
    (100.0, 51.03, 67.57),
    (100.0, 51.03, 67.57),
    (89.30, 55.18, 68.22),
    (93.42, 55.19, 69.39),
    (95.29, 56.26, 70.75),
    (47.89, 49.34, 48.61),
    (91.56, 49.50, 64.26),
    (53.48, 52.15, 52.81),
    (61.83, 48.88, 54.59),
    (67.22, 74.54, 70.69),
    (96.86, 56.34, 71.24),
    (96.96, 57.51, 72.20),
    # backbone ablation
    (93.42, 55.19, 69.39),
    (96.86, 56.34, 71.24),
    (96.96, 57.51, 72.20),
    (95.29, 56.26, 70.75),
    (96.96, 56.36, 71.28),
    (99.31, 55.48, 71.19),
    # per-language
    (95.45, 60.00, 73.68),
    (98.91, 52.91, 68.94),
    (98.64, 58.70, 73.60),
    (100.0, 53.08, 69.35),
    (96.93, 54.67, 69.91),
    (92.12, 54.68, 68.62),
    (96.73, 65.68, 78.24),
]


def test_criterion_1_metric_oracle():
    t0 = time.time()
    worst = 0.0
    for recall, precision, f1 in REFERENCE_POINTS:
        recomputed = 100.0 * ev.f1_score(recall / 100.0, precision / 100.0)
        worst = max(worst, abs(recomputed - f1))
    elapsed = time.time() - t0
    verdict(
        1,
        worst <= 0.06 and elapsed < 1.0,
        f"f1 recomputed for {len(REFERENCE_POINTS)} (R,P) pairs, worst deviation "
        f"{worst:.4f}pp (tolerance 0.06), {elapsed * 1000:.0f} ms",
    )


# ---------------------------------------------------------------------------
# criterion 2: gradient integrity

def test_criterion_2_gradient_integrity():
    t0 = time.time()
    samples = corpus.generate_synthetic(4, 0.5, seed=7)
    vocab = tok.build_vocab(samples, max_size=64)
    model = VulnPoolModel(
        ModelConfig(mode="pool_masked", lam=0.1, prompt_len=5, pool_size=7,
                    max_tokens=48),
        EncoderConfig(n_layers=2, n_heads=2, d_model=16, d_ffn=32, max_positions=53),
        vocab,
        seed=3,
    )
    # central differences need float64 headroom; the model computes in the
    # dtype of its parameters
    model.load_params({n: a.astype(np.float64) for n, a in model.snapshot_params().items()})
    # two languages so several pool matrices and keys receive real gradients
    chosen = [s for s in samples if s.language in (Language.C, Language.JAVA)][:2]

    def joint_loss(_ignored):  # mean joint loss of one batched forward
        out = model.forward(chosen, train_mode=True)
        return model.loss(out.logits, [s.label for s in chosen], out.phi)

    # coordinates with gradients of order 1e-9 drown in float roundoff at
    # the base step, high-curvature ones in truncation at larger steps; the
    # retry ladder probes both regimes
    worst_name, worst_err = None, 0.0
    checked = 0
    for name, p in model.parameters():
        report = nc.grad_check(joint_loss, p, eps=1e-5, tol=1e-4,
                               retry_eps=(1e-4, 1e-3))
        checked += p.data.size
        if report.max_relative_error > worst_err:
            worst_name, worst_err = name, report.max_relative_error
        assert report.passed, f"{name}: {report}"
    elapsed = time.time() - t0
    verdict(
        2,
        worst_err < 1e-4 and elapsed < 120.0,
        f"{checked} coordinates over every parameter group, worst relative error "
        f"{worst_err:.2e} ({worst_name}), {elapsed:.1f} s (< 2 min)",
    )


# ---------------------------------------------------------------------------
# criterion 3: selection correctness

def test_criterion_3_selection_correctness():
    r = np.random.default_rng(33)

    def brute_rank(q, keys):
        qn = np.linalg.norm(q)
        scores = [float(q @ k.data) / (qn * np.linalg.norm(k.data)) for k in keys]
        return sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    def select_one(q, keys, k=1, allowed=None):
        # the batched selection over the lone query row q, masked to `allowed`
        mask = None
        if allowed is not None:
            mask = np.zeros((1, len(keys)), dtype=bool)
            mask[0, list(allowed)] = True
        return pl.select(q[None], keys, k, mask)[0]

    mismatches = 0
    for trial in range(1000):
        size = int(r.integers(1, 9))
        d = int(r.integers(2, 17))
        keys = [nc.parameter(r.normal(size=d)) for _ in range(size)]
        q = r.normal(size=d)
        k = int(r.integers(1, size + 1))
        rank = brute_rank(q, keys)
        if select_one(q, keys, k=k).indices != tuple(rank[:k]):
            mismatches += 1
        allowed = sorted(r.choice(size, size=min(3, size), replace=False).tolist())
        expected = next(i for i in rank if i in allowed)
        if select_one(q, keys, 1, allowed).i_star != expected:
            mismatches += 1

    scale_violations = 0
    for trial in range(200):
        keys = [nc.parameter(r.normal(size=6)) for _ in range(5)]
        q = r.normal(size=6)
        base = select_one(q, keys, k=3).indices
        if select_one(q * float(r.uniform(0.01, 100.0)), keys, k=3).indices != base:
            scale_violations += 1
        rescaled = [nc.parameter(k.data * float(r.uniform(0.01, 100.0))) for k in keys]
        if select_one(q, rescaled, k=3).indices != base:
            scale_violations += 1

    singleton_hits = sum(
        select_one(r.normal(size=5), [nc.parameter(r.normal(size=5)) for _ in range(7)],
                   allowed=[4]).i_star == 4
        for _ in range(100)
    )
    k1_matches = all(
        select_one(q, keys, k=1).i_star == select_one(q, keys, 1, range(len(keys))).i_star
        for q, keys in [
            (r.normal(size=5), [nc.parameter(r.normal(size=5)) for _ in range(6)])
            for _ in range(200)
        ]
    )
    verdict(
        3,
        mismatches == 0 and scale_violations == 0 and singleton_hits == 100 and k1_matches,
        f"1000 brute-force trials ({mismatches} mismatches), scaling invariance "
        f"({scale_violations} violations), masked singleton {singleton_hits}/100, "
        f"top-1 equals plain selection: {k1_matches}",
    )


# ---------------------------------------------------------------------------
# criterion 4: surrogate dynamics

def test_criterion_4_surrogate_dynamics():
    r = np.random.default_rng(44)
    improved = 0
    for _ in range(100):
        q = nc.tensor(r.normal(size=8))
        key = nc.parameter(r.normal(size=8))
        phi = nc.cosine_similarity(q, key)
        before = phi.item()
        nc.backward(phi)
        key.data += 1e-3 * key.grad
        after = nc.cosine_similarity(q, key).item()
        if after > before or before >= 1.0:
            improved += 1
    verdict(4, improved >= 99, f"similarity strictly increased in {improved}/100 trials")


# ---------------------------------------------------------------------------
# criteria 5 and 6: desk-scale learning and language anchoring

# one attention layer keeps the shared backbone capacity-bound on the
# language-dependent shared-API samples, which is the regime the pool is for
DESK_ENCODER = dict(n_layers=1, n_heads=2, d_model=32, d_ffn=64, max_positions=85)
DESK_MODEL = dict(lam=0.1, top_k=1, prompt_len=5, pool_size=7, max_tokens=80)
DESK_TRAIN = dict(epochs=5, batch_size=32, lr=1e-3)

# per-language (train, val, test) counts summing to 2000 / 400 / 400
_DESK_COUNTS = [(286, 57, 57)] * 5 + [(285, 58, 57), (285, 57, 58)]


def desk_split() -> corpus.DatasetSplit:
    samples = corpus.generate_synthetic(400, 0.5, seed=101)
    train, val, test = [], [], []
    for lang, (n_train, n_val, n_test) in zip(LANGUAGES, _DESK_COUNTS):
        block = [s for s in samples if s.language is lang]
        train += block[:n_train]
        val += block[n_train : n_train + n_val]
        test += block[n_train + n_val : n_train + n_val + n_test]
    split = corpus.DatasetSplit(train, val, test)
    assert (len(split.train), len(split.val), len(split.test)) == (2000, 400, 400)
    return split


def desk_model(vocab, mode, seed):
    return VulnPoolModel(
        ModelConfig(mode=mode, **DESK_MODEL),
        EncoderConfig(**DESK_ENCODER),
        vocab,
        seed=seed,
    )


@pytest.fixture(scope="module")
def desk_run():
    split = desk_split()
    vocab = tok.build_vocab(split.train, max_size=1024)
    model = desk_model(vocab, "pool_masked", seed=0)
    t0 = time.time()
    best, history = trainer.train(model, split, TrainConfig(seed=0, **DESK_TRAIN))
    elapsed = time.time() - t0
    report, _ = ev.evaluate_model(best, split.test)
    return {
        "split": split,
        "vocab": vocab,
        "best": best,
        "history": history,
        "elapsed": elapsed,
        "report": report,
    }


def test_criterion_5_desk_scale_learning(desk_run):
    split, vocab = desk_run["split"], desk_run["vocab"]
    base_f1 = desk_run["report"].f1
    part_a = base_f1 >= 0.90 and desk_run["elapsed"] < 600.0

    masked_f1s = [base_f1]
    backbone_f1s = []
    for seed in range(5):
        if seed > 0:
            best, _ = trainer.train(
                desk_model(vocab, "pool_masked", seed), split,
                TrainConfig(seed=seed, **DESK_TRAIN),
            )
            masked_f1s.append(ev.evaluate_model(best, split.test)[0].f1)
        best, _ = trainer.train(
            desk_model(vocab, "backbone_only", seed), split,
            TrainConfig(seed=seed, **DESK_TRAIN),
        )
        backbone_f1s.append(ev.evaluate_model(best, split.test)[0].f1)

    masked_mean = statistics.mean(masked_f1s)
    backbone_mean = statistics.mean(backbone_f1s)
    history = desk_run["history"]
    halved = history.epochs[-1].train_loss <= 0.5 * history.initial_train_loss
    verdict(
        5,
        part_a and masked_mean >= backbone_mean and halved,
        f"masked seed-0 F1 {base_f1:.3f} (>= 0.90) in {desk_run['elapsed']:.0f} s "
        f"(< 600); 5-seed mean F1 masked {masked_mean:.3f} >= backbone "
        f"{backbone_mean:.3f}; train loss {history.initial_train_loss:.3f} -> "
        f"{history.epochs[-1].train_loss:.3f}",
    )


def test_criterion_6_language_anchoring(desk_run, tmp_path):
    best, split = desk_run["best"], desk_run["split"]
    agree = 0
    for s in split.test:
        prediction = best.predict(s)
        if prediction.selection.i_star in best.assignment.indices_for(s.language):
            agree += 1
    ratio = agree / len(split.test)

    # the exported vectors must tell the same story
    path = tmp_path / "embeddings.tsv"
    ev.export_embeddings(best, split.test, path)
    export_agree = 0
    lines = [l for l in path.read_text().splitlines() if l.startswith("query\t")]
    for line in lines:
        _, _sid, lang_tag, selected = line.split("\t")[:4]
        language = corpus.parse_language(lang_tag)
        if int(selected) in best.assignment.indices_for(language):
            export_agree += 1
    verdict(
        6,
        ratio >= 0.95 and export_agree == agree,
        f"unrestricted selection matched the sample's language for "
        f"{agree}/{len(split.test)} test samples ({100 * ratio:.1f}% >= 95%); "
        f"embedding export agrees ({export_agree})",
    )


# ---------------------------------------------------------------------------
# criterion 7: ablation harness

def test_criterion_7_ablation_harness():
    samples = corpus.generate_synthetic(100, 0.5, seed=202)
    split = corpus.split_dataset(samples, (0.8, 0.1, 0.1), seed=202)
    vocab = tok.build_vocab(split.train, max_size=1024)
    base = RunConfig(d_model=32, d_ffn=64, n_layers=2, n_heads=2, max_tokens=80,
                     epochs=8, batch_size=32, lr=1e-3, seed=202, mode="pool_masked")

    lp_result = trainer.sweep(split, vocab, base, "lp")
    k_result = trainer.sweep(split, vocab,
                             dataclasses.replace(base, mode="pool_query"), "topk")

    problems = []
    for result, expected_values in ((lp_result, [1, 3, 5, 7, 9]), (k_result, [1, 2, 3])):
        if [r.value for r in result.rows] != expected_values:
            problems.append(f"{result.axis}: wrong rows {[r.value for r in result.rows]}")
        table = result.render()
        for r in result.rows:
            if not (math.isfinite(r.initial_loss) and math.isfinite(r.final_loss)):
                problems.append(f"{result.axis}={r.value}: non-finite loss")
            if not r.final_loss <= 0.5 * r.initial_loss:
                problems.append(
                    f"{result.axis}={r.value}: loss only {r.initial_loss:.3f} -> "
                    f"{r.final_loss:.3f}"
                )
            if str(r.value) not in table:
                problems.append(f"{result.axis}={r.value}: missing from table")
        for column in ("Recall", "Precision", "F1-score"):
            if column not in table:
                problems.append(f"{result.axis}: column {column} missing")
    verdict(
        7,
        not problems,
        "L_p sweep {1,3,5,7,9} and K sweep {1,2,3} finished with finite losses, "
        ">= 50% train-loss drop per setting, tables rendered"
        + ("" if not problems else f"; problems: {problems}"),
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism

def test_criterion_8_determinism(tmp_path):
    raw = tmp_path / "raw.jsonl"
    data = tmp_path / "data"
    assert cli.main(["synth", "--n", "30", "--seed", "5", "--out", str(raw)]) == 0
    assert cli.main(["preprocess", "--data", str(raw), "--out", str(data),
                     "--seed", "5", "--max-tokens", "80", "--vocab-size", "1024"]) == 0
    flags = ["--seed", "5", "--epochs", "2", "--batch-size", "16", "--lr", "0.001",
             "--max-tokens", "80", "--d-model", "16", "--d-ffn", "32",
             "--layers", "1", "--heads", "2"]
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--data", str(data), "--out", str(run_a), *flags]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(run_b), *flags]) == 0

    same_ckpt = (run_a / "best.ckpt").read_bytes() == (run_b / "best.ckpt").read_bytes()
    same_epochs = all(
        (run_a / f"epoch_{i}.ckpt").read_bytes() == (run_b / f"epoch_{i}.ckpt").read_bytes()
        for i in range(2)
    )
    same_history = (run_a / "history.jsonl").read_bytes() == (run_b / "history.jsonl").read_bytes()
    same_metrics = (run_a / "metrics.jsonl").read_bytes() == (run_b / "metrics.jsonl").read_bytes()
    verdict(
        8,
        same_ckpt and same_epochs and same_history and same_metrics,
        f"two identical runs: best.ckpt identical={same_ckpt}, epoch ckpts "
        f"identical={same_epochs}, history identical={same_history}, metrics "
        f"identical={same_metrics}",
    )


# ---------------------------------------------------------------------------
# criterion 9: preprocessing fidelity

# per-language corpus composition a full-scale export must reproduce:
# language -> (train, val, test, vulnerable, non-vulnerable, total)
EXPORT_COMPOSITION = {
    "C#": (341, 42, 44, 212, 215, 427),
    "C++": (1432, 179, 181, 911, 881, 1792),
    "Go": (2323, 290, 292, 1462, 1443, 2905),
    "C": (2444, 305, 307, 1541, 1515, 3056),
    "Java": (2587, 323, 325, 1622, 1613, 3235),
    "Python": (2625, 328, 329, 1642, 1640, 3282),
    "JavaScript": (4374, 546, 548, 2743, 2725, 5468),
}

_SNIPPETS = {
    "C": "int f{i}(int a) {{ // note\n  return a + {i};\n}}",
    "C++": "int f{i}(int a) {{ /* note */ return a * {i}; }}",
    "C#": "public int F{i}(int a) {{ // note\n  return a - {i};\n}}",
    "Go": "func f{i}(a int) int {{ // note\n  return a + {i}\n}}",
    "Java": "public int f{i}(int a) {{ // note\n  return a ^ {i};\n}}",
    "JavaScript": "function f{i}(a) {{ // note\n  return a + {i};\n}}",
    "Python": "def f{i}(a):\n    # note\n    return a + {i}",
}


def _largest_remainder(total, weights):
    raw = [total * w for w in weights]
    base = [int(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[: total - sum(base)]:
        base[i] += 1
    return base


def make_export_fixture(path):
    with open(path, "w", encoding="utf-8") as f:
        uid = 0
        for tag, (n_train, n_val, n_test, n_vul, _, total) in EXPORT_COMPOSITION.items():
            split_sizes = {"train": n_train, "val": n_val, "test": n_test}
            vul_per_split = dict(zip(
                split_sizes,
                _largest_remainder(n_vul, [n / total for n in split_sizes.values()]),
            ))
            for split_name, size in split_sizes.items():
                for j in range(size):
                    record = {
                        "id": f"x{uid:06d}",
                        "language": tag,
                        "code": _SNIPPETS[tag].format(i=uid),
                        "label": 1 if j < vul_per_split[split_name] else 0,
                        "split": split_name,
                    }
                    if record["label"]:
                        record["cwe"] = "CWE-79"
                    f.write(json.dumps(record) + "\n")
                    uid += 1
    return path


def test_criterion_9_preprocessing_fidelity(tmp_path):
    fixture = make_export_fixture(tmp_path / "export.jsonl")
    samples = corpus.load_records(fixture)
    loaded_total = len(samples)

    stripped = []
    for s in samples:
        code = corpus.strip_comments(s.code, s.language)
        assert code.strip(), s.id
        stripped.append(dataclasses.replace(s, code=code))
    assert all("note" not in s.code for s in stripped)

    kept, dropped = corpus.filter_by_length(stripped, max_tokens=512)
    split = corpus.split_dataset(kept)  # pre-assigned splits win
    st = corpus.stats(split)
    rec = st.to_record()

    split_totals_ok = (rec["train"], rec["val"], rec["test"]) == (16126, 2013, 2026)
    per_language_ok = all(
        (
            rec["per_language"][tag]["train"],
            rec["per_language"][tag]["val"],
            rec["per_language"][tag]["test"],
            rec["per_language"][tag]["vulnerable"],
            rec["per_language"][tag]["non_vulnerable"],
            rec["per_language"][tag]["total"],
        ) == expected
        for tag, expected in EXPORT_COMPOSITION.items()
    )
    headline_ok = (
        loaded_total == 20165
        and len(dropped) == 0
        and rec["total"] == 20165
        and rec["per_language"]["C#"]["total"] == 427
        and rec["per_language"]["JavaScript"]["total"] == 5468
        and rec["vulnerable"] == 10133
        and rec["non_vulnerable"] == 10032
    )

    # golden byte-for-byte comment stripping
    golden = pathlib.Path(__file__).parent / "data" / "golden"
    golden_ok = all(
        corpus.strip_comments((golden / f"{stem}.txt").read_text(), language)
        == (golden / f"{stem}.expected.txt").read_text()
        for stem, language in [("sample_c", Language.C), ("sample_py", Language.PYTHON),
                               ("sample_go", Language.GO)]
    )
    verdict(
        9,
        split_totals_ok and per_language_ok and headline_ok and golden_ok,
        f"split totals 16126/2013/2026 reproduced={split_totals_ok}, per-language "
        f"totals reproduced={per_language_ok}, grand total 20165 with 10133 "
        f"vulnerable={headline_ok}, golden strip files byte-identical={golden_ok}",
    )
