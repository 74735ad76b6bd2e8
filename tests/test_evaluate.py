import random

import pytest

from vulnpool import evaluate as ev
from vulnpool.corpus import CodeSample, Language

from conftest import build_tiny_model


def sample_with(i, language=Language.C, label=0, cwe=None):
    return CodeSample(id=f"e{i}", language=language, code="int f() { return 0; }",
                      label=label, cwe=cwe)


# ---------------------------------------------------------------------------
# compute_metrics

def test_all_correct_both_classes():
    report = ev.compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert report.recall == report.precision == report.f1 == 1.0
    assert (report.tp, report.fp, report.fn, report.tn) == (2, 0, 0, 2)


def test_known_operating_points():
    assert ev.f1_score(0.9696, 0.5751) == pytest.approx(0.7220, abs=6e-5)
    assert ev.f1_score(0.9342, 0.5519) == pytest.approx(0.6939, abs=6e-5)


def test_counts_drive_ratios():
    # 3 vulnerable of which 2 found, 1 false alarm
    report = ev.compute_metrics([1, 1, 0, 1, 0], [1, 1, 1, 0, 0])
    assert report.recall == pytest.approx(2 / 3)
    assert report.precision == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)


def test_zero_denominator_flags():
    no_positives = ev.compute_metrics([0, 0], [0, 0])
    assert no_positives.recall == 0.0 and no_positives.precision == 0.0
    assert no_positives.f1 == 0.0
    assert "recall_undefined" in no_positives.flags
    assert "precision_undefined" in no_positives.flags
    never_predicts = ev.compute_metrics([0, 0], [1, 0])
    assert "precision_undefined" in never_predicts.flags
    assert "recall_undefined" not in never_predicts.flags


def test_length_mismatch_rejected():
    with pytest.raises(ev.MetricsError, match="length"):
        ev.compute_metrics([1], [1, 0])


def test_permutation_invariance():
    r = random.Random(1)
    preds = [r.randint(0, 1) for _ in range(50)]
    labels = [r.randint(0, 1) for _ in range(50)]
    base = ev.compute_metrics(preds, labels)
    order = list(range(50))
    r.shuffle(order)
    shuffled = ev.compute_metrics([preds[i] for i in order], [labels[i] for i in order])
    assert base == shuffled


def test_f1_is_harmonic_mean_of_reported_values():
    r = random.Random(2)
    for _ in range(200):
        preds = [r.randint(0, 1) for _ in range(30)]
        labels = [r.randint(0, 1) for _ in range(30)]
        report = ev.compute_metrics(preds, labels)
        assert report.f1 == pytest.approx(
            ev.f1_score(report.recall, report.precision), abs=5e-5
        )


def test_evaluate_model_counts_every_sample(small_corpus):
    model = build_tiny_model(small_corpus)
    report, predictions = ev.evaluate_model(model, small_corpus)
    assert report.tp + report.fp + report.fn + report.tn == len(small_corpus)
    assert report == ev.compute_metrics([p.label for p in predictions],
                                        [s.label for s in small_corpus])


# ---------------------------------------------------------------------------
# breakdown

def test_single_language_breakdown_equals_overall():
    samples = [sample_with(i, Language.GO, label=i % 2) for i in range(10)]
    preds = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]
    labels = [s.label for s in samples]
    bd = ev.breakdown(preds, labels, samples, by="language")
    assert list(bd.groups) == ["Go"]
    assert bd.groups["Go"] == ev.compute_metrics(preds, labels)
    assert bd.to_record()["groups"]["Go"]["n"] == 10


def test_breakdown_group_counting_oracle():
    r = random.Random(3)
    langs = [Language.C, Language.PYTHON, Language.JAVA]
    samples = [sample_with(i, r.choice(langs), label=r.randint(0, 1)) for i in range(120)]
    preds = [r.randint(0, 1) for _ in samples]
    labels = [s.label for s in samples]
    bd = ev.breakdown(preds, labels, samples, by="language")
    # independent group-by tally
    for language in langs:
        idxs = [i for i, s in enumerate(samples) if s.language is language]
        expected = ev.compute_metrics([preds[i] for i in idxs], [labels[i] for i in idxs])
        assert bd.groups[language.tag] == expected
        assert bd.to_record()["groups"][language.tag]["n"] == len(idxs)
    assert sum(g["n"] for g in bd.to_record()["groups"].values()) == len(samples)


def test_breakdown_cwe_unknown_group_and_macro():
    samples = [
        sample_with(0, cwe="CWE-79", label=1),
        sample_with(1, cwe="CWE-79", label=0),
        sample_with(2, cwe="CWE-89", label=1),
        sample_with(3, cwe=None, label=1),
    ]
    preds = [1, 0, 1, 0]
    bd = ev.breakdown(preds, [s.label for s in samples], samples, by="cwe")
    assert set(bd.groups) == {"CWE-79", "CWE-89", "unknown"}
    assert bd.macro is not None
    assert bd.macro["cwes"] == ["CWE-79", "CWE-89"]
    # macro = unweighted mean over shortlist groups present
    expected_f1 = (bd.groups["CWE-79"].f1 + bd.groups["CWE-89"].f1) / 2
    assert bd.macro["f1"] == pytest.approx(expected_f1)


def test_breakdown_macro_matches_published_style_average():
    # unweighted row averaging over the shortlist, fixture mirrors the
    # ten-row layout with synthetic counts
    rows = {
        "CWE-79": (0.9485, 0.7331), "CWE-787": (1.0, 0.7097), "CWE-89": (0.9091, 0.6667),
        "CWE-78": (1.0, 0.5263), "CWE-416": (0.9474, 0.7059), "CWE-20": (0.9615, 0.7353),
        "CWE-125": (1.0, 0.7711), "CWE-22": (0.9750, 0.7027), "CWE-352": (0.9524, 0.8081),
        "CWE-94": (0.9333, 0.8235),
    }
    recall_avg = sum(r for r, _ in rows.values()) / len(rows)
    f1_avg = sum(f for _, f in rows.values()) / len(rows)
    assert recall_avg == pytest.approx(0.9627, abs=6e-5)
    assert f1_avg == pytest.approx(0.7182, abs=6e-5)


def test_render_tables():
    samples = [sample_with(i, Language.C, label=i % 2, cwe="CWE-79") for i in range(6)]
    preds = [s.label for s in samples]
    report = ev.compute_metrics(preds, [s.label for s in samples])
    text = ev.render_metrics(report, name="demo")
    assert "Recall" in text and "100.00%" in text
    bd = ev.breakdown(preds, [s.label for s in samples], samples, by="cwe")
    table = ev.render_breakdown(bd)
    assert "CWE-79" in table and "Average" in table


# ---------------------------------------------------------------------------
# embedding export

def test_export_embeddings_empty_corpus(tmp_path, small_corpus):
    model = build_tiny_model(small_corpus)
    path = tmp_path / "emb.tsv"
    n = ev.export_embeddings(model, [], path)
    lines = path.read_text().strip().split("\n")
    assert n == len(lines) == model.config.pool_size
    assert all(line.startswith("key\t") for line in lines)


def test_export_embeddings_row_counts_and_order(tmp_path, small_corpus):
    model = build_tiny_model(small_corpus)
    subset = small_corpus[:10]
    path = tmp_path / "emb.tsv"
    ev.export_embeddings(model, subset, path)
    lines = path.read_text().strip().split("\n")
    queries = [l for l in lines if l.startswith("query\t")]
    keys = [l for l in lines if l.startswith("key\t")]
    assert len(queries) == 10
    assert len(keys) == model.config.pool_size
    ids = [l.split("\t")[1] for l in queries]
    assert ids == sorted(ids)
    d = model.encoder.config.d_model
    for line in queries:
        parts = line.split("\t")
        assert len(parts) == 4 + d
        int(parts[3])  # selected index parses


def test_export_embeddings_deterministic(tmp_path, small_corpus):
    model = build_tiny_model(small_corpus)
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    ev.export_embeddings(model, small_corpus, a)
    ev.export_embeddings(model, small_corpus, b)
    assert a.read_bytes() == b.read_bytes()
