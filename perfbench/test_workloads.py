"""The benchmark's inputs are a pure function of the seed, and its tracer
survives entry points that a refactor renamed."""

import time

import pytest

import tracer as tr
import workloads as W
from vulnpool import corpus


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_digest_other_seed_other_digest(name):
    w = W.WORKLOADS[name]
    first = W.digest(W.generate_inputs(w, 1))
    assert W.digest(W.generate_inputs(w, 1)) == first
    assert W.digest(W.generate_inputs(w, 2)) != first


def test_long_inputs_cover_the_truncation_limit():
    w = W.WORKLOADS["long_train"]
    profile = W.input_profile(w, W.generate_inputs(w, 1))
    assert profile["framed_tokens_min"] < w.run["max_tokens"] < profile["framed_tokens_max"]
    assert 0.0 < profile["truncated_share"] < 1.0
    assert profile["vulnerable_share"] == 0.5


def test_tracer_reports_absent_targets_and_restores_the_rest():
    original = corpus.split_dataset
    targets = (
        ("corpus.generate", "vulnpool.corpus", "generate_synthetic"),
        ("corpus.split", "vulnpool.corpus", "split_dataset"),
        ("gone.fn", "vulnpool.corpus", "renamed_away"),
        ("gone.method", "vulnpool.model", "NoSuchClass.forward"),
        ("gone.module", "vulnpool.no_such_module", "anything"),
    )
    tracer = tr.Tracer("test", targets=targets, ops_module="vulnpool.no_such_module")
    t0 = time.perf_counter()
    with tracer:
        assert corpus.split_dataset is not original
        corpus.split_dataset(corpus.generate_synthetic(4, 0.5, seed=0), seed=0)
    wall = time.perf_counter() - t0
    assert corpus.split_dataset is original
    assert tracer.absent == [
        "vulnpool.corpus.renamed_away",
        "vulnpool.model.NoSuchClass.forward",
        "vulnpool.no_such_module.anything",
        "vulnpool.no_such_module",
    ]
    totals = tracer.totals()
    assert totals["corpus.generate"]["calls"] == totals["corpus.split"]["calls"] == 1
    assert all(s >= 0 for s in tracer.self_times())
    assert sum(tracer.self_times()) <= wall
