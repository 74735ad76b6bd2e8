import dataclasses
import math
import pathlib

import numpy as np
import pytest

from vulnpool import checkpoint as ckpt
from vulnpool import corpus
from vulnpool import model as model_module
from vulnpool import numcore as nc
from vulnpool import pool as pl
from vulnpool import tokenizer as tok
from vulnpool.corpus import Language
from vulnpool.encoder import EncoderConfig
from vulnpool.model import ModelConfig, VulnPoolModel

from conftest import build_tiny_model, tiny_config


def test_backbone_mode_never_touches_pool(small_corpus):
    model = build_tiny_model(small_corpus, mode="backbone_only")
    out = model.forward([small_corpus[0]], model.tokenize([small_corpus[0]]), train_mode=True)
    assert out.selections is None and out.phi is None
    loss = model.loss(out.logits, [small_corpus[0].label], out.phi)
    # without a selection the joint loss degenerates to plain cross-entropy
    assert loss.item() == nc.cross_entropy_logits(out.logits, [small_corpus[0].label]).item()
    nc.backward(loss)
    for m in model.pool:
        assert m.grad is None
    for k in model.keys:
        assert k.grad is None
    assert model.classifier_w.grad is not None


def test_classifier_reads_mean_of_prompt_rows(small_corpus):
    model = build_tiny_model(small_corpus, mode="pool_query", prompt_len=5)
    sample = small_corpus[0]
    out = model.forward([sample], model.tokenize([sample]), train_mode=False)
    with nc.no_grad():
        x_e, segments = model.embed(model.tokenize([sample]))
        adapted = pl.adapt(out.selections, model.pool, x_e, segments)
        h = model.encoder.encode(adapted.matrix, adapted.segments, None, train_mode=False,
                                 rng=None)
    pooled = h.data[0:5].mean(axis=0)
    expected = pooled @ model.classifier_w.data + model.classifier_b.data
    assert np.allclose(out.logits.data, expected, atol=1e-12)


def test_masked_training_uses_assigned_index_inference_is_unrestricted(small_corpus):
    model = build_tiny_model(small_corpus, mode="pool_masked")
    go_samples = [s for s in small_corpus if s.language is Language.GO]
    go_index = model.assignment.indices_for(Language.GO)[0]
    for s in go_samples:
        train_out = model.forward([s], model.tokenize([s]), train_mode=True)
        assert train_out.selections[0].i_star == go_index
        # inference ignores the language and selects over the whole pool
        eval_out = model.forward([s], model.tokenize([s]), train_mode=False)
        with nc.no_grad():
            q = model.query_vector(*model.embed(model.tokenize([s])))
        assert eval_out.selections[0].i_star == pl.select(q.data, model.keys)[0].i_star


def test_masked_training_pulls_only_assigned_key(small_corpus):
    model = build_tiny_model(small_corpus, mode="pool_masked")
    sample = [s for s in small_corpus if s.language is Language.JAVA][0]
    assigned = model.assignment.indices_for(Language.JAVA)[0]
    out = model.forward([sample], model.tokenize([sample]), train_mode=True)
    nc.backward(model.loss(out.logits, [sample.label], out.phi))
    for i, k in enumerate(model.keys):
        if i == assigned:
            assert k.grad is not None and np.abs(k.grad).max() > 0
        else:
            assert k.grad is None


def test_masked_training_selects_top_k_within_the_language_block(small_corpus):
    # training and prediction both read top_k matrices: within the language's
    # block in masked training, over the whole pool otherwise
    model = build_tiny_model(small_corpus, mode="pool_masked", top_k=2, pool_size=14,
                             matrices_per_language=2)
    batch = small_corpus[:10]
    train_out = model.forward(batch, model.tokenize(batch), train_mode=True)
    for s, selection in zip(batch, train_out.selections):
        assert sorted(selection.indices) == list(model.assignment.indices_for(s.language))
    assert all(len(p.selection.indices) == 2 for p in model.predict_many(batch))
    with pytest.raises(ValueError, match="matrices_per_language"):
        tiny_config(mode="pool_masked", top_k=2, matrices_per_language=1).model_config()


def test_loss_lambda_zero_is_plain_cross_entropy(small_corpus):
    model = build_tiny_model(small_corpus, lam=0.0)
    logits = nc.tensor([0.3, -0.7])
    phi = nc.tensor(0.9)
    ce = nc.cross_entropy_logits(nc.tensor([0.3, -0.7]), 1).item()
    assert model.loss(logits, 1, phi).item() == ce


def test_loss_arithmetic_example(small_corpus):
    model = build_tiny_model(small_corpus, lam=0.1)
    loss = model.loss(nc.tensor([0.0, 0.0]), 0, nc.tensor(1.0))
    assert loss.item() == pytest.approx(math.log(2.0) - 0.1, abs=1e-9)
    assert f"{loss.item():.4f}" == "0.5931"


def test_loss_recomputation_oracle(small_corpus):
    model = build_tiny_model(small_corpus)
    r = np.random.default_rng(21)
    for _ in range(1000):
        logits = r.normal(size=2) * 3
        label = int(r.integers(0, 2))
        phi = float(r.uniform(-1, 1))
        lam = float(r.choice([0.0, 0.01, 0.03, 0.1, 0.3]))
        model.config.lam = lam
        got = model.loss(nc.tensor(logits), label, nc.tensor(phi)).item()
        shifted = logits - logits.max()
        ce = math.log(np.exp(shifted).sum()) - shifted[label]
        assert got == pytest.approx(ce - lam * phi, abs=1e-12)


def test_predict_label_rules(small_corpus):
    model = build_tiny_model(small_corpus)
    r = np.random.default_rng(22)
    # direct rule checks on the argmax/tie contract
    probes = [(np.array([2.0, -1.0]), 0), (np.array([0.0, 0.0]), 0),
              (np.array([-3.0, 1.5]), 1)]
    for logits, expected in probes:
        label = 1 if logits[1] > logits[0] else 0
        assert label == expected
    for s in small_corpus:
        p = model.predict(s)
        assert p.label == (1 if p.logits[1] > p.logits[0] else 0)
        shifted = p.logits - p.logits.max()
        assert p.prob_vulnerable == pytest.approx(
            float(np.exp(shifted)[1] / np.exp(shifted).sum()), abs=1e-12
        )
        assert (p.prob_vulnerable > 0.5) == (p.label == 1)


def test_batch_predict_equals_per_sample(small_corpus):
    model = build_tiny_model(small_corpus)
    batch = model.predict_many(small_corpus)
    singles = [model.predict(s) for s in small_corpus]
    assert len(batch) == len(singles)
    for a, b in zip(batch, singles):
        assert np.array_equal(a.logits, b.logits)
        assert a.label == b.label
        assert a.selection.indices == b.selection.indices


@pytest.mark.parametrize("mode, top_k", [("pool_query", 2), ("pool_masked", 1),
                                          ("backbone_only", 1)])
@pytest.mark.parametrize("budget", [1, 90, 10**5])
def test_predict_many_in_chunks_equals_per_sample(small_corpus, monkeypatch, mode, top_k,
                                                 budget):
    # joined samples are truncated at max_tokens, and longer than a 90-row
    # budget: each makes a chunk of its own
    joined = [dataclasses.replace(small_corpus[i], id=f"joined-{i}", code="\n".join(
        t.code for t in small_corpus[i:i + 4])) for i in range(0, 36, 9)]
    samples = small_corpus[:14] + joined[:2] + small_corpus[14:] + joined[2:]
    model = build_tiny_model(samples, mode=mode, top_k=top_k, max_tokens=100,
                             max_positions=106)
    singles = [model.predict(s) for s in samples]

    chunks = []
    forward = model.forward

    def recording_forward(chunk, **kw):
        chunks.append(len(chunk))
        return forward(chunk, **kw)

    monkeypatch.setattr(model, "forward", recording_forward)
    monkeypatch.setattr(model_module, "PREDICT_ROWS", budget)
    batched = model.predict_many(samples)

    prompt = 0 if mode == "backbone_only" else top_k * model.config.prompt_len
    rows = [len(seq) + prompt for seq in model.tokenize(samples)]
    assert max(rows) > 90 and any(n == 100 for n in map(len, model.tokenize(samples)))
    assert sum(chunks) == len(samples)
    lo = 0
    for n in chunks:  # each chunk is greedy: within budget, or one long sample
        assert n == 1 or sum(rows[lo:lo + n]) <= budget
        assert lo + n == len(samples) or sum(rows[lo:lo + n + 1]) > budget
        lo += n
    if budget == 90:
        assert 1 < len(chunks) < len(samples)

    assert len(batched) == len(singles)
    for a, b in zip(batched, singles):
        assert np.array_equal(a.logits, b.logits)
        assert a.prob_vulnerable == b.prob_vulnerable and a.label == b.label
        if mode == "backbone_only":
            assert a.selection is None and b.selection is None
        else:
            assert a.selection == b.selection


def test_predict_never_builds_the_match_term(small_corpus, monkeypatch):
    model = build_tiny_model(small_corpus)
    calls = []
    monkeypatch.setattr(pl, "surrogate_similarity", lambda *args: calls.append(args))
    model.predict_many(small_corpus[:3])
    assert calls == []
    out = model.forward(small_corpus[:3], model.tokenize(small_corpus[:3]))
    assert out.phi is out.phi and len(calls) == 1  # built on first read, then kept


def test_forward_is_deterministic(small_corpus):
    model = build_tiny_model(small_corpus)
    a = model.forward([small_corpus[0]], model.tokenize([small_corpus[0]])).logits.data
    b = model.forward([small_corpus[0]], model.tokenize([small_corpus[0]])).logits.data
    assert np.array_equal(a, b)


def test_key_gradient_step_increases_similarity():
    # one small ascent step on the selected key alone strictly increases
    # the match score whenever it is below 1
    r = np.random.default_rng(23)
    improved = 0
    for trial in range(100):
        q = nc.tensor(r.normal(size=8))
        key = nc.parameter(r.normal(size=8))
        phi = nc.cosine_similarity(q, key)
        before = phi.item()
        nc.backward(phi)
        key.data += 1e-3 * key.grad  # ascent on phi
        after = nc.cosine_similarity(q, key).item()
        if after > before or before >= 1.0:
            improved += 1
    assert improved >= 99


def test_surrogate_increases_under_model_forward(small_corpus):
    model = build_tiny_model(small_corpus, mode="pool_masked")
    sample = small_corpus[3]
    out = model.forward([sample], model.tokenize([sample]), train_mode=True)
    before = out.phi.item()
    nc.backward(out.phi)
    key = model.keys[out.selections[0].i_star]
    key.data += 1e-3 * key.grad
    for _, p in model.parameters():
        p.grad = None
    after = model.forward([sample], model.tokenize([sample]), train_mode=True).phi.item()
    assert after > before


def test_query_from_embed_cls_uses_first_row(small_corpus):
    model = build_tiny_model(small_corpus)
    model.config.query_from = "embed_cls"
    with nc.no_grad():
        x_e, segments = model.embed(model.tokenize(small_corpus[:3]))
        q = model.query_vector(x_e, segments)
    assert np.array_equal(q.data, x_e.data[[lo for lo, _ in segments]])
    model.config.query_from = "embed_mean"
    with nc.no_grad():
        q2 = model.query_vector(x_e, segments)
    assert np.array_equal(q2.data, np.stack([x_e.data[lo:hi].mean(axis=0)
                                             for lo, hi in segments]))


def test_copy_produces_identical_model(small_corpus):
    model = build_tiny_model(small_corpus)
    clone = model.copy()
    for s in small_corpus:
        assert np.array_equal(model.predict(s).logits, clone.predict(s).logits)
    clone.classifier_w.data += 1.0
    assert not np.array_equal(model.predict(small_corpus[0]).logits,
                              clone.predict(small_corpus[0]).logits)


def test_masked_mode_without_assignment_errors():
    # a pool too small for one block per language is a config error, not a
    # runtime one at the first masked batch
    with pytest.raises(ValueError, match="pool_size 3 cannot hold 7 languages"):
        tiny_config(mode="pool_masked", pool_size=3).model_config()
    with pytest.raises(ValueError, match="matrices_per_language 2"):
        tiny_config(mode="pool_masked", pool_size=13, matrices_per_language=2).model_config()
    tiny_config(mode="pool_masked", pool_size=14, matrices_per_language=2).model_config()
    tiny_config(mode="pool_query", pool_size=3).model_config()  # free selection needs no blocks


def test_model_config_validation():
    with pytest.raises(ValueError, match="mode"):
        tiny_config(mode="nope").model_config()
    with pytest.raises(ValueError, match="top_k"):
        tiny_config(top_k=9, pool_size=7).model_config()
    with pytest.raises(ValueError, match="lam"):
        tiny_config(lam=-0.5).model_config()


GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_batch"


@pytest.mark.parametrize("case", ["pool_masked", "pool_query_top2", "backbone_only"])
def test_packed_batch_matches_per_sample_golden(case):
    # oracle written by the per-sample path (see data/golden_batch/make_golden.py)
    arrays, meta = ckpt.load_arrays(GOLDEN / f"{case}.ckpt")
    vocab = tok.Vocabulary({t: i for i, t in enumerate(meta["vocab"])}, meta["vocab"])
    model = VulnPoolModel(ModelConfig(**meta["model"]), EncoderConfig(**meta["encoder"]), vocab)
    model.load_params({n[len("param."):]: a for n, a in arrays.items() if n.startswith("param.")})
    samples = [
        corpus.CodeSample(id=r["id"], language=corpus.parse_language(r["language"]),
                          code=r["code"], label=r["label"])
        for r in meta["samples"]
    ]
    out = model.forward(samples, model.tokenize(samples), train_mode=True)
    loss = model.loss(out.logits, [s.label for s in samples], out.phi)
    nc.backward(loss)

    if out.selections is None:
        assert "selections" not in arrays
    else:
        assert [s.indices for s in out.selections] == [tuple(r) for r in arrays["selections"]]
    assert np.abs(out.logits.data - arrays["logits"]).max() < 1e-10
    assert abs(loss.item() - arrays["loss"].item()) < 1e-10
    for name, p in model.parameters():
        expected = arrays.get(f"grad.{name}")
        assert (p.grad is None) == (expected is None), name
        if expected is not None:
            assert np.abs(p.grad - expected).max() < 1e-10, name


@pytest.mark.parametrize("mode, prompt_len", [("pool_query", 1), ("pool_masked", 3),
                                              ("backbone_only", 3)])
def test_forward_reads_the_rows_of_the_full_encoder(small_corpus, mode, prompt_len):
    # the classifier's rows from the kept-row encoder equal those of the full
    # stack, in float64, also when fewer prompt rows than the two kept ones
    model = build_tiny_model(small_corpus, mode=mode, prompt_len=prompt_len, n_layers=2)
    model.load_params({n: a.astype(np.float64) for n, a in model.snapshot_params().items()})
    out = model.forward(small_corpus, model.tokenize(small_corpus))
    x_e, segments = model.embed(model.tokenize(small_corpus))
    if mode == "backbone_only":
        h = model.encoder.encode(x_e, segments, None, train_mode=False, rng=None)
        pooled = nc.gather_rows(h, [lo for lo, _ in segments])
    else:
        adapted = pl.adapt(out.selections, model.pool, x_e, segments)
        h = model.encoder.encode(adapted.matrix, adapted.segments, None, train_mode=False,
                                 rng=None)
        pooled = nc.segment_mean(h, [(lo, lo + prompt_len) for lo, _ in adapted.segments])
    expected = model._classify(pooled).data
    assert np.abs(out.logits.data - expected).max() < 1e-12


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("mode, top_k", [("pool_masked", 1), ("pool_query", 2),
                                         ("backbone_only", 1)])
def test_last_layer_linears_see_only_the_kept_rows(small_corpus, monkeypatch, mode, top_k,
                                                   n_layers):
    # the last layer projects neither K nor V over every row: none of its
    # linears sees more than the kept rows of the batch
    model = build_tiny_model(small_corpus, mode=mode, top_k=top_k, n_layers=n_layers)
    names = {id(t): name for name, t in model.parameters()}
    seen = []
    linear = nc.linear

    def recording(x, w, b):
        seen.append((names[id(w)], x.shape[0]))
        return linear(x, w, b)

    monkeypatch.setattr(nc, "linear", recording)
    model.forward(small_corpus, model.tokenize(small_corpus), train_mode=True)
    kept = len(small_corpus) * max(2, model._prompt_rows())
    rows = sum(len(ids) for ids in model.tokenize(small_corpus)) + (
        len(small_corpus) * model._prompt_rows())
    last = f"enc.{n_layers - 1}."
    assert {name for name, _ in seen if name.startswith(last)} == {
        last + w for w in ("attn.wq", "attn.wo", "ffn.w1", "ffn.w2")}
    for name, n in seen:
        assert n <= kept if name.startswith(last) else n == rows, (name, n, kept)
