import gc
import json
import math

import numpy as np
import pytest

from vulnpool import checkpoint as ckpt
from vulnpool import cli, corpus, evaluate as ev, numcore as nc, tokenizer as tok, trainer
from vulnpool.checkpoint import CheckpointError
from vulnpool.model import MODES, VulnPoolModel
from vulnpool.trainer import AdamState, adam_step

from conftest import build_tiny_model, tiny_config


@pytest.fixture(scope="module")
def small_split():
    samples = corpus.generate_synthetic(20, 0.5, seed=4)
    return corpus.split_dataset(samples, (0.8, 0.1, 0.1), seed=4)


def fresh_model(split, mode="pool_masked", seed=0):
    all_samples = split.train + split.val + split.test
    return build_tiny_model(all_samples, mode=mode, seed=seed)


# ---------------------------------------------------------------------------
# adam

def flat_parameter(values):
    """(buffer, parameter): a parameter that is a view of the whole of its
    own flat buffer, as `adam_step` takes it."""
    buffer = np.array(values, dtype=np.float64)
    return buffer, nc.parameter(buffer[:])


def step(flat, named, state, **kw):
    """One `adam_step` with RunConfig's optimiser settings, `kw` changing any."""
    config = tiny_config(**kw).train_config()
    adam_step(flat, named, state, config.lr, config.beta1, config.beta2, config.eps,
              config.grad_clip)


def test_adam_zero_grads_leave_params_unchanged():
    buffer, p = flat_parameter([1.0, 2.0])
    p.grad = np.zeros(2)
    state = AdamState()
    step(buffer, [("p", p)], state, lr=0.1)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_missing_grads_leave_params_unchanged():
    buffer, p = flat_parameter([3.0])
    state = AdamState()
    step(buffer, [("p", p)], state, lr=0.1)
    assert np.array_equal(p.data, [3.0])


def test_adam_first_step_matches_hand_computation():
    # scalar oracle: m1 = (1-b1) g, v1 = (1-b2) g^2, mhat = g, vhat = g^2,
    # update = -lr * g / (|g| + eps)
    for g in (0.5, -2.0, 1e-3):
        buffer, p = flat_parameter([1.0])
        p.grad = np.array([g])
        state = AdamState()
        adam_step(buffer, [("p", p)], state, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8,
                  grad_clip=None)
        expected = 1.0 - 0.01 * g / (abs(g) + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)


def test_adam_constant_grad_update_magnitude_approaches_lr():
    # closed-form limit: mhat -> g, vhat -> g^2, so |step| -> lr
    buffer, p = flat_parameter([0.0])
    state = AdamState()
    lr = 0.01
    magnitudes = []
    for _ in range(500):
        before = float(p.data[0])
        p.grad = np.array([3.7])
        step(buffer, [("p", p)], state, lr=lr)
        magnitudes.append(abs(float(p.data[0]) - before))
    assert magnitudes[-1] == pytest.approx(lr, rel=1e-6)


def test_adam_grad_clip_bounds_global_norm():
    buffer, p = flat_parameter(np.zeros(4))
    p.grad = np.full(4, 100.0)
    state = AdamState()
    step(buffer, [("p", p)], state, lr=0.1, grad_clip=1.0)
    # post-clip gradient has norm 1; first-step update magnitude ~ lr
    assert np.abs(p.data).max() <= 0.1 + 1e-9


def reference_adam(arrays, moments, grads, t, config):
    """The per-parameter update with the settings of the TrainConfig `config`:
    each array with a gradient, on its own, in the order of `grads`."""
    lr, beta1, beta2, eps, grad_clip = (config.lr, config.beta1, config.beta2, config.eps,
                                        config.grad_clip)
    present = [(name, g) for name, g in grads.items() if g is not None]
    if grad_clip is not None:
        total = math.sqrt(sum(float((g**2).sum()) for _, g in present))
        if total > grad_clip > 0:
            present = [(name, g * (grad_clip / total)) for name, g in present]
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    for name, g in present:
        m, v = moments[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        arrays[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def moments_by_name(state, named):
    """{name: (m, v)} of each parameter of `named`, cut from the state's
    flat moments."""
    offsets = np.cumsum([0] + [p.data.size for _, p in named])
    return {name: (state.m[lo:hi].reshape(p.data.shape), state.v[lo:hi].reshape(p.data.shape))
            for (name, p), lo, hi in zip(named, offsets, offsets[1:])}


@pytest.mark.parametrize("grad_clip", [None, 0.05])
def test_flat_adam_equals_the_per_parameter_update(small_split, grad_clip):
    model = fresh_model(small_split)
    named = model.parameters()
    arrays = {name: p.data.copy() for name, p in named}
    moments = {name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in named}
    state = AdamState()
    config = tiny_config(lr=1e-2, grad_clip=grad_clip).train_config()
    idle = {"pool.P.1", "pool.P.3", "pool.k.1"}  # no gradient in any step
    r = np.random.default_rng(21)
    for t in range(1, 6):
        grads = {}
        for name, p in named:
            pool = name.startswith("pool.")
            got = not pool or (name not in idle and r.random() < 0.5)
            grads[name] = (r.normal(0.0, 0.01, p.data.shape).astype(np.float32)
                           if got else None)
            p.grad = grads[name]
        step(model.flat, named, state, lr=1e-2, grad_clip=grad_clip)
        reference_adam(arrays, moments, grads, t, config)
        got_moments = moments_by_name(state, named)
        for name, p in named:
            assert np.array_equal(p.data, arrays[name]), (t, name)
            for got, want in zip(got_moments[name], moments[name]):
                assert got.dtype == np.float32 and np.array_equal(got, want), (t, name)
    initial = fresh_model(small_split).snapshot_params()
    for name in idle:
        assert np.array_equal(arrays[name], initial[name])
        assert not any(a.any() for a in got_moments[name])


def test_every_parameter_is_a_view_of_the_flat_buffer(small_split, tmp_path):
    def check(model, dtype):
        assert model.flat.ndim == 1 and model.flat.dtype == dtype
        start, offset = model.flat.__array_interface__["data"][0], 0
        for name, p in model.parameters():
            assert p.data.base is model.flat and p.data.flags.c_contiguous, name
            assert p.data.__array_interface__["data"][0] == start + offset * dtype().itemsize
            offset += p.data.size
        assert offset == model.flat.size

    model = fresh_model(small_split)
    check(model, np.float32)
    arrays = model.snapshot_params()
    for dtype in (np.float32, np.float64):
        model.load_params({n: a.astype(dtype) for n, a in arrays.items()})
        check(model, dtype)
        check(model.copy(), dtype)
        trainer.save_checkpoint(model, AdamState(), tmp_path / "m.ckpt", epochs_done=0)
        check(trainer.load_checkpoint(tmp_path / "m.ckpt", model.vocab)[0], dtype)
    named = model.parameters()
    for _, p in named:
        p.grad = np.ones_like(p.data)
    for params in (named[1:], named[:1] + named, [(n, nc.parameter(p.data.copy()))
                                                  for n, p in named]):
        with pytest.raises(ValueError, match="cover the flat buffer"):
            step(model.flat, params, AdamState(), lr=1e-3)


# ---------------------------------------------------------------------------
# training loop

def test_train_lr_zero_keeps_params_bitwise(small_split):
    model = fresh_model(small_split)
    before = model.snapshot_params()
    trainer.train(model, small_split, tiny_config(epochs=1, batch_size=8, lr=0.0).train_config())
    after = model.snapshot_params()
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_train_fixed_seed_reproduces_history(small_split):
    config = tiny_config(epochs=2, batch_size=8, lr=1e-3, seed=5).train_config()
    _, h1 = trainer.train(fresh_model(small_split), small_split, config)
    _, h2 = trainer.train(fresh_model(small_split), small_split, config)
    assert h1.initial_train_loss == h2.initial_train_loss
    assert [e.to_record() for e in h1.epochs] == [e.to_record() for e in h2.epochs]


def test_train_loss_decreases(small_split):
    # the 50%-of-initial oracle at full desk scale lives in the acceptance
    # suite; this fixture corpus is tiny, so allow the best epoch to count
    model = fresh_model(small_split)
    _, history = trainer.train(
        model, small_split, tiny_config(epochs=10, batch_size=8, lr=1e-3).train_config()
    )
    best = min(e.train_loss for e in history.epochs)
    assert best <= 0.5 * history.initial_train_loss


def test_best_model_is_validation_argmax(small_split):
    model = fresh_model(small_split)
    best, history = trainer.train(
        model, small_split, tiny_config(epochs=3, batch_size=8, lr=1e-3, seed=1).train_config()
    )
    f1s = [e.val_f1 for e in history.epochs]
    expected_epoch = f1s.index(max(f1s))  # earliest on ties
    assert history.best_epoch == expected_epoch


def test_every_parameter_touched_each_epoch_in_query_mode(small_split):
    model = fresh_model(small_split, mode="pool_query")
    _, history = trainer.train(
        model, small_split, tiny_config(epochs=1, batch_size=8, lr=1e-3, seed=2).train_config()
    )
    # pool matrices and keys beyond the selected ones may idle in query mode,
    # but the union of touched parameters must cover the encoder, embeddings,
    # classifier and at least one pool matrix/key
    assert history.epochs[0].params_touched >= len(model.encoder.parameters()) + 3


def test_masked_mode_touches_every_language_parameter(small_split):
    model = fresh_model(small_split, mode="pool_masked")
    _, history = trainer.train(
        model, small_split, tiny_config(epochs=1, batch_size=8, lr=1e-3, seed=2).train_config()
    )
    assert history.epochs[0].params_touched == len(model.parameters())


def test_selection_counts_recorded_per_language(small_split):
    model = fresh_model(small_split, mode="pool_masked")
    _, history = trainer.train(
        model, small_split, tiny_config(epochs=1, batch_size=8, lr=1e-3, seed=3).train_config()
    )
    counts = history.epochs[0].selection_counts
    assert set(counts) == {lang.tag for lang in corpus.Language}
    for lang in corpus.Language:
        assigned = model.assignment.indices_for(lang)[0]
        assert counts[lang.tag] == {assigned: sum(counts[lang.tag].values())}


def test_divergence_aborts_with_diagnostics(small_split, tmp_path):
    model = fresh_model(small_split)
    model.classifier_w.data[...] = float("nan")
    with pytest.raises(trainer.TrainingDivergedError) as info:
        trainer.train(model, small_split, tiny_config(epochs=1, batch_size=8).train_config(),
                      run_dir=tmp_path / "run")
    assert info.value.epoch == 0
    assert info.value.sample_ids
    assert (tmp_path / "run" / "diverged.ckpt").exists()


def test_no_batch_graph_outlives_its_batch(monkeypatch):
    # desk-size epoch: 2000 training samples in batches of 32, then validation
    split = corpus.split_dataset(corpus.generate_synthetic(400, 0.5, seed=5),
                                 (5 / 7, 1 / 7, 1 / 7), seed=5)
    model = build_tiny_model(split.train, mode="pool_masked", prompt_len=5, max_tokens=80,
                             d_model=32, d_ffn=64, max_positions=85)
    live = {"forward": [], "evaluate_model": []}

    def counting(name, fn):
        def wrapper(*args, **kw):
            live[name].append(sum(isinstance(o, nc.Tensor) and o._backward is not None
                                  for o in gc.get_objects()))
            return fn(*args, **kw)
        return wrapper

    gc.collect()
    monkeypatch.setattr(VulnPoolModel, "forward", counting("forward", VulnPoolModel.forward))
    monkeypatch.setattr(ev, "evaluate_model", counting("evaluate_model", ev.evaluate_model))
    trainer.train(model, split, tiny_config(epochs=1, batch_size=32, lr=1e-3).train_config())
    assert len(live["forward"]) > 60 and len(live["evaluate_model"]) == 1
    assert max(live["forward"]) == 0 and live["evaluate_model"] == [0]


def test_empty_training_split_rejected(small_split):
    model = fresh_model(small_split)
    empty = corpus.DatasetSplit([], small_split.val, small_split.test)
    with pytest.raises(ValueError, match="empty"):
        trainer.train(model, empty, tiny_config(epochs=1).train_config())


def test_history_line_is_on_disk_before_a_later_save_fails(small_split, tmp_path,
                                                            monkeypatch):
    save, fsync = trainer.save_checkpoint, trainer.os.fsync
    synced = []

    def failing_save(model, state, path, epochs_done):
        if str(path).endswith("epoch_1.ckpt"):
            raise OSError("disk full")
        save(model, state, path, epochs_done)

    monkeypatch.setattr(trainer, "save_checkpoint", failing_save)
    monkeypatch.setattr(trainer.os, "fsync", lambda fd: synced.append(fd) or fsync(fd))
    with pytest.raises(OSError, match="disk full"):
        trainer.train(fresh_model(small_split), small_split,
                      tiny_config(epochs=3, batch_size=8, lr=1e-3).train_config(), run_dir=tmp_path)
    (line,) = (tmp_path / "history.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert line.endswith("\n") and json.loads(line)["epoch"] == 0
    assert len(synced) == 1
    assert cli.main(["report", "--run", str(tmp_path)]) == 0


def test_zeroed_key_is_reinitialised_and_recorded(small_split, tmp_path):
    config = tiny_config(epochs=1, batch_size=8, lr=1e-3).train_config()
    model = fresh_model(small_split)
    model.keys[2].data[...] = 0.0
    _, history = trainer.train(model, small_split, config, run_dir=tmp_path)
    assert history.epochs[0].keys_reinitialised == [2]
    assert np.linalg.norm(model.keys[2].data) > 0
    record = json.loads((tmp_path / "history.jsonl").read_text(encoding="utf-8"))
    assert record["keys_reinitialised"] == [2]
    _, untouched = trainer.train(fresh_model(small_split), small_split, config)
    assert untouched.epochs[0].keys_reinitialised == []


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_save_load_save_identical_bytes(small_split, tmp_path):
    model = fresh_model(small_split)
    state = AdamState()
    trainer.train(model, small_split, tiny_config(epochs=1, batch_size=8, lr=1e-3).train_config(),
                  adam_state=state)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    trainer.save_checkpoint(model, state, p1, epochs_done=1)
    loaded, loaded_state, meta = trainer.load_checkpoint(p1, model.vocab)
    trainer.save_checkpoint(loaded, loaded_state, p2, epochs_done=meta["epochs_done"])
    assert p1.read_bytes() == p2.read_bytes()


def test_resumed_training_matches_continuous_run(small_split, tmp_path):
    config4 = tiny_config(epochs=4, batch_size=8, lr=1e-3, seed=9).train_config()
    continuous = fresh_model(small_split, seed=9)
    trainer.train(continuous, small_split, config4)

    config2 = tiny_config(epochs=2, batch_size=8, lr=1e-3, seed=9).train_config()
    resumable = fresh_model(small_split, seed=9)
    state = AdamState()
    trainer.train(resumable, small_split, config2, adam_state=state)
    path = tmp_path / "mid.ckpt"
    trainer.save_checkpoint(resumable, state, path, epochs_done=2)

    restored, restored_state, meta = trainer.load_checkpoint(path, resumable.vocab)
    trainer.train(restored, small_split, config4, start_epoch=meta["epochs_done"],
                  adam_state=restored_state)

    final_a = continuous.snapshot_params()
    final_b = restored.snapshot_params()
    for name in final_a:
        assert np.array_equal(final_a[name], final_b[name]), name


def test_load_checkpoint_wrong_prompt_len_names_field(small_split, tmp_path):
    model = fresh_model(small_split)
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(model, AdamState(), path, epochs_done=0)
    arrays, meta = ckpt.load_arrays(path)
    meta["model"]["prompt_len"] = 9
    ckpt.save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="prompt_len"):
        trainer.load_checkpoint(path, model.vocab)


def test_load_checkpoint_vocab_hash_mismatch(small_split, tmp_path):
    model = fresh_model(small_split)
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(model, AdamState(), path, epochs_done=0)
    other_vocab = tok.build_vocab(["completely different tokens"], max_size=16)
    with pytest.raises(CheckpointError, match="vocabulary hash"):
        trainer.load_checkpoint(path, other_vocab)


def test_load_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"some-other-format\n" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="version"):
        trainer.load_checkpoint(path, tok.build_vocab(["a"], max_size=8))


@pytest.mark.parametrize("mode", MODES)
def test_one_training_step_stays_float32(small_split, tmp_path, mode):
    # dropout on and two keys per query in pool_query, so every op of a
    # training step runs; no float64 array may appear anywhere
    model = build_tiny_model(small_split.train, mode=mode, dropout=0.2,
                             top_k=2 if mode == "pool_query" else 1)
    batch = small_split.train[:8]
    out = model.forward(batch, train_mode=True, seqs=model.tokenize(batch))
    loss = model.loss(out.logits, [s.label for s in batch], out.phi)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    grad_dtypes = set()

    def recording(fn):
        def bw(g):
            grads = fn(g)
            grad_dtypes.update(pg.dtype for pg in grads if pg is not None)
            return grads
        return bw

    for node in nodes.values():
        assert node.data.dtype == np.float32, node
        if node._backward is not None:
            node._backward = recording(node._backward)
    assert len(nodes) > 30
    nc.backward(loss)
    assert grad_dtypes == {np.dtype(np.float32)}
    state = AdamState()
    step(model.flat, model.parameters(), state, lr=1e-3)
    touched = [p for _, p in model.parameters() if p.grad is not None]
    assert touched and all(p.grad.dtype == np.float32 for p in touched)
    assert all(p.data.dtype == np.float32 for _, p in model.parameters())
    assert state.m.dtype == state.v.dtype == np.float32
    trainer.save_checkpoint(model, state, tmp_path / "m.ckpt", epochs_done=0)
    arrays, _ = ckpt.load_arrays(tmp_path / "m.ckpt")
    assert any(name.startswith("adam.") for name in arrays)
    assert {a.dtype.str for a in arrays.values()} == {"<f4"}


def test_float64_checkpoint_round_trip_keeps_float64(small_split, tmp_path):
    # a checkpoint written in float64 (as every run before float32 training
    # was) loads, predicts and trains on in float64
    model = fresh_model(small_split)
    model.load_params({n: a.astype(np.float64) for n, a in model.snapshot_params().items()})
    state = AdamState()
    trainer.train(model, small_split, tiny_config(epochs=1, batch_size=8, lr=1e-3).train_config(),
                  adam_state=state)
    assert all(p.data.dtype == np.float64 for _, p in model.parameters())
    path = tmp_path / "f8.ckpt"
    trainer.save_checkpoint(model, state, path, epochs_done=1)
    assert {a.dtype.str for a in ckpt.load_arrays(path)[0].values()} == {"<f8"}
    loaded, loaded_state, _ = trainer.load_checkpoint(path, model.vocab)
    assert all(p.data.dtype == np.float64 for _, p in loaded.parameters())
    assert loaded_state.m.dtype == loaded_state.v.dtype == np.float64
    for s in small_split.test:
        logits = loaded.predict(s).logits
        assert logits.dtype == np.float64
        assert np.array_equal(logits, model.predict(s).logits)


@pytest.mark.parametrize("edit, found", [
    (lambda arrays: arrays.update({"adam.m.cls.b": np.zeros(3, np.float32)}),
     r"adam.m.cls.b: expected \(2,\), found \(3,\)"),
    (lambda arrays: arrays.update({"adam.v.cls.x": np.zeros(2, np.float32)}),
     "unexpected arrays: adam.v.cls.x"),
], ids=["misshaped", "unknown"])
def test_load_checkpoint_rejects_moments_that_fit_no_parameter(small_split, tmp_path, edit,
                                                              found):
    model = fresh_model(small_split)
    for _, p in model.parameters():
        p.grad = np.ones_like(p.data)
    state = AdamState()
    step(model.flat, model.parameters(), state, lr=1e-3)
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(model, state, path, epochs_done=0)
    arrays, meta = ckpt.load_arrays(path)
    edit(arrays)
    ckpt.save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match=found):
        trainer.load_checkpoint(path, model.vocab)


@pytest.mark.parametrize("edit, found", [
    (lambda arrays: arrays.update({"cls.b": arrays["cls.b"].astype(np.float64)}),
     "<f4, <f8"),
    (lambda arrays: arrays.update({k: a.astype(np.int64) for k, a in arrays.items()}),
     "<i8"),
], ids=["mixed", "integer"])
def test_load_checkpoint_rejects_mixed_or_integer_dtypes(small_split, tmp_path, edit, found):
    model = fresh_model(small_split)
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(model, AdamState(), path, epochs_done=0)
    arrays, meta = ckpt.load_arrays(path)
    edit(arrays)
    ckpt.save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match=f"one floating-point dtype, found {found}$"):
        trainer.load_checkpoint(path, model.vocab)


def test_checkpoint_restores_predictions(small_split, tmp_path):
    model = fresh_model(small_split)
    trainer.train(model, small_split, tiny_config(epochs=1, batch_size=8, lr=1e-3).train_config())
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(model, None, path, epochs_done=0)
    loaded, _, _ = trainer.load_checkpoint(path, model.vocab)
    for s in small_split.test:
        assert np.array_equal(model.predict(s).logits, loaded.predict(s).logits)


def test_each_split_is_tokenized_once_per_run(small_split, monkeypatch, tmp_path):
    config = tiny_config(epochs=3, batch_size=4, lr=1e-3).train_config()
    encode, forward, evaluate = tok.encode, VulnPoolModel.forward, ev.evaluate_model
    calls = []
    monkeypatch.setattr(tok, "encode", lambda *a, **kw: calls.append(1) or encode(*a, **kw))
    _, once = trainer.train(fresh_model(small_split), small_split, config,
                            run_dir=tmp_path / "once")
    per_split = len(small_split.train) + len(small_split.val)
    assert len(calls) == per_split

    # the same run tokenizing every batch and every validation pass anew
    monkeypatch.setattr(VulnPoolModel, "forward",
                        lambda self, samples, seqs, train_mode=False:
                        forward(self, samples, self.tokenize(samples), train_mode))
    monkeypatch.setattr(ev, "evaluate_model", lambda model, samples, seqs=None:
                        evaluate(model, samples))
    _, each = trainer.train(fresh_model(small_split), small_split, config,
                            run_dir=tmp_path / "each")
    assert len(calls) >= (2 + config.epochs) * per_split
    assert once == each
    names = sorted(p.name for p in (tmp_path / "once").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "each").iterdir())
    for name in names:
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "each" / name).read_bytes()
