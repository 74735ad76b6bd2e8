import numpy as np
import pytest

from vulnpool import numcore as nc
from vulnpool.encoder import Encoder

from conftest import tiny_config


def encoder_config(**kw):
    """A one-head, 8-wide encoder over the unit tests' settings, `kw`
    changing any RunConfig field."""
    return tiny_config(**{"n_heads": 1, "d_model": 8, "d_ffn": 16, "max_positions": 32,
                          **kw}).encoder_config()


def encode(enc, x, segments, keep):
    """`enc.encode` without dropout; keep=None is the full-output stack."""
    return enc.encode(x, segments, keep, train_mode=False, rng=None)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        encoder_config(n_heads=3)


def test_embed_shape():
    enc = Encoder.init_random(encoder_config(), vocab_size=16, seed=0)
    x = enc.embed([0, 1], [(0, 2)])
    assert x.shape == (2, 8)


def test_embed_identical_tokens_differ_by_position_rows():
    enc = Encoder.init_random(encoder_config(), vocab_size=16, seed=0)
    x = enc.embed([0, 5, 5, 1], [(0, 4)])
    pos = enc.params["embed.pos"].data
    assert np.allclose(x.data[1] - x.data[2], pos[1] - pos[2])


def test_embed_zeroed_position_table_gives_equal_rows():
    enc = Encoder.init_random(encoder_config(), vocab_size=16, seed=0)
    enc.params["embed.pos"].data[...] = 0.0
    x = enc.embed([0, 5, 5, 1], [(0, 4)])
    assert np.array_equal(x.data[1], x.data[2])


def test_embed_rejects_out_of_range_ids():
    enc = Encoder.init_random(encoder_config(), vocab_size=16, seed=0)
    with pytest.raises(IndexError, match="16"):
        enc.embed([0, 99], [(0, 2)])


def test_embed_rejects_over_length():
    enc = Encoder.init_random(encoder_config(max_positions=4), vocab_size=16, seed=0)
    with pytest.raises(ValueError, match="max_positions"):
        enc.embed([0] * 5, [(0, 5)])


def test_encode_output_shape_matches_input():
    enc = Encoder.init_random(encoder_config(n_layers=2, n_heads=2), vocab_size=16, seed=1)
    for rows in (1, 3, 9):
        x = nc.tensor(np.random.default_rng(rows).normal(size=(rows, 8)))
        assert encode(enc, x, [(0, rows)], None).shape == (rows, 8)


def test_encode_single_row_matches_numpy_reimplementation():
    # independent oracle: one layer, one head, single row; attention over a
    # single position is exactly the value projection
    enc = Encoder.init_random(encoder_config(), vocab_size=16, seed=2)
    p = enc.params
    x = np.random.default_rng(3).normal(size=(1, 8))

    def ln(v, g, b, eps=1e-5):
        mean = v.mean(axis=1, keepdims=True)
        var = ((v - mean) ** 2).mean(axis=1, keepdims=True)
        return (v - mean) / np.sqrt(var + eps) * g + b

    def gelu(v):
        return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)))

    n1 = ln(x, p["enc.0.ln1.g"].data, p["enc.0.ln1.b"].data)
    v = n1 @ p["enc.0.attn.wv"].data + p["enc.0.attn.bv"].data
    a = x + (v @ p["enc.0.attn.wo"].data + p["enc.0.attn.bo"].data)
    n2 = ln(a, p["enc.0.ln2.g"].data, p["enc.0.ln2.b"].data)
    f = gelu(n2 @ p["enc.0.ffn.w1"].data + p["enc.0.ffn.b1"].data)
    out = a + (f @ p["enc.0.ffn.w2"].data + p["enc.0.ffn.b2"].data)
    expected = ln(out, p["enc.lnf.g"].data, p["enc.lnf.b"].data)

    got = encode(enc, nc.tensor(x), [(0, 1)], None).data
    assert np.allclose(got, expected, atol=1e-12)


def test_encode_permutation_equivariant():
    enc = Encoder.init_random(encoder_config(n_layers=2, n_heads=2), vocab_size=16, seed=6)
    r = np.random.default_rng(7)
    for _ in range(5):
        x = r.normal(size=(6, 8))
        perm = r.permutation(6)
        out = encode(enc, nc.tensor(x), [(0, 6)], None).data
        out_perm = encode(enc, nc.tensor(x[perm]), [(0, 6)], None).data
        assert np.allclose(out[perm], out_perm, atol=1e-12)


def test_encode_deterministic_with_dropout_zero():
    enc = Encoder.init_random(encoder_config(), vocab_size=16, seed=8)
    x = np.random.default_rng(9).normal(size=(4, 8))
    a = encode(enc, nc.tensor(x), [(0, 4)], None).data
    b = encode(enc, nc.tensor(x), [(0, 4)], None).data
    assert np.array_equal(a, b)


def test_init_random_deterministic():
    a = Encoder.init_random(encoder_config(), vocab_size=16, seed=11)
    b = Encoder.init_random(encoder_config(), vocab_size=16, seed=11)
    for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    c = Encoder.init_random(encoder_config(), vocab_size=16, seed=12)
    assert not np.array_equal(a.params["embed.tok"].data, c.params["embed.tok"].data)


def test_init_random_histogram():
    # sampling-statistics oracle at 1e5 draws
    cfg = encoder_config(d_model=32, max_positions=64)
    enc = Encoder.init_random(cfg, vocab_size=3125, seed=13)
    draws = enc.params["embed.tok"].data.ravel()
    assert draws.size == 100_000
    assert abs(draws.mean()) < 0.002
    assert abs(draws.std() - 0.02) < 0.002


def test_config_rejects_no_layers():
    with pytest.raises(ValueError, match="n_layers"):
        encoder_config(n_layers=0)


@pytest.mark.parametrize("keep", [1, 2, 5])
def test_kept_rows_equal_the_full_stack_in_value_and_gradient(keep):
    # float64, two layers, segments of unequal length: the kept-row encoder
    # is the full one with the unread rows dropped
    enc = Encoder.init_random(encoder_config(n_layers=2, n_heads=2), vocab_size=16, seed=3)
    for p in enc.params.values():  # non-trivial norms and biases
        p.data = p.data + np.random.default_rng(p.data.size).normal(0, 0.1, p.data.shape)
    segments = [(0, 5), (5, 14), (14, 20), (20, 31)]
    rows = np.concatenate([np.arange(lo, lo + keep) for lo, _ in segments])
    x_data = np.random.default_rng(8).normal(size=(31, 8))
    weights = np.random.default_rng(9).normal(size=(len(rows), 8))

    def run(kept: bool):
        enc_x = nc.parameter(x_data.copy())
        out = encode(enc, enc_x, segments, keep) if kept else nc.gather_rows(
            encode(enc, enc_x, segments, None), rows)
        loss = nc.sum_all(nc.cross_entropy_logits(nc.add(out, nc.tensor(weights)),
                                                  np.arange(len(rows)) % 8))
        for p in enc.params.values():
            p.grad = None
        nc.backward(loss)
        return out.data, {n: p.grad for n, p in enc.params.items()}, enc_x.grad

    full_out, full_grads, full_dx = run(kept=False)
    kept_out, kept_grads, kept_dx = run(kept=True)
    assert kept_out.shape == (len(segments) * keep, 8)
    assert np.abs(kept_out - full_out).max() < 1e-12
    assert np.abs(kept_dx - full_dx).max() < 1e-12
    for name, g in full_grads.items():
        if name.startswith("embed."):  # encode never reads the embedding tables
            assert g is None and kept_grads[name] is None
        else:
            assert np.abs(kept_grads[name] - g).max() < 1e-12, name


def test_kept_rows_bounded_by_shortest_sequence():
    enc = Encoder.init_random(encoder_config(), vocab_size=16, seed=0)
    x = nc.tensor(np.random.default_rng(0).normal(size=(7, 8)))
    assert encode(enc, x, [(0, 3), (3, 7)], 3).shape == (6, 8)
    for keep in (0, 4):
        with pytest.raises(ValueError, match="keep"):
            encode(enc, x, [(0, 3), (3, 7)], keep)
