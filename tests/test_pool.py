import numpy as np
import pytest

from vulnpool import numcore as nc
from vulnpool import pool as pl
from vulnpool.corpus import LANGUAGES, Language

from conftest import build_tiny_model


def make_keys(vectors):
    return [nc.parameter(np.asarray(v, dtype=float)) for v in vectors]


def random_keys(size, d, seed):
    r = np.random.default_rng(seed)
    return make_keys([r.normal(size=d) for _ in range(size)])


def mask_of(allowed, size):
    mask = np.zeros((1, size), dtype=bool)
    mask[0, list(allowed)] = True
    return mask


def select_one(q, keys, k=1, allowed=None):
    """Selection for the lone query `q` (d,), restricted to `allowed` indices."""
    mask = None if allowed is None else mask_of(allowed, len(keys))
    return pl.select(np.asarray(q, dtype=float)[None], keys, k, mask)[0]


def brute_force_rank(q, keys):
    scores = []
    qn = np.linalg.norm(q)
    for i, k in enumerate(keys):
        scores.append(float(q @ k.data) / (qn * np.linalg.norm(k.data)))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order, scores


# ---------------------------------------------------------------------------
# query

@pytest.fixture(scope="module")
def cls_model(small_corpus):
    """A model whose query is each sequence's [CLS]-position embedding row."""
    model = build_tiny_model(small_corpus)
    model.config.query_from = "embed_cls"
    return model


def test_query_returns_first_row(cls_model):
    x = nc.tensor(np.arange(24.0).reshape(6, 4))
    q = cls_model.query_vector(x, [(0, 3), (3, 4), (4, 6)])
    assert np.array_equal(q.data, x.data[[0, 3, 4]])


def test_query_ignores_other_rows(cls_model):
    r = np.random.default_rng(0)
    base = r.normal(size=(7, 6))
    segments = [(0, 4), (4, 7)]
    changed = base.copy()
    changed[[2, 5]] = r.normal(size=(2, 6))
    assert np.array_equal(cls_model.query_vector(nc.tensor(base), segments).data,
                          cls_model.query_vector(nc.tensor(changed), segments).data)


def test_query_empty_sequence_rejected(cls_model):
    # an empty batch fails at embedding, before any query is taken
    with pytest.raises(ValueError, match="tile"):
        cls_model.embed([])


def test_query_recomputation_oracle(cls_model):
    # each q equals its sequence's stored [CLS] row across 100 random packed embeddings
    r = np.random.default_rng(1)
    for _ in range(100):
        lengths = r.integers(1, 9, size=int(r.integers(1, 5)))  # 1-4 packed sequences
        starts = np.cumsum(lengths) - lengths
        x = r.normal(size=(int(lengths.sum()), 5))
        q = cls_model.query_vector(nc.tensor(x), list(zip(starts, starts + lengths)))
        assert np.array_equal(q.data, x[starts])


# ---------------------------------------------------------------------------
# selection

def test_select_singleton_pool():
    keys = random_keys(1, 4, seed=2)
    for seed in range(5):
        q = np.random.default_rng(seed).normal(size=4)
        assert select_one(q, keys).indices == (0,)


def test_select_self_match():
    keys = random_keys(6, 8, seed=3)
    q = keys[3].data.copy()
    assert select_one(q, keys).i_star == 3


def test_select_matches_exhaustive_loop():
    r = np.random.default_rng(4)
    for trial in range(1000):
        size = int(r.integers(1, 9))
        d = int(r.integers(2, 17))
        keys = random_keys(size, d, seed=trial)
        q = r.normal(size=d)
        k = int(r.integers(1, size + 1))
        got = select_one(q, keys, k=k)
        order, scores = brute_force_rank(q, keys)
        assert got.indices == tuple(order[:k])
        assert list(got.scores) == pytest.approx([scores[i] for i in order[:k]], abs=1e-12)
        assert all(a >= b for a, b in zip(got.scores, got.scores[1:]))


def test_select_masked_matches_restricted_loop():
    r = np.random.default_rng(5)
    for trial in range(1000):
        keys = random_keys(8, 6, seed=10_000 + trial)
        q = r.normal(size=6)
        allowed = sorted(r.choice(8, size=3, replace=False).tolist())
        got = select_one(q, keys, 1, allowed)
        order, _ = brute_force_rank(q, keys)
        expected = next(i for i in order if i in allowed)
        assert got.i_star == expected


def test_select_masked_singleton_is_constant():
    keys = random_keys(7, 5, seed=6)
    r = np.random.default_rng(7)
    for _ in range(100):
        q = r.normal(size=5)
        assert select_one(q, keys, 1, [4]).i_star == 4


def test_select_masked_self_match():
    keys = random_keys(6, 8, seed=8)
    q = keys[5].data.copy()
    assert select_one(q, keys, 1, [1, 5]).i_star == 5


def test_select_masked_empty_allowed_rejected():
    keys = random_keys(3, 4, seed=9)
    with pytest.raises(pl.PoolError, match="empty"):
        select_one(np.ones(4), keys, 1, [])


def test_select_zero_query_rejected():
    keys = random_keys(3, 4, seed=10)
    with pytest.raises(pl.PoolError, match="zero"):
        select_one(np.zeros(4), keys)


def test_select_zero_key_rejected():
    keys = make_keys([np.ones(4), np.zeros(4), np.ones(4)])
    with pytest.raises(pl.PoolError, match="key 1 is a zero vector"):
        select_one(np.ones(4), keys)


def test_select_batch_equals_each_row_alone():
    # one (B, N) cosine matrix per batch; each row's indices and scores are
    # bit-equal to selecting that row alone, masked or not
    r = np.random.default_rng(13)
    for rows in range(1, 34):
        size = int(r.integers(1, 9))
        d = int(r.choice([2, 7, 32, 64]))
        keys = random_keys(size, d, seed=40_000 + rows)
        q = r.normal(size=(rows, d))
        mask = r.random((rows, size)) < 0.5
        mask[np.arange(rows), r.integers(0, size, rows)] = True
        for k, allowed in ((int(r.integers(1, size + 1)), None), (1, mask)):
            batched = pl.select(q, keys, k, allowed)
            for b, got in enumerate(batched):
                alone = pl.select(q[b:b + 1], keys, k,
                                  None if allowed is None else allowed[b:b + 1])[0]
                assert got.indices == alone.indices
                assert np.array(got.scores).tobytes() == np.array(alone.scores).tobytes()


def test_select_scale_invariance():
    r = np.random.default_rng(11)
    for trial in range(100):
        keys = random_keys(5, 6, seed=20_000 + trial)
        q = r.normal(size=6)
        base = select_one(q, keys, k=3).indices
        assert select_one(q * float(r.uniform(0.01, 100)), keys, k=3).indices == base
        scaled = make_keys([k.data * float(r.uniform(0.01, 100)) for k in keys])
        assert select_one(q, scaled, k=3).indices == base


def test_select_k1_equals_masked_over_everything():
    r = np.random.default_rng(12)
    for trial in range(200):
        keys = random_keys(6, 5, seed=30_000 + trial)
        q = r.normal(size=5)
        assert select_one(q, keys, k=1).i_star == select_one(q, keys, 1, range(6)).i_star


def test_select_tie_breaks_to_lowest_index():
    shared = np.array([1.0, 0.0, 0.0])
    keys = make_keys([shared, shared * 2.0, [0.0, 1.0, 0.0]])
    got = select_one(np.array([3.0, 0.0, 0.0]), keys, k=2)
    assert got.indices == (0, 1)  # equal cosines, index order decides


def test_select_k_out_of_range():
    keys = random_keys(3, 4, seed=13)
    with pytest.raises(pl.PoolError, match="k must"):
        select_one(np.ones(4), keys, k=4)


# ---------------------------------------------------------------------------
# adaptation

def test_adapt_shape_arithmetic():
    r = np.random.default_rng(14)
    pool = pl.init_random(7, (5, 8), r)
    x_e = nc.tensor(r.normal(size=(12, 8)))
    adapted = pl.adapt([pl.Selection((2,), (0.5,))], pool, x_e, [(0, 12)])
    assert adapted.matrix.shape == (17, 8)
    assert adapted.prompt_len == 5


def test_adapt_tail_rows_equal_embeddings_bitwise():
    r = np.random.default_rng(15)
    pool = pl.init_random(4, (3, 6), r)
    x_e = nc.tensor(r.normal(size=(9, 6)))
    adapted = pl.adapt([pl.Selection((1, 3), (0.9, 0.1))], pool, x_e, [(0, 9)])
    assert adapted.prompt_len == 6
    assert np.array_equal(adapted.matrix.data[6:], x_e.data)
    assert np.array_equal(adapted.matrix.data[:3], pool[1].data)
    assert np.array_equal(adapted.matrix.data[3:6], pool[3].data)


def test_adapt_gradient_flows_only_into_selected_matrices():
    r = np.random.default_rng(16)
    pool = pl.init_random(5, (4, 6), r)
    x_e = nc.tensor(r.normal(size=(7, 6)))
    adapted = pl.adapt([pl.Selection((2,), (1.0,))], pool, x_e, [(0, 7)])
    nc.backward(nc.sum_all(nc.gather_rows(adapted.matrix, range(adapted.prompt_len))))
    assert pool[2].grad is not None
    assert np.abs(pool[2].grad).max() > 0
    for j in (0, 1, 3, 4):
        assert pool[j].grad is None


def test_adapt_dimension_mismatch():
    r = np.random.default_rng(17)
    pool = pl.init_random(3, (2, 8), r)
    with pytest.raises(pl.PoolError, match="width"):
        pl.adapt([pl.Selection((0,), (1.0,))], pool, nc.tensor(np.zeros((4, 6))), [(0, 4)])


def test_surrogate_similarity_mean_over_selection():
    r = np.random.default_rng(18)
    keys = random_keys(4, 5, seed=18)
    q = nc.tensor(r.normal(size=(1, 5)))
    sel = pl.Selection((0, 2), (0.0, 0.0))
    phi = pl.surrogate_similarity(q, keys, [sel])
    a = nc.cosine_similarity(nc.tensor(q.data[0]), keys[0]).item()
    b = nc.cosine_similarity(nc.tensor(q.data[0]), keys[2]).item()
    assert phi.item() == pytest.approx((a + b) / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# language assignment

def test_default_assignment_contiguous_blocks():
    assignment = pl.LanguageAssignment.default(per_language=2)
    assert assignment.indices_for(LANGUAGES[0]) == (0, 1)
    assert assignment.indices_for(LANGUAGES[6]) == (12, 13)
    all_indices = [i for lang in LANGUAGES for i in assignment.indices_for(lang)]
    assert sorted(all_indices) == list(range(14))


def test_assignment_validation_catches_missing_language():
    mapping = {lang: (i,) for i, lang in enumerate(LANGUAGES) if lang is not Language.GO}
    with pytest.raises(pl.PoolError, match="Go"):
        pl.LanguageAssignment(mapping).indices_for(Language.GO)


def test_reinit_zero_keys():
    keys = make_keys([np.zeros(4), np.ones(4)])
    redone = pl.reinit_zero_keys(keys, np.random.default_rng(19))
    assert redone == [0]
    assert np.linalg.norm(keys[0].data) > 0
