import math

import numpy as np
import pytest

from vulnpool import numcore as nc


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# forward values

def test_cosine_identical_vectors():
    for seed in range(5):
        v = nc.tensor(rng(seed).normal(size=8))
        assert nc.cosine_similarity(v, v).item() == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    a = nc.tensor([1.0, 0.0])
    b = nc.tensor([0.0, 1.0])
    assert nc.cosine_similarity(a, b).item() == pytest.approx(0.0, abs=1e-12)


def test_cosine_closed_form():
    a = nc.tensor([1.0, 0.0])
    b = nc.tensor([1.0, 1.0])
    assert nc.cosine_similarity(a, b).item() == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        nc.cosine_similarity(nc.tensor([0.0, 0.0]), nc.tensor([1.0, 0.0]))


def test_cosine_scale_invariance():
    r = rng(1)
    for _ in range(50):
        a = nc.tensor(r.normal(size=6))
        b = nc.tensor(r.normal(size=6))
        c = float(r.uniform(0.1, 10.0))
        base = nc.cosine_similarity(a, b).item()
        scaled = nc.cosine_similarity(a, nc.tensor(b.data * c)).item()
        assert scaled == pytest.approx(base, abs=1e-12)
        assert -1.0 <= base <= 1.0


def attention_weights(q, k):
    """The softmax weights of one-head attention over one segment: with
    identity values the output rows are the weight rows."""
    n = q.shape[0]
    eye = nc.tensor(np.eye(n))
    return nc.attention(nc.tensor(q), nc.tensor(k), eye, [(0, n)], 1).data


def test_softmax_rows_sum_to_one_and_positive():
    r = rng(2)
    s = attention_weights(r.normal(size=(5, 5)) * 10, r.normal(size=(5, 5)))
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)
    assert (s > 0).all()


def test_attention_keeps_segments_apart():
    # each segment's output equals attention over that segment alone
    r = rng(4)
    q, k, v = (r.normal(size=(7, 4)) for _ in range(3))
    segments = [(0, 1), (1, 4), (4, 7)]
    packed = nc.attention(nc.tensor(q), nc.tensor(k), nc.tensor(v), segments, 2).data
    for lo, hi in segments:
        alone = nc.attention(nc.tensor(q[lo:hi]), nc.tensor(k[lo:hi]), nc.tensor(v[lo:hi]),
                             [(0, hi - lo)], 2).data
        assert np.allclose(packed[lo:hi], alone, atol=1e-14)
    # a one-row segment attends only to itself: its output is its value row
    assert np.allclose(packed[0], v[0], atol=1e-14)


def test_attention_query_spans_give_the_rows_of_full_attention():
    # queries that are a subset of each segment's rows attend as in full attention
    r = rng(6)
    q, k, v = (r.normal(size=(9, 4)) for _ in range(3))
    segments = [(0, 2), (2, 5), (5, 9)]
    full = nc.attention(nc.tensor(q), nc.tensor(k), nc.tensor(v), segments, 2).data
    picked = [0, 1, 2, 5, 6, 7]
    q_segments = [(0, 2), (2, 3), (3, 6)]
    part = nc.attention(nc.tensor(q[picked]), nc.tensor(k), nc.tensor(v), segments, 2,
                        q_segments).data
    assert part.shape == (6, 4)
    assert np.abs(part - full[picked]).max() < 1e-14
    with pytest.raises(nc.ShapeError, match="2 query segments for 3 key segments"):
        nc.attention(nc.tensor(q[:2]), nc.tensor(k), nc.tensor(v), segments, 2,
                     [(0, 1), (1, 2)])


def attention_backward_reference(q, k, v, g, n_heads):
    """Attention's backward over one segment in its earlier form: the
    softmax backward as one (H, S, S) product and row reduction, with the
    1/sqrt(dh) factor applied to the score gradients."""
    n, d = q.shape
    dh = d // n_heads
    inv_sqrt = 1.0 / math.sqrt(dh)

    def heads(x):
        return x.reshape(n, n_heads, dh).transpose(1, 0, 2)

    def merge(x):
        return x.transpose(1, 0, 2).reshape(n, d)

    qh, kh, vh, gh = heads(q), heads(k), heads(v), heads(g)
    p = qh @ kh.transpose(0, 2, 1) * inv_sqrt
    p = np.exp(p - p.max(axis=2, keepdims=True))
    p /= p.sum(axis=2, keepdims=True)
    ds = gh @ vh.transpose(0, 2, 1)
    ds -= (ds * p).sum(axis=2, keepdims=True)
    ds *= p * inv_sqrt
    return merge(ds @ kh), merge(ds.transpose(0, 2, 1) @ qh), merge(p.transpose(0, 2, 1) @ gh)


def test_attention_backward_matches_reference_formula():
    r = rng(13)
    segments = [(0, 1), (1, 4), (4, 44)]
    q, k, v = (nc.parameter(r.normal(size=(44, 8))) for _ in range(3))
    g = r.normal(size=(44, 8))
    grads = nc.attention(q, k, v, segments, 2)._backward(g)
    for lo, hi in segments:
        expected = attention_backward_reference(q.data[lo:hi], k.data[lo:hi], v.data[lo:hi],
                                                g[lo:hi], 2)
        for got, want in zip(grads, expected):
            assert np.abs(got[lo:hi] - want).max() <= 1e-12, (lo, hi)


def test_linear_equals_product_plus_bias_bit_for_bit():
    r = rng(12)
    for rows, cols in ((1, 8), (5, 32), (64, 16)):
        x, w, b = r.normal(size=(rows, 32)), r.normal(size=(32, cols)), r.normal(size=cols)
        out = nc.linear(nc.tensor(x), nc.tensor(w), nc.tensor(b)).data
        assert np.array_equal(out, x @ w + b)


def test_batched_rows_match_one_at_a_time():
    r = rng(5)
    logits, labels = r.normal(size=(4, 3)), [2, 0, 1, 1]
    ce = nc.cross_entropy_logits(nc.tensor(logits), labels).data
    a, b = r.normal(size=(4, 6)), r.normal(size=(4, 6))
    cos = nc.cosine_similarity(nc.tensor(a), nc.tensor(b)).data
    assert ce.shape == cos.shape == (4,)
    for i in range(4):
        assert ce[i] == pytest.approx(
            nc.cross_entropy_logits(nc.tensor(logits[i]), labels[i]).item(), abs=1e-14)
        assert cos[i] == pytest.approx(
            nc.cosine_similarity(nc.tensor(a[i]), nc.tensor(b[i])).item(), abs=1e-14)


def check_matmul_rowwise_row_invariance(width, cols, dtype, rtol, atol):
    r = rng(width + cols)
    a = r.normal(size=(40, width)).astype(dtype)
    b = nc.tensor(r.normal(size=(width, cols)).astype(dtype))
    alone = [nc.matmul_rowwise(nc.tensor(a[i:i + 1]), b).data[0] for i in range(len(a))]
    assert alone[0].dtype == dtype
    assert np.allclose(np.stack(alone), a @ b.data, rtol=rtol, atol=atol)
    for n in range(1, 34):
        for lo in (0, 40 - n):
            rows = nc.matmul_rowwise(nc.tensor(a[lo:lo + n]), b).data
            assert np.array_equal(rows, np.stack(alone[lo:lo + n])), (n, lo)


ROWWISE_SHAPES = [(16, 2), (32, 2), (64, 2), (32, 64)]


@pytest.mark.parametrize("width, cols", ROWWISE_SHAPES)
def test_matmul_rowwise_rows_do_not_depend_on_row_count(width, cols):
    check_matmul_rowwise_row_invariance(width, cols, np.float64, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("width, cols", ROWWISE_SHAPES)
def test_matmul_rowwise_rows_do_not_depend_on_row_count_float32(width, cols):
    check_matmul_rowwise_row_invariance(width, cols, np.float32, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_products_of_two_or_more_rows_are_row_invariant(dtype):
    # what keeps batched prediction bit-equal to per-sample prediction: an
    # encoder product always has two rows or more, and BLAS then computes a
    # row alike in products of any row count (one-row and two-column
    # products are not, hence matmul_rowwise for the classifier)
    r = rng(17)
    for width, cols in [(16, 16), (16, 32), (32, 64), (64, 128), (128, 64)]:
        a = r.normal(size=(1024, width)).astype(dtype)
        w = nc.tensor(r.normal(size=(width, cols)).astype(dtype))
        b = nc.tensor(r.normal(size=cols).astype(dtype))
        whole = nc.linear(nc.tensor(a), w, b).data
        assert whole.dtype == dtype
        for n in (2, 3, 5, 8, 17, 33, 64, 129, 256, 511, 1000):
            for lo in (0, (1024 - n) // 3, 1024 - n):
                rows = nc.linear(nc.tensor(a[lo:lo + n]), w, b).data
                assert np.array_equal(rows, whole[lo:lo + n]), (width, cols, n, lo)


def test_segment_mean_values():
    x = rng(6).normal(size=(6, 3))
    out = nc.segment_mean(nc.tensor(x), [(0, 2), (2, 3), (4, 6)]).data
    assert np.array_equal(out, np.stack([x[0:2].mean(axis=0), x[2], x[4:6].mean(axis=0)]))
    with pytest.raises(nc.ShapeError, match="segment"):
        nc.segment_mean(nc.tensor(x), [(2, 4), (3, 5)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("segments", [
    [(0, 3), (3, 10), (10, 11), (11, 40)],  # ragged, back to back
    [(1, 3), (4, 9), (12, 40)],  # ragged, with gaps
    [(0, 5), (5, 10), (10, 15), (15, 20)],  # back-to-back blocks of one length
    [(0, 1), (2, 3), (4, 5)],  # one length with gaps, as the pooled prompt rows of 1
    [(3, 40)],  # one range
], ids=["ragged", "ragged_gaps", "blocks", "blocks_gaps", "single"])
def test_segment_mean_bit_equal_to_per_slice_sums(segments, dtype):
    x = rng(12).normal(size=(40, 24)).astype(dtype)
    g = rng(13).normal(size=(len(segments), 24)).astype(dtype)
    out = nc.segment_mean(nc.parameter(x), segments)
    want = np.stack([x[lo:hi].sum(axis=0) / (hi - lo) for lo, hi in segments])
    assert out.data.dtype == dtype and np.array_equal(out.data, want)
    want_grad = np.zeros_like(x)
    for (lo, hi), row in zip(segments, g):
        want_grad[lo:hi] = row / (hi - lo)
    (grad,) = out._backward(g)
    assert grad.dtype == dtype and np.array_equal(grad, want_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prepend_rows_equals_the_gather_over_a_concatenated_table(dtype):
    # the two-op form it replaces: the picked blocks and x stacked into one
    # table, and one gather of each sequence's rows
    r = rng(14)
    blocks = [nc.parameter(r.normal(size=(3, 5)).astype(dtype)) for _ in range(6)]
    x = nc.parameter(r.normal(size=(19, 5)).astype(dtype))
    segments = [(0, 4), (4, 5), (5, 13), (13, 19)]
    picks = np.array([[4, 1], [1, 1], [4, 0], [1, 4]])
    out = nc.prepend_rows(x, segments, blocks, picks)

    used = [0, 1, 4]
    table = nc.concat_rows([blocks[i] for i in used] + [x])
    rows = []
    for (lo, hi), row in zip(segments, picks):
        for i in row:
            rows += range(3 * used.index(i), 3 * used.index(i) + 3)
        rows += range(9 + lo, 9 + hi)
    ref = nc.gather_rows(table, rows)
    assert out.data.dtype == dtype and np.array_equal(out.data, ref.data)

    grads = []
    for y in (out, ref):
        for t in blocks + [x]:
            t.grad = None
        nc.backward(scalarize(y))
        grads.append([t.grad for t in blocks + [x]])
    for got, want in zip(*grads):
        assert (got is None) == (want is None)
        assert got is None or (got.dtype == dtype and np.array_equal(got, want))
    assert [g is None for g in grads[0][:6]] == [False, False, True, True, False, True]


def test_prepend_rows_rejects_what_it_cannot_place():
    blocks = [nc.tensor(np.zeros((2, 3))) for _ in range(2)]
    x = nc.tensor(np.zeros((5, 3)))
    with pytest.raises(IndexError, match="pick out of range"):
        nc.prepend_rows(x, [(0, 5)], blocks, [[2]])
    with pytest.raises(nc.ShapeError, match="do not tile"):
        nc.prepend_rows(x, [(0, 2), (3, 5)], blocks, [[0], [1]])
    with pytest.raises(nc.ShapeError, match="picks"):
        nc.prepend_rows(x, [(0, 5)], blocks, [[0], [1]])
    with pytest.raises(nc.ShapeError, match="blocks"):
        nc.prepend_rows(nc.tensor(np.zeros((5, 4))), [(0, 5)], blocks, [[0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_rows_of_unique_ids_assigns_the_scatter_add(dtype):
    r = rng(15)
    table = nc.parameter(r.normal(size=(9, 4)).astype(dtype))
    ids = [7, 0, 3, 4, 8]
    g = r.normal(size=(5, 4)).astype(dtype)
    (added,) = nc.gather_rows(table, ids)._backward(g)
    (assigned,) = nc.gather_rows(table, ids, unique=True)._backward(g)
    assert assigned.dtype == added.dtype == dtype and np.array_equal(assigned, added)


def test_layer_norm_standardizes_rows():
    x = nc.tensor(rng(3).normal(size=(4, 16)) * 3 + 2)
    gamma = nc.tensor(np.ones(16))
    beta = nc.tensor(np.zeros(16))
    out = nc.layer_norm(x, gamma, beta).data
    assert np.abs(out.mean(axis=1)).max() < 1e-7
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-5


def test_cross_entropy_uniform_logits_is_log2():
    loss = nc.cross_entropy_logits(nc.tensor([0.0, 0.0]), 1)
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_cross_entropy_stable_on_large_logits():
    loss = nc.cross_entropy_logits(nc.tensor([1000.0, -1000.0]), 0)
    assert math.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_shape_errors_name_both_shapes():
    a = nc.tensor(np.zeros((2, 3)))
    b = nc.tensor(np.zeros((4, 5)))
    with pytest.raises(nc.ShapeError, match=r"linear: .*\(2, 3\).*\(4, 5\)"):
        nc.linear(a, b, nc.tensor(np.zeros(5)))
    with pytest.raises(nc.ShapeError, match=r"linear: .*\(3, 4\).*\(5,\)"):
        nc.linear(a, nc.tensor(np.zeros((3, 4))), nc.tensor(np.zeros(5)))
    with pytest.raises(nc.ShapeError, match=r"matmul_rowwise: .*\(2, 3\).*\(4, 5\)"):
        nc.matmul_rowwise(a, b)
    with pytest.raises(nc.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        nc.add(a, b)


# ---------------------------------------------------------------------------
# backward

def test_backward_of_sum_is_ones():
    x = nc.parameter([1.0, 2.0, 3.0])
    nc.backward(nc.sum_all(x))
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_requires_scalar():
    x = nc.parameter(np.ones((2, 2)))
    with pytest.raises(nc.ShapeError, match="scalar"):
        nc.backward(nc.add(x, x))


def test_backward_accumulates_until_reset():
    x = nc.parameter([1.0, 2.0])
    nc.backward(nc.sum_all(x))
    nc.backward(nc.sum_all(x))
    assert np.array_equal(x.grad, 2 * np.ones(2))
    x.grad = None
    nc.backward(nc.sum_all(x))
    assert np.array_equal(x.grad, np.ones(2))


def test_no_grad_suppresses_graph():
    x = nc.parameter([1.0, 2.0])
    with nc.no_grad():
        y = nc.sum_all(x)
    assert y._backward is None
    assert not y.requires_grad


# ---------------------------------------------------------------------------
# finite-difference verification of every op

def scalarize(t):
    """A scalar probe of `t`: the softmax cross-entropy of each row against a
    fixed label, summed. Its upstream gradient differs from coordinate to
    coordinate, unlike a plain sum's."""
    labels = np.arange(t.shape[0]) % t.shape[1] if t.data.ndim == 2 else 0
    return nc.sum_all(nc.cross_entropy_logits(t, labels))


def _check(f, x, tol=1e-6):
    report = nc.grad_check(f, x, eps=1e-5, tol=tol)
    assert report.passed, (
        f"max_relative_error={report.max_relative_error:.3e} "
        f"at {report.worst_coordinate}"
    )
    return report


def test_grad_check_linear_is_exact():
    x = nc.parameter(rng(4).normal(size=5))
    report = _check(lambda t: nc.sum_all(t), x, tol=1e-10)
    assert report.max_relative_error < 1e-10


def test_grad_check_cross_entropy_r2():
    x = nc.parameter(rng(5).normal(size=2))
    _check(lambda t: nc.cross_entropy_logits(t, 1), x)


@pytest.mark.parametrize(
    "name",
    ["linear_x", "linear_w", "linear_b", "matmul_rowwise_a", "matmul_rowwise_b",
     "add_bias", "scale", "sub",
     "layer_norm_x", "layer_norm_g", "layer_norm_b", "gelu",
     "concat_rows", "concat_rows_vector", "gather_rows", "gather_rows_unique",
     "prepend_rows_x", "prepend_rows_block",
     "cosine_a", "cosine_b", "cosine_rows_a", "cosine_rows_b",
     "segment_mean", "segment_mean_blocks", "cross_entropy_rows",
     "attention_q", "attention_k", "attention_v",
     "attention_short_q", "attention_short_q_k", "attention_short_q_v"],
)
def test_grad_check_each_op(name):
    r = rng(sum(ord(c) for c in name))  # stable across processes
    other = nc.tensor(r.normal(size=(4, 3)))
    vec = nc.tensor(r.normal(size=4))
    mat53 = nc.tensor(r.normal(size=(5, 3)))
    mat45 = nc.tensor(r.normal(size=(4, 5)))
    mat36 = nc.tensor(r.normal(size=(3, 6)))
    vec6a = nc.tensor(r.normal(size=6))
    vec6b = nc.tensor(r.normal(size=6))
    mat45b = nc.tensor(r.normal(size=(4, 5)))
    vec3 = nc.tensor(r.normal(size=3))
    qkv = [nc.tensor(r.normal(size=(6, 4))) for _ in range(3)]
    mat24, mat24b = (nc.tensor(r.normal(size=(2, 4))) for _ in range(2))
    # three segments of unequal length, one of them a single row
    segments = [(0, 1), (1, 4), (4, 6)]

    def attend(x, slot):
        args = [x if i == slot else t for i, t in enumerate(qkv)]
        return scalarize(nc.attention(*args, segments, 2))

    # query spans shorter than their key spans: 1, 2 and 1 of 1, 3 and 2 rows
    q_short = nc.tensor(r.normal(size=(4, 4)))
    q_segments = [(0, 1), (1, 3), (3, 4)]

    def attend_short(x, slot):
        args = [x if i == slot else t for i, t in enumerate([q_short] + qkv[1:])]
        return scalarize(nc.attention(*args, segments, 2, q_segments))

    cases = {
        "linear_x": ((4, 5), lambda x: scalarize(nc.linear(x, mat53, vec3))),
        "linear_w": ((5, 3), lambda x: scalarize(nc.linear(mat45, x, vec3))),
        "linear_b": ((3,), lambda x: scalarize(nc.linear(mat45, mat53, x))),
        "matmul_rowwise_a": ((4, 5), lambda x: scalarize(nc.matmul_rowwise(x, mat53))),
        "matmul_rowwise_b": ((5, 3), lambda x: scalarize(nc.matmul_rowwise(mat45, x))),
        "add_bias": ((3,), lambda x: scalarize(nc.add(other, x))),
        "scale": ((4, 3), lambda x: scalarize(nc.scale(x, -2.5))),
        "sub": ((4, 3), lambda x: scalarize(nc.sub(x, other))),
        "layer_norm_x": ((3, 6), lambda x: scalarize(nc.layer_norm(x, vec6a, vec6b))),
        "layer_norm_g": ((6,), lambda g: scalarize(nc.layer_norm(mat36, g,
                                                                 nc.tensor(np.zeros(6))))),
        "layer_norm_b": ((6,), lambda b: scalarize(nc.layer_norm(mat36, nc.tensor(np.ones(6)),
                                                                 b))),
        "gelu": ((4, 3), lambda x: scalarize(nc.gelu(x))),
        "concat_rows": ((2, 3), lambda x: scalarize(nc.concat_rows([x, other]))),
        "concat_rows_vector": ((3,), lambda x: scalarize(nc.concat_rows([other, x, x]))),
        "gather_rows": ((5, 3), lambda x: scalarize(nc.gather_rows(x, [0, 2, 2, 4]))),
        "gather_rows_unique": ((5, 3), lambda x: scalarize(
            nc.gather_rows(x, [4, 0, 2], unique=True))),
        # sequences of 1, 3 and 2 rows; a block picked twice for one sequence
        "prepend_rows_x": ((6, 4), lambda x: scalarize(nc.prepend_rows(
            x, segments, [mat24, mat24b], [[1, 0], [1, 1], [0, 1]]))),
        "prepend_rows_block": ((2, 4), lambda b: scalarize(nc.prepend_rows(
            qkv[0], segments, [mat24, b, mat24b], [[1, 0], [1, 1], [2, 1]]))),
        "cosine_a": ((4,), lambda x: nc.cosine_similarity(x, vec)),
        "cosine_b": ((4,), lambda x: nc.cosine_similarity(vec, x)),
        "cosine_rows_a": ((4, 5), lambda x: scalarize(nc.cosine_similarity(x, mat45b))),
        "cosine_rows_b": ((4, 5), lambda x: scalarize(nc.cosine_similarity(mat45b, x))),
        "segment_mean": ((6, 3), lambda x: scalarize(
            nc.segment_mean(x, [(0, 2), (2, 3), (4, 6)]))),
        "segment_mean_blocks": ((6, 3), lambda x: scalarize(
            nc.segment_mean(x, [(0, 2), (2, 4), (4, 6)]))),
        "cross_entropy_rows": ((4, 3), lambda x: nc.sum_all(
            nc.cross_entropy_logits(x, [2, 0, 1, 1]))),
        "attention_q": ((6, 4), lambda x: attend(x, 0)),
        "attention_k": ((6, 4), lambda x: attend(x, 1)),
        "attention_v": ((6, 4), lambda x: attend(x, 2)),
        "attention_short_q": ((4, 4), lambda x: attend_short(x, 0)),
        "attention_short_q_k": ((6, 4), lambda x: attend_short(x, 1)),
        "attention_short_q_v": ((6, 4), lambda x: attend_short(x, 2)),
    }
    shape, f = cases[name]
    _check(f, nc.parameter(r.normal(size=shape)))


def test_grad_check_rejects_what_it_cannot_resolve():
    f = lambda t: nc.sum_all(t)  # noqa: E731
    for dtype in (np.float32, np.float16):
        with pytest.raises(ValueError, match=f"must be float64, got {np.dtype(dtype).name}"):
            nc.grad_check(f, nc.parameter(np.ones(3, dtype=dtype)))


def test_grad_check_three_layer_composition():
    r = rng(11)
    w1, b1 = nc.tensor(r.normal(size=(6, 8))), nc.tensor(r.normal(size=8))
    w2, b2 = nc.tensor(r.normal(size=(8, 4))), nc.tensor(r.normal(size=4))
    gamma = nc.tensor(np.ones(4))
    beta = nc.tensor(np.zeros(4))

    def f(x):
        h = nc.gelu(nc.linear(x, w1, b1))
        h = nc.layer_norm(nc.linear(h, w2, b2), gamma, beta)
        return scalarize(nc.attention(h, h, h, [(0, 3)], 2))

    x = nc.parameter(r.normal(size=(3, 6)))
    _check(f, x)


def test_gradients_flow_through_shared_subexpression():
    # same tensor used twice: gradients from both paths must accumulate
    x = nc.parameter([1.0, 2.0])
    y = nc.sum_all(nc.add(nc.scale(x, 3.0), x))  # d/dx = 3 + 1
    nc.backward(y)
    assert np.array_equal(x.grad, np.full(2, 4.0))


def test_grad_check_retry_ladder_rescues_coarse_step():
    # around the gelu knee a 5e-3 probe step is truncation-limited; the
    # finer retry step recovers agreement with the analytic gradient
    def f(t):
        return scalarize(nc.gelu(nc.scale(t, 10.0)))

    x = nc.parameter(rng(31).normal(size=6) * 0.15)
    coarse = nc.grad_check(f, x, eps=5e-3, tol=1e-6)
    assert not coarse.passed
    rescued = nc.grad_check(f, x, eps=5e-3, tol=1e-6, retry_eps=(1e-5,))
    assert rescued.passed


def test_grad_check_retry_does_not_mask_wrong_gradients():
    # a gradient that is analytically wrong fails at every probe step
    def f(t):
        out = scalarize(t)
        broken = nc.Tensor(out.data)
        broken.requires_grad = True
        broken._parents = (t,)
        broken._backward = lambda g: (np.full_like(t.data, 123.0),)
        return broken

    x = nc.parameter(rng(32).normal(size=4) + 3.0)
    report = nc.grad_check(f, x, eps=1e-5, tol=1e-4, retry_eps=(1e-4, 1e-3))
    assert not report.passed


def test_allocator_setting_skipped_where_libc_has_no_mallopt(monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(nc.ctypes, "CDLL", NoMallopt)
    nc._keep_freed_heap()  # not glibc: nothing is set and nothing raises


def test_trim_threshold_not_set_when_mmap_threshold_rejected(monkeypatch):
    calls = []

    class Mallopt:
        def __call__(self, param, value):
            calls.append(param)
            return 0  # rejected, as glibc does for a threshold above its limit

    class RejectingLibc:
        def __init__(self, name):
            self.mallopt = Mallopt()

    monkeypatch.setattr(nc.ctypes, "CDLL", RejectingLibc)
    nc._keep_freed_heap()
    assert calls == [nc._M_MMAP_THRESHOLD]  # trim alone would mmap every array > 128 KiB
