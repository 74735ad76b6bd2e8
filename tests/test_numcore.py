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


def test_softmax_rows_sum_to_one_and_positive():
    x = nc.tensor(rng(2).normal(size=(5, 7)) * 10)
    s = nc.softmax_rows(x).data
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)
    assert (s > 0).all()


def test_softmax_handles_minus_inf():
    x = nc.tensor([[1.0, float("-inf"), 2.0]])
    s = nc.softmax_rows(x).data
    assert s[0, 1] == 0.0
    assert s[0].sum() == pytest.approx(1.0, abs=1e-12)


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
    with pytest.raises(nc.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        nc.matmul(a, b)
    with pytest.raises(nc.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        nc.add(a, b)


# ---------------------------------------------------------------------------
# backward

def test_backward_of_sum_is_ones():
    x = nc.parameter([1.0, 2.0, 3.0])
    nc.backward(nc.sum_all(x))
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_of_dot_square_is_2x():
    x = nc.parameter([1.0, -2.0, 0.5])
    nc.backward(nc.dot(x, x))
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_requires_scalar():
    x = nc.parameter(np.ones((2, 2)))
    with pytest.raises(nc.ShapeError, match="scalar"):
        nc.backward(nc.add(x, x))


def test_backward_accumulates_until_reset():
    x = nc.parameter([1.0, 2.0])
    nc.backward(nc.sum_all(x))
    nc.backward(nc.sum_all(x))
    assert np.array_equal(x.grad, 2 * np.ones(2))
    x.zero_grad()
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
    ["matmul_a", "matmul_b", "vec_matmul", "add_bias", "mul", "scale", "sub",
     "softmax", "layer_norm_x", "layer_norm_g", "layer_norm_b", "gelu",
     "mean_rows", "select_row", "slice_rows", "slice_cols", "concat_rows",
     "concat_cols", "transpose", "gather_rows", "cosine_a", "cosine_b", "dot",
     "add_n"],
)
def test_grad_check_each_op(name):
    r = rng(sum(ord(c) for c in name))  # stable across processes
    other = nc.tensor(r.normal(size=(4, 3)))
    vec = nc.tensor(r.normal(size=4))
    mat43 = nc.tensor(r.normal(size=(4, 3)))
    mat53 = nc.tensor(r.normal(size=(5, 3)))
    mat45 = nc.tensor(r.normal(size=(4, 5)))
    mat36 = nc.tensor(r.normal(size=(3, 6)))
    vec6a = nc.tensor(r.normal(size=6))
    vec6b = nc.tensor(r.normal(size=6))

    def scalarize(t):
        return nc.sum_all(nc.mul(t, t)) if t.data.ndim else nc.mul(t, t)

    cases = {
        "matmul_a": ((4, 5), lambda x: scalarize(nc.matmul(x, mat53))),
        "matmul_b": ((5, 3), lambda x: scalarize(nc.matmul(mat45, x))),
        "vec_matmul": ((4,), lambda x: scalarize(nc.vec_matmul(x, mat43))),
        "add_bias": ((3,), lambda x: scalarize(nc.add(other, x))),
        "mul": ((4, 3), lambda x: scalarize(nc.mul(x, other))),
        "scale": ((4, 3), lambda x: scalarize(nc.scale(x, -2.5))),
        "sub": ((4, 3), lambda x: scalarize(nc.sub(x, other))),
        "softmax": ((3, 4), lambda x: scalarize(nc.softmax_rows(x))),
        "layer_norm_x": ((3, 6), lambda x: scalarize(nc.layer_norm(x, vec6a, vec6b))),
        "layer_norm_g": ((6,), lambda g: scalarize(nc.layer_norm(mat36, g,
                                                                 nc.tensor(np.zeros(6))))),
        "layer_norm_b": ((6,), lambda b: scalarize(nc.layer_norm(mat36, nc.tensor(np.ones(6)),
                                                                 b))),
        "gelu": ((4, 3), lambda x: scalarize(nc.gelu(x))),
        "mean_rows": ((5, 3), lambda x: scalarize(nc.mean_rows(x))),
        "select_row": ((4, 3), lambda x: scalarize(nc.select_row(x, 2))),
        "slice_rows": ((5, 3), lambda x: scalarize(nc.slice_rows(x, 1, 4))),
        "slice_cols": ((4, 5), lambda x: scalarize(nc.slice_cols(x, 0, 2))),
        "concat_rows": ((2, 3), lambda x: scalarize(nc.concat_rows([x, other]))),
        "concat_cols": ((4, 2), lambda x: scalarize(nc.concat_cols([x, other]))),
        "transpose": ((4, 3), lambda x: scalarize(nc.transpose(x))),
        "gather_rows": ((5, 3), lambda x: scalarize(nc.gather_rows(x, [0, 2, 2, 4]))),
        "cosine_a": ((4,), lambda x: nc.cosine_similarity(x, vec)),
        "cosine_b": ((4,), lambda x: nc.cosine_similarity(vec, x)),
        "dot": ((4,), lambda x: nc.dot(x, x)),
        "add_n": ((4, 3), lambda x: scalarize(nc.add_n([x, other, x]))),
    }
    shape, f = cases[name]
    _check(f, nc.parameter(r.normal(size=shape)))


def test_grad_check_three_layer_composition():
    r = rng(11)
    w1 = nc.tensor(r.normal(size=(6, 8)))
    w2 = nc.tensor(r.normal(size=(8, 4)))
    gamma = nc.tensor(np.ones(4))
    beta = nc.tensor(np.zeros(4))

    def f(x):
        h = nc.gelu(nc.matmul(x, w1))
        h = nc.layer_norm(nc.matmul(h, w2), gamma, beta)
        s = nc.softmax_rows(h)
        return nc.sum_all(nc.mul(s, s))

    x = nc.parameter(r.normal(size=(3, 6)))
    _check(f, x)


def test_gradients_flow_through_shared_subexpression():
    # same tensor used twice: gradients from both paths must accumulate
    x = nc.parameter([1.0, 2.0])
    y = nc.add(nc.dot(x, x), nc.sum_all(x))  # d/dx = 2x + 1
    nc.backward(y)
    assert np.allclose(x.grad, 2 * x.data + 1)


def test_grad_check_retry_ladder_rescues_coarse_step():
    # around the gelu knee a 5e-3 probe step is truncation-limited; the
    # finer retry step recovers agreement with the analytic gradient
    def f(t):
        s = nc.gelu(nc.scale(t, 10.0))
        return nc.sum_all(nc.mul(s, s))

    x = nc.parameter(rng(31).normal(size=6) * 0.15)
    coarse = nc.grad_check(f, x, eps=5e-3, tol=1e-6)
    assert not coarse.passed
    rescued = nc.grad_check(f, x, eps=5e-3, tol=1e-6, retry_eps=(1e-5,))
    assert rescued.passed


def test_grad_check_retry_does_not_mask_wrong_gradients():
    # a gradient that is analytically wrong fails at every probe step
    def f(t):
        out = nc.sum_all(nc.mul(t, t))
        broken = nc.Tensor(out.data)
        broken.requires_grad = True
        broken._parents = (t,)
        broken._backward = lambda g: (np.full_like(t.data, 123.0),)
        return broken

    x = nc.parameter(rng(32).normal(size=4) + 3.0)
    report = nc.grad_check(f, x, eps=1e-5, tol=1e-4, retry_eps=(1e-4, 1e-3))
    assert not report.passed
