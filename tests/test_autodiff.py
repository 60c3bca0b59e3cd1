"""Reverse-mode gradients against central finite differences."""

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg import warp
from sphreg.discrete_reg import build_label_sets
from sphreg.icosphere import generate_icosphere
from sphreg.training import TrainConfig, register_pair, synth_dataset, train


def fd_grad(fn, x, step=1e-6):
    """Central finite-difference gradient of a scalar fn at x."""
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = fn(x)
        xf[i] = orig - step
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * step)
    return grad


def check(fn, x, step=1e-6, tol=1e-6):
    t = ag.Tensor(x.copy())
    out = fn(t)
    loss = ag.reduce_sum(out) if out.value.ndim else out
    loss.backward()
    numeric = fd_grad(lambda v: float(np.sum(ag.value_of(fn(ag.Tensor(v))))),
                      x.copy(), step)
    denom = np.maximum(np.abs(numeric), 1e-3)
    err = np.abs(t.grad - numeric) / denom
    assert err.max() < tol, f"max rel err {err.max():.3e}"


def test_plain_arrays_pass_through():
    a = np.ones((2, 3))
    assert isinstance(ag.add(a, a), np.ndarray)
    assert isinstance(ag.mul(a, 2.0), np.ndarray)
    assert isinstance(ag.softmax_rows(a), np.ndarray)


_RNG = np.random.default_rng(12)
_X = 0.5 + _RNG.random((4, 3))     # positive rows of norm > 0.5
_Y = 0.5 + _RNG.random((4, 3))
_IDX = np.array([3, 0, 0, 2])          # _X's rows, or their five segments

# one call per public op on float operands; every operand is wrapped as a
# Tensor in the recorded call and passed as a plain array in the other
PLAIN_CASES = {
    "add": (ag.add, (_X, _Y)),
    "sub": (ag.sub, (_X, _Y)),
    "mul": (ag.mul, (_X, _Y)),
    "div": (ag.div, (_X, _Y)),
    "matmul": (ag.matmul, (_X, _Y.T)),
    "einsum2": (lambda a, b: ag.einsum2("ij,kj->ik", a, b), (_X, _Y)),
    "exp": (ag.exp, (_X,)),
    "log": (ag.log, (_X,)),
    "sqrt": (ag.sqrt, (_X,)),
    "square": (ag.square, (_X,)),
    "absolute": (ag.absolute, (_X - 1.0,)),
    "relu": (ag.relu, (_X - 1.0,)),
    "leaky_relu": (ag.leaky_relu, (_X - 1.0,)),
    "elu": (ag.elu, (_X - 1.0,)),
    "reduce_sum": (lambda x: ag.reduce_sum(x, axis=1), (_X,)),
    "reduce_mean": (lambda x: ag.reduce_mean(x, axis=0, keepdims=True), (_X,)),
    "concat": (lambda a, b: ag.concat([a, b], axis=1), (_X, _Y)),
    "reshape": (lambda x: ag.reshape(x, (3, 4)), (_X,)),
    "take_rows": (lambda x: ag.take_rows(x, _IDX), (_X,)),
    "slice_rows": (lambda x: ag.slice_rows(x, 1, 3), (_X,)),
    "segment_sum": (lambda x: ag.segment_sum(x, _IDX, 5), (_X,)),
    "softmax_rows": (ag.softmax_rows, (_X,)),
    "row_normalize": (ag.row_normalize, (_X,)),
    "sinc_sq": (ag.sinc_sq, (_X,)),
    "cosc_sq": (ag.cosc_sq, (_X,)),
    "cross": (ag.cross, (_X, _Y)),
}


HELPERS = {"Tensor", "parameter", "value_of", "is_tensor", "record",
           "accumulate"}


def test_plain_cases_cover_every_public_op():
    assert set(PLAIN_CASES) == set(ag.__all__) - HELPERS


def test_every_public_op_is_reached(monkeypatch):
    # an op that neither training nor registration calls is dead code
    calls = dict.fromkeys(set(ag.__all__) - HELPERS, 0)

    def counting(name, op):
        def call(*args, **kwargs):
            calls[name] += 1
            return op(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(ag, name, counting(name, getattr(ag, name)))
    config = TrainConfig(epochs=1)
    pairs = synth_dataset(3, config, 0)
    model, _ = train(config, pairs[:2], pairs[2:])
    register_pair(model, config, pairs[2].moving, pairs[2].fixed)
    assert [name for name, count in sorted(calls.items()) if not count] == []


@pytest.mark.parametrize("name", sorted(PLAIN_CASES))
def test_plain_call_returns_the_recorded_value_bitwise(name):
    fn, args = PLAIN_CASES[name]
    plain = fn(*args)
    recorded = fn(*(ag.Tensor(a) for a in args))
    assert type(plain) is np.ndarray
    assert ag.is_tensor(recorded)
    assert plain.dtype == recorded.value.dtype == np.float64
    assert plain.shape == recorded.value.shape
    assert plain.tobytes() == recorded.value.tobytes()


def test_tensor_in_tensor_out():
    t = ag.Tensor(np.ones((2, 2)))
    assert ag.is_tensor(ag.add(t, 1.0))
    assert ag.is_tensor(ag.softmax_rows(t))


def test_add_mul_chain_gradient():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((4, 3))
    check(lambda t: ag.mul(ag.add(t, 2.0), w), x)


def test_matmul_gradient():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal((4, 3))
    check(lambda t: ag.matmul(t, w), x)


def test_einsum2_gradient_both_args():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 3, 2))
    b = rng.standard_normal((6, 2))
    check(lambda t: ag.einsum2("tij,tj->ti", t, b), a)
    check(lambda t: ag.einsum2("tij,tj->ti", a, t), b)


def test_unary_gradients():
    rng = np.random.default_rng(3)
    x = 0.5 + rng.random((3, 3))
    check(ag.exp, x)
    check(ag.log, x)
    check(ag.sqrt, x)
    check(ag.square, x)


def test_relu_and_leaky_gradient_away_from_kink():
    x = np.array([[-2.0, -0.5], [0.5, 2.0]])
    check(ag.relu, x)
    check(ag.leaky_relu, x)


def test_reduce_ops_gradient():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 5))
    check(lambda t: ag.reduce_sum(t, axis=0), x)
    check(lambda t: ag.reduce_mean(t, axis=1), x)


def test_take_rows_and_segment_sum_gradient():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 3))
    idx = np.array([0, 0, 2, 5, 3])
    seg = np.array([0, 1, 1, 0, 2])
    check(lambda t: ag.segment_sum(ag.take_rows(t, idx), seg, 3), x)


def test_concat_and_slice_gradient():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 2))
    check(lambda t: ag.concat([ag.slice_rows(t, 0, 3),
                               ag.slice_rows(t, 2, 5)], axis=0), x)


def test_softmax_rows_gradient_and_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 4))
    probs = ag.softmax_rows(x)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    w = rng.standard_normal((5, 4))
    check(lambda t: ag.mul(ag.softmax_rows(t), w), x)


def test_row_normalize_gradient_and_unit_row_snap():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3)) * 2.0
    out = ag.row_normalize(x)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    assert ag.row_normalize(unit.copy()) is not unit  # copies, but ...
    np.testing.assert_array_equal(ag.row_normalize(unit.copy()), unit)
    w = rng.standard_normal((5, 3))
    check(lambda t: ag.mul(ag.row_normalize(t), w), x)


def test_cross_gradient():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    check(lambda t: ag.cross(t, b), a)
    check(lambda t: ag.cross(a, t), b)


def test_cross_records_one_node(tape_counter):
    a, b = ag.Tensor(_X), ag.Tensor(_Y)
    tape_counter["nodes"] = 0
    out = ag.cross(a, b)
    assert tape_counter["nodes"] == 1
    assert out.parents == (a, b)


def test_smooth_rotation_kernels_match_reference_values():
    t = np.array([1e-18, 1e-9, 1e-4, 0.25, 1.0, 4.0])
    root = np.sqrt(t)
    np.testing.assert_allclose(ag.value_of(ag.sinc_sq(t)),
                               np.sin(root) / root, rtol=1e-12)
    np.testing.assert_allclose(ag.value_of(ag.cosc_sq(t))[3:],
                               (1 - np.cos(root[3:])) / t[3:], rtol=1e-12)
    # series branch agrees with the analytic limit 1/2 - t/24 + ...
    np.testing.assert_allclose(ag.value_of(ag.cosc_sq(np.array([0.0]))), 0.5,
                               rtol=1e-15)


def test_smooth_kernel_gradients():
    x = np.array([[1e-5, 1e-3], [0.3, 2.0]])
    check(ag.sinc_sq, x, step=1e-7, tol=2e-5)
    check(ag.cosc_sq, x, step=1e-7, tol=2e-5)


def test_gradient_accumulates_over_reused_node():
    x = ag.Tensor(np.array([[2.0]]))
    y = ag.add(ag.mul(x, 3.0), ag.mul(x, 4.0))
    ag.reduce_sum(y).backward()
    np.testing.assert_allclose(x.grad, [[7.0]])


def test_broadcast_gradient_unbroadcasts():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 3))
    bias = rng.standard_normal((1, 3))
    check(lambda t: ag.add(x, t), bias)


def _add_at(shape, index, values):
    """The scatter oracle: np.add.at into zeros."""
    out = np.zeros(shape)
    np.add.at(out, index, values)
    return out


_SCATTER_INDICES = {
    "1d-repeats": np.array([4, 0, 0, 2, 4, 4, 0]),      # targets 1 and 3 unhit
    "2d-repeats": np.array([[1, 5, 1], [0, 1, 5]]),
    "scalar": np.array(2),
    "empty": np.array([], dtype=np.int64),
    "one-target-many": np.full(40, 3),     # one row sum: no pairwise reduction
}


# the "-0" suffix names the scatter axis, which is always the leading one
@pytest.mark.parametrize("name", sorted(_SCATTER_INDICES),
                         ids=lambda name: f"{name}-0")
def test_scatter_plan_is_bitwise_add_at(name):
    rng = np.random.default_rng(13)
    index = _SCATTER_INDICES[name]
    for shape in ((6, 2, 6), (6, 1, 6, 1), (6, 3, 6, 4)):
        values_shape = index.shape + shape[1:]
        values = rng.standard_normal(values_shape) \
            * 10.0 ** rng.integers(-12, 12, values_shape)
        values = np.where(rng.random(values_shape) < 0.2, -0.0, values)
        got = ag._scatter(values, index, shape[0])
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.tobytes() == _add_at(shape, index, values).tobytes()


def _model_tables():
    """The index tables the model scatters through, with their row counts."""
    level1 = generate_icosphere(1)
    tables = {"neighbourhood-l1": (level1.neighbourhood, level1.n_vertices)}
    for level in (1, 2):
        grid = build_label_sets(level, level + 1)
        tables[f"edges-dst-l{level}"] = (grid.edges[:, 0], grid.n_controls)
        tables[f"edges-src-l{level}"] = (grid.edges[:, 1], grid.n_controls)
    tables["densify-corners"] = (warp._densify_weights(1, 3)[0], level1.n_vertices)
    level3 = generate_icosphere(3)
    tables["faces-l3"] = (level3.faces, level3.n_vertices)
    return tables


@pytest.mark.parametrize("name", sorted(_model_tables()))
def test_scatter_is_bitwise_add_at_on_model_tables(name):
    # the tables the model passes, C- and Fortran-ordered values alike
    rng = np.random.default_rng(15)
    index, n = _model_tables()[name]
    for trailing in ((4, 8), (3,)):
        values = rng.standard_normal(index.shape + trailing)
        values = np.where(rng.random(values.shape) < 0.2, -0.0, values)
        expected = _add_at((n,) + trailing, index, values).tobytes()
        assert ag._scatter(values, index, n).tobytes() == expected
        assert ag._scatter(np.asfortranarray(values), index, n).tobytes() == expected


def test_scatter_ops_accept_plans_bitwise():
    # gathers and segment sums over plain index arrays give the bytes of
    # plain indexing and np.add.at, forward and backward
    rng = np.random.default_rng(14)
    x = rng.standard_normal((6, 3))
    rows = np.array([[5, 0], [0, 0], [2, 5]])
    segments = np.array([3, 0, 3, 3, 1, 0])
    weights = {"rows": rng.standard_normal((3, 2, 3)),
               "segments": rng.standard_normal((5, 3))}

    leaf = ag.Tensor(x)
    out = ag.take_rows(leaf, rows)
    ag.reduce_sum(ag.mul(out, weights["rows"])).backward()
    assert out.value.tobytes() == x[rows].tobytes()
    assert leaf.grad.tobytes() == _add_at(x.shape, rows, weights["rows"]).tobytes()

    leaf = ag.Tensor(x)
    out = ag.segment_sum(leaf, segments, 5)
    ag.reduce_sum(ag.mul(out, weights["segments"])).backward()
    assert out.value.tobytes() == _add_at((5, 3), segments, x).tobytes()
    assert leaf.grad.tobytes() == weights["segments"][segments].tobytes()
