import tracemalloc
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from meshtkg import autodiff as ad
from meshtkg import rng
from meshtkg.autodiff import Tape, Tensor, backward, grad_check

from conftest import dense_gather

UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def rnd(gen, *shape):
    return Tensor(gen.standard_normal(shape))


def bits(a):
    """The IEEE bit patterns of a float array, for bit-for-bit comparison."""
    a = np.asarray(a)
    return a.view(UINT[a.dtype])


class TestBackwardBasics:
    def test_square_gradient(self):
        x = Tensor(np.array(3.0))
        with Tape([x]) as tape:
            y = ad.mul(x, x)
            (gx,) = backward(y, tape)
        assert gx == pytest.approx(6.0)

    def test_sigmoid_at_zero(self):
        x = Tensor(np.array(0.0))
        with Tape([x]) as tape:
            y = ad.sigmoid(x)
            (gx,) = backward(y, tape)
        assert gx == pytest.approx(0.25)

    def test_non_scalar_output_rejected(self):
        x = Tensor(np.ones(3))
        with Tape([x]) as tape:
            y = ad.scale(x, 2.0)
            with pytest.raises(ValueError, match="scalar"):
                backward(y, tape)

    def test_detached_tensor_gets_zero_grad(self):
        x = Tensor(np.ones(2))
        z = Tensor(np.ones(2))
        with Tape([x, z]) as tape:
            y = ad.tensor_sum(ad.mul(x, x))
            _ = ad.scale(z, 3.0)  # on tape, but not an ancestor of y
            _, gz = backward(y, tape)
        assert np.allclose(gz, 0.0)

    def test_fanout_three_uses(self):
        x = Tensor(np.array(2.0))
        with Tape([x]) as tape:
            y = ad.add(ad.add(x, x), x)
            (gx,) = backward(y, tape)
        assert gx == pytest.approx(3.0)

    def test_given_tensor_without_a_path_gets_zeros_in_new_arrays_per_call(self):
        """A tensor given to the tape that no op reads gets zeros in its own
        dtype and shape, and each call returns arrays of its own."""
        x, z = Tensor(np.ones(2)), Tensor(np.ones((2, 3), np.float32))
        with Tape([x, z]) as tape:
            loss = ad.tensor_sum(ad.mul(x, x))
        first, second = backward(loss, tape), backward(loss, tape)
        for grads in (first, second):
            assert np.array_equal(grads[0], [2.0, 2.0])
            assert grads[1].dtype == np.float32 and grads[1].shape == (2, 3)
            assert not grads[1].any()
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    def test_tensor_left_out_of_the_tape_gets_no_gradient_product(self, np_gen):
        """A tensor that feeds the loss but is not given to the tape is a
        constant there: an op reading only it is not recorded, and an op
        reading it beside a parameter computes no gradient for it."""
        x = Tensor(np_gen.standard_normal((4, 3)))
        w = Tensor(np_gen.standard_normal((3, 2)))
        with Tape([x]) as tape:
            squashed = ad.tanh(w)
            loss = ad.tensor_sum(ad.matmul(x, squashed))
            (gx,) = backward(loss, tape)
        assert [node.op for node in tape.nodes] == ["matmul", "sum"]
        assert tape.nodes[0].backward_fn(np.ones((4, 2)))[1] is None
        assert np.array_equal(bits(gx), bits(np.ones((4, 2)) @ squashed.values.T))

    def test_composite_matches_finite_differences(self, np_gen):
        a = rnd(np_gen, 4, 3)
        b = rnd(np_gen, 3, 4)

        def fn(a, b):
            return ad.tensor_sum(ad.sigmoid(ad.matmul(a, b)))

        assert grad_check(fn, [a, b], eps=1e-3) < 1e-4


def primitive_cases(gen):
    """(name, fn, inputs) for every differentiable primitive."""
    idx = np.array([0, 1, 1])
    pick_idx = np.array([2, 0])
    table = gen.standard_normal((4, 3))
    return [
        ("add", lambda a, b: ad.tensor_sum(ad.sigmoid(ad.add(a, b))), [rnd(gen, 2, 3), rnd(gen, 2, 3)]),
        ("add_broadcast", lambda a, b: ad.tensor_sum(ad.sigmoid(ad.add(a, b))), [rnd(gen, 2, 3), rnd(gen, 1, 3)]),
        ("mul", lambda a, b: ad.tensor_sum(ad.sigmoid(ad.mul(a, b))), [rnd(gen, 2, 3), rnd(gen, 2, 3)]),
        ("mul_broadcast", lambda a, b: ad.tensor_sum(ad.mul(a, b)), [rnd(gen, 2, 1), rnd(gen, 2, 3)]),
        ("scale", lambda a: ad.tensor_sum(ad.scale(a, -1.7)), [rnd(gen, 2, 3)]),
        ("shift", lambda a: ad.tensor_sum(ad.sigmoid(ad.shift(a, 0.3))), [rnd(gen, 2, 3)]),
        ("matmul", lambda a, b: ad.tensor_sum(ad.matmul(a, b)), [rnd(gen, 2, 3), rnd(gen, 3, 2)]),
        ("transpose", lambda a: ad.tensor_sum(ad.sigmoid(ad.transpose(a))), [rnd(gen, 2, 3)]),
        ("reshape", lambda a: ad.tensor_sum(ad.tanh(ad.reshape(a, (3, 2)))), [rnd(gen, 2, 3)]),
        ("gather", lambda a: ad.tensor_sum(ad.sigmoid(ad.gather_rows(a, idx))), [rnd(gen, 4, 3)]),
        ("scatter", lambda a: ad.tensor_sum(ad.sigmoid(ad.scatter_add_rows(a, idx, 4))), [rnd(gen, 3, 3)]),
        ("add_rows", lambda a, b: ad.tensor_sum(ad.sigmoid(ad.add_rows(a, b, pick_idx))),
         [rnd(gen, 4, 3), rnd(gen, 2, 3)]),
        ("concat", lambda a, b: ad.tensor_sum(ad.sigmoid(ad.concat([a, b], axis=1))), [rnd(gen, 2, 2), rnd(gen, 2, 3)]),
        ("slice", lambda a: ad.tensor_sum(ad.sigmoid(ad.slice_last(a, 1, 3))), [rnd(gen, 2, 4)]),
        ("pick", lambda a: ad.tensor_sum(ad.sigmoid(ad.pick_last(a, pick_idx))), [rnd(gen, 2, 4)]),
        ("sigmoid", lambda a: ad.tensor_sum(ad.sigmoid(a)), [rnd(gen, 2, 3)]),
        ("tanh", lambda a: ad.tensor_sum(ad.tanh(a)), [rnd(gen, 2, 3)]),
        ("relu", lambda a: ad.tensor_sum(ad.relu(a)), [rnd(gen, 2, 3)]),
        ("rrelu", lambda a: ad.tensor_sum(ad.rrelu(a)), [rnd(gen, 2, 3)]),
        ("pick_log_softmax", lambda q: ad.tensor_sum(ad.tanh(ad.pick_log_softmax(
            q, Tensor(table.astype(q.dtype)), pick_idx))), [rnd(gen, 2, 3)]),
        ("pick_log_softmax_table_grad", lambda q, t: ad.tensor_sum(ad.tanh(ad.pick_log_softmax(
            q, t, pick_idx))), [rnd(gen, 2, 3), rnd(gen, 4, 3)]),
        ("gru", lambda x, h, wx, wh, b: ad.tensor_sum(ad.tanh(ad.gru(x, h, wx, wh, b))),
         [rnd(gen, 2, 3), rnd(gen, 2, 2), rnd(gen, 3, 6), rnd(gen, 2, 6), rnd(gen, 6)]),
        ("conv1d", lambda x, k: ad.tensor_sum(ad.sigmoid(ad.conv1d(x, k))), [rnd(gen, 2, 2, 5), rnd(gen, 3, 2, 3)]),
    ]


def test_every_primitive_passes_grad_check():
    gen = np.random.default_rng(7)
    failures = []
    for name, fn, inputs in primitive_cases(gen):
        err = grad_check(fn, inputs, eps=1e-5)
        if err >= 1e-4:
            failures.append((name, err))
    assert not failures, f"gradient mismatches: {failures}"


def test_every_primitive_keeps_float32(recorded):
    """Forward outputs and every backward gradient stay in the input dtype
    (the rows of a row-sparse one); one float64 gradient would push the
    rest of a float32 backward pass into float64."""
    gen = np.random.default_rng(7)
    widened = []
    for name, fn, inputs in primitive_cases(gen):
        inputs = [Tensor(x.values.astype(np.float32)) for x in inputs]
        with Tape(inputs) as tape:
            fn(*inputs)
        for node in tape.nodes:
            out = recorded[node.output][0].values
            g = gen.standard_normal(out.shape).astype(np.float32)
            grads = [gx.rows if isinstance(gx, ad.RowGrad) else gx
                     for gx in node.backward_fn(g) if gx is not None]
            dtypes = {out.dtype} | {np.asarray(gx).dtype for gx in grads}
            if dtypes != {np.dtype(np.float32)}:
                widened.append((name, node.op, sorted(map(str, dtypes))))
    assert not widened, f"ops leaving float32: {widened}"


class TestTapeRetention:
    # ops whose backward reads their own output, which the tape must keep
    READS_OUTPUT = {"sigmoid", "tanh", "relu", "rrelu"}

    def test_outputs_no_backward_reads_are_freed(self, monkeypatch):
        """The tape holds keys and what each backward reads: once the caller
        drops a tensor, its array is freed unless its op's backward reads
        it."""
        refs = []
        record = ad._record

        def spy(op, inputs, out_values, backward_fn):
            out = record(op, inputs, out_values, backward_fn)
            refs.append((op, weakref.ref(out.values)))
            return out

        monkeypatch.setattr(ad, "_record", spy)
        wrong = []
        for name, fn, inputs in primitive_cases(np.random.default_rng(7)):
            refs.clear()
            with Tape(inputs) as tape:
                fn(*inputs)
            assert tape.nodes
            for op, ref in refs:
                if (ref() is not None) != (op in self.READS_OUTPUT):
                    wrong.append((name, op, "alive" if ref() is not None else "freed"))
        assert not wrong, wrong

    def test_backward_drops_consumed_gradients(self):
        """Backward through a chain of 30 nodes on a 1 MiB array holds a
        few gradients at a time, not one per node."""
        x = Tensor(np.ones(2**17))
        with Tape([x]) as tape:
            y = x
            for _ in range(30):
                y = ad.scale(y, 1.0)
            loss = ad.tensor_sum(y)
        tracemalloc.start()
        try:
            (gx,) = backward(loss, tape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(gx, np.ones(2**17))
        assert peak <= 3 * x.values.nbytes, peak / x.values.nbytes


class TestGradCheck:
    def test_linear_is_machine_precision(self, np_gen):
        w = rnd(np_gen, 1, 5)
        x = rnd(np_gen, 5, 1)
        err = grad_check(lambda w, x: ad.tensor_sum(ad.matmul(w, x)), [w, x], eps=1e-3)
        assert err < 1e-9

    def test_eval_dropout_is_identity_for_check(self, np_gen):
        x = rnd(np_gen, 3, 3)
        err_drop = grad_check(
            lambda a: ad.tensor_sum(ad.dropout(ad.sigmoid(a), 0.5, None)), [x]
        )
        err_plain = grad_check(lambda a: ad.tensor_sum(ad.sigmoid(a)), [x])
        assert err_drop == pytest.approx(err_plain)

    def test_nonfinite_reported_with_node(self):
        x = Tensor(np.array([1.0, -1.0]))

        def fn(a):
            return ad.tensor_sum(ad.scale(a, float("inf")))

        with pytest.raises(ad.NumericError):
            grad_check(fn, [x])

    def test_nonfinite_input_gradient_under_a_finite_output_raises(self):
        """relu sends -inf to 0, so the output is finite, but the zero
        gradient times inf in `scale`'s backward reaches x as NaN."""
        x = Tensor(np.array([-1.0, -2.0]))

        def fn(a):
            return ad.tensor_sum(ad.relu(ad.scale(a, float("inf"))))

        with pytest.raises(ad.NumericError, match="gradient"):
            grad_check(fn, [x])

    def test_input_without_gradient_passes(self, np_gen):
        a, unused = rnd(np_gen, 2), rnd(np_gen, 3)
        assert grad_check(lambda a, b: ad.tensor_sum(ad.tanh(a)), [a, unused]) < 1e-6

    def test_bad_eps(self, np_gen):
        with pytest.raises(ValueError):
            grad_check(lambda a: ad.tensor_sum(a), [rnd(np_gen, 2)], eps=0.0)


@dataclass
class _Pair:
    agg: Tensor
    self: Tensor   # a field may be named `self`


@dataclass
class _Sizes:
    width: int


@dataclass
class _Record:
    sizes: _Sizes      # a record with no tensors adds no names
    table: Tensor
    rate: float
    layer: list        # of records
    cells: list        # of tensors
    pair: _Pair
    raw: np.ndarray    # an array that is not a Tensor is skipped too
    last: Tensor


class TestNamedTensors:
    @staticmethod
    def record():
        t = [Tensor(np.full(i + 1, float(i))) for i in range(9)]
        return _Record(_Sizes(3), t[0], 0.5, [_Pair(t[1], t[2]), _Pair(t[3], t[4])],
                       [t[5], t[6]], _Pair(t[7], t[8]), np.zeros(2), Tensor(np.ones(1))), t

    def test_field_paths_in_field_order(self):
        record, t = self.record()
        named = ad.named_tensors(record)
        assert list(named) == ["table", "layer0.agg", "layer0.self", "layer1.agg",
                               "layer1.self", "cells0", "cells1", "pair.agg", "pair.self",
                               "last"]
        expected = [*t, record.last]
        assert all(a is b for a, b in zip(named.values(), expected))

    def test_prefix_is_prepended_verbatim(self):
        record, _ = self.record()
        plain = ad.named_tensors(record)
        prefixed = ad.named_tensors(record, "model.")
        assert list(prefixed) == [f"model.{n}" for n in plain]
        assert all(a is b for a, b in zip(prefixed.values(), plain.values()))

    def test_record_without_tensors_names_nothing(self):
        assert ad.named_tensors(_Sizes(4)) == {}


class TestOpSemantics:
    def test_dropout_eval_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert ad.dropout(x, 0.5, None) is x

    def test_dropout_train_statistics(self):
        gen = np.random.default_rng(3)
        x = Tensor(np.ones((200, 200)))
        y = ad.dropout(x, 0.3, gen).values
        dropped = np.mean(y == 0.0)
        assert dropped == pytest.approx(0.3, abs=0.01)
        survivors = y[y != 0]
        assert np.allclose(survivors, 1.0 / 0.7)
        # expectation preserved
        assert y.mean() == pytest.approx(1.0, abs=0.02)

    def test_no_tape_records_nothing(self):
        x = Tensor(np.ones(3))
        y = ad.scale(x, 2.0)
        assert np.allclose(y.values, 2.0)
        assert ad.active_tape() is None

    def test_conv1d_known_values(self):
        # single batch, 1 input channel, identity-style kernel
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        k = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
        y = ad.conv1d(x, k).values
        assert np.allclose(y, [[[1.0, 2.0, 3.0, 4.0]]])
        k2 = Tensor(np.array([[[1.0, 0.0, 0.0]]]))  # shift: y[l] = x[l-1]
        y2 = ad.conv1d(x, k2).values
        assert np.allclose(y2, [[[0.0, 1.0, 2.0, 3.0]]])

    def test_pick_log_softmax_matches_log_softmax_oracle(self):
        x = np.random.default_rng(5).standard_normal((4, 6)) * 5
        idx = np.array([5, 0, 3, 3])
        shifted = x - x.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        # an identity table scores each row as the given logits, exactly
        got = ad.pick_log_softmax(Tensor(x), Tensor(np.eye(6)), idx).values
        assert np.allclose(got, logp[np.arange(4), idx], atol=1e-12)

    def test_conv1d_rejects_even_width(self):
        with pytest.raises(ValueError, match="odd"):
            ad.conv1d(Tensor(np.ones((1, 1, 4))), Tensor(np.ones((1, 1, 2))))


class TestSigmoidKernel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_within_4_ulp_of_expit(self, dtype):
        x = (np.random.default_rng(21).standard_normal(1_000_000) * 15).astype(dtype)
        got = ad.sigmoid(Tensor(x)).values
        assert got.dtype == dtype
        ulps = np.abs(bits(got).astype(np.int64) - bits(expit(x)).astype(np.int64))
        assert ulps.max() <= 4

    @pytest.mark.parametrize("dtype, mantissa, first_one", [
        (np.float32, 24, 16.635532), (np.float64, 53, 36.73680056967711),
    ])
    def test_saturates_to_one_where_expit_does(self, dtype, mantissa, first_one):
        """1 + exp(-x) rounds to 1 from x = ln(2**mantissa) on; every float
        within 2000 ulps of that point saturates exactly when expit does."""
        centre = bits(np.array(mantissa * np.log(2.0), dtype)).astype(np.int64)
        x = (centre + np.arange(-2000, 2001)).astype(UINT[np.dtype(dtype)]).view(dtype)
        ones = ad.sigmoid(Tensor(x)).values == 1.0
        assert np.array_equal(ones, expit(x) == 1.0)
        assert not ones[0] and ones[-1]
        assert x[np.argmax(ones)] == np.array(first_one, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extremes_and_nan_without_warnings(self, dtype):
        x = np.array([-1000.0, -100.0, 0.0, 100.0, np.nan], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.sigmoid(Tensor(x)).values
        assert out[0] == 0.0 and out[2] == 0.5 and out[3] == 1.0 and np.isnan(out[4])
        assert out[1] == 0.0 if dtype == np.float32 else 0.0 < out[1] < 1e-43
        assert ad.sigmoid(Tensor(np.array(0.0, dtype))).values == 0.5


def float_arrays(dtype, shape):
    """Arrays of every kind of float of `dtype`: normals, subnormals, +-0,
    +-inf and NaNs of any payload, signalling ones included."""
    return hnp.arrays(dtype, shape, elements=st.floats(
        width=np.finfo(dtype).bits, allow_subnormal=True))


class TestRreluKernel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_where_reference_bit_for_bit(self, dtype, data):
        info = np.finfo(dtype)
        specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                             info.smallest_subnormal, -info.smallest_subnormal], dtype)
        x = np.concatenate([specials, data.draw(float_arrays(dtype, st.integers(0, 40)))])
        # gradients reaching the op are computed values, so quiet NaNs only
        g = data.draw(hnp.arrays(dtype, x.shape, elements=st.floats(
            width=info.bits, allow_subnormal=True, allow_nan=False) | st.just(np.nan)))
        slope = ad.RRELU_SLOPE
        a = Tensor(x)
        with np.errstate(invalid="ignore"):  # slope * signalling NaN sets the flag
            ref_out = np.where(x > 0, x, slope * x)
            ref_grad = np.where(x > 0, g, g * slope)
            with Tape([a]) as tape:
                out = ad.rrelu(a).values
            (grad,) = tape.nodes[-1].backward_fn(g)
        assert out.dtype == grad.dtype == dtype
        assert np.array_equal(bits(out), bits(ref_out))
        assert np.array_equal(bits(grad), bits(ref_grad))


class TestDropoutKernel:
    @pytest.mark.parametrize("p", [0.2, 0.3, 0.5, 1.0 / 3.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7,), (5, 13), (3, 1, 11)])
    def test_keep_values_and_stream_match_reference(self, p, dtype, shape):
        ref_gen, gen = np.random.default_rng(9), np.random.default_rng(9)
        # reference: float32 draw, mask cast to the input dtype, divided by 1 - p
        ref_keep = (ref_gen.random(shape, dtype=np.float32) >= p).astype(dtype) / (1.0 - p)
        a = Tensor(np.ones(shape, dtype))
        with Tape([a]) as tape:
            out = ad.dropout(a, p, gen).values
        (keep,) = tape.nodes[-1].backward_fn(np.ones(shape, dtype))
        assert keep.dtype == out.dtype == dtype
        assert np.array_equal(bits(keep), bits(ref_keep))
        assert np.array_equal(bits(out), bits(ref_keep))
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @staticmethod
    def _float32_draw_dropout(gen, a, p):
        """Dropout with its mask from the float32 draw, as it was built before
        the raw-word mask; returns (mask, output)."""
        mask = gen.random(a.shape, dtype=np.float32) >= p
        out = a * np.divide(1.0, 1.0 - p, dtype=a.dtype)
        out *= mask
        return mask, out

    @pytest.mark.parametrize("p", [0.2, 0.5, 1.0 / 3.0, 1e-9])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("sizes", [[(7,), (8,), (5, 13)], [(1,), (1,), (2, 3)],
                                       [(7128, 100), (0,), (492, 50, 100)]])
    def test_raw_words_match_float32_draw(self, p, buffered, sizes):
        """Training's Philox streams, with and without a buffered half word,
        over odd and even sizes and three calls in a row: every mask, every
        output bit and the generator's whole state match the float32 draw."""
        ref_gen, gen = rng.stream(3, rng.DROPOUT, 7), rng.stream(3, rng.DROPOUT, 7)
        if buffered:
            ref_gen.random(dtype=np.float32)
            gen.random(dtype=np.float32)
            assert gen.bit_generator.state["has_uint32"] == 1
        data = np.random.default_rng(10)
        for shape in sizes:
            a = data.standard_normal(shape).astype(np.float32)
            ref_mask, ref_out = self._float32_draw_dropout(ref_gen, a, p)
            x = Tensor(a)
            with Tape([x]) as tape:
                out = ad.dropout(x, p, gen).values
            (keep,) = tape.nodes[-1].backward_fn(np.ones(shape, np.float32))
            assert np.array_equal(keep != 0, ref_mask)
            assert np.array_equal(bits(out), bits(ref_out))
            assert same_state(gen.bit_generator.state, ref_gen.bit_generator.state)

    def test_p_of_one_refused(self):
        with pytest.raises(ValueError, match="p < 1"):
            ad.dropout(Tensor(np.ones(3, np.float32)), 1.0, np.random.default_rng(0))

    def test_p_rounding_to_one_in_float32_drops_everything(self):
        p = 1.0 - 1e-9
        assert np.float32(p) == 1.0
        ref_gen, gen = rng.stream(3, rng.DROPOUT), rng.stream(3, rng.DROPOUT)
        a = np.ones((9, 5), np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.dropout(Tensor(a), p, gen).values
            ref_mask, _ = self._float32_draw_dropout(ref_gen, a, p)
        assert not ref_mask.any() and not out.any()
        assert same_state(gen.bit_generator.state, ref_gen.bit_generator.state)


def same_state(a, b) -> bool:
    """Whether two bit-generator states (nested dicts of ints and arrays)
    are equal, value for value."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestScatterRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index,table,values", [
        ([2, 0, 2, 2, 1, 0], (4, 3), (6, 3)),     # repeated indices
        ([], (4, 3), (0, 3)),                     # empty index
        ([1, 1, 0, 3, 1], (5,), (5,)),            # 1-D table
        ([0, 2, 0, 1], (3, 2, 5), (4, 2, 5)),     # 3-D values
    ])
    def test_matches_row_wise_add_at(self, dtype, index, table, values):
        gen = np.random.default_rng(11)
        index = np.array(index, dtype=np.int64)
        rows = gen.standard_normal(values).astype(dtype)
        start = gen.standard_normal(table).astype(dtype)
        want = start.copy()
        np.add.at(want, index, rows)
        got = ad._scatter_rows(start.copy(), index, rows)
        assert got.dtype == dtype
        assert np.array_equal(bits(got), bits(want))


GATHER_I, GATHER_J = np.array([0, 2, 2, 5, 0]), np.array([2, 3, 2, 2, 5])


def _fan_in_graphs(gather):
    """name -> loss of leaves (T, U, V, W), each graph reaching a table by
    gathers with repeated indices and by a dense path."""
    i, j = GATHER_I, GATHER_J

    def s(x, f=ad.tanh):
        return ad.tensor_sum(f(x))

    return {
        # one g for both gathers (add's backward), the dense path first
        "add_of_two_gathers": lambda T, U, V, W: ad.add(
            s(ad.add(gather(T, i), gather(T, j))), s(ad.matmul(T, W), ad.sigmoid)),
        # the dense path recorded first, so its gradient arrives last
        "dense_path_first": lambda T, U, V, W: ad.add(
            s(ad.matmul(T, W), ad.sigmoid), s(ad.add(gather(T, i), gather(T, j)))),
        # T's gradient is the g that add(T, U) also hands to U
        "accumulator_shared_by_add": lambda T, U, V, W: ad.add(
            s(gather(T, i)), s(ad.add(T, U), ad.sigmoid)),
        # T's gradient is a view (reshape) of the g that add also hands to V
        "accumulator_is_a_view": lambda T, U, V, W: ad.add(
            s(gather(T, j)), s(ad.add(ad.reshape(T, (4, 6)), V), ad.sigmoid)),
        # gathered intermediates: a scaled table and a concatenation
        "gathered_intermediates": lambda T, U, V, W: s(ad.add(
            gather(ad.scale(T, 1.5), i),
            ad.add(gather(U, j), gather(ad.concat([T, U], axis=0), i + 6)))),
    }


def _fan_in_grads(name, gather, dtype):
    gen = np.random.default_rng(17)
    leaves = [Tensor(gen.standard_normal(shape).astype(dtype))
              for shape in ((6, 4), (6, 4), (4, 6), (4, 3))]
    with Tape(leaves) as tape:
        grads = backward(_fan_in_graphs(gather)[name](*leaves), tape)
    return grads, tape


class TestRowSparseGather:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(_fan_in_graphs(ad.gather_rows)))
    def test_table_gradients_match_dense_oracle_bit_for_bit(self, name, dtype, recorded):
        """Every leaf's gradient has the bits of the dense zeros-plus-scatter
        backward, and each gather hands backward its rows, not a table."""
        want, _ = _fan_in_grads(name, dense_gather, dtype)
        recorded.clear()
        got, tape = _fan_in_grads(name, ad.gather_rows, dtype)
        for w, g in zip(want, got):
            assert g.dtype == dtype and np.array_equal(bits(g), bits(w))
        gathers = [n for n in tape.nodes if n.op == "gather_rows"]
        assert gathers
        for node in gathers:
            out = recorded[node.output][0].values
            (rows,) = node.backward_fn(np.ones_like(out))
            assert isinstance(rows, ad.RowGrad) and rows.rows.shape == out.shape

    def test_backward_allocates_no_second_table(self):
        """Two gathers of a 2 MiB table: backward builds one table-sized
        gradient and adds both gathers' rows into it in place."""
        table = Tensor(np.ones((2**14, 16)))
        with Tape([table]) as tape:
            loss = ad.tensor_sum(ad.add(ad.gather_rows(table, GATHER_I),
                                        ad.gather_rows(table, GATHER_J)))
        tracemalloc.start()
        try:
            (gt,) = backward(loss, tape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(gt.sum(axis=1), 16 * np.bincount(
            np.concatenate([GATHER_I, GATHER_J]), minlength=2**14))
        assert peak < 1.5 * table.values.nbytes, peak / table.values.nbytes


def _pick_tape(q, table, idx, table_grad):
    """pick_log_softmax of q against `table` on a tape, the table constant
    or taking a gradient; returns (output, node)."""
    q, table = Tensor(q), Tensor(table)
    with Tape([q, table] if table_grad else [q]) as tape:
        out = ad.pick_log_softmax(q, table, idx)
    return out.values, tape.nodes[-1]


class TestPickLogSoftmax:
    @pytest.mark.parametrize("table_grad", [False, True], ids=["constant", "table_grad"])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 2e-5)])
    @pytest.mark.parametrize("batch", [1, 31, 63, 64, 65, 129, 492])
    def test_matches_float64_oracle(self, batch, dtype, tol, table_grad):
        """Output and both gradients against log_softmax(q @ table.T) in
        float64, at batch sizes on both sides of 64 and its multiples."""
        gen = np.random.default_rng(batch)
        num_entities, d = 300, 16
        q = gen.standard_normal((batch, d)).astype(dtype)
        table = gen.standard_normal((num_entities, d)).astype(dtype)
        idx = gen.integers(num_entities, size=batch)
        g = gen.standard_normal(batch).astype(dtype)
        x = q.astype(np.float64) @ table.astype(np.float64).T
        x -= x.max(axis=1, keepdims=True)
        logp = x - np.log(np.exp(x).sum(axis=1, keepdims=True))
        score_grad = -g[:, None] * np.exp(logp)
        score_grad[np.arange(batch), idx] += g
        out, node = _pick_tape(q, table, idx, table_grad)
        gq, gt = node.backward_fn(g)
        assert out.dtype == gq.dtype == dtype
        assert np.allclose(out, logp[np.arange(batch), idx], rtol=tol, atol=tol)
        assert np.allclose(gq, score_grad @ table, rtol=tol, atol=tol)
        if table_grad:
            assert np.allclose(gt, score_grad.T @ q, rtol=tol, atol=tol)
        else:
            assert gt is None

    @pytest.mark.parametrize("shape", [(24, 32, 60), (80, 32, 60), (492, 32, 7128),
                                       (65, 32, 100), (100, 16, 300), (129, 100, 100)],
                             ids=["digest", "digest_blocks", "finetune_desk",
                                  "b65_d32", "b100_d16", "b129_d100"])
    def test_matches_the_score_first_chain_bit_for_bit(self, shape):
        """At the digest's and the benchmark's float32 shapes (B, d, |E|),
        and at shapes where a product of a few rows rounds differently from
        the same rows inside the whole batch, both modes give the bits of
        scoring first and then taking the log-softmax, for the scales the
        losses send (-1, and -omega at omega 1 and 0.5)."""
        batch, d, num_entities = shape
        gen = np.random.default_rng(batch)
        q = gen.standard_normal((batch, d)).astype(np.float32)
        table = (0.3 * gen.standard_normal((num_entities, d))).astype(np.float32)
        idx = gen.integers(num_entities, size=batch)
        tt = table.T.copy()
        logits = q @ tt
        rows = np.arange(batch)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        picked = shifted[rows, idx]
        total = np.exp(shifted).sum(axis=-1, keepdims=True)
        want = picked - np.log(total[:, 0])
        for scale in (-1.0, -0.5):
            g = np.full(batch, scale, np.float32)
            score_grad = np.exp(shifted) / total
            score_grad *= -g[:, None]
            score_grad[rows, idx] += g
            for table_grad in (False, True):
                out, node = _pick_tape(q, table, idx, table_grad)
                gq, gt = node.backward_fn(g)
                assert np.array_equal(bits(out), bits(want))
                assert np.array_equal(bits(gq), bits(score_grad @ tt.T))
                if table_grad:
                    assert np.array_equal(bits(gt), bits((q.T @ score_grad).T))

    @pytest.mark.parametrize("table_grad", [False, True], ids=["constant", "table_grad"])
    def test_arrays_kept_for_backward(self, table_grad):
        """Against a constant table backward keeps one (B, d) array; with a
        table gradient, one (B, |E|) buffer beside the transposed table."""
        gen = np.random.default_rng(3)
        batch, d, num_entities = 70, 8, 500
        q = gen.standard_normal((batch, d)).astype(np.float32)
        table = gen.standard_normal((num_entities, d)).astype(np.float32)
        _, node = _pick_tape(q, table, gen.integers(num_entities, size=batch), table_grad)
        kept = [c.cell_contents.shape for c in node.backward_fn.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        wide = sorted(s for s in kept if num_entities in s)
        assert wide == (sorted([(batch, num_entities), (d, num_entities)]) if table_grad else [])
        if not table_grad:
            assert kept == [(batch, d)]

    def test_query_and_table_widths_must_agree(self):
        with pytest.raises(ValueError, match="dim"):
            ad.pick_log_softmax(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), [0, 1])


class _CountingArray(np.ndarray):
    """An array that counts the ufunc calls it takes part in."""

    def __array_finalize__(self, obj):
        # a view (a reshape, a transpose) counts into its base's list
        self.counter = getattr(obj, "counter", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.counter.append(ufunc.__name__)
        inputs = tuple(np.asarray(v) if isinstance(v, _CountingArray) else v for v in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def counting(values):
    arr = np.asarray(values).view(_CountingArray)
    arr.counter = []
    return arr


class TestConstantOperands:
    def test_constant_gradient_never_computed(self, np_gen):
        """The constant's gradient would be g * x; x takes part in no
        backward ufunc, and x's own gradient is exactly g * c."""
        x = Tensor(np_gen.standard_normal((5, 3)))
        c = Tensor(np_gen.standard_normal((5, 1)))
        x.values = counting(x.values)
        g = np_gen.standard_normal((5, 3))
        with Tape([x]) as tape:
            ad.mul(x, c)
        x.values.counter.clear()
        gx, gc = tape.nodes[-1].backward_fn(g)
        assert gc is None and x.values.counter == []
        assert np.array_equal(bits(gx), bits(g * c.values))

    def test_taped_and_tape_given_operands_keep_gradients(self, np_gen):
        x = Tensor(np_gen.standard_normal((5, 3)))
        w = Tensor(np_gen.standard_normal((5, 1)))
        g = np_gen.standard_normal((5, 3))
        with Tape([x, w]) as tape:
            derived = ad.scale(w, 2.0)  # not given to the tape, but produced on it
            ad.mul(x, derived)
            ad.mul(x, w)
        for node, other in zip(tape.nodes[1:], (derived, w)):
            gx, go = node.backward_fn(g)
            assert np.array_equal(bits(gx), bits(g * other.values))
            assert np.array_equal(bits(go), bits((g * x.values).sum(axis=1, keepdims=True)))

    @pytest.mark.parametrize("constant", ["left", "right"])
    def test_matmul_constant_gradient_never_computed(self, np_gen, constant):
        """A constant's gradient is the product of g with the other operand
        (g @ b.T for the left, a.T @ g for the right); the other operand
        takes part in no backward product."""
        a = np_gen.standard_normal((4, 3))
        b = np_gen.standard_normal((3, 5))
        g = np_gen.standard_normal((4, 5))
        left, right = Tensor(a), Tensor(b)
        other = right if constant == "left" else left
        other.values = counting(other.values)
        with Tape([other]) as tape:
            ad.matmul(left, right)
        other.values.counter.clear()
        ga, gb = tape.nodes[-1].backward_fn(g)
        assert other.values.counter == []
        if constant == "left":
            assert ga is None and np.array_equal(bits(gb), bits(a.T @ g))
        else:
            assert gb is None and np.array_equal(bits(ga), bits(g @ b.T))

    def test_conv1d_constant_input_gradient_never_computed(self, np_gen):
        """The input's gradient is built from kernels.T @ g; with a constant
        input the kernels take part in no backward product."""
        kernels = Tensor(np_gen.standard_normal((3, 2, 3)))
        kernels.values = counting(kernels.values)
        g = np_gen.standard_normal((4, 3, 7))
        with Tape([kernels]) as tape:
            ad.conv1d(Tensor(np_gen.standard_normal((4, 2, 7))), kernels)
        kernels.values.counter.clear()
        gx, gk = tape.nodes[-1].backward_fn(g)
        assert gx is None and gk.shape == kernels.shape
        assert kernels.values.counter == []

    def test_taped_matmul_and_conv1d_operands_keep_gradients(self, np_gen):
        """A flowing operand's gradient does not depend on whether the other
        operand is constant, and matmul's are the textbook products."""
        a, b = Tensor(np_gen.standard_normal((4, 3))), Tensor(np_gen.standard_normal((3, 5)))
        g = np_gen.standard_normal((4, 5))
        with Tape([a, b]) as tape:
            ad.matmul(ad.scale(a, 1.0), b)  # the left operand is taped, not given to the tape
        ga, gb = tape.nodes[-1].backward_fn(g)
        assert np.array_equal(bits(ga), bits(g @ b.values.T))
        assert np.array_equal(bits(gb), bits(a.values.T @ g))

        x, k = np_gen.standard_normal((2, 2, 5)), np_gen.standard_normal((3, 2, 3))
        g = np_gen.standard_normal((2, 3, 5))
        px, pk = Tensor(x), Tensor(k)
        with Tape([px, pk]) as tape:
            ad.conv1d(px, pk)
            ad.conv1d(Tensor(x), pk)
            ad.conv1d(px, Tensor(k))
        (gx, gk), (_, gk_only), (gx_only, _) = (n.backward_fn(g) for n in tape.nodes)
        assert np.array_equal(bits(gk), bits(gk_only))
        assert np.array_equal(bits(gx), bits(gx_only))


def reference_adam_step(params, grads, state) -> None:
    """Adam as it was written before the in-place update: fresh arrays for
    the moments and every temporary; the oracle for `ad.adam_step`."""
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = ad.ADAM_BETA1 * state.m[i] + (1.0 - ad.ADAM_BETA1) * g
        state.v[i] = ad.ADAM_BETA2 * state.v[i] + (1.0 - ad.ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / (1.0 - ad.ADAM_BETA1 ** t)
        v_hat = state.v[i] / (1.0 - ad.ADAM_BETA2 ** t)
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + ad.ADAM_EPS)


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_bit_for_bit_in_place(self, dtype):
        """Five steps over a matrix, a vector and a 0-d parameter, the vector's
        gradient zero at two of them (no path, as backward returns it):
        parameters and moments have the reference's bits, and the moments
        stay in their own buffers."""
        gen = np.random.default_rng(12)
        shapes = [(6, 4), (5,), ()]
        start = [gen.standard_normal(shape).astype(dtype) for shape in shapes]
        params = [Tensor(x.copy()) for x in start]
        ref_params = [Tensor(x.copy()) for x in start]
        state, ref_state = ad.init_adam(params, lr=0.01), ad.init_adam(ref_params, lr=0.01)
        buffers = state.m + state.v
        for step in range(5):
            grads = [np.zeros(shape, dtype) if shape == (5,) and step in (1, 3)
                     else gen.standard_normal(shape).astype(dtype) for shape in shapes]
            ad.adam_step(params, grads, state)
            reference_adam_step(ref_params, grads, ref_state)
            for got, want in zip(params + state.m + state.v,
                                 ref_params + ref_state.m + ref_state.v):
                got, want = getattr(got, "values", got), getattr(want, "values", want)
                assert isinstance(got, np.ndarray) and got.dtype == dtype
                assert np.array_equal(bits(got), bits(np.asarray(want)))
        assert all(now is before for now, before in zip(state.m + state.v, buffers))
        assert state.step == ref_state.step == 5

    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.array([1.0, 2.0]))
        state = ad.init_adam([p], lr=0.01)
        ad.adam_step([p], [np.zeros(2)], state)
        assert np.allclose(p.values, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        p = Tensor(np.array(0.0))
        state = ad.init_adam([p], lr=0.001)
        ad.adam_step([p], [np.array(1.0)], state)
        assert float(p.values) == pytest.approx(-0.001, rel=1e-6)

    def test_descent_on_quadratic(self):
        p = Tensor(np.array(5.0))
        state = ad.init_adam([p], lr=0.1)
        losses = []
        for _ in range(10):
            with Tape([p]) as tape:
                loss = ad.mul(p, p)
                losses.append(loss.item())
                grads = backward(loss, tape)
            ad.adam_step([p], grads, state)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3))
        state = ad.init_adam([p])
        with pytest.raises(ValueError, match="shape"):
            ad.adam_step([p], [np.zeros(4)], state)

    def test_gradient_count_mismatch_rejected(self):
        p = Tensor(np.zeros(3))
        state = ad.init_adam([p])
        with pytest.raises(ValueError, match="length"):
            ad.adam_step([p], [], state)
