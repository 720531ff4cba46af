"""Engine tests: closed-form forwards, finite-difference gradient checks,
transformation invariants, and byte-level serialization behavior."""

import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from modelmark import tinynn
from modelmark.errors import (
    CorruptionError,
    DivergenceError,
    FormatError,
    InconsistencyError,
    InvalidInputError,
    TruncationError,
    UnsupportedArchitectureError,
)
from modelmark.tinynn import (
    Conv2d,
    Dense,
    LabeledDataset,
    MaxPool2d,
    ModelSnapshot,
    Relu,
    SoftmaxOutput,
    TrainConfig,
)


def _dense_model(seed=0, in_dim=6, hidden=5, classes=3):
    return tinynn.init_model(
        (in_dim,),
        (Dense(hidden), Relu(), Dense(classes), SoftmaxOutput()),
        num_classes=classes,
        seed=seed,
    )


def _conv_model(seed=0):
    return tinynn.init_model(
        (1, 6, 6),
        (Conv2d(2, 3), Relu(), MaxPool2d(2), Dense(3), SoftmaxOutput()),
        num_classes=3,
        seed=seed,
    )


class TestForward:
    def test_zero_weights_give_uniform_probabilities(self):
        m = _dense_model()
        for i, w in enumerate(m.weights):
            if w is not None:
                m.weights[i] = np.zeros_like(w)
                m.biases[i] = np.zeros_like(m.biases[i])
        p = tinynn.forward(m, np.ones(6, dtype=np.float32))
        assert np.allclose(p, 1 / 3)

    def test_one_layer_closed_form_softmax(self):
        m = tinynn.init_model((3,), (Dense(3), SoftmaxOutput()), 3, seed=0)
        m.weights[0] = np.eye(3, dtype=np.float32) * 2.0
        m.biases[0] = np.zeros(3, dtype=np.float32)
        p = tinynn.forward(m, np.array([1.0, 0.0, 0.0], dtype=np.float32))
        z = np.array([2.0, 0.0, 0.0])
        expected = np.exp(z) / np.exp(z).sum()
        assert np.allclose(p, expected, atol=1e-7)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        m = _conv_model(seed=1)
        batch = rng.standard_normal((5, 1, 6, 6)).astype(np.float32)
        probs = tinynn.forward(m, batch)
        assert probs.shape == (5, 3)
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            tinynn.forward(_dense_model(), np.ones(7))


def _oracle_maxpool(x, wnd):
    """Reference max-pool: copy into (…, wnd*wnd) blocks, argmax, gather."""
    n, c, h, w = x.shape
    oh, ow = h // wnd, w // wnd
    blocks = (
        x[:, :, : oh * wnd, : ow * wnd]
        .reshape(n, c, oh, wnd, ow, wnd)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, oh, ow, wnd * wnd)
    )
    idx = blocks.argmax(-1)
    return np.take_along_axis(blocks, idx[..., None], -1)[..., 0], idx


def _oracle_maxpool_backward(dout, idx, in_shape, wnd):
    n, c, h, w = in_shape
    oh, ow = h // wnd, w // wnd
    dblocks = np.zeros((n, c, oh, ow, wnd * wnd), dtype=dout.dtype)
    np.put_along_axis(dblocks, idx[..., None], dout[..., None], -1)
    dx = np.zeros(in_shape, dtype=dout.dtype)
    dx[:, :, : oh * wnd, : ow * wnd] = (
        dblocks.reshape(n, c, oh, ow, wnd, wnd)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, oh * wnd, ow * wnd)
    )
    return dx


class TestMaxPool:
    CASES = [((3, 2, 8, 8), 2), ((2, 3, 7, 9), 2), ((2, 1, 9, 10), 3), ((1, 2, 5, 5), 5)]

    def _inputs(self, shape, seed):
        rng = np.random.default_rng(seed)
        yield rng.standard_normal(shape).astype(np.float32)
        yield rng.standard_normal(shape)  # float64
        # integer values: many ties inside each window
        yield rng.integers(-1, 2, shape).astype(np.float32)
        # -0.0 and 0.0 tie (ReLU writes both), and the first one must win
        zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(np.float32)
        yield np.where(rng.random(shape) < 0.2, 1.0, zeros).astype(np.float32)

    @pytest.mark.parametrize("shape,wnd", CASES)
    def test_forward_and_backward_equal_oracle(self, shape, wnd):
        for x in self._inputs(shape, seed=sum(shape) + wnd):
            want, want_idx = _oracle_maxpool(x, wnd)
            got, idx = tinynn._maxpool(x, wnd, keep_index=True)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()  # bitwise, signed zeros included
            assert np.array_equal(idx, want_idx)
            plain, none = tinynn._maxpool(x, wnd, keep_index=False)
            assert none is None and plain.tobytes() == want.tobytes()

            dout = np.random.default_rng(1).standard_normal(want.shape).astype(x.dtype)
            want_dx = _oracle_maxpool_backward(dout, want_idx, x.shape, wnd)
            got_dx = tinynn._maxpool_backward(dout, idx, x.shape, wnd)
            assert got_dx.dtype == want_dx.dtype
            assert got_dx.tobytes() == want_dx.tobytes()

    def test_input_not_modified(self):
        x = np.random.default_rng(2).standard_normal((2, 2, 6, 6)).astype(np.float32)
        before = x.copy()
        tinynn._maxpool(x, 2, keep_index=True)
        assert np.array_equal(x, before)


def _reference_loss_and_grads(model, xb, yb):
    """One training step written out as the engine first did it: logits
    flattened before the loss, the loss formula inline, the backward shape
    re-derived from the layer chain. The oracle for byte-identical training."""
    act, caches = tinynn._forward_stack(model, xb, keep_cache=True)
    n = xb.shape[0]
    logits = act.reshape(n, -1)
    probs = tinynn._softmax(logits)
    loss = float(-np.mean(np.log(probs[np.arange(n), yb] + np.finfo(np.float64).tiny)))
    dact = probs.astype(logits.dtype)
    dact[np.arange(n), yb] -= 1.0
    dact /= n
    dact = dact.reshape((n,) + tinynn._chain_shapes(model.input_shape, model.layers)[-1])
    grad_w = [None] * len(model.layers)
    grad_b = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        layer, cache = model.layers[i], caches[i]
        if isinstance(layer, Dense):
            in_shape, flat = cache
            grad_w[i] = dact.T @ flat
            grad_b[i] = dact.sum(axis=0)
            dact = (dact @ model.weights[i]).reshape(in_shape)
        elif isinstance(layer, Relu):
            dact = dact * cache
        elif isinstance(layer, MaxPool2d):
            in_shape, idx = cache
            dact = tinynn._maxpool_backward(dact, idx, in_shape, layer.window)
        elif isinstance(layer, Conv2d):
            in_shape, cols = cache
            w = model.weights[i]
            dmat = dact.reshape(in_shape[0], w.shape[0], -1).transpose(0, 2, 1)
            grad_w[i] = np.einsum("npo,npk->ok", dmat, cols).reshape(w.shape)
            grad_b[i] = dact.sum(axis=(0, 2, 3))
            dcols = dmat @ w.reshape(w.shape[0], -1)
            dact = tinynn._col2im(dcols, in_shape, layer.kernel_size, layer.stride)
    return loss, grad_w, grad_b


class TestLogitsPath:
    """forward, predict and batch_loss share one input-to-logits path."""

    def _inputs(self, seed=3, n=12):
        return np.random.default_rng(seed).uniform(0, 1, (n, 1, 28, 28))  # float64

    @pytest.mark.parametrize("seed", [1, 5, 7])
    def test_training_equals_reference_step(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        data = LabeledDataset(
            rng.uniform(0, 1, (40, 1, 28, 28)).astype(np.float32), rng.integers(0, 10, 40), 10
        )
        model = tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=seed)
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.03, seed=seed)
        got = tinynn.train(model, data, cfg)
        monkeypatch.setattr(tinynn, "_loss_and_grads", _reference_loss_and_grads)
        want = tinynn.train(model, data, cfg)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_predict_is_argmax_of_forward(self):
        m = tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=5)
        x = self._inputs()
        probs = tinynn.forward(m, x)
        assert np.array_equal(tinynn.predict(m, x), probs.argmax(axis=1))
        assert np.array_equal(tinynn.predict(m, x, restrict_classes=4), probs[:, :4].argmax(axis=1))
        assert np.array_equal(tinynn.predict(m, x, restrict_classes=10), tinynn.predict(m, x))
        assert tinynn.predict(m, x[0]) == tinynn.predict(m, x[:1])[0]
        assert tinynn.forward(m, x[0]).shape == (10,)

    def test_input_cast_to_parameter_dtype(self):
        m = tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=7)
        x = self._inputs()
        assert tinynn.forward(m, x).tobytes() == tinynn.forward(m, x.astype(np.float32)).tobytes()
        assert tinynn._logits(m, x)[0].dtype == np.float32
        m64 = m.copy()
        m64.weights = [None if w is None else w.astype(np.float64) for w in m64.weights]
        m64.biases = [None if b is None else b.astype(np.float64) for b in m64.biases]
        assert tinynn._logits(m64, x)[0].dtype == np.float64
        pool = ModelSnapshot((1, 28, 28), (MaxPool2d(7),), [None], [None], 16)
        assert tinynn._logits(pool, x)[0].dtype == np.float32

    def test_batch_loss_is_the_training_loss(self):
        m = tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=1)
        x = self._inputs().astype(np.float32)
        y = np.arange(len(x)) % 10
        assert tinynn.batch_loss(m, x, y) == tinynn._loss_and_grads(m, x, y)[0]


class TestGradientCheck:
    def test_dense_model(self):
        rng = np.random.default_rng(0)
        m = _dense_model(seed=1)
        err = tinynn.gradient_check(m, rng.standard_normal((4, 6)), np.array([0, 1, 2, 1]))
        assert err <= 1e-4

    def test_conv_model(self):
        rng = np.random.default_rng(1)
        m = _conv_model(seed=2)
        err = tinynn.gradient_check(
            m, rng.standard_normal((3, 1, 6, 6)), np.array([0, 2, 1])
        )
        assert err <= 1e-4

    def test_single_conv_kernel_fixture(self):
        m = tinynn.init_model(
            (1, 4, 4), (Conv2d(1, 2), Dense(2), SoftmaxOutput()), 2, seed=3
        )
        rng = np.random.default_rng(2)
        err = tinynn.gradient_check(m, rng.standard_normal((2, 1, 4, 4)), np.array([0, 1]))
        assert err <= 1e-4

    def test_zero_weights_closed_form_bias_gradient(self):
        # with all-zero parameters and zero input, logits are 0, softmax is
        # uniform, so dL/db at the output layer must equal probs - onehot
        m = tinynn.init_model((4,), (Dense(3), SoftmaxOutput()), 3, seed=0)
        m.weights[0] = np.zeros_like(m.weights[0])
        m.biases[0] = np.zeros_like(m.biases[0])
        from modelmark.tinynn import _loss_and_grads

        _, _, grad_b = _loss_and_grads(m, np.zeros((1, 4), dtype=np.float64), np.array([0]))
        expected = np.array([1 / 3 - 1, 1 / 3, 1 / 3])
        assert np.allclose(grad_b[0], expected, atol=1e-12)

    def test_size_guard(self):
        big = tinynn.init_model((200,), (Dense(100), Dense(3), SoftmaxOutput()), 3, seed=0)
        with pytest.raises(InvalidInputError):
            tinynn.gradient_check(big, np.zeros((1, 200)), np.array([0]))


class TestTrain:
    def _toy(self, n=160, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2)).astype(np.float32)
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        return LabeledDataset(x, y, 2)

    def test_separable_toy_reaches_full_accuracy(self):
        data = self._toy()
        m = tinynn.init_model((2,), (Dense(8), Relu(), Dense(2), SoftmaxOutput()), 2, seed=1)
        trained = tinynn.train(
            m, data, TrainConfig(epochs=200, batch_size=32, learning_rate=0.05, seed=0)
        )
        assert tinynn.evaluate(trained, data) == 1.0

    def test_loss_descends_on_toy(self):
        data = self._toy()
        m = tinynn.init_model((2,), (Dense(8), Relu(), Dense(2), SoftmaxOutput()), 2, seed=1)
        cfg = lambda e: TrainConfig(epochs=e, batch_size=32, learning_rate=0.05, seed=0)
        losses = [
            tinynn.batch_loss(tinynn.train(m, data, cfg(e)), data.inputs, data.labels)
            for e in (5, 10, 20)
        ]
        assert losses[1] <= losses[0]
        assert losses[2] <= losses[1]

    def test_zero_epochs_rejected(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=0)

    def test_training_is_deterministic_and_nonmutating(self):
        data = self._toy()
        m = tinynn.init_model((2,), (Dense(4), Relu(), Dense(2), SoftmaxOutput()), 2, seed=5)
        before = [None if w is None else w.copy() for w in m.weights]
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, seed=7)
        a = tinynn.train(m, data, cfg)
        b = tinynn.train(m, data, cfg)
        for wa, wb in zip(a.weights, b.weights):
            if wa is not None:
                assert np.array_equal(wa, wb)
        for wm, wo in zip(m.weights, before):
            if wm is not None:
                assert np.array_equal(wm, wo)

    def test_divergence_reports_epoch(self):
        data = self._toy()
        m = tinynn.init_model((2,), (Dense(8), Relu(), Dense(2), SoftmaxOutput()), 2, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                tinynn.train(m, data, TrainConfig(epochs=5, learning_rate=1e20, seed=0))
        assert exc.value.epoch >= 0

    def test_class_count_mismatch(self):
        data = self._toy()
        m = _dense_model(in_dim=2, classes=3)
        with pytest.raises(InvalidInputError):
            tinynn.train(m, data, TrainConfig(epochs=1))


class TestExtendOutputClass:
    def test_original_logits_bit_identical(self):
        rng = np.random.default_rng(3)
        m = _conv_model(seed=4)
        ext = tinynn.extend_output_class(m)
        assert ext.num_classes == 4
        batch = rng.standard_normal((100, 1, 6, 6)).astype(np.float32)
        from modelmark.tinynn import _forward_stack

        logits, _ = _forward_stack(m, batch, False)
        ext_logits, _ = _forward_stack(ext, batch, False)
        assert np.array_equal(logits, ext_logits[:, :3])
        assert np.all(ext_logits[:, 3] == 0.0)
        assert np.array_equal(logits.argmax(axis=1), ext_logits[:, :3].argmax(axis=1))

    def test_input_model_unchanged(self):
        m = _dense_model()
        w = [None if x is None else x.copy() for x in m.weights]
        tinynn.extend_output_class(m)
        for a, b in zip(m.weights, w):
            if a is not None:
                assert np.array_equal(a, b)

    def test_non_dense_final_layer_rejected(self):
        m = tinynn.init_model(
            (1, 6, 6),
            (Conv2d(3, 3), MaxPool2d(4), SoftmaxOutput()),
            num_classes=3,
            seed=0,
        )
        with pytest.raises(UnsupportedArchitectureError):
            tinynn.extend_output_class(m)


class TestPrune:
    def test_rate_zero_is_identity(self):
        m = _conv_model(seed=6)
        p = tinynn.global_magnitude_prune(m, 0.0)
        for a, b in zip(m.weights, p.weights):
            if a is not None:
                assert np.array_equal(a, b)

    def test_rate_one_zeroes_weights_not_biases(self):
        m = _conv_model(seed=7)
        for b in m.biases:
            if b is not None:
                b += 0.5
        p = tinynn.global_magnitude_prune(m, 1.0)
        assert all(np.all(w == 0) for w in p.weights if w is not None)
        assert all(np.all(b == 0.5) for b in p.biases if b is not None)

    def test_half_rate_against_sort_oracle(self):
        m = tinynn.init_model((4,), (Dense(2), SoftmaxOutput()), 2, seed=0)
        m.weights[0] = np.array(
            [[0.1, -0.9, 0.3, -0.05], [0.7, 0.2, -0.4, 0.6]], dtype=np.float32
        )
        p = tinynn.global_magnitude_prune(m, 0.5)
        flat = np.abs(m.weights[0]).ravel()
        smallest = set(np.argsort(flat, kind="stable")[:4])
        expected = m.weights[0].copy().ravel()
        for i in smallest:
            expected[i] = 0.0
        assert np.array_equal(p.weights[0].ravel(), expected)

    def test_nonzero_count_is_exact(self):
        m = _conv_model(seed=8)
        total = sum(w.size for w in m.weights if w is not None)
        for rate in (0.1, 0.33, 0.74):
            pruned = tinynn.global_magnitude_prune(m, rate)
            nz = sum(int(np.count_nonzero(w)) for w in pruned.weights if w is not None)
            assert nz == total - int(rate * total)

    def test_tie_break_by_layer_then_flat_index(self):
        m = tinynn.init_model((2,), (Dense(2), Relu(), Dense(2), SoftmaxOutput()), 2, seed=0)
        m.weights[0] = np.full((2, 2), 0.5, dtype=np.float32)
        m.weights[2] = np.full((2, 2), 0.5, dtype=np.float32)
        p = tinynn.global_magnitude_prune(m, 0.5)  # 4 of 8 equal weights
        assert np.all(p.weights[0] == 0)  # earlier layer pruned first on ties
        assert np.all(p.weights[2] == 0.5)

    def test_bad_rate(self):
        with pytest.raises(InvalidInputError):
            tinynn.global_magnitude_prune(_dense_model(), 1.5)


def _tnn_body(num_classes, input_shape, layers, tensors):
    """A TNN1 file body, checksum excluded, written from the documented
    layout: each layer is a u8 code followed by its fields as u32; then a
    weight and a bias tensor for each conv and dense layer, in order."""
    body = b"TNN1" + struct.pack("<H", 1) + struct.pack("<I", num_classes)
    body += bytes([len(input_shape)]) + b"".join(struct.pack("<I", d) for d in input_shape)
    body += struct.pack("<I", len(layers))
    for code, *values in layers:
        body += bytes([code]) + b"".join(struct.pack("<I", v) for v in values)
    for t in tensors:
        body += bytes([t.ndim]) + b"".join(struct.pack("<I", d) for d in t.shape)
        body += np.asarray(t, dtype="<f4").tobytes()
    return body


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        m = _conv_model(seed=9)
        path = tmp_path / "model.tnn"
        tinynn.save_model(m, path)
        back = tinynn.load_model(path)
        assert back.layers == m.layers
        assert back.input_shape == m.input_shape
        assert back.num_classes == m.num_classes
        for a, b in zip(m.weights, back.weights):
            if a is not None:
                assert a.dtype == b.dtype == np.float32
                assert np.array_equal(a, b)

    def test_flipped_byte_is_corruption(self, tmp_path):
        m = _dense_model()
        path = tmp_path / "model.tnn"
        tinynn.save_model(m, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            tinynn.load_model(path)

    def test_future_version_is_format_error(self, tmp_path):
        import zlib

        m = _dense_model()
        path = tmp_path / "model.tnn"
        tinynn.save_model(m, path)
        data = bytearray(path.read_bytes())[:-4]
        data[4:6] = struct.pack("<H", 9)  # version field
        data += struct.pack("<I", zlib.crc32(bytes(data)) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            tinynn.load_model(path)

    def test_every_layer_type_matches_documented_layout(self, tmp_path):
        layers = (Conv2d(4, 3, 2), Relu(), MaxPool2d(2), Dense(3), SoftmaxOutput())
        m = tinynn.init_model((2, 9, 9), layers, num_classes=3, seed=2)
        path = tmp_path / "model.tnn"
        tinynn.save_model(m, path)
        body = _tnn_body(
            3, (2, 9, 9), [(1, 4, 3, 2), (3,), (2, 2), (4, 3), (5,)],
            [m.weights[0], m.biases[0], m.weights[3], m.biases[3]],
        )
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))

    @pytest.mark.parametrize(
        "input_shape,layers,tensors",
        [
            pytest.param((1, 4, 4), [(2, 0)], [], id="pool-window-0"),
            pytest.param(
                (1, 4, 4), [(1, 2, 3, 0)], [np.zeros((2, 1, 3, 3)), np.zeros(2)], id="conv-stride-0"
            ),
            pytest.param((4,), [(4, 3), (5,)], [np.zeros((3, 5)), np.zeros(3)], id="dense-weight-shape"),
            pytest.param((4,), [(4, 3), (5,)], [np.zeros((3, 4)), np.zeros(2)], id="dense-bias-shape"),
        ],
    )
    def test_invalid_model_with_valid_checksum_is_format_error(
        self, tmp_path, input_shape, layers, tensors
    ):
        body = _tnn_body(3, input_shape, layers, tensors)
        path = tmp_path / "model.tnn"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError):
            tinynn.load_model(path)

    def test_tensor_size_overflowing_int64_is_format_error(self, tmp_path):
        # 2**31 * 2**31 * 4 elements is 0 in 64-bit arithmetic
        body = _tnn_body(3, (4,), [(4, 3), (5,)], [])
        body += bytes([3]) + struct.pack("<3I", 2**31, 2**31, 4) + bytes(64)
        path = tmp_path / "model.tnn"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError):
            tinynn.load_model(path)

    @pytest.mark.parametrize(
        "shape", [(0, 2**31, 2**31), (2**32 - 1, 0), (3, 0)], ids=["zero-then-overflow", "overflow-then-zero", "zero"]
    )
    def test_zero_dimension_tensor_is_format_error(self, tmp_path, shape):
        body = _tnn_body(3, (4,), [(4, 3), (5,)], [])
        body += bytes([len(shape)]) + struct.pack(f"<{len(shape)}I", *shape) + bytes(64)
        path = tmp_path / "model.tnn"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="zero dimension"):
            tinynn.load_model(path)

    def test_bytes_before_checksum_are_format_error(self, tmp_path):
        path = tmp_path / "model.tnn"
        tinynn.save_model(_dense_model(), path)
        body = path.read_bytes()[:-4] + bytes(4)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="before the checksum"):
            tinynn.load_model(path)

    def test_bad_magic_is_format_error(self, tmp_path):
        import zlib

        path = tmp_path / "model.tnn"
        body = b"XXXX" + struct.pack("<H", 1)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(FormatError):
            tinynn.load_model(path)


class TestLoadIdx:
    MNIST_DIR = os.environ.get("MODELMARK_MNIST_DIR", "")

    @pytest.mark.skipif(
        not (MNIST_DIR and (Path(MNIST_DIR) / "train-images-idx3-ubyte").is_file()),
        reason="official MNIST files not present (set MODELMARK_MNIST_DIR)",
    )
    def test_official_mnist_training_files(self):
        data = tinynn.load_idx(
            Path(self.MNIST_DIR) / "train-images-idx3-ubyte",
            Path(self.MNIST_DIR) / "train-labels-idx1-ubyte",
        )
        assert len(data) == 60_000
        assert data.inputs.shape == (60_000, 1, 28, 28)
        assert data.num_classes == 10

    def _write_pair(self, tmp_path, images, labels):
        n, rows, cols = images.shape
        img_path = tmp_path / "img.idx"
        lbl_path = tmp_path / "lbl.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
        lbl_path.write_bytes(struct.pack(">II", 0x801, len(labels)) + bytes(labels))
        return img_path, lbl_path

    def test_fixture_round_trip(self, tmp_path):
        images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        img, lbl = self._write_pair(tmp_path, images, [1, 0])
        data = tinynn.load_idx(img, lbl)
        assert len(data) == 2
        assert data.inputs.shape == (2, 1, 3, 4)
        assert np.allclose(data.inputs[1, 0] * 255.0, images[1])
        assert list(data.labels) == [1, 0]

    def test_wrong_magic(self, tmp_path):
        img, lbl = self._write_pair(
            tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0]
        )
        raw = bytearray(img.read_bytes())
        raw[3] = 0x99
        img.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tinynn.load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, _ = self._write_pair(tmp_path, images, [0, 1])
        lbl3 = tmp_path / "bad.idx"
        lbl3.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 0]))
        with pytest.raises(InconsistencyError):
            tinynn.load_idx(img, lbl3)

    def test_truncation_has_no_partial_dataset(self, tmp_path):
        images = np.zeros((4, 5, 5), dtype=np.uint8)
        img, lbl = self._write_pair(tmp_path, images, [0, 1, 2, 3])
        img.write_bytes(img.read_bytes()[:-30])
        with pytest.raises(TruncationError):
            tinynn.load_idx(img, lbl)


class TestSnapshotValidation:
    def test_shape_chain_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            ModelSnapshot(
                input_shape=(4,),
                layers=(Dense(3), SoftmaxOutput()),
                weights=[np.zeros((3, 4), dtype=np.float32), None],
                biases=[np.zeros(3, dtype=np.float32), None],
                num_classes=5,
            )

    def test_non_finite_weights_rejected(self):
        w = np.zeros((3, 4), dtype=np.float32)
        w[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            ModelSnapshot(
                input_shape=(4,),
                layers=(Dense(3), SoftmaxOutput()),
                weights=[w, None],
                biases=[np.zeros(3, dtype=np.float32), None],
                num_classes=3,
            )

    @pytest.mark.parametrize(
        "input_shape,layers",
        [
            pytest.param((4,), (Dense(0), Relu(), Dense(3), SoftmaxOutput()), id="dense-0"),
            pytest.param((1, 6, 6), (Conv2d(0, 3), Relu(), Dense(3), SoftmaxOutput()), id="conv-0"),
            pytest.param((0,), (Dense(3), SoftmaxOutput()), id="input-0"),
        ],
    )
    def test_zero_width_is_rejected(self, input_shape, layers):
        """Such a model would hold a tensor with a zero dimension, which TNN1 refuses."""
        with pytest.raises(InvalidInputError, match="below 1"):
            tinynn.init_model(input_shape, layers, num_classes=3, seed=0)
