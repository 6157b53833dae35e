"""Tests for the autograd engine, layers, losses and optimisers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import (
    LSTM,
    MLP,
    Adam,
    CompactVLM,
    Embedding,
    LayerNorm,
    Linear,
    LSTMCell,
    PatchFeatureEncoder,
    Tensor,
    bce_with_logits,
    clip_gradients,
    load_state_dict,
    mse_loss,
    no_grad,
    state_dict,
)


def numeric_gradient(fn, x0, eps=1e-6):
    grad = np.zeros_like(x0)
    flat = grad.reshape(-1)
    base = x0.reshape(-1)
    for index in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[index] += eps
        minus[index] -= eps
        flat[index] = (
            fn(Tensor(plus.reshape(x0.shape))).item() - fn(Tensor(minus.reshape(x0.shape))).item()
        ) / (2 * eps)
    return grad


def analytic_gradient(fn, x0):
    x = Tensor(x0.copy(), requires_grad=True)
    fn(x).backward()
    return x.grad


small_matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=4),
    elements=st.floats(-2.0, 2.0, width=64),
)


class TestAutogradCore:
    @given(small_matrices)
    def test_elementwise_chain(self, x0):
        def fn(x):
            return ((x * 2.0 + 1.0).tanh() * x.sigmoid()).sum()

        assert np.allclose(analytic_gradient(fn, x0), numeric_gradient(fn, x0), atol=1e-6)

    @given(small_matrices)
    def test_reductions(self, x0):
        def fn(x):
            return (x.mean(axis=0) * x.sum(axis=1).mean()).sum()

        assert np.allclose(analytic_gradient(fn, x0), numeric_gradient(fn, x0), atol=1e-6)

    def test_matmul_gradients(self, rng):
        a0 = rng.normal(size=(3, 4))
        b = Tensor(rng.normal(size=(4, 2)))

        def fn(a):
            return (a @ b).sum()

        assert np.allclose(analytic_gradient(fn, a0), numeric_gradient(fn, a0), atol=1e-6)

    def test_broadcast_add_gradients(self, rng):
        x0 = rng.normal(size=(3, 4))
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        x = Tensor(x0, requires_grad=True)
        ((x + bias) * 2.0).sum().backward()
        assert np.allclose(bias.grad, np.full(4, 6.0))
        assert np.allclose(x.grad, np.full((3, 4), 2.0))

    def test_getitem_gradient(self, rng):
        x0 = rng.normal(size=(4, 3))

        def fn(x):
            return (x[1:3] * 2.0).sum() + x[0, 0] * 5.0

        assert np.allclose(analytic_gradient(fn, x0), numeric_gradient(fn, x0), atol=1e-6)

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        (y + y).sum().backward()
        assert np.allclose(x.grad, [6.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad

    def test_division_gradients(self, rng):
        x0 = rng.normal(size=(3,)) + 3.0

        def fn(x):
            return (1.0 / x + x / 2.0).sum()

        assert np.allclose(analytic_gradient(fn, x0), numeric_gradient(fn, x0), atol=1e-6)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        assert np.allclose(x.grad, np.ones(2))


class TestLosses:
    def test_mse_matches_numpy(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        assert mse_loss(Tensor(a), b).item() == pytest.approx(np.mean((a - b) ** 2))

    def test_bce_matches_reference(self, rng):
        logits = rng.normal(size=20)
        targets = (rng.random(20) > 0.5).astype(float)
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        eps = 1e-7
        probabilities = probabilities * (1 - 2 * eps) + eps
        expected = -np.mean(
            targets * np.log(probabilities) + (1 - targets) * np.log(1 - probabilities)
        )
        assert bce_with_logits(Tensor(logits), targets).item() == pytest.approx(expected, rel=1e-6)

    def test_bce_extreme_logits_finite(self):
        loss = bce_with_logits(Tensor(np.array([1000.0, -1000.0])), np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())

    def test_bce_gradient(self, rng):
        logits0 = rng.normal(size=6)
        targets = (rng.random(6) > 0.5).astype(float)

        def fn(x):
            return bce_with_logits(x, targets)

        assert np.allclose(analytic_gradient(fn, logits0), numeric_gradient(fn, logits0), atol=1e-6)


class TestLayers:
    def test_linear_shapes(self, rng):
        layer = Linear(4, 3, rng)
        assert layer(Tensor(rng.normal(size=(7, 4)))).shape == (7, 3)
        assert layer(Tensor(rng.normal(size=(2, 5, 4)))).shape == (2, 5, 3)

    def test_mlp_validates_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_lstm_forget_bias_initialised(self, rng):
        cell = LSTMCell(3, 4, rng)
        assert np.allclose(cell.bias.numpy()[4:8], np.ones(4))

    def test_layernorm_normalises(self, rng):
        norm = LayerNorm(16)
        out = norm(Tensor(rng.normal(3.0, 2.0, size=(10, 16)))).numpy()
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_embedding_lookup(self, rng):
        table = Embedding(5, 4, rng)
        row = table(2)
        assert np.allclose(row.numpy(), table.table.numpy()[2])
        batch = table(np.array([0, 2, 4]))
        assert batch.shape == (3, 4)

    def test_parameter_count(self, rng):
        layer = Linear(4, 3, rng)
        assert layer.parameter_count() == 4 * 3 + 3

    def test_lstm_learns_running_sum(self, rng):
        lstm = LSTM(1, 12, rng)
        head = Linear(12, 1, rng)
        optimizer = Adam(lstm.parameters() + head.parameters(), lr=0.02)
        losses = []
        for _ in range(120):
            xs = rng.normal(size=(16, 5, 1))
            targets = xs.sum(axis=1)
            loss = mse_loss(head(lstm(Tensor(xs))), targets)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < 0.3 * losses[0]


class TestOptimisers:
    def _quadratic_step(self, optimizer_cls, **kwargs):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = optimizer_cls([x], **kwargs)
        for _ in range(200):
            loss = (x * x).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return np.abs(x.numpy()).max()

    def test_adam_converges(self):
        assert self._quadratic_step(Adam, lr=0.1) < 1e-3

    def test_clip_gradients(self):
        x = Tensor(np.ones(4), requires_grad=True)
        (x * 100.0).sum().backward()
        norm = clip_gradients([x], max_norm=1.0)
        assert norm == pytest.approx(200.0)
        assert np.linalg.norm(x.grad) == pytest.approx(1.0)


class TestModels:
    def test_vlm_shapes(self, rng):
        vlm = CompactVLM(observation_dim=24, num_instructions=5, token_dim=8, rng=rng)
        assert vlm(rng.normal(size=24), 1).shape == (8,)
        assert vlm(rng.normal(size=(6, 24)), np.arange(6) % 5).shape == (6, 8)
        assert vlm(rng.normal(size=(2, 12, 24)), np.array([0, 1])).shape == (2, 12, 8)

    def test_vlm_instruction_changes_token(self, rng):
        vlm = CompactVLM(observation_dim=24, num_instructions=5, token_dim=8, rng=rng)
        obs = rng.normal(size=24)
        assert not np.allclose(vlm(obs, 0).numpy(), vlm(obs, 3).numpy())

    def test_patch_encoder_validates_dims(self, rng):
        with pytest.raises(ValueError):
            PatchFeatureEncoder(observation_dim=25, num_patches=8, feature_dim=4, rng=rng)

    def test_patch_encoder_shapes(self, rng):
        encoder = PatchFeatureEncoder(observation_dim=24, num_patches=4, feature_dim=6, rng=rng)
        assert encoder(rng.normal(size=24)).shape == (6,)
        assert encoder(rng.normal(size=(5, 24))).shape == (5, 6)


class TestSerialization:
    def test_roundtrip(self, rng, tmp_path):
        from repro.nn import load_module, save_module

        vlm = CompactVLM(observation_dim=12, num_instructions=3, token_dim=8, rng=rng)
        obs = rng.normal(size=12)
        before = vlm(obs, 1).numpy().copy()
        path = str(tmp_path / "vlm.npz")
        save_module(vlm, path)
        # Perturb and restore.
        for parameter in vlm.parameters():
            parameter.data += 1.0
        load_module(vlm, path)
        assert np.allclose(vlm(obs, 1).numpy(), before)

    def test_shape_mismatch_raises(self, rng):
        a = Linear(3, 2, rng)
        b = Linear(3, 4, rng)
        with pytest.raises(ValueError):
            load_state_dict(b, state_dict(a))

    def test_missing_key_raises(self, rng):
        layer = Linear(3, 2, rng)
        state = state_dict(layer)
        state.pop(sorted(state)[0])
        with pytest.raises(KeyError):
            load_state_dict(layer, state)


class TestInferFastPath:
    """The raw-array deployment path must be bitwise the Tensor forward.

    Batch sizes start at 2: singleton batches are padded by the policy layer
    (``repro.core.policy._pad_singleton``) before reaching ``infer``, because
    one-row matmuls dispatch to a differently-ordered BLAS kernel.
    """

    def test_linear_mlp_layernorm_embedding(self, rng):
        from repro.nn.layers import MLP, Embedding, LayerNorm, Linear
        from repro.nn.tensor import Tensor, no_grad

        for batch in (2, 5, 32):
            x = rng.normal(size=(batch, 16))
            linear = Linear(16, 24, rng)
            mlp = MLP([16, 32, 8], rng)
            norm = LayerNorm(16)
            embed = Embedding(7, 12, rng)
            indices = rng.integers(0, 7, size=batch)
            with no_grad():
                assert np.array_equal(linear(Tensor(x)).numpy(), linear.infer(x))
                assert np.array_equal(mlp(Tensor(x)).numpy(), mlp.infer(x))
                assert np.array_equal(norm(Tensor(x)).numpy(), norm.infer(x))
                assert np.array_equal(embed(indices).numpy(), embed.infer(indices))

    def test_linear_stacked_input_collapses_to_one_gemm(self, rng):
        from repro.nn.layers import Linear
        from repro.nn.tensor import Tensor, no_grad

        linear = Linear(48, 32, rng)
        x = rng.normal(size=(6, 12, 48))
        with no_grad():
            assert np.array_equal(linear(Tensor(x)).numpy(), linear.infer(x))

    def test_lstm_final_hidden_state(self, rng):
        from repro.nn.layers import LSTM
        from repro.nn.tensor import Tensor, no_grad

        lstm = LSTM(16, 32, rng)
        for batch in (2, 3, 32):
            sequence = rng.normal(size=(batch, 12, 16))
            with no_grad():
                assert np.array_equal(lstm(Tensor(sequence)).numpy(), lstm.infer(sequence))

    def test_vlm_and_vit_encoders(self, rng):
        from repro.nn.tensor import Tensor, no_grad
        from repro.nn.vit import PatchFeatureEncoder
        from repro.nn.vlm import CompactVLM

        vlm = CompactVLM(48, 19, 16, rng)
        vit = PatchFeatureEncoder(48, 8, 16, rng)
        for batch in (2, 4, 16):
            instructions = rng.integers(0, 19, size=batch)
            flat = rng.normal(size=(batch, 48))
            windowed = rng.normal(size=(batch, 12, 48))
            with no_grad():
                assert np.array_equal(
                    vlm(flat, instructions).numpy(), vlm.infer(flat, instructions)
                )
                assert np.array_equal(
                    vlm(windowed, instructions).numpy(), vlm.infer(windowed, instructions)
                )
                assert np.array_equal(vit(flat).numpy(), vit.infer(flat))
