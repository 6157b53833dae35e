"""The fused training kernels are bitwise the per-op autodiff graph.

``LSTM.forward``, ``LayerNorm.forward`` and Corki's slot mix
(``repro.nn.functional.mix_slots``) each record one graph node with a
hand-derived backward.  This module keeps the per-op versions they replaced
as the frozen reference, and requires the loss, every input gradient and
every parameter gradient to match it byte for byte:

* at every batch size 1-32 at the quick profile's dims (token 48, hidden 96,
  window 12), for each kernel and for both policies under their training
  losses;
* over random small dims (hypothesis);
* over one epoch of ``train_baseline`` and ``train_corki`` whose last batch
  is short, by the trained weights' bytes.

The frozen reference's gates go through ``Tensor.sigmoid``, which is the
same :func:`repro.nn.tensor.sigmoid_values` the fused kernels call, so a
changed bit in the logistic would change both sides alike: the logistic is
pinned on its own, byte for byte, against the masked form it replaced.

Bitwise equality assumes the single-threaded BLAS kernels the references
run under (CI pins ``OMP_NUM_THREADS=1``).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core.policy import WINDOW_LENGTH, BaselinePolicy, CorkiPolicy
from repro.core.training import TrainingConfig, deployment_slot_pattern, train_baseline, train_corki
from repro.nn.functional import bce_with_logits, mix_slots, mse_loss
from repro.nn.layers import LSTM, LayerNorm
from repro.nn.serialization import state_dict
from repro.nn.tensor import Tensor, sigmoid_values

TOKEN_DIM, HIDDEN_DIM = 48, 96
BATCH_SIZES = range(1, 33)


# -- the frozen per-op reference ------------------------------------------------


def reference_sigmoid(z):
    """The masked logistic: both branches evaluated, then selected."""
    z = np.asarray(z)
    exp_z = np.exp(-np.abs(z))
    denominator = 1.0 + exp_z
    return np.where(z >= 0, 1.0 / denominator, exp_z / denominator)


def reference_cell(cell, x, state):
    """One LSTM step as per-op graph nodes (gate layout ``[i, f, g, o]``)."""
    h_prev, c_prev = state
    gates = x @ cell.weight_ih + h_prev @ cell.weight_hh + cell.bias
    hs = cell.hidden_size
    i_gate = gates[..., 0:hs].sigmoid()
    f_gate = gates[..., hs : 2 * hs].sigmoid()
    g_gate = gates[..., 2 * hs : 3 * hs].tanh()
    o_gate = gates[..., 3 * hs : 4 * hs].sigmoid()
    c_next = f_gate * c_prev + i_gate * g_gate
    h_next = o_gate * c_next.tanh()
    return h_next, c_next


def reference_lstm(lstm, sequence):
    """Final hidden state over a list of per-step tensors, or one
    ``(batch, window, input)`` tensor sliced along the window."""
    if isinstance(sequence, Tensor):
        sequence = [sequence[:, t, :] for t in range(sequence.shape[1])]
    shape = sequence[0].shape[:-1] + (lstm.cell.hidden_size,)
    state = (Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))
    for token in sequence:
        state = reference_cell(lstm.cell, token, state)
    return state[0]


def reference_layernorm(self, x):
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    variance = (centred * centred).mean(axis=-1, keepdims=True)
    normalised = centred * (variance + self.eps) ** -0.5
    return normalised * self.gain + self.shift


def reference_mix(tokens, features, mask, keep, feed, drop):
    """The per-slot mix as a list of ``(batch, dim)`` tensors, one per slot."""
    return [
        tokens[:, t, :] * Tensor(keep[:, t : t + 1])
        + features[:, t, :] * Tensor(feed[:, t : t + 1])
        + mask * Tensor(drop[:, t : t + 1])
        for t in range(keep.shape[1])
    ]


def reference_baseline_forward(self, observations, instruction):
    hidden = reference_lstm(self.lstm, self.encode_tokens(observations, instruction))
    return self.pose_head(hidden), self.gripper_head(hidden)


def reference_corki_forward(self, observations, instruction, real_slots, feedback_slots=None):
    observations = observations if isinstance(observations, Tensor) else Tensor(observations)
    batch, window = observations.shape[0], observations.shape[1]
    real = np.asarray(real_slots, dtype=float)
    feedback = (
        np.zeros((batch, window))
        if feedback_slots is None
        else np.asarray(feedback_slots, dtype=float)
    )
    masked = 1.0 - np.clip(real + feedback, 0.0, 1.0)
    sequence = reference_mix(
        self.encode_tokens(observations, instruction),
        self.feedback_encoder(observations),
        self.mask_embedding,
        real,
        feedback,
        masked,
    )
    hidden = reference_lstm(self.lstm, sequence)
    return self.coefficient_head(hidden).reshape(batch, 6, 4), self.gripper_head(hidden)


@contextmanager
def per_op_graph(monkeypatch):
    """Route LayerNorm and both policy forwards through the reference."""
    with monkeypatch.context() as patch:
        patch.setattr(LayerNorm, "forward", reference_layernorm)
        patch.setattr(BaselinePolicy, "forward", reference_baseline_forward)
        patch.setattr(CorkiPolicy, "forward", reference_corki_forward)
        yield


# -- comparison helpers ------------------------------------------------------------


def _grad_bytes(loss_fn, tensors):
    """Zero ``tensors``' gradients, backpropagate ``loss_fn()``; return the
    bytes of the loss and of every gradient."""
    for tensor in tensors:
        tensor.zero_grad()
    loss = loss_fn()
    loss.backward()
    return [loss.data.tobytes()] + [tensor.grad.tobytes() for tensor in tensors]


def _by_batch(cases, loss_fn, tensors):
    """``_grad_bytes`` of ``loss_fn(*case)`` over ``tensors(case)``, per batch size."""
    return {b: _grad_bytes(lambda: loss_fn(*case), tensors(case)) for b, case in cases.items()}


def _differing(fused, reference):
    return [b for b in fused if fused[b] != reference[b]]


def _slot_weights(rng, batch, window, horizon=9):
    """``(keep, feed, drop)`` weights of seeded deployment slot patterns."""
    real = np.zeros((batch, window), dtype=bool)
    feedback = np.zeros((batch, window), dtype=bool)
    for row in range(batch):
        period = int(rng.integers(1, horizon + 1))
        real[row], feedback[row] = deployment_slot_pattern(window, period, rng)
    keep, feed = real.astype(float), feedback.astype(float)
    return keep, feed, 1.0 - np.clip(keep + feed, 0.0, 1.0)


def _leaf(data):
    return Tensor(data, requires_grad=True)


# -- kernels at the quick profile's dims, every batch size -----------------------


SIGMOID_SPECIALS = np.array(
    [
        0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan,
        5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
        36.7, -36.7, 709.8, -709.8, 745.2, -745.2,
    ]
)
_NAN_PAYLOADS = np.array(
    [0x7FF0000000000001, 0x7FF4000000000000, 0xFFF8000000000001, 0x7FFFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64)


def _sigmoid_bytes_match(z):
    with np.errstate(invalid="ignore"):
        return sigmoid_values(z).tobytes() == reference_sigmoid(z).tobytes()


def test_sigmoid_values_matches_masked_reference_on_special_values():
    for z in (SIGMOID_SPECIALS, _NAN_PAYLOADS, SIGMOID_SPECIALS.reshape(4, 5)):
        assert _sigmoid_bytes_match(z)
    assert _sigmoid_bytes_match(np.float64(-0.0))


@given(
    arrays(
        np.float64,
        array_shapes(max_dims=3, max_side=40),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_sigmoid_values_matches_masked_reference(z):
    assert _sigmoid_bytes_match(z)


@given(arrays(np.uint64, st.integers(1, 512)))
def test_sigmoid_values_matches_masked_reference_on_bit_patterns(bits):
    """Every float64 bit pattern, NaN payloads and subnormals included."""
    assert _sigmoid_bytes_match(bits.view(np.float64))


def test_lstm_matches_per_op_graph():
    rng = np.random.default_rng(11)
    lstm = LSTM(TOKEN_DIM, HIDDEN_DIM, rng)
    cell = lstm.cell
    cases = {
        b: (_leaf(rng.normal(size=(b, WINDOW_LENGTH, TOKEN_DIM))), rng.normal(size=(b, HIDDEN_DIM)))
        for b in BATCH_SIZES
    }

    def tensors(case):
        return [case[0], cell.weight_ih, cell.weight_hh, cell.bias]

    fused = _by_batch(cases, lambda x, target: mse_loss(lstm(x), target), tensors)
    reference = _by_batch(
        cases, lambda x, target: mse_loss(reference_lstm(lstm, x), target), tensors
    )
    bad = _differing(fused, reference)
    assert bad == [], f"fused LSTM differs from the per-op graph at batch sizes {bad}"


def test_layernorm_matches_per_op_graph():
    rng = np.random.default_rng(12)
    norm = LayerNorm(TOKEN_DIM)
    norm.gain.data[...] = rng.normal(1.0, 0.2, size=TOKEN_DIM)
    norm.shift.data[...] = rng.normal(0.0, 0.2, size=TOKEN_DIM)
    shape = (WINDOW_LENGTH, TOKEN_DIM)
    cases = {
        b: (_leaf(rng.normal(size=(b, *shape))), rng.normal(size=(b, *shape)))
        for b in BATCH_SIZES
    }

    def tensors(case):
        return [case[0], norm.gain, norm.shift]

    fused = _by_batch(cases, lambda x, target: mse_loss(norm(x), target), tensors)
    reference = _by_batch(
        cases, lambda x, target: mse_loss(reference_layernorm(norm, x), target), tensors
    )
    bad = _differing(fused, reference)
    assert bad == [], f"fused LayerNorm differs from the per-op graph at batch sizes {bad}"


def test_slot_mix_into_lstm_matches_per_op_graph():
    rng = np.random.default_rng(13)
    lstm = LSTM(TOKEN_DIM, HIDDEN_DIM, rng)
    cell = lstm.cell
    mask = _leaf(rng.normal(0.0, 0.1, size=TOKEN_DIM))
    shape = (WINDOW_LENGTH, TOKEN_DIM)
    cases = {
        b: (
            _leaf(rng.normal(size=(b, *shape))),
            _leaf(rng.normal(size=(b, *shape))),
            _slot_weights(rng, b, WINDOW_LENGTH),
            rng.normal(size=(b, HIDDEN_DIM)),
        )
        for b in BATCH_SIZES
    }

    def tensors(case):
        return [case[0], case[1], mask, cell.weight_ih, cell.weight_hh, cell.bias]

    def fused(tokens, features, weights, target):
        return mse_loss(lstm(mix_slots(tokens, features, mask, *weights)), target)

    def reference(tokens, features, weights, target):
        mixed = reference_mix(tokens, features, mask, *weights)
        return mse_loss(reference_lstm(lstm, mixed), target)

    bad = _differing(_by_batch(cases, fused, tensors), _by_batch(cases, reference, tensors))
    assert bad == [], f"fused slot mix differs from the per-op graph at batch sizes {bad}"


# -- both policies under their training losses ------------------------------------


def _policy(policy_cls, seed):
    from repro.sim import OBSERVATION_DIM, TASKS

    return policy_cls(
        OBSERVATION_DIM,
        len(TASKS),
        np.random.default_rng(seed),
        token_dim=TOKEN_DIM,
        hidden_dim=HIDDEN_DIM,
    )


def _policy_mismatches(policy, cases, loss_fn, monkeypatch):
    def tensors(case):
        return policy.parameters()

    fused = _by_batch(cases, loss_fn, tensors)
    with per_op_graph(monkeypatch):
        reference = _by_batch(cases, loss_fn, tensors)
    return _differing(fused, reference)


def _observations(rng, batch, policy):
    from repro.sim import TASKS

    return (
        rng.normal(size=(batch, WINDOW_LENGTH, policy.observation_dim)),
        rng.integers(0, len(TASKS), size=batch),
    )


def test_baseline_policy_matches_per_op_graph(monkeypatch):
    baseline = _policy(BaselinePolicy, 14)
    rng = np.random.default_rng(15)
    cases = {
        b: (
            *_observations(rng, b, baseline),
            rng.normal(size=(b, 6)),
            rng.integers(0, 2, size=(b, 1)).astype(float),
        )
        for b in BATCH_SIZES
    }

    def loss(windows, instructions, poses, grippers):
        pose, gripper = baseline(windows, instructions)
        return mse_loss(pose, poses) + 0.5 * bce_with_logits(gripper, grippers)

    bad = _policy_mismatches(baseline, cases, loss, monkeypatch)
    assert bad == [], f"baseline gradients differ from the per-op graph at batch sizes {bad}"


def test_corki_policy_matches_per_op_graph(monkeypatch):
    corki = _policy(CorkiPolicy, 14)
    horizon = corki.horizon
    rng = np.random.default_rng(15)
    cases = {}
    for b in BATCH_SIZES:
        keep, feed, _ = _slot_weights(rng, b, WINDOW_LENGTH, horizon)
        cases[b] = (
            *_observations(rng, b, corki),
            keep > 0,
            feed > 0,
            rng.normal(size=(b, 6, horizon + 1)),
            rng.integers(0, 2, size=(b, horizon)).astype(float),
        )

    def loss(windows, instructions, real, feedback, offsets, grippers):
        coefficients, logits = corki(windows, instructions, real, feedback)
        waypoints = corki.waypoint_offsets(coefficients)
        return mse_loss(waypoints, offsets) + 0.5 * bce_with_logits(logits, grippers)

    bad = _policy_mismatches(corki, cases, loss, monkeypatch)
    assert bad == [], f"Corki gradients differ from the per-op graph at batch sizes {bad}"


# -- random small dims -------------------------------------------------------------


@given(
    batch=st.integers(1, 6),
    window=st.integers(1, 5),
    dim=st.integers(1, 7),
    hidden=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_kernels_match_per_op_graph_on_small_dims(batch, window, dim, hidden, seed):
    """LayerNorm into the slot mix into the LSTM."""
    rng = np.random.default_rng(seed)
    lstm = LSTM(dim, hidden, rng)
    cell = lstm.cell
    norm = LayerNorm(dim)
    norm.gain.data[...] = rng.normal(1.0, 0.2, size=dim)
    mask = _leaf(rng.normal(size=dim))
    tokens = _leaf(rng.normal(size=(batch, window, dim)))
    features = _leaf(rng.normal(size=(batch, window, dim)))
    weights = _slot_weights(rng, batch, window)
    target = rng.normal(size=(batch, hidden))
    tensors = [tokens, features, mask, norm.gain, norm.shift]
    tensors += [cell.weight_ih, cell.weight_hh, cell.bias]

    def fused():
        return mse_loss(lstm(mix_slots(norm(tokens), features, mask, *weights)), target)

    def reference():
        mixed = reference_mix(reference_layernorm(norm, tokens), features, mask, *weights)
        return mse_loss(reference_lstm(lstm, mixed), target)

    assert _grad_bytes(fused, tensors) == _grad_bytes(reference, tensors)


# -- one epoch of each trainer -------------------------------------------------------


@pytest.fixture(scope="module")
def short_tail_demos():
    """The shortest prefix of scripted demos that fills at least 8 batches
    of 32 windows and leaves a last batch of 3-25 rows."""
    from repro.sim import SEEN_LAYOUT, collect_demonstrations

    demos = collect_demonstrations(SEEN_LAYOUT, np.random.default_rng(16), per_task=1)
    for count in range(1, len(demos) + 1):
        windows = sum(len(demo) - 1 for demo in demos[:count])
        if windows >= 8 * 32 and 3 <= windows % 32 <= 25:
            return demos[:count]
    raise AssertionError("no demo prefix leaves a short last batch")


def _trained_bytes(trainer, policy_cls, demos):
    policy = _policy(policy_cls, 17)
    losses = trainer(policy, demos, TrainingConfig(epochs=1, batch_size=32, seed=17))
    weights = {name: value.tobytes() for name, value in state_dict(policy).items()}
    return np.asarray(losses).tobytes(), weights


@pytest.mark.parametrize(
    "trainer, policy_cls",
    [(train_baseline, BaselinePolicy), (train_corki, CorkiPolicy)],
    ids=["baseline", "corki"],
)
def test_one_epoch_trains_the_same_bytes(trainer, policy_cls, short_tail_demos, monkeypatch):
    fused_losses, fused = _trained_bytes(trainer, policy_cls, short_tail_demos)
    with per_op_graph(monkeypatch):
        reference_losses, reference = _trained_bytes(trainer, policy_cls, short_tail_demos)
    assert fused_losses == reference_losses, "epoch losses differ from the per-op graph"
    differing = sorted(name for name in fused if fused[name] != reference[name])
    assert differing == [], f"trained weights differ from the per-op graph: {differing}"
