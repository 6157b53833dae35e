"""Benchmarks of the neural substrate: autograd ops, layers, attention."""

import numpy as np

from repro.nn import LSTM, Adam, MultiHeadSelfAttention, Tensor, mse_loss


def test_matmul_forward_backward(benchmark):
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(64, 128)), requires_grad=True)
    b = Tensor(rng.normal(size=(128, 64)), requires_grad=True)

    def run():
        a.zero_grad()
        b.zero_grad()
        ((a @ b).tanh().sum()).backward()
        return a.grad

    benchmark(run)


def test_lstm_window_forward(benchmark):
    rng = np.random.default_rng(0)
    lstm = LSTM(48, 96, rng)
    sequence = Tensor(rng.normal(size=(32, 12, 48)))
    benchmark(lstm, sequence)


def test_lstm_training_step(benchmark):
    rng = np.random.default_rng(0)
    lstm = LSTM(16, 32, rng)
    optimizer = Adam(lstm.parameters(), lr=1e-3)
    xs = rng.normal(size=(16, 8, 16))
    targets = rng.normal(size=(16, 32))

    def run():
        loss = mse_loss(lstm(Tensor(xs)), targets)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    benchmark(run)


def test_attention_forward(benchmark):
    rng = np.random.default_rng(0)
    attention = MultiHeadSelfAttention(dim=48, heads=4, rng=rng)
    tokens = Tensor(rng.normal(size=(13, 48)))
    benchmark(attention, tokens)
