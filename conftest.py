"""Session fixtures shared by ``tests/`` and ``benchmarks/``.

The small trained policy pair is the most expensive fixture in either
suite, so it is trained once per session and shared.  Tests must not
mutate it: train or re-fit a ``copy.deepcopy`` instead.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def panda_model():
    from repro.robot import panda

    return panda()


@pytest.fixture(scope="session")
def tiny_policies():
    """Small policies trained for one epoch: ``(baseline, corki, demos)``.

    These are *not* the accuracy-tuned models -- just enough training that
    closed-loop rollouts behave non-trivially.  Both trainers fit their
    normalizers on the same demonstrations, so the pair archives (and ships
    to pool workers) as one.
    """
    import numpy as np

    from repro.core import BaselinePolicy, CorkiPolicy, TrainingConfig, train_baseline, train_corki
    from repro.sim import OBSERVATION_DIM, SEEN_LAYOUT, TASKS, collect_demonstrations

    rng = np.random.default_rng(0)
    demos = collect_demonstrations(SEEN_LAYOUT, rng, per_task=3)
    baseline = BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=32)
    corki = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=32)
    config = TrainingConfig(epochs=1, batch_size=64)
    train_baseline(baseline, demos, config)
    train_corki(corki, demos, config)
    return baseline, corki, demos
