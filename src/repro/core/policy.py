"""The two policy heads the paper compares.

``BaselinePolicy`` reproduces RoboFlamingo's head (paper Fig. 3): at every
frame, the 12-token vision-language window runs through an LSTM and two MLP
heads emit the next-step 6-DoF pose delta and the gripper bit.

``CorkiPolicy`` is the paper's contribution (Sec. 3.2): the same backbone
predicts cubic trajectory coefficients for the next nine steps plus a
per-step gripper schedule.  Token slots for frames the deployed system never
encodes are filled by a learned mask embedding (Fig. 4), and slots carrying
a closed-loop feedback frame use a ViT-encoded feature instead (Sec. 3.4).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PREDICTION_HORIZON
from repro.core.trajectory import CubicTrajectory, TrajectoryBatch, polynomial_design_matrix
from repro.nn.functional import mix_slots
from repro.nn.layers import LSTM, MLP, Module
from repro.nn.tensor import Tensor, no_grad
from repro.nn.vit import PatchFeatureEncoder
from repro.nn.vlm import CompactVLM
from repro.sim.dataset import ActionNormalizer

__all__ = ["WINDOW_LENGTH", "BaselinePolicy", "CorkiPolicy"]

WINDOW_LENGTH = 12
"""The vision-language token window length (RoboFlamingo's queue of 12)."""


def _pad_singleton(array: np.ndarray) -> np.ndarray:
    """Duplicate a one-row batch so BLAS never takes its vector-path kernel.

    GEMM row results are bitwise identical for any batch size >= 2, but a
    one-row matmul dispatches to a differently-ordered kernel.  Padding
    singleton batches (and slicing the pad back off afterwards) keeps fleet
    evaluation bit-for-bit reproducible whether an episode runs alone or
    alongside 31 others -- the property ``tests/test_fleet.py`` locks in.
    """
    return np.concatenate([array, array], axis=0)


def _batched_forward(inputs, forward):
    """Run ``forward`` over a batch with the singleton-pad invariant applied.

    Pads every input to at least two rows (see :func:`_pad_singleton`), runs
    ``forward`` under ``no_grad`` and slices each returned array back to the
    true batch size.  Every batched deployment entry point routes through
    here so the determinism-critical pad/slice pairing lives in one place.
    ``forward`` is a raw-array ``infer`` chain (see :mod:`repro.nn.layers`):
    deployment needs no autodiff graph, and the graph bookkeeping is a large
    share of the fleet engine's per-tick cost; the ``no_grad`` guard stays as
    a belt-and-braces measure for any Tensor op a forward may still touch.
    """
    batch = inputs[0].shape[0]
    if batch == 1:
        inputs = tuple(_pad_singleton(array) for array in inputs)
    with no_grad():
        outputs = forward(*inputs)
    return tuple(output[:batch] for output in outputs)


class _PolicyBase(Module):
    """Shared backbone: VLM token encoder plus the window LSTM."""

    def __init__(
        self,
        observation_dim: int,
        num_instructions: int,
        token_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
    ):
        self.observation_dim = observation_dim
        self.token_dim = token_dim
        self.hidden_dim = hidden_dim
        self.vlm = CompactVLM(observation_dim, num_instructions, token_dim, rng)
        self.lstm = LSTM(token_dim, hidden_dim, rng)
        self.normalizer = ActionNormalizer(np.ones(6))

    def set_normalizer(self, normalizer: ActionNormalizer) -> None:
        """Attach the delta-scale normaliser fitted on the training demos."""
        self.normalizer = normalizer

    def encode_tokens(self, observations: Tensor | np.ndarray, instruction) -> Tensor:
        """Vision-language tokens for a (batch, window, obs) block."""
        return self.vlm(observations, instruction)

    def encode_frame_token_batch(
        self, observations: np.ndarray, instructions: np.ndarray
    ) -> np.ndarray:
        """VLM tokens for one frame per fleet lane, in one forward pass.

        ``observations`` is ``(batch, obs)`` and ``instructions`` an int
        array ``(batch,)``; returns ``(batch, token_dim)`` tokens.  Corki
        lanes call this at planning boundaries; baseline lanes call it every
        tick for the newest window frame.
        """
        return _batched_forward(
            (
                np.asarray(observations, dtype=float),
                np.asarray(instructions, dtype=int),
            ),
            lambda obs, instr: (self.vlm.infer(obs, instr),),
        )[0]


class BaselinePolicy(_PolicyBase):
    """RoboFlamingo-style per-frame action prediction."""

    def __init__(
        self,
        observation_dim: int,
        num_instructions: int,
        rng: np.random.Generator,
        token_dim: int = 32,
        hidden_dim: int = 64,
    ):
        super().__init__(observation_dim, num_instructions, token_dim, hidden_dim, rng)
        self.pose_head = MLP([hidden_dim, hidden_dim, 6], rng)
        self.gripper_head = MLP([hidden_dim, hidden_dim // 2, 1], rng)

    def forward(
        self, observations: np.ndarray | Tensor, instruction: int | np.ndarray
    ) -> tuple[Tensor, Tensor]:
        """Training forward pass on a (batch, window, obs) block.

        Returns ``(pose, gripper_logit)`` where ``pose`` is the *normalised*
        next-frame delta (batch, 6) and ``gripper_logit`` (batch, 1).
        """
        hidden = self.lstm(self.encode_tokens(observations, instruction))
        return self.pose_head(hidden), self.gripper_head(hidden)

    def predict_token_batch(
        self, token_windows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deployment inference from already-encoded token windows.

        The VLM encodes each frame independently (no cross-frame mixing), so
        a sliding window only ever needs its *newest* frame encoded -- the
        fleet runner keeps a per-lane token ring, batch-encodes one frame
        per lane per tick (:meth:`encode_frame_token_batch`) and hands the
        stacked ``(batch, window, token_dim)`` rings here.  Encoding a frame
        once and reusing it is bitwise identical to re-encoding the full
        window every tick, at a twelfth of the VLM work.
        """
        def forward(tokens):
            hidden = self.lstm.infer(tokens)
            return self.pose_head.infer(hidden), self.gripper_head.infer(hidden)

        pose, gripper = _batched_forward(
            (np.asarray(token_windows, dtype=float),), forward
        )
        return self.normalizer.denormalize(pose), gripper[:, 0] > 0.0


class CorkiPolicy(_PolicyBase):
    """Corki's trajectory-prediction head (paper Sec. 3.2-3.4)."""

    def __init__(
        self,
        observation_dim: int,
        num_instructions: int,
        rng: np.random.Generator,
        token_dim: int = 32,
        hidden_dim: int = 64,
        horizon: int = PREDICTION_HORIZON,
        vit_patches: int = 8,
    ):
        super().__init__(observation_dim, num_instructions, token_dim, hidden_dim, rng)
        self.horizon = horizon
        self.coefficient_head = MLP([hidden_dim, hidden_dim, 6 * 4], rng)
        self.gripper_head = MLP([hidden_dim, hidden_dim, horizon], rng)
        self.mask_embedding = Tensor(rng.normal(0.0, 0.1, size=token_dim), requires_grad=True)
        self.feedback_encoder = PatchFeatureEncoder(
            observation_dim, vit_patches, token_dim, rng
        )
        # Normalised waypoint times tau_j = j / horizon for j = 0..horizon.
        # Eq. 5 sums from j = 0: the zero-offset sample pins the cubic's
        # constant term so the trajectory starts at the current pose.
        self._basis = polynomial_design_matrix(np.arange(0, horizon + 1) / horizon)

    # -- training ------------------------------------------------------------

    def forward(
        self,
        observations: np.ndarray | Tensor,
        instruction: int | np.ndarray,
        real_slots: np.ndarray,
        feedback_slots: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Training forward pass with token masking (paper Fig. 4).

        ``real_slots`` is a boolean (batch, window) array marking slots whose
        frames the deployed system would actually encode with the VLM;
        ``feedback_slots`` marks slots carrying a ViT closed-loop feature.
        Remaining slots use the learned mask embedding.  Returns
        ``(coefficients, gripper_logits)`` with shapes (batch, 6, 4) and
        (batch, horizon).
        """
        observations = (
            observations if isinstance(observations, Tensor) else Tensor(observations)
        )
        batch, window = observations.shape[0], observations.shape[1]
        real = np.asarray(real_slots, dtype=float)
        feedback = (
            np.zeros((batch, window))
            if feedback_slots is None
            else np.asarray(feedback_slots, dtype=float)
        )
        masked = 1.0 - np.clip(real + feedback, 0.0, 1.0)

        mixed = mix_slots(
            self.encode_tokens(observations, instruction),
            self.feedback_encoder(observations),
            self.mask_embedding,
            real,
            feedback,
            masked,
        )
        hidden = self.lstm(mixed)
        coefficients = self.coefficient_head(hidden).reshape(batch, 6, 4)
        gripper_logits = self.gripper_head(hidden)
        return coefficients, gripper_logits

    def waypoint_offsets(self, coefficients: Tensor) -> Tensor:
        """Sample the predicted cubic at the waypoint times (Eq. 5's r(j)).

        Input (batch, 6, 4) coefficients; output (batch, 6, horizon + 1) of
        normalised pose offsets for j = 0..horizon (j = 0 supervises the
        start-of-trajectory offset against zero, as in the paper's Eq. 5).
        """
        return coefficients @ Tensor(self._basis.T)

    # -- deployment -----------------------------------------------------------

    def encode_frame_token(self, observation: np.ndarray, instruction: int) -> np.ndarray:
        """Token for one frame the system chose to run VLM inference on."""
        return self.encode_frame_token_batch(
            np.asarray(observation, dtype=float)[None], np.array([instruction])
        )[0]

    def encode_feedback_token_batch(self, observations: np.ndarray) -> np.ndarray:
        """ViT closed-loop feature tokens for a ``(batch, obs)`` block."""
        return _batched_forward(
            (np.asarray(observations, dtype=float),),
            lambda obs: (self.feedback_encoder.infer(obs),),
        )[0]

    def encode_feedback_token(self, observation: np.ndarray) -> np.ndarray:
        """ViT-encoded closed-loop feature token for a mid-trajectory frame."""
        return self.encode_feedback_token_batch(
            np.asarray(observation, dtype=float)[None]
        )[0]

    def mask_token(self) -> np.ndarray:
        """The learned mask embedding used for never-encoded frames."""
        return self.mask_embedding.numpy()

    def predict_trajectory_batch(
        self,
        token_windows: np.ndarray,
        origin_poses: np.ndarray,
        step_dt: float,
    ) -> TrajectoryBatch:
        """Trajectory inference for every fleet lane at a planning boundary.

        ``token_windows`` is ``(batch, window, token_dim)`` with mask and
        feedback tokens already substituted per lane; ``origin_poses`` the
        ``(batch, 6)`` end-effector poses at inference time.  One batched
        LSTM sweep serves all lanes; returns the physical-unit cubics as one
        :class:`~repro.core.trajectory.TrajectoryBatch` of arrays.
        """
        def forward(windows):
            hidden = self.lstm.infer(windows)
            return (
                self.coefficient_head.infer(hidden),
                self.gripper_head.infer(hidden),
            )

        coefficients, gripper_logits = _batched_forward(
            (np.asarray(token_windows, dtype=float),), forward
        )
        batch = coefficients.shape[0]
        return TrajectoryBatch(
            origins=np.asarray(origin_poses, dtype=float),
            coefficients=coefficients.reshape(batch, 6, 4)
            * self.normalizer.scale[None, :, None],
            duration=self.horizon * step_dt,
            gripper_open=gripper_logits > 0.0,
        )

    def predict_trajectory(
        self,
        token_window: np.ndarray,
        origin_pose: np.ndarray,
        step_dt: float,
    ) -> CubicTrajectory:
        """Deployment inference from an already assembled token window.

        ``token_window`` has shape (window, token_dim) with mask/feedback
        tokens already substituted; ``origin_pose`` is the end-effector pose
        at inference time.  Thin batch-of-one wrapper over
        :meth:`predict_trajectory_batch`; returns the physical-unit cubic.
        """
        return self.predict_trajectory_batch(
            np.asarray(token_window, dtype=float)[None],
            np.asarray(origin_pose, dtype=float)[None],
            step_dt,
        ).trajectory(0)
