"""Synthetic camera: renders scene state into observation feature vectors.

The real system feeds RGB gripper-camera frames to the VLM.  Offline we
render the scene into a raw state descriptor and pass it through a *fixed*
random nonlinear projection -- the "pixels" -- so that policies must learn to
decode observations rather than reading simulator state directly.  The
unseen layout additionally shifts the projection bias (``camera_shift``),
reproducing the visual domain gap between CALVIN's seen and unseen
environments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.objects import BLOCK_NAMES, SceneArrays, SceneState

__all__ = [
    "CameraModel",
    "RAW_FEATURE_DIM",
    "OBSERVATION_DIM",
    "raw_feature_rows",
    "render_rows",
]

RAW_FEATURE_DIM = 38
OBSERVATION_DIM = 48

def _channel_gains() -> np.ndarray:
    """Per-channel gain on the raw state descriptor.

    Metric channels (positions, the drawer opening) live on a +-0.3 m scale;
    without gain a 10 cm offset moves a projected channel by ~0.02, barely
    above the sensor noise.  Scaling only those channels (and not the
    already O(1) sin/cos and binary channels) lifts task geometry above the
    noise floor without saturating the tanh response.
    """
    gains = np.ones(RAW_FEATURE_DIM)
    gains[0:3] = 3.0  # end-effector position
    for block in range(3):
        base = 7 + block * 7
        gains[base : base + 3] = 3.0  # block position relative to the gripper
        gains[base + 5 : base + 7] = 3.0  # block position on the table
    gains[28] = 5.0  # drawer opening (0..0.18 m)
    gains[31:35] = 3.0  # zone centres
    gains[36:38] = 3.0  # button position (led state at 35 is already binary)
    return gains


FEATURE_GAINS = _channel_gains()

# The projection is part of the "optics", not of any learned model, so it is
# generated once from a fixed seed and shared by every camera instance.
_PROJECTION_SEED = 20250621  # ISCA'25 opening day


def _projection() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # repro: allow[RNG-KEYED] reason=fixed optics constant shared by every camera; never a per-lane stream
    rng = np.random.default_rng(_PROJECTION_SEED)
    weights = rng.normal(0.0, 1.0 / np.sqrt(RAW_FEATURE_DIM), size=(OBSERVATION_DIM, RAW_FEATURE_DIM))
    bias = rng.normal(0.0, 0.05, size=OBSERVATION_DIM)
    shift_direction = rng.normal(0.0, 0.3, size=OBSERVATION_DIM)
    return weights, bias, shift_direction


_WEIGHTS, _BIAS, _SHIFT = _projection()


class CameraModel:
    """Render scenes to observations with sensor noise and domain shift.

    ``noise_std`` is the per-channel Gaussian noise of the sensor;
    ``domain_shift`` offsets the projection bias (the unseen layout passes a
    non-zero value here).
    """

    def __init__(self, noise_std: float = 0.01, domain_shift: float = 0.0):
        self.noise_std = noise_std
        self.domain_shift = domain_shift

    @staticmethod
    def raw_features(scene: SceneState) -> np.ndarray:
        """The underlying state descriptor (before projection and noise)."""
        ee = scene.ee_pose
        parts = [ee, [1.0 if scene.gripper_open else 0.0]]
        for name in BLOCK_NAMES:
            block = scene.blocks[name]
            parts.append(block.position - ee[:3])
            parts.append([np.sin(block.yaw), np.cos(block.yaw)])
            parts.append(block.position[:2])
        parts.append([scene.drawer.opening])
        parts.append([scene.switch.level])
        parts.append([1.0 if scene.switch.light_on else 0.0])
        parts.append(scene.zones["left"][:2])
        parts.append(scene.zones["right"][:2])
        parts.append([1.0 if scene.button.led_on else 0.0])
        parts.append(scene.button.position[:2])
        raw = np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])
        if raw.shape != (RAW_FEATURE_DIM,):
            raise AssertionError(f"raw feature dim drifted: {raw.shape}")
        return raw

    def render(self, scene: SceneState, rng: np.random.Generator) -> np.ndarray:
        """One camera frame: projected, shifted, noisy observation vector."""
        raw = self.raw_features(scene)
        pixels = np.tanh(_WEIGHTS @ (FEATURE_GAINS * raw) + _BIAS + self.domain_shift * _SHIFT)
        if self.noise_std > 0.0:
            pixels = pixels + rng.normal(0.0, self.noise_std, size=pixels.shape)
        return pixels


def raw_feature_rows(arrays: SceneArrays, lanes: np.ndarray) -> np.ndarray:
    """Stacked raw state descriptors for the selected lanes of a store.

    Row ``k`` is exactly :meth:`CameraModel.raw_features` of lane
    ``lanes[k]``: the assembly is pure elementwise arithmetic on the stacked
    arrays, so each element is bitwise the value the scalar path computes.
    """
    count = len(lanes)
    raw = np.empty((count, RAW_FEATURE_DIM))
    ee = arrays.ee_pose[lanes]
    raw[:, 0:6] = ee
    raw[:, 6] = np.where(arrays.gripper_open[lanes], 1.0, 0.0)
    positions = arrays.block_position[lanes]  # (count, blocks, 3)
    yaws = arrays.block_yaw[lanes]  # (count, blocks)
    for slot in range(len(BLOCK_NAMES)):
        base = 7 + slot * 7
        raw[:, base : base + 3] = positions[:, slot] - ee[:, :3]
        raw[:, base + 3] = np.sin(yaws[:, slot])
        raw[:, base + 4] = np.cos(yaws[:, slot])
        raw[:, base + 5 : base + 7] = positions[:, slot, :2]
    raw[:, 28] = arrays.drawer_opening[lanes]
    raw[:, 29] = arrays.switch_level[lanes]
    raw[:, 30] = np.where(
        arrays.switch_level[lanes] >= arrays.switch_on_threshold[lanes], 1.0, 0.0
    )
    raw[:, 31:33] = arrays.zone_left[lanes, :2]
    raw[:, 33:35] = arrays.zone_right[lanes, :2]
    raw[:, 35] = np.where(arrays.led_on[lanes], 1.0, 0.0)
    raw[:, 36:38] = arrays.button_position[lanes, :2]
    return raw


def render_rows(
    arrays: SceneArrays,
    lanes: np.ndarray,
    cameras: Sequence["CameraModel"],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Render one frame per selected lane, stacked as ``(len(lanes), obs)``.

    The feature assembly, projection, bias/shift adds and tanh response are
    vectorised; sensor noise is drawn per lane in lane order.  The fixed
    projection is one stacked matvec, ``(obs, raw) @ (lanes, raw, 1)``:
    numpy hands each lane's column to the same BLAS GEMV call the scalar
    ``_WEIGHTS @ raw`` makes (one GEMM over all lanes would round
    differently), so fleet observations are bitwise the scalar ``render``
    output.
    """
    raw = raw_feature_rows(arrays, lanes)
    gained = FEATURE_GAINS * raw
    pixels = np.matmul(_WEIGHTS, gained[:, :, None])[..., 0]
    shifts = np.array([camera.domain_shift for camera in cameras])
    pixels = np.tanh((pixels + _BIAS) + shifts[:, None] * _SHIFT)
    for k, (camera, rng) in enumerate(zip(cameras, rngs)):
        if camera.noise_std > 0.0:
            pixels[k] += rng.normal(0.0, camera.noise_std, size=OBSERVATION_DIM)
    return pixels
