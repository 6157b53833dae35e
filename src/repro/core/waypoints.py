"""Waypoint extraction and identification -- the paper's Algorithm 1.

The adaptive variant of Corki terminates a predicted trajectory early at the
first waypoint showing "significant movement": either the curvature test
fails (an interior point subtends more than 90 degrees against the chord, or
lies farther than ``d`` from it) or the gripper state changes.  The routine
is deliberately cheap -- the paper reports under 500 FLOPs per invocation --
and :func:`adaptive_termination_step` mirrors its loop structure exactly.
The fleet runner decides every re-planning lane of a tick in one call of
:func:`adaptive_termination_step_lanes`, which evaluates all (candidate,
interior point) pairs as arrays with the scalar loop's arithmetic, so its
decisions are the loop's (``tests/test_batched_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gripper_change_flags",
    "segment_angles",
    "point_line_distance",
    "adaptive_termination_step",
    "adaptive_termination_step_lanes",
]

_ANGLE_LIMIT = np.pi / 2.0


def gripper_change_flags(
    gripper_open: np.ndarray, current_open: bool | np.ndarray
) -> np.ndarray:
    """Mark waypoints where the commanded gripper state changes.

    ``gripper_open`` is the per-waypoint schedule; a waypoint is flagged when
    its state differs from the state in force just before it (the paper's
    ``G`` sequence, e.g. ``0,0,0,1,0``).  Leading axes are lanes: an
    ``(L, steps)`` schedule takes an ``(L,)`` array of current states.
    """
    schedule = np.asarray(gripper_open, dtype=bool)
    current = np.asarray(current_open, dtype=bool).reshape(schedule.shape[:-1] + (1,))
    return schedule != np.concatenate([current, schedule[..., :-1]], axis=-1)


def segment_angles(point: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[float, float]:
    """Angles ``(angle at start, angle at end)`` of triangle start-point-end.

    These are the paper's ``angle(BAD)`` and ``angle(BDA)`` tests: how far the
    interior point swings away from the chord between the trajectory start
    and the candidate endpoint.
    """
    to_point_from_start = point - start
    to_point_from_end = point - end
    chord = end - start
    chord_norm = float(np.linalg.norm(chord))
    if chord_norm < 1e-12:
        # Degenerate chord: the candidate endpoint coincides with the start,
        # so any interior displacement is "significant".
        displaced = float(np.linalg.norm(to_point_from_start)) > 1e-12
        return (np.pi, np.pi) if displaced else (0.0, 0.0)

    def angle(vector: np.ndarray, reference: np.ndarray) -> float:
        norm = float(np.linalg.norm(vector))
        if norm < 1e-12:
            return 0.0
        cosine = float(np.dot(vector, reference)) / (norm * float(np.linalg.norm(reference)))
        return float(np.arccos(np.clip(cosine, -1.0, 1.0)))

    return angle(to_point_from_start, chord), angle(to_point_from_end, -chord)


def point_line_distance(point: np.ndarray, start: np.ndarray, end: np.ndarray) -> float:
    """Distance from ``point`` to the line through ``start`` and ``end``."""
    chord = end - start
    norm = float(np.linalg.norm(chord))
    if norm < 1e-12:
        return float(np.linalg.norm(point - start))
    projection = np.dot(point - start, chord) / norm
    closest = start + projection * chord / norm
    return float(np.linalg.norm(point - closest))


def adaptive_termination_step(
    start: np.ndarray,
    waypoints: np.ndarray,
    gripper_flags: np.ndarray,
    distance_threshold: float,
) -> int:
    """Algorithm 1: the earliest termination step (1-based).

    ``start`` is point A (3-D position), ``waypoints`` the positions of the
    trajectory's waypoints B..F (shape (steps, 3)), ``gripper_flags`` the
    change indicators from :func:`gripper_change_flags`.  Returns how many
    steps of the trajectory to execute before re-planning.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    steps = len(waypoints)
    if gripper_flags.shape != (steps,):
        raise ValueError("gripper_flags must align with waypoints")

    for index in range(steps - 1):  # candidates B .. E (F always accepted)
        candidate = waypoints[index]
        # Gripper change at the candidate or the next waypoint ends the
        # trajectory here so the gripper acts on fresh observations.
        if gripper_flags[index] or gripper_flags[index + 1]:
            return index + 1
        # Curvature checks against every interior point (A, P].
        for interior_index in range(index):
            interior = waypoints[interior_index]
            angle_start, angle_end = segment_angles(interior, start, candidate)
            if angle_start > _ANGLE_LIMIT or angle_end > _ANGLE_LIMIT:
                return index + 1
            if point_line_distance(interior, start, candidate) > distance_threshold:
                return index + 1
    return steps


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot`` of matching rows along the last axis.

    A stacked ``(1, n) @ (n, 1)`` matmul hands each row pair to the same BLAS
    dot kernel a 1-D ``np.dot`` calls, so every entry is bitwise
    ``np.dot(a[i], b[i])``, and ``np.sqrt(_dot_rows(v, v))`` is bitwise
    ``np.linalg.norm(v[i])`` (a summation loop of the products would round
    differently from a fused-multiply-add BLAS kernel).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _angle_exceeds_limit(
    vector: np.ndarray, norm: np.ndarray, reference: np.ndarray, reference_norm: np.ndarray
) -> np.ndarray:
    """``segment_angles``' inner ``angle`` test, ``angle > 90 deg``, as arrays."""
    cosine = _dot_rows(vector, reference) / (norm * reference_norm)
    angle = np.where(norm < 1e-12, 0.0, np.arccos(np.clip(cosine, -1.0, 1.0)))
    return angle > _ANGLE_LIMIT


def adaptive_termination_step_lanes(
    starts: np.ndarray,
    waypoints: np.ndarray,
    gripper_flags: np.ndarray,
    distance_threshold: float,
) -> np.ndarray:
    """Algorithm 1 for ``L`` trajectories at once: ``(L,)`` termination steps.

    ``starts`` is ``(L, 3)``, ``waypoints`` ``(L, steps, 3)`` and
    ``gripper_flags`` ``(L, steps)``; lane ``i`` of the result equals
    ``adaptive_termination_step(starts[i], waypoints[i], gripper_flags[i],
    distance_threshold)``.  Every (candidate ``k``, interior ``j < k``) pair
    is evaluated with the scalar helpers' arithmetic -- dot products and
    norms through the same BLAS kernel, the same division and ``arccos`` --
    and the degenerate-chord and zero-length-vector branches become masks.
    A candidate fails on a gripper change at ``k`` or ``k + 1`` or on any
    failing pair; the result is the first failing candidate plus one, or
    ``steps`` when none fails, exactly where the scalar loop returns.
    """
    starts = np.asarray(starts, dtype=float)
    waypoints = np.asarray(waypoints, dtype=float)
    flags = np.asarray(gripper_flags, dtype=bool)
    lanes, steps = waypoints.shape[0], waypoints.shape[1]
    if flags.shape != (lanes, steps):
        raise ValueError("gripper_flags must align with waypoints")
    if steps < 2:
        return np.full(lanes, steps, dtype=int)
    candidates = steps - 1  # B .. E; F is always accepted
    gripper = flags[:, :-1] | flags[:, 1:]
    by_gripper = np.where(gripper.any(axis=1), gripper.argmax(axis=1), candidates)
    # The loop's (candidate k, interior j < k) pairs, ordered by candidate.
    candidate, interior = np.nonzero(np.tri(candidates, k=-1, dtype=bool))
    if not candidate.size:
        return by_gripper + 1
    start = starts[:, None, :]
    end = waypoints[:, candidate]
    point = waypoints[:, interior]
    chord = end - start
    to_start = point - start
    to_end = point - end
    chord_norm = np.sqrt(_dot_rows(chord, chord))
    start_norm = np.sqrt(_dot_rows(to_start, to_start))
    degenerate = chord_norm < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        # The end angle measures against -chord, whose norm is the chord's
        # bit for bit (negation is exact).
        bent = np.where(
            degenerate,
            start_norm > 1e-12,
            _angle_exceeds_limit(to_start, start_norm, chord, chord_norm)
            | _angle_exceeds_limit(
                to_end, np.sqrt(_dot_rows(to_end, to_end)), -chord, chord_norm
            ),
        )
        projection = _dot_rows(to_start, chord) / chord_norm
        closest = start + projection[..., None] * chord / chord_norm[..., None]
        offset = point - closest
        distance = np.where(degenerate, start_norm, np.sqrt(_dot_rows(offset, offset)))
    failed = bent | (distance > distance_threshold)
    # Pairs are ordered by candidate, so the first failing pair names the
    # earliest candidate the curvature test ends.
    by_curvature = np.where(failed.any(axis=1), candidate[failed.argmax(axis=1)], candidates)
    return np.minimum(by_gripper, by_curvature) + 1
