"""Multi-frame marker validation (the VALIDATION state's gate).

"Once a theoretical marker is found, the UAV will hover and collect a series
of detection results across multiple frames; if a threshold is met, validation
is successful" (§III.D).  The gate accumulates detections over a window of
frames and accepts when enough of them agree on the briefed target ID (or, for
detections whose ID could not be decoded, on a spatially consistent position).

The acceptance threshold is the paper's safety/availability dial: stricter
thresholds abort more landings in poor conditions but reject decoys and
glare-induced phantoms more reliably.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.geometry import Vec3
from repro.perception.detection import Detection, DetectionFrame


class ValidationResult(enum.Enum):
    """Outcome of a validation window."""

    PENDING = "pending"
    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass
class ValidationGate:
    """Accumulates detections over frames and decides accept / reject.

    Attributes:
        target_marker_id: the briefed landing-pad ID.
        required_frames: total frames to collect before deciding.
        required_hits: matching detections needed within the window to accept.
        position_consistency_radius: detections without a decoded ID count as
            hits when they fall within this distance of the running position
            estimate (metres).
        accept_unidentified: whether undecoded detections may count at all
            (MLS-V1's classical detector always decodes, so it keeps this off).
    """

    target_marker_id: int
    required_frames: int = 12
    required_hits: int = 7
    position_consistency_radius: float = 1.5
    accept_unidentified: bool = True

    _frames_seen: int = field(default=0, init=False)
    _hits: int = field(default=0, init=False)
    _position_sum: Vec3 = field(default_factory=Vec3.zero, init=False)
    _position_count: int = field(default=0, init=False)
    _prior_position: Vec3 | None = field(default=None, init=False)

    # ------------------------------------------------------------------ #
    # accumulation
    # ------------------------------------------------------------------ #
    def reset(self, candidate_position: Vec3 | None = None) -> None:
        """Clear the window.

        Args:
            candidate_position: the position of the detection that triggered
                validation; used as the spatial-consistency prior until an
                identified detection provides a better estimate.
        """
        self._frames_seen = 0
        self._hits = 0
        self._position_sum = Vec3.zero()
        self._position_count = 0
        self._prior_position = candidate_position

    def observe(self, frame: DetectionFrame) -> ValidationResult:
        """Feed one detection frame; returns the current gate status."""
        self._frames_seen += 1
        hit = self._matching_detection(frame)
        if hit is not None:
            self._hits += 1
            self._position_sum = self._position_sum + hit.world_position
            self._position_count += 1

        if self._hits >= self.required_hits:
            return ValidationResult.ACCEPTED
        remaining = self.required_frames - self._frames_seen
        if self._hits + remaining < self.required_hits:
            return ValidationResult.REJECTED
        if self._frames_seen >= self.required_frames:
            return ValidationResult.REJECTED
        return ValidationResult.PENDING

    def _matching_detection(self, frame: DetectionFrame) -> Detection | None:
        identified = frame.best_for(self.target_marker_id)
        if identified is not None:
            return identified
        if not self.accept_unidentified:
            return None
        estimate = self.position_estimate() or self._prior_position
        if estimate is None:
            return None
        best: Detection | None = None
        for detection in frame.detections:
            if detection.marker_id is not None:
                # A confidently decoded *different* ID is a decoy, not a hit.
                continue
            if detection.world_position.horizontal_distance_to(estimate) <= self.position_consistency_radius:
                if best is None or detection.confidence > best.confidence:
                    best = detection
        return best

    # ------------------------------------------------------------------ #
    # outputs
    # ------------------------------------------------------------------ #
    def position_estimate(self) -> Vec3 | None:
        """Mean world position of the accepted detections so far."""
        if self._position_count == 0:
            return None
        return self._position_sum / float(self._position_count)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def hit_ratio(self) -> float:
        if self._frames_seen == 0:
            return 0.0
        return self._hits / self._frames_seen
