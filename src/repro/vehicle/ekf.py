"""Position/velocity state estimator.

A per-axis linear Kalman filter fusing GPS position fixes, barometric
altitude and IMU acceleration (used as the process input).  Its important
property for the reproduction is faithfulness to how PX4's EKF behaves under
GPS drift: because the drift is slowly varying and self-consistent, the filter
*tracks* it rather than rejecting it, so the whole estimated frame — and with
it the occupancy map built from estimated poses — shifts with the drift
(§V.C, Fig. 5c/5d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Quaternion, Vec3
from repro.sensors.gps import GpsFix
from repro.vehicle.state import EstimatedState


@dataclass(frozen=True)
class EkfConfig:
    """Tuning of the estimator."""

    gps_position_std: float = 0.6
    baro_altitude_std: float = 0.15
    accel_process_std: float = 0.5
    initial_position_std: float = 1.0
    initial_velocity_std: float = 0.5


class PositionEkf:
    """Three independent position/velocity Kalman filters (one per axis)."""

    def __init__(self, config: EkfConfig | None = None) -> None:
        self.config = config or EkfConfig()
        # State per axis: [position, velocity].
        self._state = np.zeros((3, 2))
        c = self.config
        self._covariance = np.array(
            [np.diag([c.initial_position_std**2, c.initial_velocity_std**2]) for _ in range(3)]
        )
        self._orientation = Quaternion.identity()
        self._initialised = False

    # ------------------------------------------------------------------ #
    # filter steps
    # ------------------------------------------------------------------ #
    def predict(self, acceleration: Vec3, dt: float) -> None:
        """Propagate with the measured acceleration as the control input."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        accel = acceleration.to_array()
        transition = np.array([[1.0, dt], [0.0, 1.0]])
        control = np.array([0.5 * dt * dt, dt])
        process_noise = (self.config.accel_process_std**2) * np.array(
            [[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]]
        )
        for axis in range(3):
            self._state[axis] = transition @ self._state[axis] + control * accel[axis]
            self._covariance[axis] = (
                transition @ self._covariance[axis] @ transition.T + process_noise
            )

    def update_gps(self, fix: GpsFix) -> None:
        """Fuse a GPS fix (all three axes)."""
        measurement = fix.position.to_array()
        # Scale measurement noise with the reported DOP, as PX4 does.
        std = self.config.gps_position_std * (0.5 + fix.hdop / 4.0)
        for axis in range(3):
            axis_std = std if axis < 2 else std * 1.5
            self._scalar_update(axis, measurement[axis], axis_std**2)
        self._initialised = True

    def update_altitude(self, altitude: float) -> None:
        """Fuse a barometric altitude measurement (z axis only)."""
        self._scalar_update(2, altitude, self.config.baro_altitude_std**2)

    def update_orientation(self, orientation: Quaternion) -> None:
        """Attitude is taken from the attitude estimator directly."""
        self._orientation = orientation

    def _scalar_update(self, axis: int, measured_position: float, variance: float) -> None:
        observation = np.array([1.0, 0.0])
        covariance = self._covariance[axis]
        innovation = measured_position - observation @ self._state[axis]
        innovation_variance = observation @ covariance @ observation + variance
        gain = covariance @ observation / innovation_variance
        self._state[axis] = self._state[axis] + gain * innovation
        self._covariance[axis] = (np.eye(2) - np.outer(gain, observation)) @ covariance

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def estimate(self) -> EstimatedState:
        position = Vec3(self._state[0, 0], self._state[1, 0], self._state[2, 0])
        velocity = Vec3(self._state[0, 1], self._state[1, 1], self._state[2, 1])
        position_std = Vec3(
            float(np.sqrt(self._covariance[0][0, 0])),
            float(np.sqrt(self._covariance[1][0, 0])),
            float(np.sqrt(self._covariance[2][0, 0])),
        )
        return EstimatedState(
            position=position,
            velocity=velocity,
            orientation=self._orientation,
            position_std=position_std,
        )

    def reset_to(self, position: Vec3) -> None:
        """Hard-reset the filter (used at scenario initialisation)."""
        for axis, value in enumerate(position.to_tuple()):
            self._state[axis] = np.array([value, 0.0])
            self._covariance[axis] = np.diag(
                [self.config.initial_position_std**2, self.config.initial_velocity_std**2]
            )
        self._initialised = True
