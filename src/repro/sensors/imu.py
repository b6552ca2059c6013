"""IMU model.

The paper's real-world section attributes poor local positioning to
"low-quality acceleration and rotational data" on the Pixhawk 2.4.8, fixed by
upgrading to a Cuav X7+ with triple IMUs.  The IMU model therefore exposes a
quality profile (noise densities and bias instability) so the hardware
profiles in :mod:`repro.realworld.hardware` can swap grades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Vec3


@dataclass(frozen=True)
class ImuQuality:
    """Noise characteristics of an IMU grade."""

    accel_noise_std: float
    gyro_noise_std: float
    accel_bias_instability: float
    gyro_bias_instability: float

    @staticmethod
    def consumer_grade() -> "ImuQuality":
        """Pixhawk 2.4.8 class sensors."""
        return ImuQuality(
            accel_noise_std=0.12,
            gyro_noise_std=0.015,
            accel_bias_instability=0.02,
            gyro_bias_instability=0.002,
        )

    @staticmethod
    def industrial_grade() -> "ImuQuality":
        """Cuav X7+ class sensors (triple redundant, temperature compensated)."""
        return ImuQuality(
            accel_noise_std=0.04,
            gyro_noise_std=0.004,
            accel_bias_instability=0.005,
            gyro_bias_instability=0.0005,
        )


@dataclass(frozen=True)
class ImuSample:
    """One IMU measurement: specific force and angular rate in the body frame."""

    acceleration: Vec3
    angular_rate: Vec3
    timestamp: float


class ImuSensor:
    """Simulated IMU with white noise plus slowly wandering bias."""

    def __init__(self, quality: ImuQuality | None = None, seed: int = 0) -> None:
        self.quality = quality or ImuQuality.consumer_grade()
        self._rng = np.random.default_rng(seed)
        self._accel_bias = np.zeros(3)
        self._gyro_bias = np.zeros(3)

    def measure(
        self,
        true_acceleration: Vec3,
        true_angular_rate: Vec3,
        timestamp: float,
    ) -> ImuSample:
        q = self.quality
        self._accel_bias += self._rng.normal(0.0, q.accel_bias_instability, size=3) * 0.01
        self._gyro_bias += self._rng.normal(0.0, q.gyro_bias_instability, size=3) * 0.01

        accel = (
            true_acceleration.to_array()
            + self._accel_bias
            + self._rng.normal(0.0, q.accel_noise_std, size=3)
        )
        gyro = (
            true_angular_rate.to_array()
            + self._gyro_bias
            + self._rng.normal(0.0, q.gyro_noise_std, size=3)
        )
        return ImuSample(
            acceleration=Vec3.from_array(accel),
            angular_rate=Vec3.from_array(gyro),
            timestamp=timestamp,
        )
