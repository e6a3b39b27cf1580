"""Single-muscle elbow model: forward dynamics, equilibria, inverse maps.

The forearm is a uniform rod of mass m and length L hinged at the elbow,
hanging at angle theta = 0 (measured from vertical-down). A single flexor
with constant moment arm r pulls against gravity:

    I * theta''  =  a * Fmax * r  -  m * g * (L/2) * sin(theta)  -  b * theta'

with I = m * L^2 / 3 and activation a in [0, 1]. The default parameters are
calibrated so that Fmax * r equals m * g * L / 2, which makes the static
equilibrium angle arcsin(a): full activation holds the forearm horizontal
at 90 degrees.

Activation is a zero-order-hold control signal updated every 0.01 s; the
ODE is integrated with classic RK4 at a finer sub-step inside each control
step. Joint limits act as inelastic stops: the angle is clamped and any
velocity component into the stop is zeroed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .eeg import CONTROL_DT_S, ActivationClass, _vector, nearest_classes
from .errors import DataError


@dataclass(frozen=True)
class ArmModel:
    """Physical parameters of the single-muscle elbow."""

    forearm_mass_kg: float = 1.5
    forearm_length_m: float = 0.3
    max_muscle_force_n: float = 73.575
    moment_arm_m: float = 0.03
    damping_nms: float = 0.2
    gravity_ms2: float = 9.81
    angle_min_deg: float = 0.0
    angle_max_deg: float = 90.0

    def __post_init__(self):
        for name in ("forearm_mass_kg", "forearm_length_m", "max_muscle_force_n",
                     "moment_arm_m", "gravity_ms2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # the dynamics and the labels divide by these; an infinite one stays
        # allowed and is reported as divergence
        for name, value in (("inertia m * L^2 / 3", self.inertia_kgm2),
                            ("gravity torque m * g * L / 2", self.gravity_torque_max_nm),
                            ("muscle torque Fmax * r", self.max_muscle_force_n * self.moment_arm_m)):
            if not value > 0:
                raise ValueError(f"{name} underflows to {value}")
        if self.damping_nms < 0:
            raise ValueError("damping_nms must be non-negative")
        if not self.angle_min_deg < self.angle_max_deg:
            raise ValueError("angle_min_deg must be below angle_max_deg")

    @property
    def inertia_kgm2(self) -> float:
        """Rod inertia about the elbow, m * L^2 / 3; inf where L^2 overflows."""
        try:
            return self.forearm_mass_kg * self.forearm_length_m ** 2 / 3.0
        except OverflowError:  # float ** raises where * returns inf
            return math.inf

    @property
    def gravity_torque_max_nm(self) -> float:
        """Gravity torque at 90 degrees, m * g * L / 2."""
        return self.forearm_mass_kg * self.gravity_ms2 * self.forearm_length_m / 2.0

    def is_calibrated(self) -> bool:
        """True when full activation exactly balances gravity at 90 degrees."""
        muscle = self.max_muscle_force_n * self.moment_arm_m
        return math.isclose(muscle, self.gravity_torque_max_nm, rel_tol=1e-9)


@dataclass(frozen=True)
class ActivationTrajectory:
    """Activation levels in [0, 1] at the fixed 0.01 s control step."""

    levels: Sequence[float]

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        for v in levels:
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"activation level {v!r} outside [0, 1]")

    @classmethod
    def from_classes(cls, classes: Sequence[ActivationClass]) -> "ActivationTrajectory":
        return cls(levels=[c.level for c in classes])

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class AngleTrajectory:
    """Elbow angles in degrees at the fixed 0.01 s control step."""

    angles_deg: Sequence[float]

    def __post_init__(self):
        object.__setattr__(self, "angles_deg", _vector(self.angles_deg, "angles_deg"))

    def __len__(self) -> int:
        return int(self.angles_deg.size)


def equilibrium_angle(model: ArmModel, activation: float) -> float:
    """Steady-state angle in degrees where muscle torque balances gravity.

    Solves a * Fmax * r = m * g * (L/2) * sin(theta). With the calibrated
    defaults this is arcsin(a). If the muscle overpowers gravity at every
    angle the equilibrium saturates at 90 degrees; the result is clamped
    to the joint limits. Strictly increasing in the activation.
    """
    if not (math.isfinite(activation) and 0.0 <= activation <= 1.0):
        raise ValueError(f"activation {activation!r} outside [0, 1]")
    ratio = activation * model.max_muscle_force_n * model.moment_arm_m / model.gravity_torque_max_nm
    theta = math.degrees(math.asin(min(1.0, ratio)))
    return min(model.angle_max_deg, max(model.angle_min_deg, theta))


def class_angles(model: ArmModel) -> np.ndarray:
    """Equilibrium angle of each class 1..10, in class order."""
    return np.array([equilibrium_angle(model, k / 10.0) for k in range(1, 11)])


def _stepper(model: ArmModel, sub_dt_s: float):
    """The RK4 integrator, set up once per simulation.

    Returns ``(step, clamp)``. ``step(theta, omega, activation)`` advances
    the state (rad, rad/s) over one 0.01 s control step of sub-steps
    sub_dt_s with the activation held constant. ``clamp(theta, omega)`` is
    the inelastic stop applied after every sub-step: the angle is clamped
    and only the velocity component into the limit is zeroed.
    """
    if not sub_dt_s > 0:
        raise ValueError("sub_dt_s must be positive")
    n_sub = round(CONTROL_DT_S / sub_dt_s)
    if n_sub < 1 or abs(n_sub * sub_dt_s - CONTROL_DT_S) > 1e-12:
        raise ValueError(f"sub_dt_s={sub_dt_s} does not divide the {CONTROL_DT_S} s control step")
    inertia, grav, b = model.inertia_kgm2, model.gravity_torque_max_nm, model.damping_nms
    fmax, r, dt = model.max_muscle_force_n, model.moment_arm_m, sub_dt_s
    lo, hi = math.radians(model.angle_min_deg), math.radians(model.angle_max_deg)

    def clamp(theta: float, omega: float) -> tuple[float, float]:
        if theta < lo:
            return lo, (0.0 if omega < 0.0 else omega)
        if theta > hi:
            return hi, (0.0 if omega > 0.0 else omega)
        return theta, omega

    def step(theta: float, omega: float, activation: float) -> tuple[float, float]:
        muscle = activation * fmax * r
        sin = math.sin
        try:
            # each k*w is the acceleration (muscle - grav*sin(th) - b*om) / inertia
            for _ in range(n_sub):
                k1t = omega
                k1w = (muscle - grav * sin(theta) - b * omega) / inertia
                k2t = omega + 0.5 * dt * k1w
                k2w = (muscle - grav * sin(theta + 0.5 * dt * k1t) - b * k2t) / inertia
                k3t = omega + 0.5 * dt * k2w
                k3w = (muscle - grav * sin(theta + 0.5 * dt * k2t) - b * k3t) / inertia
                k4t = omega + dt * k3w
                k4w = (muscle - grav * sin(theta + dt * k3t) - b * k4t) / inertia
                theta += dt * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
                omega += dt * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
                theta, omega = clamp(theta, omega)
        except ValueError:
            # math.sin of an infinite angle; float arithmetic overflows to inf, never raising
            raise FloatingPointError("simulation state left the representable range") from None
        return theta, omega

    return step, clamp


def forward_states(
    model: ArmModel,
    act: ActivationTrajectory,
    theta0_deg: float = 0.0,
    sub_dt_s: float = 0.001,
) -> tuple[AngleTrajectory, np.ndarray]:
    """Like forward_dynamics but also returns the angular velocity.

    Returns (angles, omega_degps) sampled at the end of each control
    step. Exposed for diagnostics such as energy bookkeeping.
    """
    if len(act) == 0:
        raise ValueError("activation trajectory is empty")
    step, clamp = _stepper(model, sub_dt_s)
    theta, omega = clamp(math.radians(theta0_deg), 0.0)
    angles = np.empty(len(act))
    omegas = np.empty(len(act))
    for i, a in enumerate(act.levels):
        theta, omega = step(theta, omega, a)
        if not (math.isfinite(theta) and math.isfinite(omega)):
            raise FloatingPointError(f"simulation diverged at control step {i}")
        angles[i] = math.degrees(theta)
        omegas[i] = math.degrees(omega)
    return AngleTrajectory(angles_deg=angles), omegas


def forward_dynamics(
    model: ArmModel,
    act: ActivationTrajectory,
    theta0_deg: float = 0.0,
    sub_dt_s: float = 0.001,
) -> AngleTrajectory:
    """Simulate the elbow response to an activation trajectory.

    Parameters
    ----------
    model : arm parameters.
    act : activation per 0.01 s control step (zero-order hold).
    theta0_deg : initial angle; the arm starts at rest there.
    sub_dt_s : RK4 sub-step; must divide 0.01 s.

    Returns the angle at the end of each control step, clamped to the
    joint limits. Raises FloatingPointError if the state leaves the
    representable range (divergence).
    """
    return forward_states(model, act, theta0_deg, sub_dt_s)[0]


def _angles_in_limits(model: ArmModel, angles_deg) -> list[float]:
    """The angles clamped into the joint limits, as Python floats; ValueError at the
    first angle that is not finite or lies beyond a limit by more than 1e-9 deg."""
    lo, hi = model.angle_min_deg, model.angle_max_deg
    a = np.asarray(angles_deg, dtype=float)
    bad = np.flatnonzero(~((a >= lo - 1e-9) & (a <= hi + 1e-9)))  # NaN included
    if bad.size:
        t = float(a[bad[0]])
        raise ValueError("angle must be finite" if not math.isfinite(t)
                         else f"angle {t} deg outside limits [{lo}, {hi}]")
    # t > lo and t < hi pick as max(lo, t) and min(hi, t) do, signed zeros included
    a = np.where(a > lo, a, lo)
    return np.where(a < hi, a, hi).tolist()


def inverse_quasistatic(model: ArmModel, target: AngleTrajectory) -> ActivationTrajectory:
    """Static inverse: per-step activation whose equilibrium is the target angle.

    a = m * g * (L/2) * sin(theta) / (Fmax * r), clamped to [0, 1] and then
    discretized to the nearest of the ten classes (ties round up); with the
    calibrated defaults the continuous value is sin(theta).
    """
    return ActivationTrajectory(label_classes(model, target.angles_deg) / 10.0)


def _static_classes(model: ArmModel, angles_deg) -> np.ndarray:
    """label_classes without the check that the classes stay apart."""
    ratio = model.gravity_torque_max_nm / (model.max_muscle_force_n * model.moment_arm_m)
    if not math.isfinite(ratio):  # inf * sin(0) would be NaN
        raise DataError("the arm config's gravity torque m * g * L / 2 over the muscle torque "
                        "Fmax * r is not finite, so no angle can be labelled")
    return nearest_classes([ratio * math.sin(math.radians(t))
                            for t in _angles_in_limits(model, angles_deg)])


def _check_classes_apart(model: ArmModel) -> None:
    """Raise DataError when the arm labels its ten class angles all alike:
    it leaves nothing to learn or score, nor to generate data for."""
    labels = _static_classes(model, class_angles(model))
    if labels.min() == labels.max():
        raise DataError(f"the arm config labels the angles of all ten classes as class "
                        f"{labels[0]}, so no two classes can be told apart")


def label_classes(model: ArmModel, angles_deg) -> np.ndarray:
    """Class index (1..10) that statically produces each angle (see
    inverse_quasistatic); an angle outside the joint limits raises ValueError,
    and an arm that _check_classes_apart refuses raises DataError."""
    _check_classes_apart(model)
    return _static_classes(model, angles_deg)


def derive_labels(model: ArmModel, kinematics: AngleTrajectory) -> list[ActivationClass]:
    """Activation class that statically produces each recorded angle."""
    return [ActivationClass(k) for k in label_classes(model, kinematics.angles_deg).tolist()]


def inverse_tracking(
    model: ArmModel,
    target: AngleTrajectory,
    theta0_deg: Optional[float] = None,
    sub_dt_s: float = 0.001,
) -> tuple[ActivationTrajectory, float]:
    """Greedy horizon-1 tracking over the ten activation classes.

    At each control step every class is simulated one step ahead from the
    current state and the one minimizing the squared angle-tracking error
    is chosen (ties toward the lower class). The simulated state advances
    with the chosen class. The arm starts at rest at theta0_deg, by
    default the first target angle.

    Returns (class trajectory, summed squared tracking error in deg^2).
    """
    if len(target) == 0:
        raise ValueError("target trajectory is empty")
    _angles_in_limits(model, target.angles_deg)
    step, clamp = _stepper(model, sub_dt_s)
    start = theta0_deg if theta0_deg is not None else float(target.angles_deg[0])
    theta, omega = clamp(math.radians(start), 0.0)

    chosen: list[float] = []
    total_loss = 0.0
    for goal_deg in target.angles_deg:
        best = None  # (squared error, level, next state)
        for k in range(1, 11):
            level = k / 10.0
            th, om = step(theta, omega, level)
            err = (math.degrees(th) - float(goal_deg)) ** 2
            if best is None or err < best[0]:
                best = (err, level, th, om)
        total_loss += best[0]
        chosen.append(best[1])
        theta, omega = best[2], best[3]
    return ActivationTrajectory(levels=chosen), total_loss
