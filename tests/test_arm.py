import math

import numpy as np
import pytest

from neurof0.arm import (
    ActivationTrajectory,
    AngleTrajectory,
    ArmModel,
    derive_labels,
    equilibrium_angle,
    forward_dynamics,
    forward_states,
    inverse_quasistatic,
    inverse_tracking,
    label_classes,
)
from neurof0.eeg import ActivationClass
from neurof0.errors import DataError


def constant_traj(level, n):
    return ActivationTrajectory(levels=[level] * n)


def energy_j(model, theta_deg, omega_degps):
    theta = math.radians(theta_deg)
    omega = math.radians(omega_degps)
    return (0.5 * model.inertia_kgm2 * omega**2
            - model.gravity_torque_max_nm * math.cos(theta))


class TestArmModel:
    def test_defaults_calibrated(self):
        model = ArmModel()
        assert model.is_calibrated()
        assert model.inertia_kgm2 == pytest.approx(1.5 * 0.3**2 / 3)

    def test_custom_uncalibrated(self):
        model = ArmModel(max_muscle_force_n=50.0)
        assert not model.is_calibrated()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"forearm_mass_kg": 0.0},
            {"forearm_length_m": -1.0},
            {"damping_nms": -0.1},
            {"angle_min_deg": 90.0, "angle_max_deg": 0.0},
            # each factor is positive, but a product the model divides by is 0.0
            {"forearm_length_m": 1e-200},
            {"forearm_mass_kg": 1e-300, "gravity_ms2": 1e-300},
            {"max_muscle_force_n": 1e-200, "moment_arm_m": 1e-200},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ArmModel(**kwargs)


class TestTrajectories:
    def test_activation_bounds(self):
        with pytest.raises(ValueError):
            ActivationTrajectory(levels=[1.1])
        with pytest.raises(ValueError):
            ActivationTrajectory(levels=[-0.1])

    def test_from_classes(self):
        act = ActivationTrajectory.from_classes([ActivationClass(3), ActivationClass(7)])
        assert act.levels == (0.3, 0.7)

    def test_angles_non_finite(self):
        with pytest.raises(ValueError):
            AngleTrajectory(angles_deg=[float("nan")])


class TestEquilibrium:
    def test_closed_form(self):
        model = ArmModel()
        assert equilibrium_angle(model, 0.0) == 0.0
        assert equilibrium_angle(model, 0.5) == pytest.approx(30.0, abs=1e-9)
        assert equilibrium_angle(model, 1.0) == pytest.approx(90.0, abs=1e-9)

    def test_strictly_increasing(self):
        model = ArmModel()
        grid = np.linspace(0.0, 1.0, 101)
        values = [equilibrium_angle(model, a) for a in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        model = ArmModel()
        with pytest.raises(ValueError):
            equilibrium_angle(model, -0.01)
        with pytest.raises(ValueError):
            equilibrium_angle(model, 1.01)

    def test_overpowered_muscle_saturates(self):
        model = ArmModel(max_muscle_force_n=200.0)
        assert equilibrium_angle(model, 1.0) == 90.0


class TestForwardDynamics:
    def test_rest_stays_at_rest(self):
        angles = forward_dynamics(ArmModel(), constant_traj(0.0, 50))
        assert np.all(angles.angles_deg == 0.0)

    def test_converges_to_equilibrium(self):
        model = ArmModel()
        angles = forward_dynamics(model, constant_traj(0.5, 500))
        assert abs(angles.angles_deg[-1] - 30.0) < 0.5

    def test_full_activation_reaches_the_stop(self):
        model = ArmModel()
        angles = forward_dynamics(model, constant_traj(1.0, 500))
        assert angles.angles_deg[-1] == pytest.approx(90.0, abs=0.5)
        assert np.max(angles.angles_deg) <= 90.0

    def test_output_length_and_limits(self):
        model = ArmModel()
        angles = forward_dynamics(model, constant_traj(0.8, 120))
        assert len(angles) == 120
        assert np.all(angles.angles_deg >= 0.0)
        assert np.all(angles.angles_deg <= 90.0)

    def test_energy_conserved_undamped(self):
        # wide limits keep the free pendulum off the stops
        model = ArmModel(damping_nms=0.0, angle_min_deg=-180.0, angle_max_deg=180.0)
        angles, omegas = forward_states(model, constant_traj(0.0, 200),
                                        theta0_deg=20.0, sub_dt_s=1e-4)
        e0 = energy_j(model, 20.0, 0.0)
        energies = [energy_j(model, t, w) for t, w in zip(angles.angles_deg, omegas)]
        drift = max(abs(e - e0) for e in energies) / abs(e0)
        assert drift < 1e-3

    def test_bad_sub_dt(self):
        with pytest.raises(ValueError):
            forward_dynamics(ArmModel(), constant_traj(0.5, 10), sub_dt_s=0.003)
        with pytest.raises(ValueError):
            forward_dynamics(ArmModel(), constant_traj(0.5, 10), sub_dt_s=-1.0)

    def test_empty_trajectory(self):
        with pytest.raises(ValueError):
            forward_dynamics(ArmModel(), ActivationTrajectory(levels=[]))

    def test_divergence_reported(self):
        # infinite muscle torque minus infinite damping torque goes NaN
        model = ArmModel(max_muscle_force_n=1e308, moment_arm_m=1e5,
                         damping_nms=1.0)
        with pytest.raises(FloatingPointError):
            forward_dynamics(model, constant_traj(1.0, 10))

    def test_divergence_names_its_control_step(self):
        # a damping torque of 1e308 * omega overflows on the first control step
        with pytest.raises(FloatingPointError, match="^simulation diverged at control step 0$"):
            forward_states(ArmModel(damping_nms=1e308), constant_traj(1.0, 3))


class TestInverseQuasistatic:
    def test_closed_form_round_trip(self):
        model = ArmModel()
        target = AngleTrajectory(angles_deg=[0.0, 30.0, 90.0])
        act = inverse_quasistatic(model, target)
        assert act.levels == (0.1, 0.5, 1.0)

    def test_all_classes_exact(self):
        model = ArmModel()
        for k in range(1, 11):
            theta = equilibrium_angle(model, k / 10.0)
            labels = derive_labels(model, AngleTrajectory(angles_deg=[theta]))
            assert labels == [ActivationClass(k)]

    def test_out_of_limits(self):
        model = ArmModel()
        with pytest.raises(ValueError):
            inverse_quasistatic(model, AngleTrajectory(angles_deg=[91.0]))
        with pytest.raises(ValueError):
            inverse_quasistatic(model, AngleTrajectory(angles_deg=[-1.0]))

    def test_empty_kinematics(self):
        assert derive_labels(ArmModel(), AngleTrajectory(angles_deg=[])) == []

    @pytest.mark.parametrize("arm, label", [
        (ArmModel(max_muscle_force_n=1e308, moment_arm_m=1e5), 1),  # infinite muscle torque
        (ArmModel(angle_min_deg=80.0), 10),  # classes 1-9 held at the lower stop
    ], ids=["infinite-torque", "high-lower-stop"])
    def test_one_label_for_all_classes_refused(self, arm, label):
        with pytest.raises(DataError, match=f"labels the angles of all ten classes as class {label},"):
            label_classes(arm, [85.0])
        with pytest.raises(DataError):
            derive_labels(arm, AngleTrajectory(angles_deg=[]))

    @pytest.mark.parametrize("force_n", [147.15, 150.0])
    def test_saturating_arm_still_labels(self, force_n):
        arm = ArmModel(max_muscle_force_n=force_n)
        angles = [equilibrium_angle(arm, k / 10.0) for k in range(1, 11)]
        assert label_classes(arm, angles).tolist() == [1, 2, 3, 4, 5, 5, 5, 5, 5, 5]


def tracking_oracle(model, target, theta0_deg):
    """Independent enumeration: re-simulate the whole chosen prefix plus each
    candidate class through the public forward_dynamics at every step."""
    chosen = []
    for t in range(len(target)):
        best = None
        for k in range(1, 11):
            candidate = chosen + [k / 10.0]
            angles = forward_dynamics(
                model, ActivationTrajectory(levels=candidate),
                theta0_deg=theta0_deg,
            )
            err = (angles.angles_deg[-1] - float(target.angles_deg[t])) ** 2
            if best is None or err < best[0]:
                best = (err, k / 10.0)
        chosen.append(best[1])
    return tuple(chosen)


class TestInverseTracking:
    def test_recovers_constant_class(self):
        model = ArmModel()
        theta = equilibrium_angle(model, 0.7)
        target = AngleTrajectory(angles_deg=[theta] * 20)
        act, loss = inverse_tracking(model, target)
        assert act.levels == (0.7,) * 20
        assert loss < 1e-12

    def test_zero_demand_picks_lowest_class(self):
        model = ArmModel()
        target = AngleTrajectory(angles_deg=[0.0] * 10)
        act, _loss = inverse_tracking(model, target, theta0_deg=0.0)
        assert act.levels == (0.1,) * 10

    def test_single_step_matches_enumeration(self):
        model = ArmModel()
        target = AngleTrajectory(angles_deg=[42.0])
        act, _ = inverse_tracking(model, target, theta0_deg=10.0)
        assert act.levels == tracking_oracle(model, target, theta0_deg=10.0)

    def test_random_targets_match_enumeration(self):
        model = ArmModel()
        rng = np.random.default_rng(17)
        for _ in range(10):
            angles = rng.uniform(0.0, 90.0, size=6)
            target = AngleTrajectory(angles_deg=angles)
            theta0 = float(rng.uniform(0.0, 90.0))
            act, _ = inverse_tracking(model, target, theta0_deg=theta0)
            assert act.levels == tracking_oracle(model, target, theta0_deg=theta0)

    def test_empty_target(self):
        with pytest.raises(ValueError):
            inverse_tracking(ArmModel(), AngleTrajectory(angles_deg=[]))
