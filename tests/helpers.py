"""Shared test utilities: independent oracles and file readers."""

import math
import struct
import wave

import numpy as np


def count_zero_crossings(samples: np.ndarray, direction: str = "both") -> int:
    """Count sign changes of a sampled waveform.

    direction="up" counts only negative-to-nonnegative transitions
    (about f per second for a sine at f Hz); "both" counts every sign
    change (about 2f per second).
    """
    s = np.sign(samples)
    # treat exact zeros as belonging to the following sign regime
    for i in range(1, len(s)):
        if s[i] == 0:
            s[i] = s[i - 1]
    changes = s[1:] * s[:-1] < 0
    if direction == "both":
        return int(np.count_nonzero(changes))
    if direction == "up":
        return int(np.count_nonzero(changes & (s[1:] > 0)))
    raise ValueError(direction)


def _csv_cells(path):
    """The header and every cell as a float in row order, NaN for an empty
    angle_deg cell, read row by row through the csv module. _csv_rows'
    DataErrors pass through; the first cell in column order that is
    non-numeric by eeg._number, or a non-empty angle that is not a finite
    number, raises DataError naming its row and column.

    The csv tokenizer that load_recording_csv once had beside np.loadtxt,
    kept as the reference for it."""
    from contextlib import closing

    from neurof0.eeg import ANGLE_COLUMN, _cell_value, _csv_rows, _number

    with closing(_csv_rows(path)) as rows:
        header = next(rows)
        angle_col = header.index(ANGLE_COLUMN) if ANGLE_COLUMN in header else None

        def cells():
            for row_no, row in rows:
                for col, (name, cell) in enumerate(zip(header, row)):
                    if col == angle_col:
                        yield _cell_value(cell, row_no, name) if cell.strip() else math.nan
                        continue
                    try:
                        value = _number(cell)
                    except ValueError:  # _cell_value raises, naming the cell
                        _cell_value(cell, row_no, name)
                    yield value

        return header, np.fromiter(cells(), dtype=float)


def assert_loads_as_streaming(path):
    """load_recording_csv(path) gives what the validator gives on the
    streaming csv tokenizer's cells (_csv_cells): arrays of the same bytes
    and memory layout and the same channel names, or a DataError with the
    same message. Returns the recording, or None."""
    from neurof0.eeg import _recording, load_recording_csv
    from neurof0.errors import DataError, naming

    try:
        with naming(path):
            want = _recording(*_csv_cells(path))
    except DataError as exc:
        try:
            load_recording_csv(path)
        except DataError as got:
            assert str(got) == str(exc)
            return None
        raise AssertionError(f"load_recording_csv read a file the streaming reader refuses: {exc}")
    got = load_recording_csv(path)
    assert got.channel_names == want.channel_names
    for a, b in ((got.samples, want.samples), (got.kinematics, want.kinematics)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
            assert a.tobytes() == b.tobytes()
    return got


def read_wav(path):
    """Return (sample_rate, int16 sample array) using the stdlib reader."""
    with wave.open(str(path), "rb") as wav:
        assert wav.getnchannels() == 1
        assert wav.getsampwidth() == 2
        rate = wav.getframerate()
        data = wav.readframes(wav.getnframes())
    return rate, np.frombuffer(data, dtype="<i2")


def parse_wav_header(blob: bytes) -> dict:
    """Struct-unpack the canonical 44-byte RIFF/WAVE PCM header."""
    fields = struct.unpack("<4sI4s4sIHHIIHH4sI", blob[:44])
    return {
        "riff": fields[0],
        "riff_size": fields[1],
        "wave": fields[2],
        "fmt": fields[3],
        "fmt_size": fields[4],
        "audio_format": fields[5],
        "channels": fields[6],
        "sample_rate": fields[7],
        "byte_rate": fields[8],
        "block_align": fields[9],
        "bits_per_sample": fields[10],
        "data": fields[11],
        "data_size": fields[12],
    }


def optimal_stump(xs, labels):
    """Exhaustive-search decision stump for a 2-class, 1-feature dataset.

    Tries every midpoint between consecutive sorted unique values (plus
    the degenerate all-left/all-right stumps) and returns the classifier
    with the fewest training misclassifications, lowest threshold first.
    Returns (threshold, left_label, right_label) as a predict function.
    """
    xs = np.asarray(xs, dtype=float)
    classes = sorted(set(labels))
    assert len(classes) == 2
    uniq = np.unique(xs)
    thresholds = [uniq[0] - 1.0] + [0.5 * (a + b) for a, b in zip(uniq[:-1], uniq[1:])]
    best = None  # (errors, threshold, left, right)
    for thr in thresholds:
        for left, right in ((classes[0], classes[1]), (classes[1], classes[0])):
            errors = sum(
                1 for x, lab in zip(xs, labels)
                if (left if x <= thr else right) != lab
            )
            cand = (errors, thr, left, right)
            if best is None or cand[0] < best[0]:
                best = cand
    _, thr, left, right = best

    def predict(x):
        return left if x <= thr else right

    return predict


def tree_vote_reference(tree, x) -> int:
    """Scalar root-to-leaf walk of one tree; the 0-based class its leaf votes.

    A row goes left when its feature value is <= the node threshold; the
    leaf votes its majority class, ties toward the lowest class index.
    """
    from neurof0.forest import LEAF

    node = 0
    while tree.feature[node] != LEAF:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return int(np.argmax(tree.class_counts[node]))


def forest_votes_reference(model, x) -> np.ndarray:
    """Per-class vote counts of the forest on one 100-feature row."""
    votes = np.zeros(10, dtype=np.int64)
    for tree in model.trees:
        votes[tree_vote_reference(tree, x)] += 1
    return votes


def snap_to_class_angle_reference(model, theta_deg: float) -> int:
    """Class index of the nearest of the ten equilibrium angles, found by a
    10-way scan that keeps the first strict minimum (ties toward the lower
    class)."""
    from neurof0.arm import equilibrium_angle

    best_k, best_d = 1, float("inf")
    for k in range(1, 11):
        d = abs(theta_deg - equilibrium_angle(model, k / 10.0))
        if d < best_d:
            best_k, best_d = k, d
    return best_k


def best_split_reference(X, y_onehot, idx, feats, min_leaf):
    """The per-feature split search the batched one replaced, kept verbatim.

    Lowest-Gini (feature, threshold) over the candidate features, or None.
    Features are scanned in ascending index order and thresholds in
    ascending value order; only strictly better impurity replaces the
    incumbent, which fixes the tie-breaking.
    """
    n = len(idx)
    best = None  # (weighted impurity, feature, threshold)
    for f in feats:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        left_counts = np.cumsum(y_onehot[idx[order]], axis=0)
        total = left_counts[-1]
        cut = np.nonzero(xs[:-1] < xs[1:])[0]  # split between cut and cut+1
        if cut.size == 0:
            continue
        n_left = cut + 1
        keep = (n_left >= min_leaf) & (n - n_left >= min_leaf)
        cut = cut[keep]
        if cut.size == 0:
            continue
        n_left = (cut + 1).astype(float)
        n_right = n - n_left
        lc = left_counts[cut]
        rc = total - lc
        gini_l = 1.0 - np.sum((lc / n_left[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((rc / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_l + n_right * gini_r) / n
        i = int(np.argmin(weighted))  # first minimum: lowest threshold
        if best is None or weighted[i] < best[0]:
            thr = 0.5 * (xs[cut[i]] + xs[cut[i] + 1])
            best = (float(weighted[i]), f, thr)
    return best


def map_angle_to_f0_reference(mapping, theta_deg: float) -> float:
    """The scalar angle-to-pitch map: clamp into the mapping's angle range
    with Python's min and max, then map affinely onto the pitch band."""
    theta = min(mapping.angle_max_deg, max(mapping.angle_min_deg, theta_deg))
    frac = (theta - mapping.angle_min_deg) / (mapping.angle_max_deg - mapping.angle_min_deg)
    return mapping.f0_min_hz + frac * (mapping.f0_max_hz - mapping.f0_min_hz)


def nearest_class_reference(value: float) -> int:
    """Scalar nearest-class rule: floor(v * 10 + 0.5), clamped to 1..10."""
    return min(10, max(1, int(np.floor(value * 10.0 + 0.5))))


def derive_labels_reference(model, angles_deg) -> list[int]:
    """Class index per angle by the scalar static inverse, one angle at a
    time: the activation that holds the angle, clamped to [0, 1], rounded
    to the nearest class. Angles must lie within the joint limits."""
    ratio = model.gravity_torque_max_nm / (model.max_muscle_force_n * model.moment_arm_m)
    labels = []
    for theta_deg in angles_deg:
        theta_deg = min(model.angle_max_deg, max(model.angle_min_deg, float(theta_deg)))
        a = ratio * math.sin(math.radians(theta_deg))
        labels.append(nearest_class_reference(min(1.0, max(0.0, a))))
    return labels


def ramp_classes_reference(n_steps: int) -> list[int]:
    """Class indices of the triangle ramp 0.1 -> 1.0 -> 0.1, step by step."""
    out = []
    for p in range(n_steps):
        frac = p / (n_steps - 1) if n_steps > 1 else 0.0
        tri = 2.0 * frac if frac <= 0.5 else 2.0 * (1.0 - frac)
        out.append(nearest_class_reference(0.1 + 0.9 * tri))
    return out


def evaluate_static_reference(cfg, pred, truth):
    """The five static stage metrics computed frame by frame: each class's
    equilibrium angle and its mapped F0, as evaluate_static once did."""
    from neurof0.arm import equilibrium_angle
    from neurof0.metrics import MetricsReport, accuracy, rmse

    pred_angles = [equilibrium_angle(cfg.arm, c.level) for c in pred]
    true_angles = [equilibrium_angle(cfg.arm, c.level) for c in truth]
    pred_f0 = [map_angle_to_f0_reference(cfg.mapping, t) for t in pred_angles]
    true_f0 = [map_angle_to_f0_reference(cfg.mapping, t) for t in true_angles]
    return MetricsReport(
        classifier_accuracy=accuracy(pred, truth),
        activation_rmse=rmse([c.level for c in pred], [c.level for c in truth]),
        angle_accuracy=accuracy(pred_angles, true_angles),
        angle_rmse_deg=rmse(pred_angles, true_angles),
        f0_rmse_hz=rmse(pred_f0, true_f0),
        n_test=len(pred),
    )


# Reference for neurof0.arm's RK4 stepper: the joint stop and one control
# step as free functions that read the model's constants on every call.

def _clamp_state(model, theta: float, omega: float) -> tuple[float, float]:
    # inelastic stop: zero only the velocity component into the limit
    lo = math.radians(model.angle_min_deg)
    hi = math.radians(model.angle_max_deg)
    if theta < lo:
        theta = lo
        if omega < 0.0:
            omega = 0.0
    elif theta > hi:
        theta = hi
        if omega > 0.0:
            omega = 0.0
    return theta, omega


def _integrate_control_step(
    model, theta: float, omega: float, activation: float,
    sub_dt_s: float, n_sub: int,
) -> tuple[float, float]:
    """RK4 over one 0.01 s control step with the activation held constant."""
    inertia = model.inertia_kgm2
    muscle = activation * model.max_muscle_force_n * model.moment_arm_m
    grav = model.gravity_torque_max_nm
    b = model.damping_nms
    dt = sub_dt_s

    def accel(th: float, om: float) -> float:
        return (muscle - grav * math.sin(th) - b * om) / inertia

    try:
        for _ in range(n_sub):
            k1t = omega
            k1w = accel(theta, omega)
            k2t = omega + 0.5 * dt * k1w
            k2w = accel(theta + 0.5 * dt * k1t, omega + 0.5 * dt * k1w)
            k3t = omega + 0.5 * dt * k2w
            k3w = accel(theta + 0.5 * dt * k2t, omega + 0.5 * dt * k2w)
            k4t = omega + dt * k3w
            k4w = accel(theta + dt * k3t, omega + dt * k3w)
            theta += dt * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
            omega += dt * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
            theta, omega = _clamp_state(model, theta, omega)
    except (OverflowError, ValueError):
        # math.sin of an infinite angle, or an overflowing torque
        raise FloatingPointError("simulation state left the representable range") from None
    return theta, omega


def forward_states_reference(model, levels, theta0_deg: float, sub_dt_s: float):
    """(angles, omegas) in degrees at the end of each control step, from
    rest at theta0_deg, through the reference helpers."""
    n_sub = round(0.01 / sub_dt_s)
    theta, omega = _clamp_state(model, math.radians(theta0_deg), 0.0)
    angles, omegas = [], []
    for a in levels:
        theta, omega = _integrate_control_step(model, theta, omega, a, sub_dt_s, n_sub)
        angles.append(math.degrees(theta))
        omegas.append(math.degrees(omega))
    return np.array(angles), np.array(omegas)


def inverse_tracking_reference(model, target_deg, theta0_deg, sub_dt_s: float):
    """(levels, loss) of greedy horizon-1 tracking through the reference
    helpers: per step, the class whose one-step angle is nearest the target
    (ties to the lower class), starting from rest at theta0_deg or, when
    that is None, at the first target angle."""
    n_sub = round(0.01 / sub_dt_s)
    start = theta0_deg if theta0_deg is not None else float(target_deg[0])
    theta, omega = _clamp_state(model, math.radians(start), 0.0)
    chosen, total_loss = [], 0.0
    for goal_deg in target_deg:
        best = None
        for k in range(1, 11):
            th, om = _integrate_control_step(model, theta, omega, k / 10.0, sub_dt_s, n_sub)
            err = (math.degrees(th) - float(goal_deg)) ** 2
            if best is None or err < best[0]:
                best = (err, k / 10.0, th, om)
        total_loss += best[0]
        chosen.append(best[1])
        theta, omega = best[2], best[3]
    return tuple(chosen), total_loss


# Reference for neurof0.datagen's generators: generate_dataset as it was
# when it built the dataset frame by frame, with the signal and noise helpers
# it called, and _eeg as it was when it tiled the carrier and added the noise
# as a third array, kept verbatim.

def _clean_signal(cfg, classes) -> np.ndarray:
    """Noiseless single-channel signal for per-frame classes (class_indices)."""
    from neurof0.datagen import AMP_PER_CLASS, CARRIER_HZ
    from neurof0.eeg import SAMPLE_RATE_HZ, SAMPLES_PER_FRAME, class_indices

    amps = np.repeat(class_indices(classes) * AMP_PER_CLASS, SAMPLES_PER_FRAME)
    t = np.arange(len(classes) * SAMPLES_PER_FRAME) / SAMPLE_RATE_HZ
    return amps * np.sin(2.0 * math.pi * CARRIER_HZ * t)


def _noisy_channels(cfg, clean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Replicate the signal on all channels and add per-frame-scaled noise."""
    from neurof0.eeg import N_CHANNELS, SAMPLES_PER_FRAME

    out = np.tile(clean, (N_CHANNELS, 1))
    if math.isinf(cfg.snr_db):
        return out
    power = clean.reshape(-1, SAMPLES_PER_FRAME)
    frame_power = np.mean(power**2, axis=1)
    sigma = np.sqrt(frame_power / 10.0 ** (cfg.snr_db / 10.0))
    per_sample_sigma = np.repeat(sigma, SAMPLES_PER_FRAME)
    out += rng.normal(0.0, 1.0, size=out.shape) * per_sample_sigma
    return out


def _eeg_reference(cfg, classes, rng: np.random.Generator) -> np.ndarray:
    """The class signal of per-frame classes (class_indices) on all channels,
    plus noise scaled per frame. Raises ValueError, naming snr_db, when it
    makes any sample non-finite."""
    from neurof0.datagen import AMP_PER_CLASS, CARRIER_HZ
    from neurof0.eeg import N_CHANNELS, SAMPLE_RATE_HZ, SAMPLES_PER_FRAME, class_indices

    t = np.arange(len(classes) * SAMPLES_PER_FRAME) / SAMPLE_RATE_HZ
    with np.errstate(all="ignore"):
        amps = np.repeat(class_indices(classes) * AMP_PER_CLASS, SAMPLES_PER_FRAME)
        clean = amps * np.sin(2.0 * math.pi * CARRIER_HZ * t)
        out = np.tile(clean, (N_CHANNELS, 1))
        if cfg.snr_db != math.inf:  # -inf, all noise, is refused below
            frame_power = np.mean(clean.reshape(-1, SAMPLES_PER_FRAME) ** 2, axis=1)
            sigma = np.sqrt(frame_power / np.float64(10.0) ** (cfg.snr_db / 10.0))
            out += rng.normal(0.0, 1.0, size=out.shape) * np.repeat(sigma, SAMPLES_PER_FRAME)
    if not np.isfinite(out).all():
        raise ValueError(f"synthetic EEG is not finite at snr_db={cfg.snr_db}")
    return out


def movement_samples_reference(cfg, n_steps: int) -> np.ndarray:
    """The EEG of an n_steps movement recording, drawn by _eeg_reference."""
    classes = ramp_classes_reference(n_steps)
    return _eeg_reference(cfg, classes, np.random.default_rng(cfg.seed))


def generate_dataset_reference(cfg):
    """Balanced labeled dataset of frames, deterministic given the seed.

    Labels are assigned round-robin over the ten classes (so counts are
    balanced up to rounding) and then shuffled; frames are cut in order
    from one continuous synthetic recording, so frame index equals
    position.
    """
    from neurof0.eeg import ActivationClass, EegRecording, LabeledDataset, window_frames

    rng = np.random.default_rng(cfg.seed)
    classes = (np.arange(cfg.n_samples) % 10 + 1)[rng.permutation(cfg.n_samples)]
    frames = window_frames(EegRecording(_noisy_channels(cfg, _clean_signal(cfg, classes), rng)))
    labels = [ActivationClass(k) for k in classes.tolist()]
    meta = {"generator": "synthetic", "seed": str(cfg.seed), "snr_db": str(cfg.snr_db)}
    return LabeledDataset(frames=frames, labels=labels, metadata=meta)


# Reference for neurof0.voice's in-place synthesis and quantization: the
# array expressions they replaced, kept verbatim.

def synthesize_samples_reference(values_hz, sample_rate_hz: int, amplitude: float,
                                 samples_per_step: int) -> np.ndarray:
    """The phase-accumulating sine of an F0 contour, each value held for
    samples_per_step samples, with one fresh array per stage."""
    increments = np.repeat(2.0 * math.pi * np.asarray(values_hz, dtype=float) / sample_rate_hz,
                           samples_per_step)
    phase = np.concatenate(([0.0], np.cumsum(increments[:-1])))
    return amplitude * np.sin(phase)


def quantize_pcm16_reference(samples: np.ndarray) -> np.ndarray:
    """Scale [-1, 1] floats by 32767, rounding half away from zero."""
    scaled = np.floor(np.abs(samples) * 32767 + 0.5) * np.sign(samples)
    return scaled.astype("<i2")
