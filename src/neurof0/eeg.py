"""EEG data model: recordings, fixed-size frames, labels, CSV I/O, splitting.

Conventions
-----------
* Signal values are in microvolts, sampled at 1000 Hz on 10 channels.
* The control rate of the downstream actuator is 100 Hz, so a frame is a
  10 channel x 10 sample window covering 0.01 s.
* Elbow-angle kinematics, when present, are stored at the control rate:
  one value in degrees per frame.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DataError, naming
from .rng import SplitMix64

DEFAULT_CHANNELS = ("FP1", "FP2", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")
N_CHANNELS = 10
SAMPLES_PER_FRAME = 10
SAMPLE_RATE_HZ = 1000.0
# one frame per control step of the downstream actuator (0.01 s)
CONTROL_DT_S = SAMPLES_PER_FRAME / SAMPLE_RATE_HZ
ANGLE_COLUMN = "angle_deg"


def _readonly(arr: np.ndarray) -> np.ndarray:
    """arr as a read-only float array. One that is read-only already and
    owns its memory is kept, as synthesize hands over its buffer; a writable
    array or a view, which a caller could still write through, is copied."""
    if arr.dtype == float and arr.flags.owndata and not arr.flags.writeable:
        return arr
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value of a float array is finite."""
    # an array holds a NaN or an infinity exactly when its extremes do; unlike
    # np.isfinite, min and max allocate nothing the size of the array
    return not arr.size or (math.isfinite(arr.min()) and math.isfinite(arr.max()))


def _vector(values, name: str) -> np.ndarray:
    """values as a read-only float vector (a scalar is a vector of one);
    raises ValueError naming name unless they are finite and 1-D."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or not _all_finite(arr):
        raise ValueError(f"{name} must be a finite 1-D vector")
    return _readonly(arr)


@dataclass(frozen=True, order=True)
class ActivationClass:
    """One of the ten discretized muscle-activation levels {0.1, ..., 1.0}.

    Stored as the class index k in 1..10; the level is k/10.
    """

    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", _class_index(self.index))

    def __index__(self) -> int:
        return self.index

    @property
    def level(self) -> float:
        return self.index / 10.0

    @classmethod
    def from_level(cls, level: float) -> "ActivationClass":
        """Exact constructor: level must be one of the ten admissible values."""
        k = round(level * 10)
        if abs(level * 10 - k) > 1e-9 or not 1 <= k <= 10:
            raise ValueError(f"{level!r} is not an admissible activation level")
        return cls(int(k))

    @classmethod
    def nearest(cls, value: float) -> "ActivationClass":
        """Nearest class to an arbitrary activation value (nearest_classes)."""
        return cls(int(nearest_classes([value])[0]))


def _class_index(c) -> int:
    """The class index 1..10 of an ActivationClass or of an integer, whatever
    operator.index accepts except bool, as a Python int; anything else
    raises ValueError."""
    try:
        k = operator.index(c)
    except TypeError:
        k = 0  # refused below as out of range
    if isinstance(c, bool) or not 1 <= k <= 10:
        raise ValueError(f"class indices must be integers in 1..10, got {c!r}")
    return k


def class_indices(seq) -> np.ndarray:
    """_class_index of each item, as an int64 vector."""
    return np.fromiter(map(_class_index, seq), dtype=np.int64)


def nearest_classes(values) -> np.ndarray:
    """Class index of the nearest class to each activation value, clamped
    into [0, 1] first; ties round up, and 0.0 maps to class 1 (0.1)."""
    values = np.asarray(values, dtype=float)
    if not _all_finite(values):
        raise ValueError("activation value must be finite")
    return np.maximum(np.floor(np.clip(values, 0.0, 1.0) * 10.0 + 0.5), 1).astype(np.int64)


@dataclass(frozen=True)
class EegFrame:
    """One 10 x 10 window of EEG (channels x samples, microvolts)."""

    values: np.ndarray
    index: int = 0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (N_CHANNELS, SAMPLES_PER_FRAME):
            raise ValueError(f"frame must be {N_CHANNELS}x{SAMPLES_PER_FRAME}, got {arr.shape}")
        if not _all_finite(arr):
            raise ValueError("frame contains non-finite values")
        object.__setattr__(self, "values", _readonly(arr))

    def features(self) -> np.ndarray:
        """Row-major (channel-major) flattening into a 100-vector."""
        return self.values.ravel()


@dataclass(frozen=True)
class EegRecording:
    """Multichannel EEG time series with optional elbow-angle kinematics.

    samples has shape (10, n_samples) with n_samples >= 10, all finite, at
    1000 Hz; kinematics, when present, is a finite 1-D vector of one angle
    in degrees per whole 0.01 s window (n_samples // 10; a trailing partial
    window has none). No channel name is angle_deg, the kinematics column,
    or is what a UTF-8 CSV header cell cannot keep: one with surrounding
    whitespace, a carriage return or a surrogate, or one longer than the
    csv field size limit. Anything else raises ValueError, so
    load_recording_csv reads back whatever write_recording_csv writes.
    """

    samples: np.ndarray
    channel_names: Sequence[str] = DEFAULT_CHANNELS
    kinematics: Optional[np.ndarray] = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2:
            raise ValueError("samples must be a 2-D channels x samples array")
        names = tuple(str(n) for n in self.channel_names)
        if arr.shape[0] != len(names):
            raise ValueError(f"{arr.shape[0]} channel rows but {len(names)} channel names")
        if len(names) != N_CHANNELS:
            raise ValueError(f"expected {N_CHANNELS} signal columns, found {len(names)}")
        if arr.shape[1] < SAMPLES_PER_FRAME:
            raise ValueError(f"recording has {arr.shape[1]} samples, fewer than one "
                             f"{SAMPLES_PER_FRAME}-sample window")
        for name in names:
            if (name != name.strip() or "\r" in name or len(name) > csv.field_size_limit()
                    or any("\ud800" <= c <= "\udfff" for c in name)):
                raise ValueError(f"channel name {name!r:.60} cannot be a CSV header cell")
        if ANGLE_COLUMN in names:
            raise ValueError(f"{ANGLE_COLUMN!r} names the kinematics column, not a channel")
        if not _all_finite(arr):
            ch, i = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite sample {arr[ch, i]} at index {i} of channel {names[ch]}")
        object.__setattr__(self, "samples", _readonly(arr))
        object.__setattr__(self, "channel_names", names)
        if self.kinematics is not None:
            kin = _vector(self.kinematics, "kinematics")
            n_frames = arr.shape[1] // SAMPLES_PER_FRAME
            if len(kin) != n_frames:
                raise ValueError(f"{len(kin)} kinematic values for {n_frames} "
                                 f"frames of {SAMPLES_PER_FRAME} samples")
            object.__setattr__(self, "kinematics", kin)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class LabeledDataset:
    """Frames paired with activation-class labels."""

    frames: Sequence[EegFrame]
    labels: Sequence[ActivationClass]
    split_seed: int = 0
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "metadata", dict(self.metadata))
        if len(self.frames) != len(self.labels):
            raise ValueError(
                f"{len(self.frames)} frames but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.frames)


def _csv_rows(path):
    """Yield a CSV file's stripped header row, then (row number, cells) for
    each data row, numbered from 2 as in an editor. An empty file, a row
    with other than one cell per header column, a cell the csv module
    rejects (such as one over its field size limit) or text that is not
    UTF-8 raises DataError. Callers close the generator, which closes the
    file, and name the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError("empty file, expected a header row")
            header = [h.strip() for h in header]
            yield header
            for row_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(f"row {row_no} has {len(row)} cells, expected {len(header)}")
                yield row_no, row
        except csv.Error as exc:
            raise DataError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(
                f"not UTF-8 text ({exc.reason}: {exc.object[exc.start:exc.end]!r})"
            ) from None


def load_recording_csv(path) -> EegRecording:
    """Read a recording from CSV.

    Expected layout: a header row naming the 10 EEG channels, optionally
    followed by an ``angle_deg`` column; one data row per 1 ms sample.
    The angle column may be populated only on the first row of each
    10-row (0.01 s) window; empty cells are skipped and the non-empty
    values become the kinematics series in row order.

    The header is read as one csv row and the data rows by one np.loadtxt
    call on the same open file. When loadtxt refuses the text, _refusal
    raises DataError naming the fault: unreadable text, a ragged row, a
    non-numeric cell or a non-finite angle. One validator (_recording)
    raises DataError on every other rule. Each names the file, and the row
    where there is one; a missing file raises FileNotFoundError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh, naming(path):
        try:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError("empty file, expected a header row")
            header = [h.strip() for h in header]
            lines = _data_lines(fh)
            first = next(lines, None)
            cells = np.empty(0)  # no data rows, which _recording refuses
            if first is not None:  # loadtxt warns on no data
                converters = ({header.index(ANGLE_COLUMN): _angle_cell}
                              if ANGLE_COLUMN in header else None)
                cells = np.loadtxt(chain([first], lines), delimiter=",", quotechar='"',
                                   comments=None, converters=converters, ndmin=2)
                if cells.shape[1] != len(header):
                    raise ValueError(f"rows of {cells.shape[1]} cells under "
                                     f"{len(header)} header cells")
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError included
            raise _refusal(path, exc) from None
        return _recording(header, cells)


def _data_lines(fh):
    """The lines left in fh. A blank or whitespace-only line, which loadtxt
    would skip, raises ValueError, and one with a cell longer than the csv
    field size limit, which loadtxt would read, raises csv.Error."""
    limit = csv.field_size_limit()
    for line in fh:
        if line.isspace():
            raise ValueError("blank or whitespace-only line")
        if len(line) > limit:
            next(csv.reader([line]))
        yield line


def _number(cell: str) -> float:
    """float() of a CSV cell stripped of whitespace, refused (ValueError)
    unless that is ASCII with no '_': the number grammar of np.loadtxt."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(text)


def _angle_cell(cell: str) -> float:
    """An angle_deg cell as load_recording_csv reads it, NaN for an empty
    one; a non-numeric or non-finite value raises ValueError."""
    if not cell.strip():
        return math.nan
    value = _number(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite angle {cell!r}")
    return value


def _refusal(path, exc) -> DataError:
    """The DataError for a recording CSV whose text load_recording_csv could
    not read (exc). A regular file is read again through _csv_rows, _number
    and, in the angle column, _angle_cell, and its first fault is raised,
    named by row and column; any other path, such as a pipe, gets exc's
    message. The caller names the file."""
    if os.path.isfile(path):
        with closing(_csv_rows(path)) as rows:
            header = next(rows)
            readers = [_number] * len(header)
            if ANGLE_COLUMN in header:
                readers[header.index(ANGLE_COLUMN)] = _angle_cell
            for row_no, row in rows:
                for reader, name, cell in zip(readers, header, row):
                    try:
                        reader(cell)
                    except ValueError:  # _cell_value raises, naming the cell
                        _cell_value(cell, row_no, name)
    return DataError(str(exc))


def _recording(header: Sequence[str], cells: np.ndarray) -> EegRecording:
    """The recording that a tokenizer's header and cells (in row order,
    overwritten here) hold. No data rows, an angle off a window's first row
    or a non-finite sample (naming the row and column) raises DataError;
    whatever EegRecording refuses raises ValueError. The caller names the
    file."""
    angle_col = header.index(ANGLE_COLUMN) if ANGLE_COLUMN in header else None
    channel_names = [h for i, h in enumerate(header) if i != angle_col]
    if not cells.size:
        raise DataError("no data rows")
    table = cells.reshape(-1, len(header))
    kinematics = None
    if angle_col is not None:
        rows = np.flatnonzero(~np.isnan(table[:, angle_col]))
        off = rows[rows % SAMPLES_PER_FRAME != 0]
        if off.size:
            raise DataError(f"{ANGLE_COLUMN} value on row {int(off[0]) + 2}, which is not "
                            f"the first row of its {SAMPLES_PER_FRAME}-row window")
        kinematics = table[rows, angle_col]
        # drop the angle column within the cells' own buffer, so that
        # EegRecording's copy is the only one
        table[:, angle_col:-1] = table[:, angle_col + 1:]
        table = table[:, :-1]
    bad = np.flatnonzero(~np.isfinite(table))
    if bad.size:  # _cell_value raises, naming the first bad cell
        row, col = divmod(int(bad[0]), len(channel_names))
        _cell_value(repr(table.flat[bad[0]].item()), row + 2, channel_names[col])
    return EegRecording(samples=table.T, channel_names=channel_names, kinematics=kinematics)


def _cell_value(cell: str, row_no: int, column: str) -> float:
    try:
        value = _number(cell)
        fault = None if math.isfinite(value) else "non-finite value"
    except ValueError:
        fault = "non-numeric cell"
    if fault:
        raise DataError(f"{fault} {cell!r} on row {row_no}, column {column}")
    return value


def read_column(path, column: str) -> np.ndarray:
    """One named column of a CSV file with a header row, such as f0_hz of
    an f0.csv. Raises DataError on a missing or repeated column, no data
    rows, or, naming row and column, a ragged row or a non-numeric or
    non-finite cell; each names the file."""
    with naming(path), closing(_csv_rows(path)) as rows:
        header = next(rows)
        if column not in header:
            raise DataError(f"no {column!r} column")
        if header.count(column) > 1:
            raise DataError(f"{header.count(column)} columns named {column!r}")
        col = header.index(column)
        values = [_cell_value(row[col], row_no, column) for row_no, row in rows]
        if not values:
            raise DataError("no data rows")
    return np.array(values)


# Rows that write_columns turns into Python floats at a time, so that the
# memory a write holds stays small however long the columns are.
_WRITE_ROWS = 1024


def write_columns(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under a header row, LF line endings.

    Values are written as repr(float), which float() reads back bit for
    bit. A list column is written as is (Python floats, None for an empty
    cell); any other column, such as an array, is converted to floats.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(columns[0]), _WRITE_ROWS):
            block = [c[start:start + _WRITE_ROWS] for c in columns]
            block = [c if isinstance(c, list) else np.asarray(c, dtype=float).tolist()
                     for c in block]
            writer.writerows(zip(*block))


def write_recording_csv(rec: EegRecording, path) -> None:
    """Write a recording in the format understood by load_recording_csv.

    Kinematics, when present, are written one angle on the first row of
    each whole 0.01 s window.
    """
    header, columns = list(rec.channel_names), list(rec.samples)
    if rec.kinematics is not None:
        kin = rec.kinematics.tolist()
        angles = [None] * rec.n_samples  # a trailing partial window has none
        angles[:len(kin) * SAMPLES_PER_FRAME:SAMPLES_PER_FRAME] = kin
        header.append(ANGLE_COLUMN)
        columns.append(angles)
    write_columns(path, header, columns)


def window_matrix(rec: EegRecording) -> np.ndarray:
    """Cut a recording into consecutive non-overlapping 10 x 10 frames.

    Returns the (n_frames, 100) feature matrix: row i is frame i flattened
    row-major (channel-major), as EegFrame.features() would give it. The
    trailing partial window, if any, is dropped.
    """
    n_frames = rec.n_samples // SAMPLES_PER_FRAME
    return (rec.samples[:, :n_frames * SAMPLES_PER_FRAME]
            .reshape(N_CHANNELS, n_frames, SAMPLES_PER_FRAME)
            .transpose(1, 0, 2)
            .reshape(n_frames, N_CHANNELS * SAMPLES_PER_FRAME))


def window_frames(rec: EegRecording) -> list[EegFrame]:
    """The rows of window_matrix as EegFrame objects, indexed in order."""
    return [
        EegFrame(values=x.reshape(N_CHANNELS, SAMPLES_PER_FRAME), index=i)
        for i, x in enumerate(window_matrix(rec))
    ]


def split_indices(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled train/test split of the row indices 0..n-1.

    The permutation comes from a Fisher-Yates shuffle driven by the
    splitmix64 stream seeded with ``seed`` (see rng module and README),
    so partitions are reproducible across implementations. Train size is
    round(n * train_fraction), rounding half up. Returns the train and
    test indices, each in permutation order.
    """
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    n_train = int(np.floor(n * train_fraction + 0.5))
    order = np.array(order, dtype=np.intp)
    return order[:n_train], order[n_train:]


def split_dataset(ds: LabeledDataset, train_fraction: float,
                  seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """The split_indices partition of a dataset, as two datasets."""
    def take(indices: np.ndarray, tag: str) -> LabeledDataset:
        return LabeledDataset(
            frames=[ds.frames[i] for i in indices],
            labels=[ds.labels[i] for i in indices],
            split_seed=seed,
            metadata={**ds.metadata, "split": tag},
        )
    train_idx, test_idx = split_indices(len(ds), train_fraction, seed)
    return take(train_idx, "train"), take(test_idx, "test")
