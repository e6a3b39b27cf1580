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

from .errors import DataError
from .rng import SplitMix64

DEFAULT_CHANNELS = ("FP1", "FP2", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")
N_CHANNELS = 10
SAMPLES_PER_FRAME = 10
SAMPLE_RATE_HZ = 1000.0
# one frame per control step of the downstream actuator (0.01 s)
CONTROL_DT_S = SAMPLES_PER_FRAME / SAMPLE_RATE_HZ
ANGLE_COLUMN = "angle_deg"


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _vector(values, name: str) -> np.ndarray:
    """values as a read-only float vector (a scalar is a vector of one);
    raises ValueError naming name unless they are finite and 1-D."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or not np.isfinite(arr).all():
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
    if not np.all(np.isfinite(values)):
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
        if not np.all(np.isfinite(arr)):
            raise ValueError("frame contains non-finite values")
        object.__setattr__(self, "values", _readonly(arr))

    def features(self) -> np.ndarray:
        """Row-major (channel-major) flattening into a 100-vector."""
        return self.values.ravel()


@dataclass(frozen=True)
class EegRecording:
    """Multichannel EEG time series with optional elbow-angle kinematics.

    samples has shape (10, n_samples) with n_samples >= 1, all finite, at
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
        if arr.ndim != 2 or not arr.shape[1]:
            raise ValueError("samples must be a 2-D channels x samples array, not empty")
        names = tuple(str(n) for n in self.channel_names)
        if arr.shape[0] != len(names):
            raise ValueError(f"{arr.shape[0]} channel rows but {len(names)} channel names")
        if len(names) != N_CHANNELS:
            raise ValueError(f"expected {N_CHANNELS} signal columns, found {len(names)}")
        for name in names:
            if (name != name.strip() or "\r" in name or len(name) > csv.field_size_limit()
                    or any("\ud800" <= c <= "\udfff" for c in name)):
                raise ValueError(f"channel name {name!r:.60} cannot be a CSV header cell")
        if ANGLE_COLUMN in names:
            raise ValueError(f"{ANGLE_COLUMN!r} names the kinematics column, not a channel")
        if not np.isfinite(arr).all():
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
    file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, expected a header row")
            header = [h.strip() for h in header]
            yield header
            for row_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                    )
                yield row_no, row
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path}: not UTF-8 text ({exc.reason}: {exc.object[exc.start:exc.end]!r})"
            ) from None


def load_recording_csv(path) -> EegRecording:
    """Read a recording from CSV.

    Expected layout: a header row naming the 10 EEG channels, optionally
    followed by an ``angle_deg`` column; one data row per 1 ms sample.
    The angle column may be populated only on the first row of each
    10-row (0.01 s) window; empty cells are skipped and the non-empty
    values become the kinematics series in row order.

    Two tokenizers turn the text into cells: one np.loadtxt call reads a
    plain file (_plain_cells), the csv module any other row by row
    (_csv_cells), raising DataError on unreadable text, a ragged row, a
    non-numeric cell or a non-finite angle. One validator (_recording)
    raises DataError on every other rule. Each names the file, and the row
    where there is one; a missing file raises FileNotFoundError.
    """
    header, cells = _plain_cells(path) or _csv_cells(path)
    return _recording(path, header, cells)


# Bytes per read when _scan_lines looks through a file.
_SCAN_BYTES = 1 << 16


def _scan_lines(path) -> Optional[int]:
    """The number of lines of a file, or None when the csv module could
    read it otherwise than line by line and comma by comma, or when a line
    is blank: the file holds a quote, a carriage return or a NUL, a line
    longer than the csv field size limit, or a last line with no final
    newline. A path that is not a regular file, such as a pipe that could
    not be read a second time, also gives None, unread."""
    if not os.path.isfile(path):
        return None
    limit = csv.field_size_limit()
    n_lines, run = 0, 0  # run: the bytes since the last newline
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            if b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
                return None
            ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            if ends.size:
                widths = np.diff(ends, prepend=-1 - run) - 1  # of the lines that end here
                if widths.min() == 0 or widths.max() > limit:
                    return None
                n_lines += ends.size
                run = len(chunk) - 1 - int(ends[-1])
            else:
                run += len(chunk)
            if run > limit:
                return None
    return None if run else n_lines


def _angle_cell(cell: str) -> float:
    """An angle_deg cell as load_recording_csv reads it, NaN for an empty
    one; a non-finite value raises ValueError."""
    cell = cell.strip()
    if not cell:
        return math.nan
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite angle {cell!r}")
    return value


def _plain_cells(path):
    """_csv_cells' header and cells, as a (rows, columns) table, through one
    np.loadtxt call; or None whenever _csv_cells could read the text
    otherwise: the file is not plain comma-separated lines (_scan_lines),
    has no data rows, loadtxt fails (a non-finite angle included) or the
    table is not one row per line and one cell per header column."""
    n_lines = _scan_lines(path)
    if n_lines is None or n_lines < 2:  # deferred, or a header with no data rows
        return None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = [h.strip() for h in fh.readline()[:-1].split(",")]
        except UnicodeDecodeError:
            return None
        converters = {header.index(ANGLE_COLUMN): _angle_cell} if ANGLE_COLUMN in header else None
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, converters=converters,
                               ndmin=2)
        except ValueError:  # UnicodeDecodeError included
            return None
    return (header, table) if table.shape == (n_lines - 1, len(header)) else None


def _csv_cells(path):
    """The header and every cell as a float in row order, NaN for an empty
    angle_deg cell, read row by row through the csv module. _csv_rows'
    DataErrors pass through; a non-numeric cell or a non-finite angle
    raises DataError naming its row and column."""
    with closing(_csv_rows(path)) as rows:
        header = next(rows)
        angle_col = header.index(ANGLE_COLUMN) if ANGLE_COLUMN in header else None

        def cell_rows():
            for row_no, row in rows:
                if angle_col is not None:
                    cell = row[angle_col].strip()
                    row[angle_col] = (_cell_value(cell, path, row_no, ANGLE_COLUMN)
                                      if cell else math.nan)
                try:
                    values = tuple(map(float, row))
                except ValueError:  # _cell_value raises, naming the cell
                    for name, cell in zip(header, row):
                        _cell_value(cell, path, row_no, name)
                    raise
                yield values

        return header, np.fromiter(chain.from_iterable(cell_rows()), dtype=float)


def _recording(path, header: Sequence[str], cells: np.ndarray) -> EegRecording:
    """The recording that a tokenizer's header and cells (in row order,
    overwritten here) hold, or a DataError naming the file: no data rows,
    an angle off a window's first row or a non-finite sample (naming the
    row and column), or whatever EegRecording refuses."""
    angle_col = header.index(ANGLE_COLUMN) if ANGLE_COLUMN in header else None
    channel_names = [h for i, h in enumerate(header) if i != angle_col]
    if not cells.size:
        raise DataError(f"{path}: no data rows")
    table = cells.reshape(-1, len(header))
    kinematics = None
    if angle_col is not None:
        rows = np.flatnonzero(~np.isnan(table[:, angle_col]))
        off = rows[rows % SAMPLES_PER_FRAME != 0]
        if off.size:
            raise DataError(
                f"{path}: {ANGLE_COLUMN} value on row {int(off[0]) + 2}, which is "
                f"not the first row of its {SAMPLES_PER_FRAME}-row window"
            )
        kinematics = table[rows, angle_col]
        # drop the angle column within the cells' own buffer, so that
        # EegRecording's copy is the only one
        table[:, angle_col:-1] = table[:, angle_col + 1:]
        table = table[:, :-1]
    bad = np.flatnonzero(~np.isfinite(table))
    if bad.size:  # _cell_value raises, naming the first bad cell
        row, col = divmod(int(bad[0]), len(channel_names))
        _cell_value(repr(float(table.flat[bad[0]])), path, row + 2, channel_names[col])
    try:
        return EegRecording(samples=table.T, channel_names=channel_names, kinematics=kinematics)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _cell_value(cell: str, path, row_no: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"{path}: non-numeric cell {cell!r} on row {row_no}, column {column}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"{path}: non-finite value {cell!r} on row {row_no}, column {column}")
    return value


def read_column(path, column: str) -> np.ndarray:
    """One named column of a CSV file with a header row, such as f0_hz of
    an f0.csv. Raises DataError on a missing column, no data rows, or,
    naming row and column, a ragged row or a non-numeric or non-finite cell."""
    with closing(_csv_rows(path)) as rows:
        header = next(rows)
        if column not in header:
            raise DataError(f"{path}: no {column!r} column")
        col = header.index(column)
        values = [_cell_value(row[col], path, row_no, column) for row_no, row in rows]
    if not values:
        raise DataError(f"{path}: no data rows")
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
    if n_frames == 0:
        raise ValueError(
            f"recording has {rec.n_samples} samples, fewer than one "
            f"{SAMPLES_PER_FRAME}-sample window"
        )
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


def split_indices(n: int, train_fraction: float = 0.7,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
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


def split_dataset(
    ds: LabeledDataset, train_fraction: float = 0.7, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
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
