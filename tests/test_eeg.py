import dataclasses
import os
import re
import threading
import warnings

import numpy as np
import pytest

from helpers import assert_loads_as_streaming

from neurof0 import eeg
from neurof0.eeg import (
    DEFAULT_CHANNELS,
    ActivationClass,
    EegFrame,
    EegRecording,
    LabeledDataset,
    load_recording_csv,
    read_column,
    split_dataset,
    window_frames,
    window_matrix,
    write_columns,
    write_recording_csv,
)
from neurof0.errors import DataError


def make_recording(n_samples, kinematics=None):
    rng = np.random.default_rng(0)
    return EegRecording(
        samples=rng.normal(size=(10, n_samples)),
        kinematics=kinematics,
    )


class TestActivationClass:
    def test_levels(self):
        assert ActivationClass(1).level == 0.1
        assert ActivationClass(10).level == 1.0
        assert [ActivationClass(k).level for k in range(1, 11)] == [
            pytest.approx(k / 10) for k in range(1, 11)
        ]

    @pytest.mark.parametrize("bad", [0, 11, -1, 3.0, "2", True])
    def test_bad_index(self, bad):
        with pytest.raises(ValueError):
            ActivationClass(bad)

    def test_numpy_integer_index_is_an_int(self):
        index = ActivationClass(np.int64(3)).index
        assert type(index) is int and index == 3

    def test_from_level_exact(self):
        assert ActivationClass.from_level(0.3) == ActivationClass(3)
        with pytest.raises(ValueError):
            ActivationClass.from_level(0.35)
        with pytest.raises(ValueError):
            ActivationClass.from_level(0.0)

    @pytest.mark.parametrize(
        "value,index",
        [
            (0.0, 1),    # zero demand maps to the lowest class
            (0.04, 1),
            (0.15, 2),   # tie rounds up
            (0.85, 9),
            (0.5, 5),
            (1.0, 10),
            (1.4, 10),   # clamped
            (-0.2, 1),
        ],
    )
    def test_nearest(self, value, index):
        assert ActivationClass.nearest(value) == ActivationClass(index)

    def test_nearest_non_finite(self):
        with pytest.raises(ValueError):
            ActivationClass.nearest(float("nan"))


class TestEegFrame:
    def test_shape_enforced(self):
        EegFrame(values=np.zeros((10, 10)))
        with pytest.raises(ValueError):
            EegFrame(values=np.zeros((10, 9)))
        with pytest.raises(ValueError):
            EegFrame(values=np.zeros((9, 10)))

    def test_finite_enforced(self):
        bad = np.zeros((10, 10))
        bad[3, 4] = np.nan
        with pytest.raises(ValueError):
            EegFrame(values=bad)

    def test_values_readonly(self):
        frame = EegFrame(values=np.zeros((10, 10)))
        with pytest.raises(ValueError):
            frame.values[0, 0] = 1.0

    def test_features_row_major(self):
        vals = np.arange(100.0).reshape(10, 10)
        frame = EegFrame(values=vals)
        assert frame.features()[10] == 10.0  # second channel, first sample


class TestEegRecording:
    def test_default_channel_names(self):
        rec = make_recording(50)
        assert rec.channel_names == DEFAULT_CHANNELS
        assert rec.n_channels == 10
        assert rec.n_samples == 50

    def test_channel_count_mismatch(self):
        with pytest.raises(ValueError):
            EegRecording(samples=np.zeros((10, 5)), channel_names=("a", "b"))

    def test_ten_channels(self):
        # the wording of a recording CSV with other than ten signal columns
        with pytest.raises(ValueError, match="^expected 10 signal columns, found 3$"):
            EegRecording(samples=np.zeros((3, 50)), channel_names="abc")

    def test_at_least_one_sample(self):
        # a CSV of no data rows does not load
        with pytest.raises(ValueError, match="not empty"):
            EegRecording(samples=np.zeros((10, 0)))

    def test_non_finite_sample_named(self):
        samples = np.zeros((10, 50))
        samples[3, 27] = np.inf
        with pytest.raises(ValueError, match="^non-finite sample inf at index 27 of channel F8$"):
            EegRecording(samples=samples)

    @pytest.mark.parametrize("kinematics", [[[1.0], [2.0]], [1.0, np.nan], [np.inf, 1.0]],
                             ids=["2-D", "nan", "inf"])
    def test_kinematics_finite_vector(self, kinematics):
        with pytest.raises(ValueError, match="^kinematics must be a finite 1-D vector$"):
            EegRecording(samples=np.zeros((10, 20)), kinematics=kinematics)

    @pytest.mark.parametrize("name", ["x ", " x", "\t", "a\rb", "\r", "a\ud800",
                                      pytest.param("x" * 131_073, id="over-field-limit")])
    def test_names_a_header_cannot_carry(self, name):
        names = (name, *DEFAULT_CHANNELS[1:])
        with pytest.raises(ValueError, match=f"^channel name {re.escape(repr(name)[:60])} "):
            EegRecording(samples=np.zeros((10, 20)), channel_names=names)

    @pytest.mark.parametrize("name", ["a,b", 'say "x"', "a\nb", "a\0b", "", "a b"])
    def test_names_a_header_carries(self, tmp_path, name):
        rec = EegRecording(samples=np.zeros((10, 20)), channel_names=(name, *DEFAULT_CHANNELS[1:]))
        write_recording_csv(rec, tmp_path / "r.csv")
        assert load_recording_csv(tmp_path / "r.csv").channel_names == rec.channel_names

    @pytest.mark.parametrize("i", [0, 9])
    def test_angle_column_is_not_a_channel(self, i):
        names = list(DEFAULT_CHANNELS)
        names[i] = "angle_deg"
        msg = "^'angle_deg' names the kinematics column, not a channel$"
        with pytest.raises(ValueError, match=msg):
            EegRecording(samples=np.zeros((10, 20)), channel_names=names)


class TestCsv:
    def test_parse_100_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [",".join(str(0.5 * (r + c)) for c in range(10)) for r in range(100)]
        path.write_text(",".join(DEFAULT_CHANNELS) + "\n" + "\n".join(rows) + "\n")
        rec = load_recording_csv(path)
        assert rec.n_samples == 100
        assert rec.n_channels == 10
        assert rec.kinematics is None

    def test_cells_parsed_bit_for_bit(self, tmp_path):
        cells = ["0.1", "-2.5e1", "1e-3", "42", "0.30000000000000004",
                 "3.14159", "-0", "7e2", "123.456", "-9.99"]
        path = tmp_path / "r.csv"
        path.write_text(",".join(DEFAULT_CHANNELS) + "\n" + ",".join(cells) + "\n")
        rec = load_recording_csv(path)
        for ch, text in enumerate(cells):
            assert rec.samples[ch, 0] == float(text)

    def test_load_window_frames_bit_for_bit(self, tmp_path):
        # frame values after load -> window must equal the parsed CSV text
        rng = np.random.default_rng(6)
        texts = [[repr(float(v)) for v in rng.normal(scale=17.3, size=10)]
                 for _ in range(10)]
        path = tmp_path / "r.csv"
        path.write_text(",".join(DEFAULT_CHANNELS) + "\n"
                        + "\n".join(",".join(row) for row in texts) + "\n")
        frame = window_frames(load_recording_csv(path))[0]
        for t, row in enumerate(texts):
            for ch, text in enumerate(row):
                assert frame.values[ch, t] == float(text)

    def test_wrong_channel_count(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join([f"c{i}" for i in range(11)]) + "\n" + ",".join(["0"] * 11) + "\n")
        with pytest.raises(DataError):
            load_recording_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(DEFAULT_CHANNELS) + "\n" + ",".join(["0"] * 9 + ["oops"]) + "\n")
        with pytest.raises(DataError):
            load_recording_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(DEFAULT_CHANNELS) + "\n" + ",".join(["0"] * 9) + "\n")
        with pytest.raises(DataError):
            load_recording_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_recording_csv(tmp_path / "nope.csv")

    def test_angle_every_10_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        lines = [",".join(DEFAULT_CHANNELS) + ",angle_deg"]
        for r in range(100):
            angle = str(float(r)) if r % 10 == 0 else ""
            lines.append(",".join(["1.0"] * 10) + "," + angle)
        path.write_text("\n".join(lines) + "\n")
        rec = load_recording_csv(path)
        assert rec.kinematics is not None
        assert len(rec.kinematics) == 10  # n_samples / 10
        assert list(rec.kinematics) == [float(r) for r in range(0, 100, 10)]

    def test_write_load_round_trip(self, tmp_path):
        rec = make_recording(60, kinematics=np.linspace(0, 90, 6))
        path = tmp_path / "r.csv"
        write_recording_csv(rec, path)
        back = load_recording_csv(path)
        np.testing.assert_array_equal(back.samples, rec.samples)
        np.testing.assert_array_equal(back.kinematics, rec.kinematics)

    def test_write_rejects_misaligned_kinematics(self):
        # a recording with other than one angle per whole window cannot be built
        with pytest.raises(ValueError, match="7 kinematic values for 6 frames of 10 samples"):
            make_recording(60, kinematics=np.zeros(7))

    def test_write_names_the_file(self):
        with pytest.raises(ValueError, match="^7 kinematic values for 6 frames of 10 samples$"):
            make_recording(65, kinematics=np.zeros(7))

    def test_empty_kinematics_round_trip(self, tmp_path):
        # fewer samples than one window: no angles, but an angle column
        rec = make_recording(5, kinematics=np.array([]))
        path = tmp_path / "r.csv"
        write_recording_csv(rec, path)
        back = load_recording_csv(path)
        assert back.kinematics is not None and back.kinematics.shape == (0,)
        np.testing.assert_array_equal(back.samples, rec.samples)

    def test_write_gets_no_angle_channel(self, tmp_path):
        # a recording with a channel named angle_deg would be written as a
        # file whose angle column the loader reads otherwise
        rec = make_recording(20, kinematics=np.array([1.0, 2.0]))
        names = (*DEFAULT_CHANNELS[:9], "angle_deg")
        with pytest.raises(ValueError, match="'angle_deg' names the kinematics column"):
            write_recording_csv(dataclasses.replace(rec, channel_names=names), tmp_path / "r.csv")
        assert not (tmp_path / "r.csv").exists()

    def test_write_keeps_a_trailing_partial_window(self, tmp_path):
        # one angle per whole window, as the loader and the pipeline count them
        rec = make_recording(65, kinematics=np.linspace(0, 90, 6))
        path = tmp_path / "r.csv"
        write_recording_csv(rec, path)
        back = load_recording_csv(path)
        np.testing.assert_array_equal(back.samples, rec.samples)
        np.testing.assert_array_equal(back.kinematics, rec.kinematics)


class TestWindowing:
    def test_counts(self):
        assert len(window_frames(make_recording(100))) == 10
        assert len(window_frames(make_recording(105))) == 10  # trailing 5 dropped
        assert len(window_frames(make_recording(10))) == 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            window_frames(make_recording(9))

    def test_indices_and_order(self):
        frames = window_frames(make_recording(50))
        assert [f.index for f in frames] == [0, 1, 2, 3, 4]

    def test_concatenation_reproduces_samples(self):
        rec = make_recording(105)
        frames = window_frames(rec)
        joined = np.hstack([f.values for f in frames])
        np.testing.assert_array_equal(joined, rec.samples[:, :100])


def make_dataset(n):
    rng = np.random.default_rng(1)
    frames = [EegFrame(values=rng.normal(size=(10, 10)), index=i) for i in range(n)]
    labels = [ActivationClass((i % 10) + 1) for i in range(n)]
    return LabeledDataset(frames=frames, labels=labels)


def pair_keys(ds):
    return sorted((f.values.tobytes(), lab.index) for f, lab in zip(ds.frames, ds.labels))


class TestSplit:
    def test_sizes_500(self):
        train, test = split_dataset(make_dataset(500), 0.7, seed=42)
        assert len(train) == 350
        assert len(test) == 150

    def test_deterministic(self):
        ds = make_dataset(10)
        a = split_dataset(ds, 0.7, seed=1)
        b = split_dataset(ds, 0.7, seed=1)
        assert pair_keys(a[0]) == pair_keys(b[0])
        assert [f.index for f in a[0].frames] == [f.index for f in b[0].frames]

    def test_union_and_disjointness(self):
        ds = make_dataset(10)
        for seed in (1, 2):
            train, test = split_dataset(ds, 0.7, seed=seed)
            assert len(train) == 7 and len(test) == 3
            assert pair_keys(train) + pair_keys(test) != []
            combined = sorted(pair_keys(train) + pair_keys(test))
            assert combined == pair_keys(ds)  # multiset preserved
            train_ids = {f.index for f in train.frames}
            test_ids = {f.index for f in test.frames}
            assert not train_ids & test_ids

    def test_different_seeds_differ(self):
        ds = make_dataset(100)
        a = split_dataset(ds, 0.7, seed=1)
        b = split_dataset(ds, 0.7, seed=2)
        assert [f.index for f in a[0].frames] != [f.index for f in b[0].frames]

    def test_split_seed_recorded(self):
        train, test = split_dataset(make_dataset(10), 0.7, seed=9)
        assert train.split_seed == 9 and test.split_seed == 9
        assert train.metadata["split"] == "train"
        assert test.metadata["split"] == "test"

    def test_errors(self):
        with pytest.raises(ValueError):
            split_dataset(LabeledDataset(frames=[], labels=[]), 0.7, seed=0)
        with pytest.raises(ValueError):
            split_dataset(make_dataset(10), 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(make_dataset(10), 0.0, seed=0)


def test_labeled_dataset_length_mismatch():
    frames = [EegFrame(values=np.zeros((10, 10)))]
    with pytest.raises(ValueError):
        LabeledDataset(frames=frames, labels=[])


def write_csv(path, rows, angle=False):
    header = ",".join(DEFAULT_CHANNELS) + (",angle_deg" if angle else "")
    path.write_text(header + "\n" + "\n".join(",".join(r) for r in rows) + "\n")


# a row the csv module cannot read: one cell over its 131,072-character
# field limit, or a byte that is not UTF-8
BAD_TEXT_ROWS = [
    pytest.param(b"1" * 131_073 + b",1.0" * 9 + b"\n", "line 5: field larger than field limit",
                 id="overlong-cell"),
    pytest.param(b"1.0,\xff" + b",1.0" * 8 + b"\n", "not UTF-8 text (invalid start byte: b'\\xff')",
                 id="not-utf8"),
]


class TestCsvBoundaries:
    @pytest.mark.parametrize("angle", [False, True])
    def test_header_only_rejected(self, tmp_path, angle):
        path = tmp_path / "r.csv"
        path.write_text(",".join(DEFAULT_CHANNELS) + (",angle_deg" if angle else "") + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: no data rows")):
            load_recording_csv(path)

    def test_angle_off_window_start_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [["1.0"] * 10 + [""] for _ in range(20)]
        rows[0][10] = "10.0"
        rows[8][10] = "12.0"  # 9th row of the first window, file row 10
        write_csv(path, rows, angle=True)
        with pytest.raises(DataError, match="row 10"):
            load_recording_csv(path)

    @pytest.mark.parametrize("n_rows, n_angles", [(105, 11), (20, 1), (5, 1)])
    def test_angle_per_whole_window_or_rejected(self, tmp_path, n_rows, n_angles):
        path = tmp_path / "r.csv"
        rows = [["1.0"] * 10 + [""] for _ in range(n_rows)]
        for w in range(n_angles):
            rows[10 * w][10] = "10.0"
        write_csv(path, rows, angle=True)
        msg = f"{path}: {n_angles} kinematic values for {n_rows // 10} frames"
        with pytest.raises(DataError, match=re.escape(msg)):
            load_recording_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_sample_rejected_with_location(self, tmp_path, bad):
        path = tmp_path / "r.csv"
        rows = [["1.0"] * 10 for _ in range(20)]
        rows[13][4] = bad
        write_csv(path, rows)
        with pytest.raises(DataError, match=r"row 15, column T3"):
            load_recording_csv(path)

    def test_non_finite_angle_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [["1.0"] * 10 + [""] for _ in range(20)]
        rows[10][10] = "nan"
        write_csv(path, rows, angle=True)
        with pytest.raises(DataError, match="row 12, column angle_deg"):
            load_recording_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [["1.0"] * 10 + [""] for _ in range(30)]
        rows[17][2] = "oops"
        write_csv(path, rows, angle=True)
        with pytest.raises(DataError, match=r"'oops' on row 19, column F7"):
            load_recording_csv(path)

    @pytest.mark.parametrize("row, match", BAD_TEXT_ROWS)
    def test_unreadable_text_named(self, tmp_path, row, match):
        path = tmp_path / "r.csv"
        write_csv(path, [["1.0"] * 10] * 3)
        path.write_bytes(path.read_bytes() + row)
        with pytest.raises(DataError, match=re.escape(f"r.csv: {match}")):
            load_recording_csv(path)


def fast_path_csv() -> bytes:
    """20 rows with an angle on the first row of each window: a file the
    loadtxt fast path reads."""
    rows = [",".join([f"{0.25 * (i + c)}" for c in range(10)] + ["" if i % 10 else "12.5"])
            for i in range(20)]
    return ("\n".join([",".join(DEFAULT_CHANNELS) + ",angle_deg"] + rows) + "\n").encode()


def replace_cell(row: int, col: int, cell):
    """An edit that sets one cell of a data row (0-based) of fast_path_csv,
    or deletes it when cell is None."""
    def edit(blob: bytes) -> bytes:
        lines = blob.split(b"\n")
        cells = lines[row + 1].split(b",")
        cells[col:col + 1] = [] if cell is None else [cell]
        lines[row + 1] = b",".join(cells)
        return b"\n".join(lines)
    return edit


# each edit of fast_path_csv that the loadtxt fast path must hand to the
# streaming reader, whether that reader then accepts the file or not
DEFERRALS = [
    pytest.param(replace_cell(3, 2, b'"1.5"'), id="quoted-cell"),
    pytest.param(lambda b: b.replace(b"FP2", b'"FP2"'), id="quoted-header"),
    pytest.param(lambda b: b.replace(b"\n", b"\r\n"), id="crlf"),
    pytest.param(lambda b: b.replace(b"\n", b"\n\n", 3), id="blank-line"),
    pytest.param(lambda b: b + b"\n", id="blank-last-line"),
    pytest.param(lambda b: b[:b.index(b"\n") + 1] + b"\n", id="blank-data-only"),
    pytest.param(lambda b: b.replace(b"\n", b"\n \n", 3), id="whitespace-line"),
    pytest.param(lambda b: b[:-1], id="no-final-newline"),
    pytest.param(replace_cell(4, 1, b"1_0"), id="underscore"),
    pytest.param(replace_cell(4, 1, "\uff11.\uff15".encode()), id="full-width-digits"),
    pytest.param(replace_cell(4, 1, b"1\x005"), id="nul"),
    pytest.param(lambda b: b.replace(b"FP2", b"FP\x002"), id="nul-in-header"),
    pytest.param(replace_cell(4, 1, b"1\xff"), id="not-utf8"),
    pytest.param(replace_cell(4, 1, b"0." + b"1" * 131_072), id="overlong-finite-cell"),
    pytest.param(replace_cell(5, 10, b"1.0,2.0"), id="extra-column"),
    pytest.param(lambda b: b.replace(b"\n", b",0\n").replace(b"angle_deg,0", b"angle_deg"),
                 id="extra-column-every-row"),
    pytest.param(replace_cell(5, 9, None), id="missing-column"),
    pytest.param(lambda b: b[:b.index(b"\n") + 1], id="header-only"),
    pytest.param(replace_cell(10, 10, b"nan"), id="nan-angle"),
    pytest.param(replace_cell(10, 10, b"inf"), id="inf-angle"),
]

# each edit of fast_path_csv that the loadtxt fast path reads as text but
# the validator refuses: both tokenizers lead to the same DataError
RULE_FAULTS = [
    pytest.param(replace_cell(3, 10, b"40.0"), "angle_deg value on row 5",
                 id="angle-off-window-start"),
    pytest.param(replace_cell(7, 0, b"nan"), "non-finite value 'nan' on row 9, column FP1",
                 id="nan-signal"),
    pytest.param(replace_cell(7, 0, b"-inf"), "non-finite value '-inf' on row 9, column FP1",
                 id="inf-signal"),
    pytest.param(replace_cell(10, 10, b""), "1 kinematic values for 2 frames", id="angle-count"),
]


class TestCsvFastPath:
    def test_plain_file_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(fast_path_csv())
        assert eeg._plain_cells(path) is not None
        rec = assert_loads_as_streaming(path)
        assert rec.kinematics.tolist() == [12.5, 12.5]

    @pytest.mark.parametrize("edit", DEFERRALS)
    def test_deferred_to_the_streaming_reader(self, tmp_path, edit):
        path = tmp_path / "r.csv"
        path.write_bytes(edit(fast_path_csv()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # such as loadtxt's on a file of blank lines
            assert eeg._plain_cells(path) is None
        assert_loads_as_streaming(path)

    @pytest.mark.parametrize("edit, match", RULE_FAULTS)
    def test_validated_after_either_tokenizer(self, tmp_path, edit, match):
        path = tmp_path / "r.csv"
        path.write_bytes(edit(fast_path_csv()))
        assert eeg._plain_cells(path) is not None
        assert assert_loads_as_streaming(path) is None
        with pytest.raises(DataError, match=re.escape(f"{path}: {match}")):
            load_recording_csv(path)

    @pytest.mark.parametrize("quote", [False, True], ids=["loadtxt", "csv"])
    def test_second_angle_column_refused(self, tmp_path, quote):
        # FP1..O1, then two angle_deg columns: angles in the first, a number
        # on every row of the second, which would be read as a 10th channel
        second = '"angle_deg"' if quote else "angle_deg"  # a quote defers to the csv module
        header = ",".join(DEFAULT_CHANNELS[:9]) + ",angle_deg," + second
        rows = [",".join(["1.0"] * 9 + ["" if i % 10 else "5.0", "2.0"]) for i in range(20)]
        path = tmp_path / "r.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        assert (eeg._plain_cells(path) is None) == quote
        assert assert_loads_as_streaming(path) is None
        msg = f"{path}: 'angle_deg' names the kinematics column, not a channel"
        with pytest.raises(DataError, match=f"^{re.escape(msg)}$"):
            load_recording_csv(path)

    def test_first_text_fault_named_before_a_rule_fault(self, tmp_path):
        # an angle off its window start on row 10 and a non-numeric cell on
        # row 19: the tokenizer names the cell before the validator runs
        path = tmp_path / "r.csv"
        rows = [["1.0"] * 10 + [""] for _ in range(30)]
        rows[0][10] = "10.0"
        rows[8][10] = "12.0"
        rows[17][2] = "oops"
        write_csv(path, rows, angle=True)
        msg = f"{path}: non-numeric cell 'oops' on row 19, column F7"
        with pytest.raises(DataError, match=re.escape(msg)):
            load_recording_csv(path)

    def test_pipe_is_read_once(self, tmp_path):
        # a named pipe yields its text once: the scan must leave it unread
        fifo = tmp_path / "r.fifo"
        os.mkfifo(fifo)
        done = []

        def write():
            with open(fifo, "wb") as fh:
                fh.write(fast_path_csv())

        def read():
            done.append(load_recording_csv(fifo))

        threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert done[0].kinematics.tolist() == [12.5, 12.5]

    def test_gen_data_output_takes_the_fast_path(self, tmp_path, monkeypatch):
        from neurof0.cli import cli_main

        assert cli_main(["--out", str(tmp_path), "gen-data", "--n", "30"]) == 0
        assert cli_main(["--out", str(tmp_path), "gen-data", "--movement-steps", "25"]) == 0
        want = [eeg._recording(tmp_path / n, *eeg._csv_cells(tmp_path / n))
                for n in ("dataset.csv", "movement.csv")]

        def refuse(path):
            raise AssertionError(f"{path} went to the streaming reader")

        monkeypatch.setattr(eeg, "_csv_cells", refuse)
        for name, rec in zip(("dataset.csv", "movement.csv"), want):
            got = load_recording_csv(tmp_path / name)
            assert got.samples.tobytes() == rec.samples.tobytes()
            assert got.kinematics.tobytes() == rec.kinematics.tobytes()


class TestColumns:
    def test_read_column(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("t_s,f0_hz\n0.0,2000.0\n0.01, 2500.5\n")
        values = read_column(path, "f0_hz")
        assert isinstance(values, np.ndarray)
        assert values.tolist() == [2000.0, 2500.5]

    @pytest.mark.parametrize("text, match", [
        ("", "empty file"),
        ("t_s,activation\n0.0,0.5\n", "no 'f0_hz' column"),
        ("t_s,f0_hz\n", "no data rows"),
        ("t_s,f0_hz\n0.0,2000.0\n0.01\n", "row 3 has 1 cells, expected 2"),
        ("t_s,f0_hz\n0.0,2000.0\n0.01,nan\n", "non-finite value 'nan' on row 3, column f0_hz"),
        ("t_s,f0_hz\n0.0,-inf\n", "non-finite value '-inf' on row 2, column f0_hz"),
        ("t_s,f0_hz\n0.0,abc\n", "non-numeric cell 'abc' on row 2, column f0_hz"),
    ])
    def test_read_column_errors_name_their_location(self, tmp_path, text, match):
        path = tmp_path / "f0.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(match)):
            read_column(path, "f0_hz")

    @pytest.mark.parametrize("row, match", BAD_TEXT_ROWS)
    def test_read_column_unreadable_text_named(self, tmp_path, row, match):
        path = tmp_path / "r.csv"
        write_csv(path, [["1.0"] * 10] * 3)
        path.write_bytes(path.read_bytes() + row)
        with pytest.raises(DataError, match=re.escape(f"r.csv: {match}")):
            read_column(path, "FP1")

    def test_write_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        write_columns(path, ["a", "b", "c"],
                      [np.array([0.1, -0.0]), (1, 2.5), [1e-300, None]])
        assert path.read_bytes() == b"a,b,c\n0.1,1.0,1e-300\n-0.0,2.5,\n"
        assert read_column(path, "a").tolist() == [0.1, -0.0]


class TestWindowMatrix:
    def test_rows_are_frame_features(self):
        rec = make_recording(105)
        X = window_matrix(rec)
        assert X.shape == (10, 100)
        np.testing.assert_array_equal(X, [f.features() for f in window_frames(rec)])

    def test_frame_shape_enforced(self):
        with pytest.raises(ValueError):
            window_matrix(EegRecording(samples=np.zeros((3, 50)), channel_names="abc"))
