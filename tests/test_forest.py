import hashlib
import struct

import numpy as np
import pytest

from helpers import optimal_stump

from neurof0 import forest
from neurof0.datagen import SynthConfig, generate_dataset
from neurof0.eeg import ActivationClass, EegFrame, LabeledDataset
from neurof0.errors import ModelFileError
from neurof0.forest import (
    LEAF,
    DecisionTree,
    ForestHyperparams,
    ForestModel,
    fit,
    load_model,
    predict,
    predict_batch,
    predict_trajectory,
    save_model,
    train,
)


@pytest.fixture()
def searched(monkeypatch):
    """The row count of every _best_split call, which fails past 10,000
    calls: a split that sent every row left would repeat its node forever."""
    sizes = []
    search = forest._best_split

    def counting(XT, y_onehot, idx, feats, min_leaf):
        sizes.append(len(idx))
        assert len(sizes) < 10_000, "the split search does not end"
        return search(XT, y_onehot, idx, feats, min_leaf)

    monkeypatch.setattr(forest, "_best_split", counting)
    return sizes


def frame_with(feature0: float, index: int = 0) -> EegFrame:
    values = np.zeros((10, 10))
    values[0, 0] = feature0
    return EegFrame(values=values, index=index)


def leaf_only_tree(class_index: int) -> DecisionTree:
    counts = np.zeros((1, 10), dtype=np.int64)
    counts[0, class_index - 1] = 1
    return DecisionTree(
        feature=np.array([LEAF], dtype=np.int32),
        threshold=np.zeros(1),
        left=np.zeros(1, dtype=np.int32),
        right=np.zeros(1, dtype=np.int32),
        class_counts=counts,
    )


class TestHyperparams:
    def test_defaults(self):
        hp = ForestHyperparams()
        assert (hp.n_estimators, hp.min_samples_leaf, hp.min_samples_split,
                hp.seed, hp.max_features) == (10, 1, 2, 42, 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"min_samples_leaf": 0},
            {"min_samples_split": 1},
            {"max_features": 0},
            {"max_features": 101},
            {"n_estimators": 2**32},
            {"min_samples_leaf": 2**32},
            {"min_samples_split": 2**32},
            {"seed": 2**63},
            {"seed": -(2**63) - 1},
            {"seed": 2**64 - 1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ForestHyperparams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 2**63 - 1},
        {"seed": -(2**63)},
        {"min_samples_leaf": 2**32 - 1, "min_samples_split": 2**32 - 1},
    ])
    def test_header_extremes_round_trip(self, tmp_path, kwargs):
        # the .nf0f header stores the seed as i64 and the counts as u32
        hp = ForestHyperparams(n_estimators=1, **kwargs)
        save_model(ForestModel(trees=[leaf_only_tree(3)], hyperparams=hp), tmp_path / "m.nf0f")
        assert load_model(tmp_path / "m.nf0f").hyperparams == hp


class TestTraining:
    def test_single_sample_gives_leaf_trees(self):
        ds = LabeledDataset(frames=[frame_with(1.0)], labels=[ActivationClass(3)])
        model = train(ds)
        for tree in model.trees:
            assert tree.n_nodes == 1
            assert tree.feature[0] == LEAF
        cls, votes = predict(model, frame_with(99.0))
        assert cls == ActivationClass(3)
        assert votes.sum() == 10

    def test_two_separable_samples(self):
        # class encoded entirely by feature 0: bootstraps containing both
        # classes must produce a depth-1 tree splitting feature 0 at the
        # midpoint; single-class bootstraps collapse to a leaf
        ds = LabeledDataset(
            frames=[frame_with(0.0, 0), frame_with(10.0, 1)],
            labels=[ActivationClass(1), ActivationClass(10)],
        )
        model = train(ds)
        mixed = 0
        for tree in model.trees:
            if tree.feature[0] == LEAF:
                assert tree.n_nodes == 1
                continue
            mixed += 1
            assert tree.n_nodes == 3
            assert tree.feature[0] == 0
            assert tree.threshold[0] == 5.0
        assert mixed >= 1
        assert predict(model, frame_with(0.0))[0] == ActivationClass(1)
        assert predict(model, frame_with(10.0))[0] == ActivationClass(10)

    def test_deterministic_serialization(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_samples=80, snr_db=20.0, seed=5))
        p1, p2 = tmp_path / "a.nf0f", tmp_path / "b.nf0f"
        save_model(train(ds), p1)
        save_model(train(ds), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_memorizes_training_set(self):
        # noiseless, consistently-labeled data: training accuracy must be 100%
        ds = generate_dataset(SynthConfig(n_samples=300, snr_db=float("inf"), seed=6))
        model = train(ds)
        pred = predict_trajectory(model, ds.frames)
        assert pred == list(ds.labels)

    # SHA-256 of model.nf0f as the per-feature split search wrote it:
    # ((frames, SNR dB, generator seed), hyperparameters, digest)
    PINNED = [
        ((300, 20.0, 11), {}, "ed86f0288d56302a0bd7f0871ce63493f17d86b0da7661232cb9ea73dafd82e6"),
        ((300, 40.0, 12), {}, "ce3b4a1e25d8a016bf1ec4ae4d69086061f0fd716371c7e53ad241d963642a01"),
        ((200, float("inf"), 13), {},
         "e43cce649d592a5f384045104ea8d4084ab77563fb6e0d87cb0fd2a13d280ab7"),
        ((300, 20.0, 14), {"min_samples_leaf": 3, "max_features": 7, "seed": 9},
         "0a1f14ebb8c4357fcec1d2f81dd4c5a68fb0fa2004a2008040f7f35ef1e97898"),
        ((150, 20.0, 15), {"max_features": 100},
         "94503fdda6cdf156a56d32bc681b098aca63b9aaf5b5cbb9286fb3288581a648"),
        ((250, 40.0, 16), {"min_samples_split": 5},
         "7371388b3210ced27fc5f531046d7627cb27b84b86453621bcd55076d1ebbfab"),
        ((800, 20.0, 17), {"n_estimators": 3},
         "488fc9d178ad7117508a9ff17aa09248f1493c3b49c474ba4f97244524b16388"),
    ]

    @pytest.mark.parametrize("data, hp, digest", PINNED)
    def test_model_bytes_pinned(self, tmp_path, data, hp, digest):
        n, snr_db, seed = data
        model = train(generate_dataset(SynthConfig(n_samples=n, snr_db=snr_db, seed=seed)),
                      ForestHyperparams(**hp))
        save_model(model, tmp_path / "m.nf0f")
        assert hashlib.sha256((tmp_path / "m.nf0f").read_bytes()).hexdigest() == digest

    def test_nodes_too_small_to_cut_are_not_searched(self, tmp_path, searched):
        # a node of fewer than 2 * min_samples_leaf rows has no valid cut:
        # it becomes a leaf unsearched, after the draws of a fruitless walk
        (n, snr_db, seed), hp, digest = self.PINNED[3]
        hp = ForestHyperparams(**hp)
        model = train(generate_dataset(SynthConfig(n_samples=n, snr_db=snr_db, seed=seed)), hp)
        assert searched and min(searched) >= 2 * hp.min_samples_leaf
        save_model(model, tmp_path / "m.nf0f")
        assert hashlib.sha256((tmp_path / "m.nf0f").read_bytes()).hexdigest() == digest

    def test_node_with_no_cut_becomes_a_leaf(self, searched):
        # every feature is constant: each mixed root searches one batch of
        # max_features, then each of the other 90 features alone, finds no
        # cut and stays a leaf, which votes for its bootstrap's majority
        model = fit(np.zeros((6, 100)), [1, 1, 1, 2, 2, 3], ForestHyperparams(n_estimators=5))
        assert searched == [6] * (5 * 91)
        assert [tree.n_nodes for tree in model.trees] == [1] * 5
        classes, votes = predict_batch(model, np.zeros((1, 100)))
        assert classes.tolist() == [1] and votes[0].tolist() == [3, 1, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train(LabeledDataset(frames=[], labels=[]))

    @pytest.mark.parametrize("shape, labels, match", [
        ((3, 100), [1, 0, 2], "class indices"),
        ((3, 100), [1, 11, 2], "class indices"),
        ((3, 99), [1, 2, 3], "feature matrix"),
        ((2, 100), [1, 2, 3], "feature matrix"),
        ((20, 100), np.full(20, 1.5), "class indices"),
        ((20, 100), ["3"] * 20, "class indices"),
        ((20, 100), [True] * 20, "class indices"),
    ])
    def test_fit_rejects_bad_inputs(self, shape, labels, match):
        with pytest.raises(ValueError, match=match):
            fit(np.zeros(shape), labels)

    def test_tree_count_matches_estimators(self):
        ds = LabeledDataset(frames=[frame_with(1.0)], labels=[ActivationClass(2)])
        model = train(ds, ForestHyperparams(n_estimators=3))
        assert len(model.trees) == 3

    def test_adding_trees_keeps_earlier_ones_identical(self):
        # per-tree seed streams: growing the ensemble must not change
        # already-built trees (prerequisite for bit-identical parallel builds)
        ds = generate_dataset(SynthConfig(n_samples=100, snr_db=25.0, seed=4))
        small = train(ds, ForestHyperparams(n_estimators=3))
        large = train(ds, ForestHyperparams(n_estimators=8))
        for t_small, t_large in zip(small.trees, large.trees):
            np.testing.assert_array_equal(t_small.feature, t_large.feature)
            np.testing.assert_array_equal(t_small.threshold, t_large.threshold)
            np.testing.assert_array_equal(t_small.left, t_large.left)
            np.testing.assert_array_equal(t_small.right, t_large.right)
            np.testing.assert_array_equal(t_small.class_counts, t_large.class_counts)


# adjacent feature values whose midpoint overflows to inf (or -inf) or
# rounds onto the upper value, and a pair whose difference would overflow
EDGE_PAIRS = [(1e308, 1.7e308), (-1.7e308, -1e308), (1 + 2**-52, 1 + 2**-51),
              (-1.7e308, 1.7e308)]


class TestSplitThresholds:
    @pytest.mark.parametrize("a, b", EDGE_PAIRS)
    def test_threshold_separates_the_values(self, a, b):
        XT = np.full((100, 2), [a, b])
        best = forest._best_split(XT, np.eye(10, dtype=np.int8)[[0, 1]], np.array([0, 1]),
                                  [0], 1)
        assert best is not None
        assert a <= best[2] < b

    @pytest.mark.parametrize("a, b", EDGE_PAIRS)
    @pytest.mark.parametrize("n_rows, n_edge", [(20, 100), (200, 1)])
    def test_fit_splits_between_the_values(self, searched, a, b, n_rows, n_edge):
        # classes 1 and 2 alternate; the first n_edge features take a for
        # class 1 and b for class 2, the others are noise
        y = np.arange(n_rows) % 2 + 1
        X = np.random.default_rng(1).normal(size=(n_rows, 100))
        X[:, :n_edge] = np.where(y == 1, a, b)[:, None]
        model = fit(X, y)
        for tree in model.trees:
            edge = (tree.feature != LEAF) & (tree.feature < n_edge)
            assert ((a <= tree.threshold[edge]) & (tree.threshold[edge] < b)).all()
        assert predict_batch(model, X)[0].tolist() == y.tolist()


class TestPrediction:
    def test_vote_tie_breaks_low(self):
        # 5 trees voting class 2 against 5 voting class 9: the tie goes low
        model = ForestModel(
            trees=[leaf_only_tree(2)] * 5 + [leaf_only_tree(9)] * 5,
            hyperparams=ForestHyperparams(n_estimators=10),
        )
        cls, votes = predict(model, frame_with(0.0))
        assert cls == ActivationClass(2)
        assert votes[1] == 5 and votes[8] == 5

    def test_high_snr_frame_predicts_its_class(self):
        cfg = SynthConfig(n_samples=500, snr_db=40.0, seed=12)
        ds = generate_dataset(cfg)
        model = train(ds)
        frame = next(f for f, lab in zip(ds.frames, ds.labels)
                     if lab == ActivationClass(7))
        assert predict(model, frame)[0] == ActivationClass(7)

    def test_votes_sum_to_estimators(self):
        ds = generate_dataset(SynthConfig(n_samples=100, snr_db=10.0, seed=8))
        model = train(ds)
        rng = np.random.default_rng(0)
        for _ in range(20):
            frame = EegFrame(values=rng.normal(size=(10, 10)))
            _, votes = predict(model, frame)
            assert votes.sum() == 10

    def test_predict_trajectory(self):
        ds = generate_dataset(SynthConfig(n_samples=50, snr_db=40.0, seed=2))
        model = train(ds)
        assert predict_trajectory(model, []) == []
        frame = ds.frames[0]
        out = predict_trajectory(model, [frame] * 5)
        assert out == [out[0]] * 5  # purity of predict

    def test_matches_optimal_stump_on_easy_1d_data(self):
        # two tight clusters on feature 0; forest must agree with an
        # exhaustively searched decision stump on and around the data
        rng = np.random.default_rng(31)
        for trial in range(20):
            n_lo = int(rng.integers(1, 5))
            n_hi = int(rng.integers(1, 5))
            lo = sorted(rng.uniform(0.0, 3.0, size=n_lo))
            hi = sorted(rng.uniform(7.0, 10.0, size=n_hi))
            xs = lo + hi
            labels = [ActivationClass(1)] * n_lo + [ActivationClass(10)] * n_hi
            ds = LabeledDataset(
                frames=[frame_with(x, i) for i, x in enumerate(xs)], labels=labels
            )
            model = train(ds, ForestHyperparams(seed=trial))
            stump = optimal_stump(xs, labels)
            probes = xs + [-1.0, 1.5, 8.5, 11.0]
            for x in probes:
                assert predict(model, frame_with(x))[0] == stump(x), (trial, x)


class TestSerialization:
    def make_model(self):
        ds = generate_dataset(SynthConfig(n_samples=60, snr_db=15.0, seed=14))
        return train(ds)

    def test_reload_equals_model_in_memory(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.nf0f"
        save_model(model, path)
        loaded = load_model(path)
        for tree, back in zip(model.trees, loaded.trees, strict=True):
            for name in ("feature", "threshold", "left", "right", "class_counts"):
                np.testing.assert_array_equal(getattr(tree, name), getattr(back, name))
            assert not tree.class_counts[tree.feature != LEAF].any()

    def test_round_trip_predictions(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.nf0f"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.hyperparams == model.hyperparams
        rng = np.random.default_rng(3)
        for _ in range(100):
            frame = EegFrame(values=rng.normal(scale=30.0, size=(10, 10)))
            cls_loaded, votes_loaded = predict(loaded, frame)
            cls_orig, votes_orig = predict(model, frame)
            assert cls_loaded == cls_orig
            np.testing.assert_array_equal(votes_loaded, votes_orig)

    def test_round_trip_bytes(self, tmp_path):
        model = self.make_model()
        p1, p2 = tmp_path / "a.nf0f", tmp_path / "b.nf0f"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.nf0f"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.nf0f"
        path.write_bytes(b"WAT?" + b"\x00" * 64)
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.nf0f"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.nf0f"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_nan_threshold_refused(self, tmp_path):
        path = tmp_path / "m.nf0f"
        save_model(self.make_model(), path)
        blob = bytearray(path.read_bytes())
        # magic, version and hyperparameters (34 bytes), the node count (4),
        # then the root: kind (1), feature (4) and threshold (8)
        assert blob[38] == 1
        blob[43:51] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match="tree 0: node 0: threshold is NaN"):
            load_model(path)


def tree_from(nodes) -> DecisionTree:
    """nodes: (feature, threshold, left, right) per node; leaves vote class 1."""
    feature, threshold, left, right = (np.array(c) for c in zip(*nodes))
    counts = np.zeros((len(nodes), 10), dtype=np.int64)
    counts[feature == LEAF, 0] = 1
    return DecisionTree(feature=feature.astype(np.int32), threshold=threshold.astype(float),
                        left=left.astype(np.int32), right=right.astype(np.int32),
                        class_counts=counts)


class TestPreorderInvariant:
    def test_stump_is_valid(self):
        tree = tree_from([(0, 1.0, 1, 2), (LEAF, 0.0, 0, 0), (LEAF, 0.0, 0, 0)])
        assert tree.n_nodes == 3

    @pytest.mark.parametrize(
        "nodes,match",
        [
            # backward left child: a walk from the root would never end
            ([(0, 0.0, 0, 1), (LEAF, 0.0, 0, 0)], "node 0"),
            ([(0, 0.0, 2, 1), (LEAF, 0.0, 0, 0), (LEAF, 0.0, 0, 0)], "node 0"),
            ([(0, 0.0, 1, 3), (LEAF, 0.0, 0, 0), (LEAF, 0.0, 0, 0)], "node 0"),
            ([(100, 0.0, 1, 2), (LEAF, 0.0, 0, 0), (LEAF, 0.0, 0, 0)], "node 0"),
            ([(-2, 0.0, 1, 2), (LEAF, 0.0, 0, 0), (LEAF, 0.0, 0, 0)], "node 0"),
            # node 2 is both node 1's left child and node 0's right child
            ([(0, 0.0, 1, 2), (1, 0.0, 2, 3), (LEAF, 0.0, 0, 0), (LEAF, 0.0, 0, 0)],
             "node 2"),
            # node 1 is never reached
            ([(LEAF, 0.0, 0, 0), (LEAF, 0.0, 0, 0)], "node 1"),
        ],
    )
    def test_rejected(self, nodes, match):
        with pytest.raises(ValueError, match=match):
            tree_from(nodes)

    def test_leaf_without_counts_rejected(self):
        with pytest.raises(ValueError, match="node 0: leaf with no class counts"):
            DecisionTree(feature=np.array([LEAF]), threshold=np.zeros(1),
                         left=np.zeros(1, dtype=np.int32), right=np.zeros(1, dtype=np.int32),
                         class_counts=np.zeros((1, 10), dtype=np.int64))


class TestPredictBatch:
    def test_equal_to_threshold_goes_left(self):
        counts = np.zeros((3, 10), dtype=np.int64)
        counts[1, 2] = counts[2, 7] = 1
        stump = DecisionTree(feature=np.array([0, LEAF, LEAF], dtype=np.int32),
                             threshold=np.array([1.5, 0.0, 0.0]),
                             left=np.array([1, 0, 0], dtype=np.int32),
                             right=np.array([2, 0, 0], dtype=np.int32),
                             class_counts=counts)
        model = ForestModel(trees=[stump], hyperparams=ForestHyperparams(n_estimators=1))
        X = np.zeros((3, 100))
        X[:, 0] = [1.5, np.nextafter(1.5, np.inf), -3.0]
        classes, votes = predict_batch(model, X)
        assert classes.tolist() == [3, 8, 3]
        assert votes.sum(axis=1).tolist() == [1, 1, 1]

    def test_empty_and_wrong_shape(self):
        model = ForestModel(trees=[leaf_only_tree(4)], hyperparams=ForestHyperparams(n_estimators=1))
        classes, votes = predict_batch(model, np.zeros((0, 100)))
        assert classes.shape == (0,) and votes.shape == (0, 10)
        with pytest.raises(ValueError):
            predict_batch(model, np.zeros((2, 99)))

    def test_wrappers_agree_with_batch(self):
        ds = generate_dataset(SynthConfig(n_samples=100, snr_db=15.0, seed=9))
        model = train(ds)
        X = np.array([f.features() for f in ds.frames])
        classes, votes = predict_batch(model, X)
        assert [c.index for c in predict_trajectory(model, ds.frames)] == classes.tolist()
        cls, v = predict(model, ds.frames[3])
        assert cls.index == classes[3]
        np.testing.assert_array_equal(v, votes[3])
