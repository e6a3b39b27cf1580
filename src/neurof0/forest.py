"""Deterministic random-forest classifier over 10 x 10 EEG frames.

Implemented from scratch so training is a pure function of the dataset
order and the seed: identical inputs give bit-identical models. Each tree
is grown on a bootstrap resample with CART-style binary splits chosen by
Gini impurity over a random feature subset per node; candidate thresholds
are midpoints between consecutive sorted unique feature values, or the
lower value where the midpoint does not lie below the upper. The first
max_features entries of a per-node random feature permutation are
searched; if none of them admits a valid split the permutation is walked
further until one does, so a node only becomes a leaf when it is pure,
smaller than min_samples_split, or genuinely unsplittable under
min_samples_leaf. Ties are always broken toward the lower feature index /
lower threshold / lower class index so results do not depend on iteration
incidentals.

Per-tree randomness comes from independent splitmix64 streams seeded with
successive outputs of a master stream over the forest seed, so adding
trees never perturbs existing ones.

Feature layout: a frame's 10 x 10 matrix is flattened row-major
(channel-major) into 100 features.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .eeg import (N_CHANNELS, SAMPLES_PER_FRAME, ActivationClass, EegFrame, LabeledDataset,
                  class_indices)
from .errors import ModelFileError, naming
from .rng import SplitMix64

N_FEATURES = N_CHANNELS * SAMPLES_PER_FRAME
N_CLASSES = 10
LEAF = -1

_U32_MAX = 2**32 - 1

MAGIC = b"NF0F"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ForestHyperparams:
    n_estimators: int = 10
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    seed: int = 42
    max_features: int = 10  # floor(sqrt(100))

    def __post_init__(self):
        # the .nf0f header stores the counts as u32 and the seed as i64
        for name, low in (("n_estimators", 1), ("min_samples_leaf", 1),
                          ("min_samples_split", 2)):
            if not low <= getattr(self, name) <= _U32_MAX:
                raise ValueError(f"{name} must be in {low}..{_U32_MAX}")
        if not 1 <= self.max_features <= N_FEATURES:
            raise ValueError(f"max_features must be in 1..{N_FEATURES}")
        if not -2**63 <= self.seed < 2**63:
            raise ValueError("seed must fit in a signed 64-bit integer")


@dataclass(frozen=True)
class DecisionTree:
    """One tree as its nodes in preorder; feature == LEAF marks a leaf.

    class_counts holds the bootstrap-sample class histogram of every node
    (meaningful for prediction at leaves, where it may not be all zero).
    Every internal node splits on a feature in 0..99 at a threshold that is
    not NaN. The node kinds alone fix the links, which are derived into the
    read-only left and right arrays (0 on leaves): an internal node's left
    child is the next node and its right child the first node after its
    left subtree. Child ids thus strictly increase along every path, which
    makes every traversal end.
    """

    feature: np.ndarray       # int, LEAF for leaves
    threshold: np.ndarray     # float64, 0.0 for leaves
    class_counts: np.ndarray  # int64, (n_nodes, N_CLASSES)

    def __post_init__(self):
        n = len(self.feature)
        if n == 0:
            raise ValueError("tree has no nodes")
        if len(self.threshold) != n:
            raise ValueError("node arrays must have equal length")
        if self.class_counts.shape != (n, N_CLASSES):
            raise ValueError("class_counts must be (n_nodes, 10)")
        inner = self.feature != LEAF
        for bad, rule in (
                (inner & ((self.feature < 0) | (self.feature >= N_FEATURES)),
                 f"feature is not in 0..{N_FEATURES - 1}"),
                (inner & np.isnan(self.threshold), "threshold is NaN"),
                (~inner & (self.class_counts.sum(axis=1) == 0), "leaf with no class counts")):
            if bad.any():
                raise ValueError(f"node {int(np.flatnonzero(bad)[0])}: {rule}")

        right, waiting = [0] * n, []  # waiting: internal nodes whose right child is to come
        for i, internal in enumerate(inner.tolist()):
            if internal:
                waiting.append(i)
            elif i + 1 < n:  # the next node starts the right subtree of the latest waiting node
                if not waiting:
                    raise ValueError(f"node {i + 1} is not reachable from the root")
                right[waiting.pop()] = i + 1
        if waiting:
            raise ValueError(f"node {waiting[-1]}: the tree ends before its right subtree")
        # not fields: frozen, they cannot be reassigned
        object.__setattr__(self, "left", np.where(inner, np.arange(1, n + 1), 0))
        object.__setattr__(self, "right", np.array(right))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass(frozen=True)
class ForestModel:
    trees: Sequence[DecisionTree]
    hyperparams: ForestHyperparams = field(default_factory=ForestHyperparams)

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if len(self.trees) != self.hyperparams.n_estimators:
            raise ValueError(
                f"{len(self.trees)} trees but n_estimators={self.hyperparams.n_estimators}"
            )


# Upper bound on rows x candidate features that one batch of the split
# search sorts together. A node small enough takes all its candidates in
# one batch; a larger one takes fewer, down to one feature per batch, so
# the transient (features, rows, classes) counts stay bounded whatever
# max_features is.
_ROW_BUDGET = 2048


def _best_split(XT, y_onehot, idx, feats, min_leaf):
    """Lowest-Gini (feature, threshold) over the candidate features, or None.

    XT is the feature-major (100, n_samples) matrix, y_onehot the int8
    (n_samples, 10) class indicator, idx the node's rows and feats the
    candidate features in ascending order. Within a batch the valid cuts
    are taken feature by feature, each in ascending threshold order, so
    the first minimum is at the lowest feature, then the lowest threshold;
    a later batch replaces the incumbent only on strictly lower impurity.
    A cut lies between two different sorted values, so the order a sort
    gives equal values changes neither its class counts nor its midpoint:
    the sort need not be stable.
    """
    n = len(idx)
    # valid cuts c are lo <= c < hi: each side keeps at least min_leaf rows
    # (max keeps hi >= lo, so a node too small for any cut slices nothing)
    lo, hi = min_leaf - 1, max(n - min_leaf, min_leaf - 1)
    feats = np.asarray(feats)
    step = max(1, _ROW_BUDGET // n)
    best = None  # (weighted impurity, feature, threshold)
    for start in range(0, len(feats), step):
        f = feats[start:start + step]
        x = XT[f[:, None], idx]
        xs = np.sort(x, axis=1)
        left_counts = np.cumsum(y_onehot[idx[np.argsort(x, axis=1)]], axis=1, dtype=np.int32)
        # cut c splits the sorted rows 0..c from c+1..n-1
        row, cut = np.nonzero(xs[:, lo:hi] < xs[:, lo + 1:hi + 1])
        if cut.size == 0:
            continue
        cut += lo
        n_left = (cut + 1).astype(float)
        n_right = n - n_left
        lc = left_counts[row, cut]
        rc = left_counts[0, -1] - lc  # every row ends at the node's class totals
        gini_l = 1.0 - np.sum((lc / n_left[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((rc / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_l + n_right * gini_r) / n
        i = int(np.argmin(weighted))
        if best is None or weighted[i] < best[0]:
            a, b = xs[row[i], cut[i]:cut[i] + 2].tolist()
            thr = 0.5 * (a + b)  # on Python floats an overflow is inf, not a warning
            # a midpoint that overflowed or rounded onto b would not separate a from b
            best = (float(weighted[i]), int(f[row[i]]), thr if a <= thr < b else a)
    return best


def _grow_tree(XT: np.ndarray, y: np.ndarray, y_onehot: np.ndarray,
               hp: ForestHyperparams, rng: SplitMix64) -> DecisionTree:
    n = len(y)
    boot = np.fromiter((rng.below(n) for _ in range(n)), dtype=np.int64, count=n)

    feature, threshold, counts = [], [], []  # per node, in preorder
    # depth-first with an explicit stack that pops a left child right after
    # its parent: nodes are numbered in preorder, which fixes every link
    stack = [boot]  # sample indices of the nodes still to build
    while stack:
        idx = stack.pop()
        node_counts = np.bincount(y[idx], minlength=N_CLASSES).astype(np.int64)
        feature.append(LEAF)
        threshold.append(0.0)
        counts.append(node_counts)

        if len(idx) < hp.min_samples_split or np.count_nonzero(node_counts) <= 1:
            continue
        if len(idx) < 2 * hp.min_samples_leaf:  # no valid cut: draw as a fruitless walk
            for _ in range(N_FEATURES):
                rng.next_u64()
            continue
        # lazy partial Fisher-Yates: the first max_features of a feature
        # permutation, extended one at a time while no valid split exists
        pool = list(range(N_FEATURES))
        for i in range(hp.max_features):
            j = i + rng.below(N_FEATURES - i)
            pool[i], pool[j] = pool[j], pool[i]
        best = _best_split(XT, y_onehot, idx, sorted(pool[:hp.max_features]),
                           hp.min_samples_leaf)
        drawn = hp.max_features
        while best is None and drawn < N_FEATURES:
            j = drawn + rng.below(N_FEATURES - drawn)
            pool[drawn], pool[j] = pool[j], pool[drawn]
            best = _best_split(XT, y_onehot, idx, [pool[drawn]], hp.min_samples_leaf)
            drawn += 1
        if best is None:
            continue
        _, f, thr = best
        feature[-1] = f
        threshold[-1] = thr
        mask = XT[f, idx] <= thr
        # right pushed first so the left subtree is built (and numbered) first
        stack.append(idx[~mask])
        stack.append(idx[mask])

    feature_arr = np.array(feature, dtype=np.int32)
    class_counts = np.array(counts, dtype=np.int64)
    class_counts[feature_arr != LEAF] = 0  # as the model file stores them
    return DecisionTree(feature=feature_arr, threshold=np.array(threshold, dtype=np.float64),
                        class_counts=class_counts)


def fit(X: np.ndarray, y: np.ndarray, hp: ForestHyperparams | None = None) -> ForestModel:
    """Fit the forest on an (n, 100) feature matrix and class indices 1..10.

    Deterministic given (row order, hp.seed).
    """
    if hp is None:
        hp = ForestHyperparams()
    y = class_indices(y) - 1
    if len(y) == 0:
        raise ValueError("cannot train on an empty dataset")
    X = np.asarray(X, dtype=float)
    if X.shape != (len(y), N_FEATURES):
        raise ValueError(f"feature matrix must be ({len(y)}, {N_FEATURES}), got {X.shape}")
    XT = np.ascontiguousarray(X.T)
    y_onehot = np.eye(N_CLASSES, dtype=np.int8)[y]
    seeder = SplitMix64(hp.seed)
    tree_seeds = [seeder.next_u64() for _ in range(hp.n_estimators)]
    trees = [_grow_tree(XT, y, y_onehot, hp, SplitMix64(s)) for s in tree_seeds]
    return ForestModel(trees=trees, hyperparams=hp)


def train(ds: LabeledDataset, hp: ForestHyperparams | None = None) -> ForestModel:
    """fit on the dataset's frames and labels, in dataset order."""
    X = np.array([f.features() for f in ds.frames]).reshape(len(ds), N_FEATURES)
    return fit(X, ds.labels, hp)


def predict_batch(model: ForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classify every row of an (n, 100) feature matrix at once.

    Returns (classes, votes): the class index 1..10 of each row and the
    (n, 10) per-class vote counts. Each tree votes the majority class of
    the leaf a row reaches, ties toward the lowest class index; the forest
    returns the class with most votes, ties again toward the lowest index.
    A tree is walked one level per step over all rows still at internal
    nodes; a row goes left when its feature value is <= the threshold.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise ValueError(f"feature matrix must be (n, {N_FEATURES}), got {X.shape}")
    rows = np.arange(len(X))
    votes = np.zeros((len(X), N_CLASSES), dtype=np.int64)
    for tree in model.trees:
        node = np.zeros(len(X), dtype=np.intp)
        live = rows
        while live.size:
            at = node[live]
            f = tree.feature[at]
            inner = f != LEAF
            live, at, f = live[inner], at[inner], f[inner]
            go_left = X[live, f] <= tree.threshold[at]
            node[live] = np.where(go_left, tree.left[at], tree.right[at])
        votes[rows, np.argmax(tree.class_counts, axis=1)[node]] += 1
    return np.argmax(votes, axis=1) + 1, votes


def predict(model: ForestModel, frame: EegFrame) -> tuple[ActivationClass, np.ndarray]:
    """predict_batch on one frame: (class, per-class vote counts)."""
    classes, votes = predict_batch(model, frame.features()[None, :])
    return ActivationClass(int(classes[0])), votes[0]


def predict_trajectory(model: ForestModel, frames: Sequence[EegFrame]) -> list[ActivationClass]:
    """predict_batch over the frames, preserving order."""
    X = np.array([f.features() for f in frames]).reshape(len(frames), N_FEATURES)
    return [ActivationClass(k) for k in predict_batch(model, X)[0].tolist()]


# ---------------------------------------------------------------------------
# model file format, version 1 (all integers little-endian):
#   magic "NF0F" | u16 version
#   u32 n_estimators | u32 min_samples_leaf | u32 min_samples_split
#   i64 seed | u32 max_features | u32 n_trees
#   per tree: u32 n_nodes, then per node:
#     u8 kind (0 leaf, 1 internal)
#     leaf:     10 x u32 class counts
#     internal: u32 feature | f64 threshold | u32 left | u32 right
# ---------------------------------------------------------------------------

def save_model(model: ForestModel, path) -> None:
    hp = model.hyperparams
    blob = bytearray(MAGIC)
    blob += struct.pack("<HIIIqII", FORMAT_VERSION, hp.n_estimators, hp.min_samples_leaf,
                        hp.min_samples_split, hp.seed, hp.max_features, len(model.trees))
    for tree in model.trees:
        blob += struct.pack("<I", tree.n_nodes)
        for f, thr, left, right, counts in zip(
                tree.feature.tolist(), tree.threshold.tolist(), tree.left.tolist(),
                tree.right.tolist(), tree.class_counts.tolist()):
            blob += (struct.pack("<B10I", 0, *counts) if f == LEAF
                     else struct.pack("<BIdII", 1, f, thr, left, right))
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_model(path) -> ForestModel:
    """The forest that save_model wrote to path; a file that is not one
    raises ModelFileError naming path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    with naming(path):
        return _model_from_bytes(blob)


def _model_from_bytes(blob: bytes) -> ForestModel:
    pos = 0

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(blob):
            raise ModelFileError("model file is truncated")
        out = struct.unpack_from(fmt, blob, pos)
        pos += size
        return out

    (magic,) = take("<4s")
    if magic != MAGIC:
        raise ModelFileError(f"not a forest model file (magic {magic!r})")
    (version,) = take("<H")
    if version != FORMAT_VERSION:
        raise ModelFileError(f"unsupported model format version {version}")
    n_est, min_leaf, min_split, seed, max_feat, n_trees = take("<IIIqII")
    try:
        hp = ForestHyperparams(
            n_estimators=n_est, min_samples_leaf=min_leaf,
            min_samples_split=min_split, seed=seed, max_features=max_feat,
        )
    except ValueError as exc:
        raise ModelFileError(f"invalid hyperparameters in model file: {exc}") from None
    if n_trees != n_est:
        raise ModelFileError("tree count does not match n_estimators")

    trees = []
    for t in range(n_trees):
        (n_nodes,) = take("<I")
        nodes, counts = [], []  # (feature, threshold, left, right), leaf counts
        for _ in range(n_nodes):
            (kind,) = take("<B")
            if kind == 0:
                nodes.append((LEAF, 0.0, 0, 0))
                counts.append(take("<10I"))
            elif kind == 1:
                nodes.append(take("<IdII"))
                counts.append((0,) * N_CLASSES)
            else:
                raise ModelFileError(f"tree {t}: unknown node kind {kind}")
        # float64 holds every u32 id exactly
        feature, threshold, left, right = np.array(nodes, dtype=np.float64).reshape(n_nodes, 4).T
        try:
            tree = DecisionTree(
                feature=feature.astype(np.int64), threshold=threshold,
                class_counts=np.array(counts, dtype=np.int64).reshape(n_nodes, N_CLASSES),
            )
        except ValueError as exc:
            raise ModelFileError(f"tree {t}: {exc}") from None
        bad = np.flatnonzero((left != tree.left) | (right != tree.right))
        if bad.size:
            i = int(bad[0])
            raise ModelFileError(
                f"tree {t}: node {i}: stored children {left[i]:.0f} and {right[i]:.0f}, "
                f"but the preorder layout puts them at {tree.left[i]} and {tree.right[i]}"
            )
        trees.append(tree)
    if pos != len(blob):
        raise ModelFileError("trailing data after model payload")
    return ForestModel(trees=trees, hyperparams=hp)
