"""Learner contracts: built-ins, metrics, serialization, plugin registry."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from operator import ne

import pytest

from edgelearn.data import Dataset, parse_schema
from edgelearn.errors import (
    DataError,
    LearnerError,
    SerializationError,
    UnknownLearnerError,
)
from edgelearn.learners import (
    EstimatorSpec,
    EvalMetrics,
    Learner,
    canonical_json_bytes,
    deserialize_model,
    evaluate,
    fit,
    get_learner,
    model_from_json,
    model_to_json,
    predict,
    register_learner,
    serialize_model,
)
from edgelearn.learners import _REGISTRY, _Gini

from conftest import (chain_tree_model, city_dataset, city_schema, count_tree_compiles,
                      make_samples)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def exhaustive_best_gini_split(dataset, min_leaf=1):
    """Independent exhaustive search over every (feature, midpoint) split,
    with exact Fraction arithmetic. Returns (feature, threshold, score) for
    the best strictly-improving split, or None. Score is the sum over sides
    of m * gini(side); ties resolve to lowest feature then lowest threshold.
    """
    classes = dataset.schema.label_classes
    samples = dataset.samples
    n = len(samples)

    def side_score(rows):
        m = len(rows)
        counts = {}
        for s in rows:
            counts[s.label] = counts.get(s.label, 0) + 1
        gini = 1 - sum(Fraction(c, m) ** 2 for c in counts.values())
        return m * gini

    parent = side_score(samples)
    best = None
    for j in range(dataset.schema.n_features):
        values = sorted({s.features[j] for s in samples})
        for v1, v2 in zip(values, values[1:]):
            threshold = (v1 + v2) / 2.0
            left = [s for s in samples if s.features[j] < threshold]
            right = [s for s in samples if s.features[j] >= threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            score = side_score(left) + side_score(right)
            if best is None or score < best[2]:
                best = (j, threshold, score)
    if best is None or best[2] >= parent:
        return None
    return best


def collect_nodes(tree, rows, depth, nodes, i=0):
    """Walk a fitted tree's node list from node *i*, recording (node subset,
    node, remaining depth)."""
    nodes.append((rows, tree[i], depth))
    if type(tree[i]) is list:
        j, t, right = tree[i]
        collect_nodes(tree, [s for s in rows if s.features[j] < t], depth - 1, nodes, i + 1)
        collect_nodes(tree, [s for s in rows if s.features[j] >= t], depth - 1, nodes, right)


def collect_splits(tree, rows, splits):
    """Walk a fitted tree, recording (node subset, feature, threshold)."""
    nodes = []
    collect_nodes(tree, rows, 0, nodes)
    splits += [(at, node[0], node[1]) for at, node, _ in nodes if type(node) is list]


def reference_walk(params: dict, features) -> str:
    """The class the flat tree of *params* gives *features*: from node 0, a split
    ``[feature, threshold, right]`` goes to the next node when the feature is
    ``< threshold`` and to node ``right`` otherwise, down to a leaf's class index."""
    tree, i = params["tree"], 0
    while type(tree[i]) is list:
        feature, threshold, right = tree[i]
        i = i + 1 if features[feature] < threshold else right
    return params["classes"][tree[i]]


def reference_logistic(params: dict, features) -> str:
    """The most probable class of softmax(weights · features + bias), in that
    float order, ties to the lowest class index."""
    scores = [sum(w * x for w, x in zip(row, features)) + b
              for row, b in zip(params["weights"], params["bias"])]
    exps = [math.exp(s - max(scores)) for s in scores]
    proba = [e / sum(exps) for e in exps]
    return params["classes"][proba.index(max(proba))]


RETIRED = ("model format 1 is retired: rewrite it once with an earlier release (any commit "
           "or deploy writes model format 2)")


def format_1_payload(model, samples=()) -> dict:
    """*model*'s payload as the retired model format 1 wrote it: ``format_version``
    1 and, for a tree, nested ``kind``-tagged nodes whose leaves carry the class
    counts of the *samples* that reach them (the model's training rows, as
    the fit counted them). Format 1 differs from format 2 in nothing else."""
    payload = {**model_to_json(model), "format_version": 1}
    if model.spec.kind != "tree":
        return payload
    tree = model.parameters["tree"]

    def nest(i, rows):
        if type(tree[i]) is int:
            return {"kind": "leaf", "counts": [sum(s.label == c for s in rows)
                                               for c in model.classes], "label_index": tree[i]}
        j, t, right = tree[i]
        return {"kind": "split", "feature": j, "threshold": t,
                "left": nest(i + 1, [s for s in rows if s.features[j] < t]),
                "right": nest(right, [s for s in rows if not s.features[j] < t])}
    return {**payload, "parameters": {**model.parameters, "tree": nest(0, list(samples))}}


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

def test_spec_unknown_kind_rejected():
    with pytest.raises(LearnerError, match="unknown learner kind"):
        EstimatorSpec("nonesuch")


def test_spec_unknown_hyperparameter_rejected():
    with pytest.raises(LearnerError, match="unknown hyperparameter"):
        EstimatorSpec("majority", {"depth": 3})
    with pytest.raises(LearnerError, match="unknown hyperparameter"):
        EstimatorSpec("logistic", {"max_depth": 3})


def test_spec_bad_values_rejected():
    with pytest.raises(LearnerError, match="learning_rate"):
        EstimatorSpec("logistic", {"learning_rate": -1.0})
    with pytest.raises(LearnerError, match="epochs"):
        EstimatorSpec("logistic", {"epochs": 0})
    with pytest.raises(LearnerError, match="l2"):
        EstimatorSpec("logistic", {"l2": -0.1})


class _FitAndPredictOnly(Learner):
    """A plugin that implements ``predict`` in place of ``predictor``."""

    kind = "fit-and-predict-only"

    def fit(self, spec, train, seed):
        return {}

    def predict(self, params, features):
        return params["classes"][0]


def test_a_learner_without_a_predictor_is_refused_where_it_is_registered():
    before = dict(_REGISTRY)
    with pytest.raises(LearnerError, match="^learner kind 'fit-and-predict-only' does not "
                                           r"implement predictor\(params\)$"):
        register_learner(_FitAndPredictOnly())
    assert _REGISTRY == before
    with pytest.raises(LearnerError, match="unknown learner kind 'fit-and-predict-only'"):
        get_learner("fit-and-predict-only")


class _PredictorOnly(Learner):
    """A plugin that builds a predictor but fits nothing."""

    kind = "predictor-only"

    def predictor(self, params):
        return lambda features: params["classes"][0]


def test_a_learner_without_fit_is_refused_where_it_is_registered():
    before = dict(_REGISTRY)
    with pytest.raises(LearnerError, match="^learner kind 'predictor-only' does not "
                                           r"implement fit\(spec, train, seed\)$"):
        register_learner(_PredictorOnly())
    assert _REGISTRY == before
    with pytest.raises(LearnerError, match="unknown learner kind 'predictor-only'"):
        get_learner("predictor-only")


# -- order invariance ------------------------------------------------------------

# signed zeros, subnormals either side of them and the least normal double
_SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -1.5, 1.5)


def order_probe_dataset(rng):
    """A small random training set whose columns tie on a grid, repeat signed
    zeros and subnormals, or hold distinct values; its label often flips at
    zero of the first column, so cuts fall between the zeros and their
    neighbours."""
    n_features = rng.choice([1, 2, 3])
    names = ", ".join(f'"f{j}"' for j in range(n_features))
    schema = parse_schema('{"features": [%s], "label": {"name": "y", "classes": '
                          '["a", "b", "c"]}}' % names)
    draws = []
    for _ in range(n_features):
        grid = rng.choice([0.5, 1.0, 2.5])
        draws.append(rng.choice([
            lambda: round(rng.uniform(-5, 5) / grid) * grid,
            lambda: rng.choice(_SPECIAL_VALUES),
            lambda: rng.uniform(-5, 5),
        ]))
    by_sign = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(1, 40)):
        x = tuple(draw() for draw in draws)
        if by_sign and rng.random() < 0.9:
            label = "a" if math.copysign(1.0, x[0]) < 0 else "b"
        else:
            label = rng.choice("abc")
        rows.append((x, (), label))
    return Dataset(schema, make_samples(rows))


def test_a_learner_declaring_order_invariance_fits_shuffled_rows_to_the_same_bytes():
    # a job fits such a learner once per distinct row set, in whichever order
    # the first task to hold that set lists its rows
    kinds = sorted(kind for kind, learner in _REGISTRY.items() if learner.order_invariant)
    assert {"majority", "tree"} <= set(kinds)
    rng, splits = random.Random(35), 0
    for trial in range(300):
        ds = order_probe_dataset(rng)
        for kind in kinds:
            hp = ({"max_depth": rng.randint(1, 5), "min_leaf": rng.randint(1, 4)}
                  if kind == "tree" else {})
            model = fit(EstimatorSpec(kind, hp), ds, seed=0)
            splits += sum(type(node) is list for node in model.parameters.get("tree", ()))
            for _ in range(2):
                rows = list(ds.samples)
                rng.shuffle(rows)
                shuffled = fit(EstimatorSpec(kind, hp), ds.derive(rows), seed=0)
                assert shuffled.canonical == model.canonical, (kind, hp, rows)
    assert splits > 300, splits


def test_logistic_does_not_declare_order_invariance_and_is_not():
    # its full-batch gradient sums floats in row order
    assert not get_learner("logistic").order_invariant
    rng, spec, differ = random.Random(36), EstimatorSpec("logistic", {"epochs": 5}), 0
    for trial in range(10):
        ds = order_probe_dataset(rng)
        rows = list(reversed(ds.samples))
        differ += fit(spec, ds.derive(rows), 0).canonical != fit(spec, ds, 0).canonical
    assert differ > 0


# ---------------------------------------------------------------------------
# Majority
# ---------------------------------------------------------------------------

def test_majority_predicts_most_frequent():
    ds = city_dataset([(1, "c", "a"), (2, "c", "a"), (3, "c", "b")])
    model = fit(EstimatorSpec("majority"), ds, seed=0)
    for x in (-5.0, 0.0, 100.0):
        assert predict(model, (x,)) == "a"


def test_majority_tie_breaks_to_lowest_class_index():
    ds = city_dataset([(1, "c", "b"), (2, "c", "a")])
    model = fit(EstimatorSpec("majority"), ds, seed=0)
    assert predict(model, (0.0,)) == "a"


# ---------------------------------------------------------------------------
# Logistic
# ---------------------------------------------------------------------------

def _separable_1d():
    rows = [(0.0, "c", "a")] * 3 + [(10.0, "c", "b")] * 3
    return city_dataset(rows)


def test_logistic_separates_training_points():
    model = fit(EstimatorSpec("logistic", {"epochs": 500, "learning_rate": 0.1}),
                _separable_1d(), seed=0)
    assert predict(model, (0.0,)) == "a"
    assert predict(model, (10.0,)) == "b"


def test_logistic_midpoint_matches_independent_scorer():
    model = fit(EstimatorSpec("logistic", {"epochs": 500, "learning_rate": 0.1}),
                _separable_1d(), seed=0)
    weights = model.parameters["weights"]
    bias = model.parameters["bias"]
    x = (5.0,)
    scores = [weights[c][0] * x[0] + bias[c] for c in range(2)]
    shifted = [s - max(scores) for s in scores]
    exps = [math.exp(s) for s in shifted]
    expected = tuple(e / sum(exps) for e in exps)
    oracle_label = model.classes[max(range(2), key=lambda i: (expected[i], -i))]
    assert predict(model, x) == oracle_label


def test_logistic_loss_non_increasing_per_epoch(rng):
    for trial in range(5):
        ds = city_dataset(
            [(rng.uniform(-50, 50), "c", rng.choice("ab")) for _ in range(25)]
        )
        model = fit(
            EstimatorSpec("logistic", {"epochs": 40, "learning_rate": 2.0 ** trial}),
            ds, seed=trial,
        )
        history = model.parameters["loss_history"]
        assert len(history) == 41
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-12


# ---------------------------------------------------------------------------
# Tree
# ---------------------------------------------------------------------------

def test_tree_threshold_lands_between_sides():
    rng = random.Random(7)
    xs_a = [rng.uniform(0, 4.9) for _ in range(10)]
    xs_b = [rng.uniform(5.0, 10.0) for _ in range(10)]
    ds = city_dataset([(x, "c", "a") for x in xs_a] + [(x, "c", "b") for x in xs_b])
    model = fit(EstimatorSpec("tree", {"max_depth": 1}), ds, seed=0)
    (feature, threshold, right), left_leaf, right_leaf = model.parameters["tree"]
    assert right == 2 and (left_leaf, right_leaf) == (0, 1)
    assert max(xs_a) < threshold < min(xs_b)
    oracle = exhaustive_best_gini_split(ds)
    assert (feature, threshold) == (oracle[0], oracle[1])


def assert_every_node_matches_oracle(ds, min_leaf, max_depth):
    """Fit a tree on *ds* and check each node against the exhaustive search:
    a split is the oracle's best split, a leaf above max depth has none.
    Returns the number of splits."""
    model = fit(EstimatorSpec("tree", {"max_depth": max_depth, "min_leaf": min_leaf}), ds, seed=0)
    nodes = []
    collect_nodes(model.parameters["tree"], list(ds.samples), max_depth, nodes)
    splits = 0
    for rows_at_node, node, depth in nodes:
        oracle = exhaustive_best_gini_split(Dataset(ds.schema, tuple(rows_at_node)), min_leaf)
        if type(node) is list:
            splits += 1
            assert (node[0], node[1]) == (oracle[0], oracle[1])
        elif depth > 0:
            assert oracle is None
    return splits


def test_tree_every_split_matches_exhaustive_gini_corpus():
    # tie-free columns: every cut inside min_leaf is a candidate
    rng = random.Random(99)
    splits = {1: 0, 2: 0, 5: 0}
    for trial in range(40):
        n = rng.randint(4, 50)
        n_classes = rng.choice([2, 3])
        classes = ("a", "b", "z")[:n_classes]
        rows = [
            ((rng.uniform(0, 10), rng.uniform(0, 10)), ("c",), rng.choice(classes))
            for _ in range(n)
        ]
        schema = parse_schema(
            '{"features": ["f0", "f1"], "label": {"name": "y", "classes": %s},'
            ' "attributes": [{"name": "city", "kind": "categorical"}]}'
            % str(list(classes)).replace("'", '"')
        )
        ds = Dataset(schema, make_samples(rows))
        for min_leaf in sorted({rng.choice([1, 1, 2]), 2, 5}):
            splits[min_leaf] += assert_every_node_matches_oracle(ds, min_leaf, 3)
    assert min(splits.values()) > 40, splits


def test_tree_every_split_matches_exhaustive_gini_corpus_with_ties():
    # grid-rounded values tie, so label changes fall inside runs of equal values
    rng = random.Random(41)
    splits = 0
    for trial in range(60):
        classes = ("a", "b", "z")[: rng.choice([1, 2, 3])]
        grid = rng.choice([0.5, 1.0, 2.5])
        rows = [
            (tuple(round(rng.uniform(0, 10) / grid) * grid for _ in range(2)), ("c",),
             rng.choice(classes))
            for _ in range(rng.randint(2, 50))
        ]
        schema = parse_schema(
            '{"features": ["f0", "f1"], "label": {"name": "y", "classes": ["a", "b", "z"]},'
            ' "attributes": [{"name": "city", "kind": "categorical"}]}'
        )
        ds = Dataset(schema, make_samples(rows))
        splits += assert_every_node_matches_oracle(ds, rng.choice([1, 2, 5]), 3)
    assert splits > 60, splits


def test_tree_takes_signed_zeros_as_one_value():
    # a column whose only repeated value is 0.0 against -0.0 has ties: no cut
    # falls between them, and a split on it keeps both on one side
    assert len({0.0, -0.0}) == 1 and not ne(0.0, -0.0)
    rng = random.Random(17)
    schema = parse_schema(
        '{"features": ["f0", "f1"], "label": {"name": "y", "classes": ["a", "b"]}}'
    )
    splits = 0
    for trial in range(30):
        n = rng.randint(4, 40)
        xs = rng.sample([i / 4 for i in range(-40, 41) if i], n - 2) + [0.0, -0.0]
        rng.shuffle(xs)
        # the label flips at zero, so the best cut of distinct values lies between the zeros
        rows = [((x, rng.uniform(0, 10)), (), "a" if x < 0 or str(x) == "-0.0" else "b")
                for x in xs]
        rows = [(f, a, y if rng.random() < 0.9 else "ab".replace(y, "")) for f, a, y in rows]
        ds = Dataset(schema, make_samples(rows))
        for min_leaf in (1, 2, 5):
            splits += assert_every_node_matches_oracle(ds, min_leaf, 3)
    assert splits > 60, splits


def _sorted_column(rng, runs, k):
    """Labels of a tie-free sorted column made of *runs* runs of one class."""
    ys, y = [], rng.randrange(k)
    for _ in range(runs):
        ys += [y] * rng.randint(1, 6)
        y = (y + rng.randrange(1, k)) % k
    return ys


def exact_best_cut(ys, candidates, k):
    """(score, n_left) of the best cut among *candidates* of sorted labels
    *ys*: sum over sides of m * gini(side) in Fractions, every candidate
    scanned, the lowest n_left winning ties."""
    def side(part):
        m = len(part)
        return m - sum(Fraction(part.count(c) ** 2, m) for c in range(k))

    return min((side(ys[:t]) + side(ys[t:]), t) for t in candidates)


def test_gini_best_cut_matches_an_exact_scan_of_every_candidate():
    # run-built columns, with every cut, tied or min_leaf-gapped candidates, and
    # the contiguous loop over every cut
    rng = random.Random(5)
    for trial in range(300):
        k, runs = rng.choice([2, 3, 5]), rng.randint(2, 30)
        ys = _sorted_column(rng, runs, k)
        n, min_leaf = len(ys), rng.choice([1, 2, 5])
        every = range(min_leaf, n - min_leaf + 1)
        ties = [t for t in every if rng.random() < 0.6]  # a tie drops the cut at it
        impurity = _Gini(k)
        counts, _ = impurity.leaf(ys)
        for candidates in (every, list(every), ties):
            if not candidates:
                continue
            num, den, n_left = impurity.best_cut(ys, candidates, counts)
            score, t = exact_best_cut(ys, candidates, k)
            assert n_left == t and n - Fraction(num, den) == score
        if every:
            num, den, n_left = impurity.best_contiguous_cut(ys, min_leaf, counts)
            score, t = exact_best_cut(ys, every, k)
            assert n_left == t and n - Fraction(num, den) == score


# The sha256 of the serialized models of a fixed corpus of classification
# trees: any change to a split, a threshold or a leaf changes it. The first
# pin is of their model format 1 payloads, rebuilt by format_1_payload, and
# holds from before format 2: the witness that format 2 encodes the same
# trees. The second is of their format 2 bytes.
TREE_CORPUS_SHA256 = "aa8aec866065887d1cb724dbfb3fde0f14c78a703d8da41f78787ee82daa216f"
TREE_CORPUS_FORMAT_2_SHA256 = "a39bb9c3746acdeeb7eba530f2670991e74e3461bd58685b6391323ad2618253"


def assert_tree_corpus_pinned(corpus, format_1_sha256: str, format_2_sha256: str) -> None:
    """The trees of *corpus* hash to the pins in both formats."""
    format_1, format_2 = hashlib.sha256(), hashlib.sha256()
    for model, ds in corpus():
        format_1.update(canonical_json_bytes(format_1_payload(model, ds.samples)))
        format_2.update(serialize_model(model))
    assert (format_1.hexdigest(), format_2.hexdigest()) == (format_1_sha256, format_2_sha256)


def tree_corpus():
    """The fitted trees, each with its training set, that TREE_CORPUS_SHA256 pins."""
    rng = random.Random(2026)
    for trial in range(80):
        n_features = rng.choice([1, 2, 3])
        names = ", ".join(f'"f{j}"' for j in range(n_features))
        schema = parse_schema('{"features": [%s], "label": {"name": "y", "classes": '
                              '["a", "b", "c"]}}' % names)
        grid = rng.choice([0.5, 1.0, 2.5])  # coarse grids, so feature values tie
        rows = []
        for _ in range(rng.randint(2, 60)):
            x = tuple(round(rng.uniform(0, 10) / grid) * grid for _ in range(n_features))
            rows.append((x, (), rng.choice("abc"[: rng.choice([1, 2, 3])])))
        hp = {"max_depth": rng.randint(1, 6), "min_leaf": rng.choice([1, 2, 5])}
        ds = Dataset(schema, make_samples(rows))
        yield fit(EstimatorSpec("tree", hp), ds, seed=0), ds


def test_tree_corpus_bytes_are_pinned():
    assert_tree_corpus_pinned(tree_corpus, TREE_CORPUS_SHA256, TREE_CORPUS_FORMAT_2_SHA256)


# The same for trees on columns with no repeated value, where every cut that
# leaves min_leaf rows a side is a candidate: labels run along f0, so with
# min_leaf 2 and 5 a label run straddles the first candidate.
TIE_FREE_TREE_CORPUS_SHA256 = "4fd1f4b227ebe9c6ae235b34ef423033d6e07d0c687e1538813cf6a88aa9a205"
TIE_FREE_TREE_CORPUS_FORMAT_2_SHA256 = "c63edd8367a168c0b369b84185cf4fe520a102cc6bd3244ae87a641c74eb117d"


def tie_free_tree_corpus():
    """The fitted trees, each with its training set, that TIE_FREE_TREE_CORPUS_SHA256 pins."""
    rng = random.Random(2028)
    for trial in range(90):
        n_features = rng.choice([1, 2, 3])
        names = ", ".join(f'"f{j}"' for j in range(n_features))
        schema = parse_schema('{"features": [%s], "label": {"name": "y", "classes": '
                              '["a", "b", "c"]}}' % names)
        width, noise = rng.choice([0.5, 2.0, 6.0]), rng.choice([0.0, 0.1, 0.3])
        rows = []
        for _ in range(rng.randint(2, 80)):
            x = tuple(rng.uniform(0, 10) for _ in range(n_features))
            label = "abc"[int(x[0] / width) % 3] if rng.random() >= noise else rng.choice("abc")
            rows.append((x, (), label))
        for j in range(n_features):
            assert len({x[j] for x, _, _ in rows}) == len(rows)
        hp = {"max_depth": rng.randint(1, 6), "min_leaf": (1, 2, 5)[trial % 3]}
        ds = Dataset(schema, make_samples(rows))
        yield fit(EstimatorSpec("tree", hp), ds, seed=0), ds


def test_tie_free_tree_corpus_bytes_are_pinned():
    assert_tree_corpus_pinned(tie_free_tree_corpus, TIE_FREE_TREE_CORPUS_SHA256,
                              TIE_FREE_TREE_CORPUS_FORMAT_2_SHA256)


# The sha256 of the serialized models of a fixed corpus of logistic fits,
# some at learning rates large enough to force step-halving: any change to
# a weight, a bias or a recorded loss changes it. The first pin is of their
# model format 1 payloads, which differ only in format_version, and holds
# from before format 2; the second is of their format 2 bytes.
LOGISTIC_CORPUS_SHA256 = "2469a100f8ab72b4b1a85bfa08ee224c09f2455f7a8098411ad44f848a151825"
LOGISTIC_CORPUS_FORMAT_2_SHA256 = "ff9e1a1bd7c0e186f33d7a90e5f8d7b054f0668bc63551bd7ba04fa93a2ff518"


def logistic_corpus():
    """120 logistic fits, each with the dataset it was fit on."""
    rng = random.Random(2027)
    for trial in range(120):
        n_features, classes = rng.choice([1, 2, 3]), "abcde"[: rng.choice([2, 3, 5])]
        names = ", ".join(f'"f{j}"' for j in range(n_features))
        schema = parse_schema('{"features": [%s], "label": {"name": "y", "classes": [%s]}}'
                              % (names, ", ".join(f'"{c}"' for c in classes)))
        rows = [(tuple(rng.uniform(-5, 5) for _ in range(n_features)), (), rng.choice(classes))
                for _ in range(rng.randint(1, 30))]
        hp = {"epochs": rng.randint(1, 25), "l2": rng.choice([0.0, 0.01, 0.5]),
              "learning_rate": rng.choice([0.05, 0.5, 4.0, 64.0])}
        ds = Dataset(schema, make_samples(rows))
        yield fit(EstimatorSpec("logistic", hp), ds, seed=0), ds


def test_logistic_corpus_bytes_are_pinned():
    format_1, format_2 = hashlib.sha256(), hashlib.sha256()
    for model, _ in logistic_corpus():
        format_1.update(canonical_json_bytes(format_1_payload(model)))
        format_2.update(serialize_model(model))
    assert (format_1.hexdigest(), format_2.hexdigest()) == (
        LOGISTIC_CORPUS_SHA256, LOGISTIC_CORPUS_FORMAT_2_SHA256)


@pytest.mark.parametrize("label", ['{"name": "y", "classes": ["a", "b"]}'])
@pytest.mark.parametrize("x1, x2", [
    (1.0, math.nextafter(1.0, 2.0)),    # the midpoint rounds down to x1
    (-1.0, math.nextafter(-1.0, 0.0)),  # the same below zero
    (1.7e308, 1.79e308),                # the midpoint overflows to inf
    (-1.79e308, -1.7e308),              # ... and to -inf
])
def test_tree_splits_between_adjacent_and_huge_values(label, x1, x2):
    schema = parse_schema('{"features": ["x"], "label": %s}' % label)
    ys = ("a", "b")
    ds = Dataset(schema, make_samples([((x1,), (), ys[0]), ((x2,), (), ys[1])]))
    model = fit(EstimatorSpec("tree"), ds, seed=0)
    (feature, threshold, right), *leaves = model.parameters["tree"]
    assert (feature, right, leaves) == (0, 2, [0, 1]) and x1 < threshold <= x2
    assert (predict(model, (x1,)), predict(model, (x2,))) == ys
    assert deserialize_model(serialize_model(model)) == model


def test_tree_pure_node_stays_leaf():
    ds = city_dataset([(float(i), "c", "a") for i in range(10)])
    model = fit(EstimatorSpec("tree"), ds, seed=0)
    assert model.parameters["tree"] == [0]


# ---------------------------------------------------------------------------
# fit/predict/evaluate contracts
# ---------------------------------------------------------------------------

def test_fit_rejects_empty_and_unlabeled():
    with pytest.raises(LearnerError, match="empty"):
        fit(EstimatorSpec("majority"), Dataset(city_schema(), ()), 0)
    ds = Dataset(city_schema(), make_samples([((1.0,), ("c",), None)]))
    with pytest.raises(DataError, match="no label"):
        fit(EstimatorSpec("majority"), ds, 0)


def test_predict_feature_length_mismatch():
    model = fit(EstimatorSpec("majority"), city_dataset([(1, "c", "a"), (2, "c", "b")]), 0)
    with pytest.raises(DataError, match="expected 1 features"):
        predict(model, (1.0, 2.0))


def _tree_depth_2():
    ds = city_dataset([(float(i), "c", label) for i, label in enumerate("aabaabbbbbbb")])
    model = fit(EstimatorSpec("tree", {"max_depth": 2}), ds, seed=0)
    assert model.parameters["tree"] == [[0, 4.5, 4], [0, 1.5, 3], 0, 0, 1]
    return model, ds


def _models():
    tree, ds = _tree_depth_2()
    return {"tree": tree, "majority": fit(EstimatorSpec("majority"), ds, 0),
            "logistic": fit(EstimatorSpec("logistic", {"epochs": 3}), ds, 0)}


@pytest.mark.parametrize("kind, path, value, fault", [
    # paths index the tree [[0, 4.5, 4], [0, 1.5, 3], 0, 0, 1]; a path that names a
    # node's field (kind, left, right) goes into the tree's format 1 payload, whose
    # fault is the one the format 1 decoder named: it is now refused whole, as retired
    ("tree", ("tree", 0, 0), 1, "tree split feature 1 is not an integer in [0, 1)"),
    ("tree", ("tree", 0, 0), 99, "tree split feature 99 is not an integer in [0, 1)"),
    ("tree", ("tree", 0, 0), -1, "tree split feature -1 is not an integer in [0, 1)"),
    ("tree", ("tree", 0, 0), True, "tree split feature True is not an integer in [0, 1)"),
    ("tree", ("tree", 0, 0), 0.0, "tree split feature 0.0 is not an integer in [0, 1)"),
    ("tree", ("tree", 1, 1), "5", "tree split threshold '5' is not a number"),
    ("tree", ("tree", "kind"), "branch", "tree node kind 'branch' is not 'split' or 'leaf'"),
    ("tree", ("tree", "left", "right"), None, "'NoneType' object is not subscriptable"),
    ("tree", ("tree",), [], "tree [] is not a non-empty list of nodes"),
    ("tree", ("tree", "right"), {"kind": "leaf"}, "'label_index'"),
    ("tree", ("tree", "left", "kind"), None, "tree node kind None is not 'split' or 'leaf'"),
    ("tree", ("tree", 4), 2, "tree leaf label_index 2 is not an integer in [0, 2)"),
    ("tree", ("tree", 2), -1, "tree leaf label_index -1 is not an integer in [0, 2)"),
    ("majority", ("label_index",), 2, "label_index 2 is not an integer in [0, 2)"),
    ("majority", ("label_index",), None, "label_index None is not an integer in [0, 2)"),
    ("logistic", ("weights", 0), [], "weights are not 2 lists of 1 numbers"),
    ("logistic", ("weights",), [[0.0]], "weights are not 2 lists of 1 numbers"),
    ("logistic", ("weights", 1, 0), "x", "weights are not 2 lists of 1 numbers"),
    ("logistic", ("bias",), [0.0], "bias is not a list of 2 numbers"),
    # a threshold that is not a number, a class index that is a bool
    ("tree", ("tree", 1, 1), None, "tree split threshold None is not a number"),
    ("tree", ("tree", 3), True, "tree node 3 True is not a class index or a split"),
    # a node that is neither an int nor a 3-list
    ("tree", ("tree", 1), None, "tree node 1 None is not a class index or a split"),
    ("tree", ("tree", 2), 0.0, "tree node 2 0.0 is not a class index or a split"),
    ("tree", ("tree", 2), "0", "tree node 2 '0' is not a class index or a split"),
    ("tree", ("tree", 2), {"kind": "leaf", "label_index": 0},
     "tree node 2 {'kind': 'leaf', 'label_index': 0} is not a class index or a split"),
    ("tree", ("tree", 1), [0, 1.5], "tree node 1 [0, 1.5] is not a class index or a split"),
    ("tree", ("tree", 1), [0, 1.5, 3, 4],
     "tree node 1 [0, 1.5, 3, 4] is not a class index or a split"),
    # right <= i + 1 (the left child, the split itself, an earlier node) and right >= len
    ("tree", ("tree", 0, 2), 1, "tree split 0 right 1 is not in (1, 5)"),
    ("tree", ("tree", 1, 2), 1, "tree split 1 right 1 is not in (2, 5)"),
    ("tree", ("tree", 1, 2), 0, "tree split 1 right 0 is not in (2, 5)"),
    ("tree", ("tree", 0, 2), 5, "tree split 0 right 5 is not in (1, 5)"),
    ("tree", ("tree", 0, 2), 99, "tree split 0 right 99 is not in (1, 5)"),
    ("tree", ("tree", 1, 2), True, "tree split 1 right True is not in (2, 5)"),
    ("tree", ("tree", 0, 2), 4.0, "tree split 0 right 4.0 is not in (1, 5)"),
    # a split as the last node
    ("tree", ("tree", 4), [0, 0.5, 5], "tree split 4 right 5 is not in (5, 5)"),
    # trees that are not a list, among them a format 1 tree under format 2
    ("tree", ("tree",), 0, "tree 0 is not a non-empty list of nodes"),
    ("tree", ("tree",), None, "tree None is not a non-empty list of nodes"),
    ("tree", ("tree",), {"kind": "leaf", "label_index": 0},
     "tree {'kind': 'leaf', 'label_index': 0} is not a non-empty list of nodes"),
    # a format 1 tree that is not one, or converts to a faulty node
    ("tree", ("tree", "right", "label_index"), 2,
     "tree leaf label_index 2 is not an integer in [0, 2)"),
    ("tree", ("tree", "left", "threshold"), "5", "tree split threshold '5' is not a number"),
    ("tree", ("tree", "left"), [], "list indices must be integers or slices, not str"),
    # a missing right child, a bool threshold, a feature index that is a string
    ("tree", ("tree", 0, 2), None, "tree split 0 right None is not in (1, 5)"),
    ("tree", ("tree", 1, 1), True, "tree split threshold True is not a number"),
    ("tree", ("tree", 0, 0), "0", "tree split feature '0' is not an integer in [0, 1)"),
])
def test_a_model_payload_predict_would_misread_does_not_decode(kind, path, value, fault):
    model = _models()[kind]
    format_1 = len(path) > 1 and isinstance(path[1], str)
    payload = format_1_payload(model) if format_1 else model_to_json(model)
    payload = json.loads(canonical_json_bytes(payload))  # a copy to change
    assert format_1 or model_from_json(payload) == model
    *parents, last = ("parameters", *path)
    node = payload
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(SerializationError) as raised:
        deserialize_model(canonical_json_bytes(payload))
    assert str(raised.value) == (RETIRED if format_1 else f"corrupt model payload: {fault}")


def test_a_tree_nested_past_the_recursion_limit_is_refused_not_raised():
    model, _ = _tree_depth_2()
    # a split threshold of 5 000 nested lists, written as no encoder would
    data = serialize_model(model).replace(b"4.5", b"[" * 5000 + b"]" * 5000, 1)
    with pytest.raises(SerializationError, match="^corrupt model payload: maximum recursion"):
        deserialize_model(data)


def test_a_model_of_format_1_is_refused_as_retired():
    for model in _models().values():
        assert model_from_json(model_to_json(model)) == model
        with pytest.raises(SerializationError) as raised:
            model_from_json(format_1_payload(model))
        assert str(raised.value) == RETIRED


def split_thresholds(tree: list) -> set:
    return {node[1] for node in tree if type(node) is list}


@pytest.mark.parametrize("corpus", [tree_corpus, tie_free_tree_corpus])
def test_the_compiled_tree_walk_predicts_what_the_reference_walk_does(corpus):
    rng = random.Random(7)
    for model, _ in corpus():
        # every threshold and the doubles either side of it, signed zeros, infinities, NaN
        values = [0.0, -0.0, math.inf, -math.inf, math.nan]
        for t in split_thresholds(model.parameters["tree"]):
            values += t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)
        n = model.parameters["n_features"]
        vectors = [(v,) * n for v in values]
        vectors += [tuple(rng.choice(values) for _ in range(n)) for _ in range(4 * len(values))]
        for copy in (model, deserialize_model(serialize_model(model))):
            compiled = copy.predictor
            for x in vectors:
                assert compiled(x) == reference_walk(copy.parameters, x), (x, copy)


def test_logistic_and_majority_predict_what_the_reference_formulas_give():
    rng = random.Random(11)
    for model, ds in logistic_corpus():
        classes, n = model.classes, model.parameters["n_features"]
        counts = [sum(s.label == c for s in ds.samples) for c in classes]
        majority = fit(EstimatorSpec("majority"), ds, seed=0)
        vectors = [s.features for s in ds.samples]
        vectors += [tuple(rng.uniform(-50, 50) for _ in range(n)) for _ in range(10)]
        for copy in (model, deserialize_model(serialize_model(model))):
            assert [predict(copy, x) for x in vectors] == [
                reference_logistic(copy.parameters, x) for x in vectors]
        assert {predict(majority, x) for x in vectors} == {classes[counts.index(max(counts))]}


def test_a_model_compiles_its_predictor_once(monkeypatch):
    compiled = count_tree_compiles(monkeypatch)
    model, ds = _tree_depth_2()
    assert compiled == []  # a fitted model compiles when it first predicts
    assert model.predictor is model.predictor
    evaluate(model, ds)
    assert [predict(model, s.features) for s in ds.samples] == [
        reference_walk(model.parameters, s.features) for s in ds.samples]
    assert compiled == [model.parameters]
    copy = deserialize_model(serialize_model(model))  # a decoded one, once, at decode
    assert len(compiled) == 2 and compiled[1] is copy.parameters
    evaluate(copy, ds)
    assert copy.predictor is not model.predictor and len(compiled) == 2


def test_a_tree_deeper_than_the_recursion_limit_compiles_and_predicts():
    depth = sys.getrecursionlimit() + 100
    model = chain_tree_model(depth)
    copy = deserialize_model(serialize_model(model))
    assert copy == model
    for x in (-1.0, 0.0, 7.0, 8.0, depth - 1.0, float(depth), math.inf, math.nan):
        assert predict(copy, (x,)) == predict(model, (x,)) == reference_walk(
            model.parameters, (x,))


def test_evaluate_counting():
    ds = city_dataset([(1, "c", "a"), (2, "c", "a"), (3, "c", "b")])
    model = fit(EstimatorSpec("majority"), ds, seed=0)
    metrics = evaluate(model, ds)
    assert metrics.accuracy == pytest.approx(2 / 3)
    assert metrics.n == 3
    assert metrics.counts[0][0] == 2 and metrics.counts[1][0] == 1


def test_evaluate_majority_train_accuracy_equals_max_class_frequency(rng):
    for _ in range(10):
        rows = [(rng.random(), "c", rng.choice("ab")) for _ in range(rng.randint(2, 30))]
        ds = city_dataset(rows)
        model = fit(EstimatorSpec("majority"), ds, seed=0)
        metrics = evaluate(model, ds)
        top = max(sum(1 for r in rows if r[2] == c) for c in "ab")
        assert metrics.accuracy == top / len(rows)


def test_evaluate_matches_independent_counting_oracle(rng):
    for kind, hp in (("majority", {}), ("tree", {"max_depth": 3}), ("logistic", {"epochs": 30})):
        train = city_dataset([(rng.uniform(0, 10), "c", rng.choice("ab")) for _ in range(40)])
        test = city_dataset([(rng.uniform(0, 10), "c", rng.choice("ab")) for _ in range(25)])
        model = fit(EstimatorSpec(kind, hp), train, seed=0)
        metrics = evaluate(model, test)
        correct = sum(1 for s in test.samples if predict(model, s.features) == s.label)
        assert metrics.accuracy == correct / len(test)
        assert sum(sum(row) for row in metrics.counts) == len(test)


def test_metrics_invariants_enforced():
    with pytest.raises(LearnerError, match="sum to n"):
        EvalMetrics(accuracy=1.0, classes=("a", "b"), counts=((1, 0), (0, 0)), n=2)
    with pytest.raises(LearnerError, match="trace"):
        EvalMetrics(accuracy=0.9, classes=("a", "b"), counts=((1, 0), (0, 1)), n=2)


# ---------------------------------------------------------------------------
# Serialization and determinism
# ---------------------------------------------------------------------------

def test_fit_deterministic_bytes():
    ds = city_dataset([(i, "c", "ab"[i % 2]) for i in range(20)])
    for kind, hp in (("majority", {}), ("tree", {}), ("logistic", {"epochs": 30})):
        a = fit(EstimatorSpec(kind, hp), ds, seed=3)
        b = fit(EstimatorSpec(kind, hp), ds, seed=3)
        assert serialize_model(a) == serialize_model(b)


def test_round_trip_majority_identical_predictions(rng):
    ds = city_dataset([(1, "c", "a"), (2, "c", "b"), (3, "c", "a")])
    model = fit(EstimatorSpec("majority"), ds, seed=0)
    clone = deserialize_model(serialize_model(model))
    for _ in range(100):
        x = (rng.uniform(-100, 100),)
        assert predict(clone, x) == predict(model, x)


def test_round_trip_logistic_bit_identical():
    model = fit(EstimatorSpec("logistic", {"epochs": 100}), _separable_1d(), seed=0)
    clone = deserialize_model(serialize_model(model))
    assert clone.parameters == model.parameters
    assert serialize_model(clone) == serialize_model(model)


def test_round_trip_preserves_spec_and_provenance():
    ds = city_dataset([(1, "c", "a"), (2, "c", "b")])
    model = fit(EstimatorSpec("tree", {"max_depth": 2}), ds, seed=9)
    clone = deserialize_model(serialize_model(model))
    assert clone.spec == model.spec
    assert clone.seed == 9
    assert clone.trained_on == model.trained_on
    assert clone.schema_fingerprint == model.schema_fingerprint


def test_truncated_payload_is_corrupt():
    model = fit(EstimatorSpec("majority"), city_dataset([(1, "c", "a"), (2, "c", "b")]), 0)
    data = serialize_model(model)
    with pytest.raises(SerializationError, match="corrupt"):
        deserialize_model(data[: len(data) // 2])


def test_non_object_hyperparameters_are_corrupt():
    model = fit(EstimatorSpec("majority"), city_dataset([(1, "c", "a"), (2, "c", "b")]), 0)
    data = serialize_model(model).replace(b'"hyperparameters":{}', b'"hyperparameters":[1]')
    with pytest.raises(SerializationError, match="hyperparameters must be an object"):
        deserialize_model(data)


@pytest.mark.parametrize("version", [b"true", b"1.0", b'"1"'])
def test_non_integer_format_version_is_rejected(version):
    model = fit(EstimatorSpec("majority"), city_dataset([(1, "c", "a"), (2, "c", "b")]), 0)
    data = serialize_model(model).replace(b'"format_version":2', b'"format_version":' + version)
    with pytest.raises(SerializationError, match="unsupported model format version"):
        deserialize_model(data)


@pytest.mark.parametrize("kind", [b'["majority"]', b'{"k":1}', b"7", b"null"])
def test_non_string_kind_is_corrupt(kind):
    model = fit(EstimatorSpec("majority"), city_dataset([(1, "c", "a"), (2, "c", "b")]), 0)
    data = serialize_model(model).replace(b'"kind":"majority"', b'"kind":' + kind)
    with pytest.raises(SerializationError, match="kind .* is not a string"):
        deserialize_model(data)


def test_unknown_kind_is_forward_compat_error():
    model = fit(EstimatorSpec("majority"), city_dataset([(1, "c", "a"), (2, "c", "b")]), 0)
    data = serialize_model(model).replace(b'"kind":"majority"', b'"kind":"neural9000"')
    with pytest.raises(UnknownLearnerError, match="neural9000"):
        deserialize_model(data)
