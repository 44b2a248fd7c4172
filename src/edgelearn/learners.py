"""Pluggable learners: estimator specs, model artifacts, metrics, serialization.

Built-in kinds are ``majority`` (constant most-frequent-class model),
``logistic`` (multinomial logistic regression, full-batch gradient descent
with a monotone-loss safeguard), and ``tree`` (a decision tree grown by a
greedy gini split search). All three classify into the schema's classes,
and all are deterministic: fitting the same spec on the same data with
the same seed produces byte-identical serialized artifacts.

A learner kind provides ``fit`` and ``predict`` over a JSON-serializable
parameter payload; serialization then comes for free. Register a new one
with :func:`register_learner`.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, filterfalse, islice
from operator import ne

from .data import Dataset, FeatureVector, _is_finite_number, _is_int
from .errors import (
    DataError,
    LearnerError,
    SchemaMismatchError,
    SerializationError,
    UnknownLearnerError,
)

FORMAT_VERSION = 1

# Reserved keys the fit() wrapper injects into every parameter payload.
_META_KEYS = ("n_features", "classes")


def canonical_json_bytes(obj) -> bytes:
    """Stable byte encoding: sorted keys, no whitespace, exact float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


# ---------------------------------------------------------------------------
# Hyperparameters and specs
# ---------------------------------------------------------------------------

_HP_RULES = {
    "learning_rate": ("a real > 0", lambda v: _is_finite_number(v) and v > 0),
    "epochs": ("an integer > 0", lambda v: _is_int(v) and v > 0),
    "max_depth": ("an integer > 0", lambda v: _is_int(v) and v > 0),
    "min_leaf": ("an integer > 0", lambda v: _is_int(v) and v > 0),
    "l2": ("a real >= 0", lambda v: _is_finite_number(v) and v >= 0),
}


@dataclass(frozen=True)
class EstimatorSpec:
    """A learner kind plus its hyperparameters. Validated against the
    registered learner's declared hyperparameter set on construction."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        learner = get_learner(self.kind)
        if not isinstance(self.hyperparameters, dict):
            raise LearnerError(f"hyperparameters must be an object, got {self.hyperparameters!r}")
        for name, value in self.hyperparameters.items():
            if name not in learner.hyperparameter_defaults:
                raise LearnerError(
                    f"unknown hyperparameter {name!r} for learner kind {self.kind!r}"
                )
            rule = _HP_RULES.get(name)
            if rule is not None:
                desc, check = rule
                if not check(value):
                    raise LearnerError(f"hyperparameter {name!r} must be {desc}, got {value!r}")

    def resolved(self) -> dict:
        """Hyperparameters with the learner's defaults filled in."""
        merged = dict(get_learner(self.kind).hyperparameter_defaults)
        merged.update(self.hyperparameters)
        return merged


@dataclass(frozen=True)
class TrainingSummary:
    """What a model was fit on: sample count and class histogram."""

    count: int
    class_histogram: dict

    def __post_init__(self):
        if not isinstance(self.class_histogram, dict):
            raise LearnerError(f"class histogram {self.class_histogram!r} is not an object")
        if self.class_histogram and sum(self.class_histogram.values()) != self.count:
            raise LearnerError("class histogram does not sum to the sample count")


@dataclass(frozen=True)
class ModelArtifact:
    """A trained, self-contained model: spec, parameter payload, provenance."""

    spec: EstimatorSpec
    parameters: dict
    trained_on: TrainingSummary
    seed: int
    schema_fingerprint: str

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.parameters["classes"])


@dataclass(frozen=True)
class EvalMetrics:
    """Classification metrics: accuracy plus a full confusion matrix.

    ``counts[i][j]`` is the number of samples with true class i predicted
    as class j, in ``classes`` order.
    """

    accuracy: float
    classes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise LearnerError("metrics need at least one sample")
        if sum(sum(row) for row in self.counts) != self.n:
            raise LearnerError("confusion matrix entries must sum to n")
        if self.accuracy != self.correct / self.n:
            raise LearnerError("accuracy must equal trace/n")

    @property
    def correct(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.classes)))

    @classmethod
    def from_counts(cls, classes: tuple[str, ...], counts: tuple[tuple[int, ...], ...]) -> "EvalMetrics":
        n = sum(sum(row) for row in counts)
        trace = sum(counts[i][i] for i in range(len(classes)))
        return cls(accuracy=trace / n, classes=classes, counts=counts, n=n)

    @classmethod
    def from_pairs(cls, classes: tuple[str, ...], pairs) -> "EvalMetrics":
        """Tally ``(true, predicted)`` class-name pairs into a confusion matrix."""
        index = {c: i for i, c in enumerate(classes)}
        counts = [[0] * len(classes) for _ in classes]
        for true, predicted in pairs:
            counts[index[true]][index[predicted]] += 1
        return cls.from_counts(classes, tuple(tuple(row) for row in counts))


# ---------------------------------------------------------------------------
# Learner registry
# ---------------------------------------------------------------------------

class Learner:
    """Base plugin contract. Subclasses implement fit/predict over a
    JSON-serializable parameter dict."""

    kind: str = ""
    hyperparameter_defaults: dict = {}

    def fit(self, spec: EstimatorSpec, train: Dataset, seed: int) -> dict:
        raise NotImplementedError

    def predict(self, params: dict, features: FeatureVector):
        raise NotImplementedError


_REGISTRY: dict[str, Learner] = {}


def register_learner(learner: Learner) -> None:
    if not learner.kind:
        raise LearnerError("learner must declare a kind identifier")
    _REGISTRY[learner.kind] = learner


def get_learner(kind: str) -> Learner:
    learner = _REGISTRY.get(kind) if isinstance(kind, str) else None
    if learner is None:
        raise LearnerError(f"unknown learner kind {kind!r}")
    return learner


# ---------------------------------------------------------------------------
# Built-in learners
# ---------------------------------------------------------------------------

class MajorityLearner(Learner):
    """Constant model predicting the most frequent training class
    (ties resolve to the lowest class index)."""

    kind = "majority"
    hyperparameter_defaults: dict = {}

    def fit(self, spec, train, seed):
        classes = train.schema.label_classes
        counts = [0] * len(classes)
        for s in train.samples:
            counts[classes.index(s.label)] += 1
        best = max(range(len(classes)), key=lambda i: (counts[i], -i))
        return {"label_index": best}

    def predict(self, params, features):
        return params["classes"][params["label_index"]]


def _softmax(scores: list[float]) -> list[float]:
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


class LogisticLearner(Learner):
    """Multinomial logistic regression trained by full-batch gradient descent
    from all-zero weights.

    The loss is mean cross-entropy plus 0.5 * l2 * ||W||^2 (bias
    unregularized). Steps that would increase the loss halve the learning
    rate and retry, so the recorded per-epoch loss is non-increasing by
    construction.
    """

    kind = "logistic"
    hyperparameter_defaults = {"learning_rate": 0.1, "epochs": 200, "l2": 0.0}

    def fit(self, spec, train, seed):
        hp = spec.resolved()
        classes = train.schema.label_classes
        k = len(classes)
        f = train.schema.n_features
        x = [list(s.features) for s in train.samples]
        y = [classes.index(s.label) for s in train.samples]
        n = len(x)

        weights = [[0.0] * f for _ in range(k)]
        bias = [0.0] * k
        l2 = hp["l2"]
        lr = hp["learning_rate"]

        def loss(w, b):
            total = 0.0
            for xi, yi in zip(x, y):
                scores = [sum(w[c][j] * xi[j] for j in range(f)) + b[c] for c in range(k)]
                proba = _softmax(scores)
                total -= math.log(max(proba[yi], 1e-300))
            reg = 0.5 * l2 * sum(w[c][j] ** 2 for c in range(k) for j in range(f))
            return total / n + reg

        def gradient(w, b):
            gw = [[l2 * w[c][j] for j in range(f)] for c in range(k)]
            gb = [0.0] * k
            for xi, yi in zip(x, y):
                scores = [sum(w[c][j] * xi[j] for j in range(f)) + b[c] for c in range(k)]
                proba = _softmax(scores)
                for c in range(k):
                    delta = (proba[c] - (1.0 if c == yi else 0.0)) / n
                    gb[c] += delta
                    for j in range(f):
                        gw[c][j] += delta * xi[j]
            return gw, gb

        current = loss(weights, bias)
        history = [current]
        for _ in range(hp["epochs"]):
            gw, gb = gradient(weights, bias)
            while True:
                cand_w = [[weights[c][j] - lr * gw[c][j] for j in range(f)] for c in range(k)]
                cand_b = [bias[c] - lr * gb[c] for c in range(k)]
                cand = loss(cand_w, cand_b)
                if cand <= current + 1e-12:
                    weights, bias, current = cand_w, cand_b, cand
                    break
                lr *= 0.5
                if lr < 1e-18:
                    break  # step too small to help; keep current weights
            history.append(current)

        return {"weights": weights, "bias": bias, "loss_history": history}

    def predict(self, params, features):
        scores = [
            sum(wc[j] * features[j] for j in range(len(features))) + bc
            for wc, bc in zip(params["weights"], params["bias"])
        ]
        proba = _softmax(scores)
        best = max(range(len(proba)), key=lambda i: (proba[i], -i))
        return params["classes"][best]


class _Gini:
    """Classification impurity in exact integers, so exhaustive-search
    oracles agree bit-for-bit. A node's rows arrive in each feature's order,
    sorted once per fit, and ``best_cut`` scans one such order in one pass."""

    def __init__(self, k):
        self.k = k

    def leaf(self, ys):
        counts = [ys.count(c) for c in range(self.k)]
        best = max(range(self.k), key=lambda i: (counts[i], -i))
        return {"kind": "leaf", "counts": counts, "label_index": best}

    def pure(self, leaf):
        return leaf["counts"].count(0) == self.k - 1

    def best_cut(self, ys, candidates, counts):
        """The best of the *candidates* (ascending n_left values) of sorted
        labels *ys* with class *counts*, as ``(num, den, n_left)``, ties going
        to the lowest n_left. The sides' ``m * gini`` sum to ``n - num / den``,
        where ``num / den = L/t + R/(n - t)`` at n_left = t and L, R sum the
        squared class counts of a side, so the best cut maximises num / den.
        With S = Σ counts² and P = Σ counts · left counts, R = S - 2P + L, so
        ``num = L·n + (S - 2P)·t`` over ``den = t·(n - t)``.

        Only the first and the last candidate in each run of one label are
        scored; the rest neither win nor tie. Moving t rows of a run's class
        left scores ``2A - (A² + S_L)/(n_a + t) + 2B - (B² + S_R)/(n_b - t)``,
        where A, B count the other classes a side and S_L, S_R sum their
        squared counts, all fixed in the run. The node is impure (A + B > 0),
        so this is strictly concave in t: a candidate inside a run scores
        strictly worse than an end of it.
        """
        n, m, last = len(ys), len(candidates), candidates[-1]
        left, twice = [0] * self.k, [2 * c for c in counts]
        lsq, w = 0, sum(c * c for c in counts)  # L and S - 2P at n_left = 0
        best_num, best_den, best_t = 0, 1, 0  # every cut scores above 0
        changes = compress(range(1, last), map(ne, ys, islice(ys, 1, last)))
        a, i = 0, -1  # the sums are at n_left = a; i indexes the last candidate <= a
        for b in chain(changes, (last,)):
            y = ys[a]  # the class of rows [a, b)
            lc, d = left[y], b - a
            if candidates[i] == a and i + d < m and candidates[i + d] == b:
                # every cut in [a, b] is a candidate: a is scored, b is the run's last
                i += d
                lsq += d * (2 * lc + d)
                w -= twice[y] * d
                num, den = lsq * n + w * b, b * (n - b)
                if num * best_den > best_num * den:
                    best_num, best_den, best_t = num, den, b
            else:  # ties or min_leaf leave gaps: score the run's first and last candidate
                lo = i if candidates[i] == a else i + 1
                i = bisect_right(candidates, b, lo) - 1
                for t in sorted({candidates[lo], candidates[i]} - {a}) if lo <= i else ():
                    dt = t - a
                    num = (lsq + dt * (2 * lc + dt)) * n + (w - twice[y] * dt) * t
                    den = t * (n - t)
                    if num * best_den > best_num * den:
                        best_num, best_den, best_t = num, den, t
                lsq += d * (2 * lc + d)
                w -= twice[y] * d
            left[y] = lc + d
            a = b
        return best_num, best_den, best_t


class TreeLearner(Learner):
    """Binary classification tree grown by a greedy gini split search
    (CART). Each feature column is sorted once per fit, stably, and every
    node keeps its rows in those orders: a split slices the chosen feature's
    order and filters the others, so no node sorts again (the presorted
    attribute lists of SLIQ and SPRINT).

    ``_Gini`` supplies the leaf payload, the purity stop and a column's best
    cut: of the cuts between distinct feature values that leave ``min_leaf``
    rows a side, it scores only those at the ends of label runs, as the rest
    provably cannot win or tie. A column with no repeated value has every
    cut in that range as a candidate. Scores are exact integer rationals
    ``(num, den)`` compared by cross-multiplication. A cut's threshold is
    the midpoint of its two values (the upper value where the midpoint
    rounds to the lower one or overflows); ties resolve to the lowest
    feature index, then the lowest threshold. A node splits only if its
    best cut strictly improves on the node's own score.
    """

    kind = "tree"
    hyperparameter_defaults = {"max_depth": 4, "min_leaf": 1}

    def fit(self, spec, train, seed):
        hp = spec.resolved()
        schema = train.schema
        class_index = {c: i for i, c in enumerate(schema.label_classes)}
        ys = [class_index[s.label] for s in train.samples]
        impurity = _Gini(len(schema.label_classes))
        min_leaf = hp["min_leaf"]
        columns = [[s.features[j] for s in train.samples] for j in range(schema.n_features)]
        # a column with no repeated value (0.0 and -0.0 repeat) has none in any node
        tied = [len(set(column)) < len(column) for column in columns]

        def grow(orders, depth):
            node_ys = list(map(ys.__getitem__, orders[0]))
            leaf = impurity.leaf(node_ys)
            n = len(node_ys)
            if depth == 0 or n < 2 * min_leaf or impurity.pure(leaf):
                return leaf
            best = None  # (num, den, feature, n_left)
            for j, order in enumerate(orders):
                if tied[j]:
                    values = list(map(columns[j].__getitem__, order))
                    # the n_left values that leave min_leaf rows a side, between distinct values
                    candidates = list(compress(
                        range(min_leaf, n - min_leaf + 1),
                        map(ne, islice(values, min_leaf - 1, n - min_leaf),
                            islice(values, min_leaf, None)),
                    ))
                    if not candidates:
                        continue
                else:
                    candidates = range(min_leaf, n - min_leaf + 1)
                num, den, n_left = impurity.best_cut(
                    list(map(ys.__getitem__, order)), candidates, leaf["counts"]
                )
                if best is None or num * best[1] > best[0] * den:
                    best = (num, den, j, n_left)
            # split only if n - num/den < n * gini(node) = n - sum(counts²)/n
            if best is None or best[0] * n <= sum(c * c for c in leaf["counts"]) * best[1]:
                return leaf
            _, _, j, n_left = best
            column, order = columns[j], orders[j]
            v1, v2 = column[order[n_left - 1]], column[order[n_left]]
            threshold = (v1 + v2) / 2.0
            if not v1 < threshold <= v2:  # adjacent doubles round down, huge ones overflow
                threshold = v2
            # the first n_left rows of feature j's order are those below the threshold
            goes_left = set(islice(order, n_left)).__contains__
            left = [o[:n_left] if o is order else list(filter(goes_left, o)) for o in orders]
            right = [o[n_left:] if o is order else list(filterfalse(goes_left, o)) for o in orders]
            return {
                "kind": "split",
                "feature": j,
                "threshold": threshold,
                "left": grow(left, depth - 1),
                "right": grow(right, depth - 1),
            }

        rows = range(len(train))
        orders = [sorted(rows, key=column.__getitem__) for column in columns]
        return {"tree": grow(orders, hp["max_depth"])}

    # -- inference ----------------------------------------------------------

    def predict(self, params, features):
        node = params["tree"]
        while node["kind"] == "split":
            node = node["left"] if features[node["feature"]] < node["threshold"] else node["right"]
        return params["classes"][node["label_index"]]


register_learner(MajorityLearner())
register_learner(LogisticLearner())
register_learner(TreeLearner())


# ---------------------------------------------------------------------------
# Top-level operations
# ---------------------------------------------------------------------------

def fit(spec: EstimatorSpec, train: Dataset, seed: int) -> ModelArtifact:
    """Train a model. Deterministic given (spec, train, seed)."""
    learner = get_learner(spec.kind)
    if len(train) == 0:
        raise LearnerError("cannot fit on an empty dataset")
    train.require_labeled()
    schema = train.schema
    params = learner.fit(spec, train, seed)
    for key in _META_KEYS:
        if key in params:
            raise LearnerError(f"learner parameters may not use reserved key {key!r}")
    params = {
        "n_features": schema.n_features,
        "classes": list(schema.label_classes),
        **params,
    }

    histogram = {c: 0 for c in schema.label_classes}
    for s in train.samples:
        histogram[s.label] += 1
    return ModelArtifact(
        spec=spec,
        parameters=params,
        trained_on=TrainingSummary(count=len(train), class_histogram=histogram),
        seed=seed,
        schema_fingerprint=schema.fingerprint(),
    )


def predict(model: ModelArtifact, features: FeatureVector):
    """Predict one sample: a class name the model's schema declares."""
    if len(features) != model.parameters["n_features"]:
        raise DataError(
            f"expected {model.parameters['n_features']} features, got {len(features)}"
        )
    return get_learner(model.spec.kind).predict(model.parameters, features)


def evaluate(model: ModelArtifact, test: Dataset) -> EvalMetrics:
    """Confusion matrix and accuracy of a classification model on a labeled set."""
    if len(test) == 0:
        raise LearnerError("cannot evaluate on an empty dataset")
    test.require_labeled()
    if test.schema.fingerprint() != model.schema_fingerprint:
        raise SchemaMismatchError("test set schema does not match the model")
    return EvalMetrics.from_pairs(
        model.classes, ((s.label, predict(model, s.features)) for s in test.samples)
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def metrics_to_json(metrics: EvalMetrics | None) -> dict | None:
    if metrics is None:
        return None
    return {
        "accuracy": metrics.accuracy,
        "classes": list(metrics.classes),
        "counts": [list(row) for row in metrics.counts],
        "n": metrics.n,
    }


def metrics_from_json(doc: dict | None) -> EvalMetrics | None:
    if doc is None:
        return None
    return EvalMetrics(
        accuracy=doc["accuracy"],
        classes=tuple(doc["classes"]),
        counts=tuple(tuple(row) for row in doc["counts"]),
        n=doc["n"],
    )


def model_to_json(model: ModelArtifact) -> dict:
    """The payload dict that :func:`serialize_model` encodes."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.spec.kind,
        "schema_fingerprint": model.schema_fingerprint,
        "seed": model.seed,
        "hyperparameters": model.spec.hyperparameters,
        "trained_on": {
            "count": model.trained_on.count,
            "class_histogram": model.trained_on.class_histogram,
        },
        "parameters": model.parameters,
    }


def model_from_json(payload) -> ModelArtifact:
    """Inverse of :func:`model_to_json`; checks the decoded payload."""
    if not isinstance(payload, dict):
        raise SerializationError("corrupt model payload: not an object")
    missing = {
        "format_version", "kind", "schema_fingerprint", "seed",
        "hyperparameters", "trained_on", "parameters",
    } - payload.keys()
    if missing:
        raise SerializationError(f"corrupt model payload: missing {sorted(missing)}")
    if not _is_int(payload["format_version"]) or payload["format_version"] != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported model format version {payload['format_version']!r}"
        )
    kind = payload["kind"]
    if not isinstance(kind, str):
        raise SerializationError(f"corrupt model payload: kind {kind!r} is not a string")
    if kind not in _REGISTRY:
        raise UnknownLearnerError(f"unknown learner kind {kind!r} in model payload")
    params = payload["parameters"]  # predict reads the two keys fit injects
    if not isinstance(params, dict):
        raise SerializationError(f"corrupt model payload: parameters {params!r} is not an object")
    n_features, classes = params.get("n_features"), params.get("classes")
    if not _is_int(n_features) or n_features < 1:
        raise SerializationError(
            f"corrupt model payload: n_features {n_features!r} is not an integer >= 1")
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise SerializationError(
            f"corrupt model payload: classes {classes!r} is not a list of strings")
    try:
        spec = EstimatorSpec(kind=kind, hyperparameters=payload["hyperparameters"])
        trained = TrainingSummary(
            count=payload["trained_on"]["count"],
            class_histogram=payload["trained_on"]["class_histogram"],
        )
        return ModelArtifact(
            spec=spec,
            parameters=params,
            trained_on=trained,
            seed=payload["seed"],
            schema_fingerprint=payload["schema_fingerprint"],
        )
    except (KeyError, TypeError, LearnerError) as exc:
        raise SerializationError(f"corrupt model payload: {exc}") from exc


def serialize_model(model: ModelArtifact) -> bytes:
    """Canonical, versioned byte encoding of a model artifact."""
    return canonical_json_bytes(model_to_json(model))


def deserialize_model(data: bytes) -> ModelArtifact:
    """Inverse of :func:`serialize_model`; exact parameter round-trip."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt model payload: {exc}") from exc
    return model_from_json(payload)
