"""Task mining over heterogeneous datasets.

A *task* is identified by the tuple of bucketed attribute values of its
samples: categorical attributes pass through, numeric attributes map to a
bucket index against the schema's bucket edges. :func:`bucket_values` and
:func:`values_key` hold the bucketing and key rules on plain tuples, for
callers that need no :class:`BucketedAttributes`; the bucketing runs a plan
worked out once per config (:attr:`BucketingConfig.bucket`). Mining groups
a dataset into one sub-dataset per task key, bucketing each distinct raw
attribute tuple once; attribute-based similarity relates tasks to each
other, scored by a plan worked out once per bucket counts
(:func:`similarity_scorer`); sample transfer tops up small tasks from their
nearest neighbours without touching the learner contract.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter

from .data import Dataset, DatasetSchema, TaskAttrValues
from .errors import DataError, SchemaError, SchemaMismatchError

KEY_SEPARATOR = "|"
_ESCAPE = "\\"


@dataclass(frozen=True)
class BucketingConfig:
    """Per-attribute-column bucket edges; ``None`` marks a categorical column.

    A numeric column with m edges has m+1 buckets. An empty edge tuple is a
    single bucket (every value maps to bucket 0). The edges are not checked
    here: they are a schema's, or a store's, checked where they entered.
    """

    edges: tuple[tuple[float, ...] | None, ...]

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Each column's bucket count: m edges give m+1, categorical is 0."""
        return tuple(0 if e is None else len(e) + 1 for e in self.edges)

    @classmethod
    def from_schema(cls, schema: DatasetSchema) -> "BucketingConfig":
        """The bucketing of *schema*: its attribute columns' bucket edges."""
        return cls(schema.attribute_edges)

    @cached_property
    def bucket(self) -> Callable[[TaskAttrValues], tuple[str | int, ...]]:
        """:func:`bucket_values` under this bucketing, its plan (each column's position
        and edges, None if categorical, and the tuple length) worked out once; a call
        checks the columns in order and buckets the numeric ones in place."""
        plan, n = tuple(enumerate(self.edges)), len(self.edges)

        def bucket(attrs: TaskAttrValues) -> tuple[str | int, ...]:
            if len(attrs) != n:
                raise SchemaMismatchError(f"expected {n} attributes, got {len(attrs)}")
            values = list(attrs)
            for i, col_edges in plan:
                v = values[i]
                if col_edges is None:
                    if not isinstance(v, str):
                        raise DataError(f"categorical attribute needs a string, got {v!r}")
                elif isinstance(v, str):
                    raise DataError(f"numeric attribute needs a number, got {v!r}")
                else:
                    values[i] = bisect_right(col_edges, v) if v == v else 0  # edges increase
            return tuple(values)

        return bucket


@dataclass(frozen=True)
class BucketedAttributes:
    """Attribute tuple after bucketing: strings stay, numerics become bucket
    indices. ``bucket_counts`` carries each numeric column's bucket count
    (0 for categorical) so similarity is computable without the config."""

    values: tuple[str | int, ...]
    bucket_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.bucket_counts):
            raise SchemaError("values and bucket_counts must be parallel")


def bucket_values(attrs: TaskAttrValues, bucketing: BucketingConfig) -> tuple[str | int, ...]:
    """Map raw attribute values to their bucketed values.

    Numeric value v with edges e becomes ``count(e_i <= v)`` (0 for NaN);
    edges are the left-inclusive boundaries of the next bucket. Runs
    *bucketing*'s plan (:attr:`BucketingConfig.bucket`), built on first use;
    a hot caller binds that once instead.
    """
    return bucketing.bucket(attrs)


def bucket_attributes(attrs: TaskAttrValues, bucketing: BucketingConfig) -> BucketedAttributes:
    """:func:`bucket_values` of *attrs* with *bucketing*'s bucket counts."""
    return BucketedAttributes(bucket_values(attrs, bucketing), bucketing.bucket_counts)


def values_key(values: tuple[str | int, ...]) -> str:
    """Canonical key string for a bucketed value tuple (injective for a
    fixed schema and bucketing: separator occurrences are escaped)."""
    return KEY_SEPARATOR.join([
        v.replace(_ESCAPE, _ESCAPE + _ESCAPE).replace(KEY_SEPARATOR, _ESCAPE + KEY_SEPARATOR)
        if isinstance(v, str) else str(v)
        for v in values
    ])


def task_key(bucketed: BucketedAttributes) -> str:
    """:func:`values_key` of a bucketed attribute tuple."""
    return values_key(bucketed.values)


def task_similarity(a: BucketedAttributes, b: BucketedAttributes) -> float:
    """Mean per-column similarity between two bucketed attribute tuples.

    Categorical columns score 1 on equality, else 0. Numeric columns with B
    buckets score ``max(0, 1 - |i-j|/(B-1))`` (B=1 scores 1). Symmetric,
    bounded in [0,1], and 1 exactly on equal tuples. A zero-attribute schema
    scores 1 (single implicit task). Both tuples must hold what
    :func:`task_categories` accepts of a task, or SchemaMismatchError.
    """
    counts = a.bucket_counts
    if len(a.values) != len(b.values) or counts != b.bucket_counts:
        raise SchemaMismatchError("bucketed attributes come from different schemas")
    for x, y, c in zip(a.values, b.values, counts):  # a plain loop costs less than all()
        if not (type(x) is type(y) is str if c == 0 else
                type(x) is type(y) is int and 0 <= x < c and 0 <= y < c):
            if any(k == 0 and type(u) != type(v) for u, v, k in zip(a.values, b.values, counts)):
                raise SchemaMismatchError("mixed categorical/numeric column")
            raise SchemaMismatchError(f"values {a.values!r} and {b.values!r} were not both "
                                      f"bucketed under bucket counts {counts!r}")
    return similarity_scorer(counts)(a.values, b.values)


@cache
def similarity_scorer(bucket_counts: tuple[int, ...]) -> Callable[[tuple, tuple], float]:
    """:func:`values_similarity` under *bucket_counts*, planned once per counts: a
    numeric column of B buckets is a table of the score at each bucket distance, as
    :func:`task_similarity` computes it, summed in column order into the same float."""
    n = len(bucket_counts)
    if not n:
        return lambda a, b: 1.0
    plan = tuple((i, None if count == 0 else tuple(
        1.0 if count == 1 else max(0.0, 1.0 - d / (count - 1)) for d in range(count)))
        for i, count in enumerate(bucket_counts))

    def score(a: tuple, b: tuple) -> float:
        total = 0.0
        for i, table in plan:  # indexing: about twice as fast as zipping three tuples
            total += (1.0 if a[i] == b[i] else 0.0) if table is None else table[abs(a[i] - b[i])]
        return total / n

    return score


def values_similarity(a: tuple, b: tuple, bucket_counts: tuple[int, ...]) -> float:
    """:func:`task_similarity` of values bucketed under *bucket_counts*, unchecked: each
    numeric column must hold an int in ``[0, B)``. A hot caller binds the scorer."""
    return similarity_scorer(bucket_counts)(a, b)


def rank_similar(
    query: BucketedAttributes, tasks: dict[str, BucketedAttributes]
) -> list[tuple[str, float]]:
    """(key, similarity) of every task scoring above 0 against *query*,
    most similar first, ties to the smaller key. Scores tasks in key order."""
    scored = []
    for key in sorted(tasks):
        sim = task_similarity(query, tasks[key])
        if sim > 0.0:
            scored.append((-sim, key))
    scored.sort()
    return [(key, -neg) for neg, key in scored]


def task_categories(key: str, attrs: BucketedAttributes,
                    bucket_counts: tuple[int, ...]) -> tuple[str, ...]:
    """The categorical values of task *key*, if its *attrs* were bucketed
    under *bucket_counts* (the same counts, a string in each categorical
    column and an integer, not a bool, in ``[0, count)`` in each numeric
    one) and *key* is their :func:`values_key`. Otherwise
    SchemaMismatchError naming the task and the key of its values."""
    cats = []
    for v, count in zip(attrs.values, bucket_counts):
        if count == 0 and type(v) is str:
            cats.append(v)
        elif count == 0 or type(v) is not int or not 0 <= v < count:
            break
    else:
        if attrs.bucket_counts == bucket_counts and key == values_key(attrs.values):
            return tuple(cats)
    raise SchemaMismatchError(
        f"task {key!r} has values {attrs.values!r}, whose key is {values_key(attrs.values)!r}, "
        f"under bucket counts {attrs.bucket_counts!r}; expected the values of its key "
        f"bucketed under {bucket_counts!r}")


class TaskIndex:
    """Nearest-task lookup over a fixed set of tasks at one similarity
    threshold, grouped by their categorical values.

    Every task must pass :func:`task_categories` under *bucket_counts*, or
    the constructor raises SchemaMismatchError naming the first that does
    not. Lookups trust the tasks; a query must be bucketed under the same
    counts (as :attr:`BucketingConfig.bucket` buckets).

    A categorical mismatch scores exactly 0 and every column at most 1, so
    a task whose categorical values differ from the query's in m of n
    columns scores at most ``(n-m)/n`` (exactly so in floats: rounded
    addition and division are monotone). The constructor works out once the
    most mismatches (the reach) that can still meet *threshold* and binds the
    counts' :func:`similarity_scorer`; a lookup scores, with it on the
    request's values and in key order, only the groups within reach, building
    no query object; with the query's own group alone that is one dict probe.
    Results equal a scan of every task in key order with
    :func:`task_similarity`. Nothing in an index changes after it is built;
    :meth:`with_tasks` derives another from it, with the same scorer.
    """

    def __init__(self, tasks: dict[str, BucketedAttributes], bucket_counts: tuple[int, ...],
                 threshold: float):
        self._bucket_counts = bucket_counts
        self._score = similarity_scorer(bucket_counts)  # with_tasks copies it over
        categorical = tuple(i for i, count in enumerate(bucket_counts) if count == 0)
        if len(categorical) == 1:  # a query's categorical values, with no per-request list
            self._categories_of = lambda values, i=categorical[0]: (values[i],)
        else:  # of two or more columns a tuple; of none, ()
            self._categories_of = itemgetter(*categorical) if categorical else lambda values: ()
        self._threshold = threshold
        n = len(bucket_counts)
        self._reach = -1  # most categorical mismatches a qualifying task can have
        for m in range(len(categorical) + 1):
            bound = (n - m) / n if n else 1.0
            if not (bound > 0.0 and bound >= threshold):
                break
            self._reach = m
        self._groups: dict[tuple, list[tuple[str, tuple]]] = {}  # categories -> (key, values)
        self._groups = self.with_tasks(tasks, {})._groups

    def with_tasks(self, added: dict[str, BucketedAttributes], dropped: dict) -> "TaskIndex":
        """A new index of this one's tasks less *dropped* ({key: its values}) plus *added*,
        checked as the constructor checks its tasks; copies only the groups that change."""
        index, out, groups = object.__new__(TaskIndex), set(dropped), dict(self._groups)
        vars(index).update(vars(self), _groups=groups)
        edits: dict[tuple, list] = {self._categories_of(values): [] for values in dropped.values()}
        for key in sorted(added):
            cats = task_categories(key, added[key], self._bucket_counts)
            edits.setdefault(cats, []).append((key, added[key].values))
        for cats, members in edits.items():  # the groups that change, each a new list
            if cats in groups:  # merge in the kept members; a new group's are in key order
                members = sorted(members + [m for m in groups.pop(cats) if m[0] not in out])
            if members:  # no group is empty
                groups[cats] = members
        return index

    def nearest(self, values: tuple[str | int, ...]) -> tuple[str, float] | None:
        """(key, similarity) of the most similar task to the bucketed
        *values* whose similarity is above 0 and at least the threshold,
        ties to the smaller key; None if no task is."""
        if self._reach < 0:
            return None
        cats = self._categories_of(values)
        if self._reach == 0:
            members = self._groups.get(cats)
        else:
            members = sorted(
                member
                for group, group_members in self._groups.items()
                if sum(a != b for a, b in zip(cats, group)) <= self._reach
                for member in group_members
            )
        if not members:
            return None
        best_key, best_sim, score = None, 0.0, self._score
        for key, task_values in members:
            sim = score(values, task_values)
            if sim > best_sim:
                best_key, best_sim = key, sim
        if best_key is not None and best_sim >= self._threshold:
            return best_key, best_sim
        return None

    def best_similarity(self, values: tuple[str | int, ...]) -> float:
        """The highest similarity of any task to the bucketed *values*, 0.0
        with no tasks: what an error message reports, not a route."""
        return max((self._score(values, other) for members in self._groups.values()
                    for _, other in members), default=0.0)


@dataclass(frozen=True)
class TaskPartition:
    """Disjoint, exhaustive grouping of ``dataset`` into per-task
    sub-datasets under ``bucketing``. Mined once where a dataset enters a
    pipeline, it is what flows between the stages after that."""

    dataset: Dataset
    bucketing: BucketingConfig
    parts: dict[str, Dataset]
    attributes: dict[str, BucketedAttributes]

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def keys(self) -> list[str]:
        return sorted(self.parts)


def mine_tasks(dataset: Dataset, bucketing: BucketingConfig) -> TaskPartition:
    """Group a fully labeled dataset into tasks by bucketed attribute key."""
    if len(dataset) == 0:
        raise DataError("cannot mine tasks from an empty dataset")
    dataset.require_labeled()
    groups: dict[str, list] = {}
    attrs_by_key: dict[str, BucketedAttributes] = {}
    key_of: dict[tuple, str] = {}  # raw attributes -> key: equal raw tuples bucket alike
    bucket, counts = bucketing.bucket, bucketing.bucket_counts
    for sample in dataset.samples:
        key = key_of.get(sample.attributes)
        if key is None:
            values = bucket(sample.attributes)
            key = key_of[sample.attributes] = values_key(values)
            if key not in groups:
                groups[key] = []
                attrs_by_key[key] = BucketedAttributes(values, counts)
        groups[key].append(sample)
    parts = {key: dataset.derive(rows) for key, rows in groups.items()}
    return TaskPartition(dataset, bucketing, parts, attrs_by_key)


def as_tasks(data: Dataset | TaskPartition) -> TaskPartition:
    """The task partition of a stage's input, under its schema's bucket
    edges: a dataset is mined, a partition mined under them is returned as
    it is."""
    if isinstance(data, Dataset):
        return mine_tasks(data, BucketingConfig.from_schema(data.schema))
    if data.bucketing.edges != data.dataset.schema.attribute_edges:
        raise SchemaMismatchError("task partition was mined under another bucketing")
    return data


@dataclass(frozen=True)
class TransferResult:
    """Outcome of sample transfer: the (possibly augmented) training set and
    which donors contributed how many samples."""

    dataset: Dataset
    provenance: tuple[tuple[str, int], ...] = ()


def sample_transfer(
    target_key: str,
    partition: TaskPartition,
    min_samples: int,
    cap: int,
) -> TransferResult:
    """Top up a small task with samples borrowed from similar tasks.

    Donors are visited whole-task in descending similarity (ties by key);
    tasks with similarity 0 never donate. ``cap`` bounds the total borrowed
    sample count; a donor that would exceed it is skipped along with all
    later donors (borrowing is whole-task only).
    """
    if target_key not in partition.parts:
        raise DataError(f"unknown task key {target_key!r}")
    target = partition.parts[target_key]
    if len(target) >= min_samples:
        return TransferResult(target)

    others = {key: attrs for key, attrs in partition.attributes.items() if key != target_key}
    samples = list(target.samples)
    provenance: list[tuple[str, int]] = []
    borrowed = 0
    for key, _ in rank_similar(partition.attributes[target_key], others):
        if len(samples) >= min_samples:
            break
        part = partition.parts[key]
        if borrowed + len(part) > cap:
            break
        samples.extend(part.samples)
        borrowed += len(part)
        provenance.append((key, len(part)))

    return TransferResult(target.derive(samples), tuple(provenance))
