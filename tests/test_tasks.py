"""Bucketing, task mining, similarity, and sample transfer."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter, defaultdict

import pytest

from edgelearn.data import Dataset, DatasetSchema, Sample, load_csv, write_csv
from edgelearn.edge import EdgeRuntime
from edgelearn.errors import DataError, SchemaMismatchError
from edgelearn.kb import DeploySnapshot
from edgelearn.learners import EstimatorSpec, fit
from edgelearn.tasks import (
    BucketedAttributes,
    BucketingConfig,
    TaskIndex,
    bucket_attributes,
    mine_tasks,
    sample_transfer,
    similarity_scorer,
    task_categories,
    task_key,
    task_similarity,
    values_key,
)

from conftest import banded_schema, city_dataset, city_schema, make_samples, rank_similar


# -- bucketing -----------------------------------------------------------------

def test_bucket_value_between_edges():
    b = BucketingConfig((None, (20.0, 30.0)))
    out = bucket_attributes(("c", 25.0), b)
    assert out.values == ("c", 1)
    assert out.bucket_counts == (0, 3)


def test_bucket_edge_is_left_inclusive():
    b = BucketingConfig(((20.0, 30.0),))
    assert bucket_attributes((30.0,), b).values == (2,)
    assert bucket_attributes((20.0,), b).values == (1,)
    assert bucket_attributes((19.999,), b).values == (0,)


def test_bucket_no_edges_single_bucket():
    b = BucketingConfig(((),))
    for v in (-1e9, 0.0, 42.5, 1e9):
        assert bucket_attributes((v,), b).values == (0,)


def test_bucket_matches_counting_the_edges_at_or_below():
    edges = (-2.5, 0.0, 1.0, 3.0, 7.25)
    b = BucketingConfig((edges, ()))
    values = [*edges, -1e9, -3.0, -0.0, 0.5, 2.0, 7.0, 8.0, 1e9, -math.inf, math.inf,
              math.nan, -7, 0, 1, 5, 100, False, True]
    for v in values:
        expected = sum(1 for e in edges if e <= v)
        assert bucket_attributes((v, v), b).values == (expected, 0), v
    assert bucket_attributes((math.nan, 1.0), b).values == (0, 0)


def test_bucket_length_mismatch_rejected():
    with pytest.raises(SchemaMismatchError):
        bucket_attributes(("c",), BucketingConfig((None, (1.0,))))


def test_task_key_escapes_separator():
    a = BucketedAttributes(("x|y", "z"), (0, 0))
    b = BucketedAttributes(("x", "y|z"), (0, 0))
    assert task_key(a) != task_key(b)
    c = BucketedAttributes(("x\\", "|y"), (0, 0))
    d = BucketedAttributes(("x", "\\|y"), (0, 0))
    assert task_key(c) != task_key(d)


def test_task_key_injective_over_random_tuples(rng):
    b = BucketingConfig((None, (10.0, 20.0, 30.0)))
    seen = {}
    for _ in range(500):
        attrs = (rng.choice(["ath", "tok", "a|b", "a\\b", "x"]), rng.uniform(0, 40))
        bucketed = bucket_attributes(attrs, b)
        key = task_key(bucketed)
        if key in seen:
            assert seen[key] == bucketed.values
        seen[key] = bucketed.values


def test_bucket_values_and_values_key_match_the_dataclass_path(rng):
    b = BucketingConfig((None, (10.0, 20.0, 30.0), (), None))
    assert b.bucket_counts == (0, 4, 1, 0)
    cats = ["ath", "a|b", "a\\b", "|", "\\|", "", "x\\"]
    nums = [10.0, 20.0, 30.0, 9.5, 31.0, -math.inf, math.inf, math.nan, 0, 25, True, False]
    for _ in range(500):
        attrs = (rng.choice(cats), rng.choice(nums + [rng.uniform(0, 40)]),
                 rng.choice(nums), rng.choice(cats))
        values = b.bucket(attrs)
        assert bucket_attributes(attrs, b) == BucketedAttributes(values, b.bucket_counts)
        assert task_key(bucket_attributes(attrs, b)) == values_key(values)
    for bad in [("c", 1.0, 1.0), ("c", "1", 1.0, "d"), ("c", 1.0, 1.0, 2), (1, 1.0, 1.0, "d")]:
        errors = []
        for bucket in (lambda a: bucket_attributes(a, b), b.bucket):
            with pytest.raises((DataError, SchemaMismatchError)) as caught:
                bucket(bad)
            errors.append((caught.type, str(caught.value)))
        assert errors[0] == errors[1]


def oracle_bucket_values(attrs, bucketing):
    """The bucketing written out column by column, reading the config on every call."""
    if len(attrs) != len(bucketing.edges):
        raise SchemaMismatchError(
            f"expected {len(bucketing.edges)} attributes, got {len(attrs)}"
        )
    values = []
    for v, col_edges in zip(attrs, bucketing.edges):
        if col_edges is None:
            if not isinstance(v, str):
                raise DataError(f"categorical attribute needs a string, got {v!r}")
            values.append(v)
        else:
            if isinstance(v, str):
                raise DataError(f"numeric attribute needs a number, got {v!r}")
            values.append(bisect_right(col_edges, v) if v == v else 0)
    return tuple(values)


def outcome(bucket, attrs):
    """The values *bucket* gives *attrs*, each with its type, or its exception's type and text."""
    try:
        values = bucket(attrs)
    except Exception as exc:  # whatever it raises, the oracle must raise too
        return type(exc), str(exc)
    return tuple((v, type(v)) for v in values)


def attribute_schema(edges) -> DatasetSchema:
    """One feature and an attribute column per entry of *edges*."""
    return DatasetSchema(feature_columns=("x",), label_column="y", label_classes=("a", "b"),
                         attribute_columns=tuple(f"c{i}" for i in range(len(edges))),
                         attribute_edges=tuple(edges))


def unchecked_dataset(schema, attribute_tuples) -> Dataset:
    """One labeled row per attribute tuple, built without the schema's checks."""
    return Dataset(schema).derive(Sample((float(i),), attrs, "ab"[i % 2])
                                  for i, attrs in enumerate(attribute_tuples))


def test_the_bucketing_plan_gives_the_column_by_column_values_and_errors(rng):
    b = BucketingConfig((None, (10.0, 20.0, 30.0), (), None))
    schema = attribute_schema(b.edges)
    cats = ["ath", "a|b", "a\\b", "|", "\\|", "", "x\\", type("Tag", (str,), {})("t|g")]
    nums = [10.0, 20.0, 30.0, 9.5, 31.0, -math.inf, math.inf, math.nan, 0, -0.0, 25, True, False]

    def pools(edges):
        """A column's well-typed values and its badly typed ones."""
        return (cats, [1, 1.0, math.nan, True, None, b"ath"]) if edges is None else (
            nums, ["1", "", "a|b"])

    tuples = []
    for _ in range(400):  # mostly well typed, some columns of the other kind
        tuples.append(tuple(rng.choice(fine + bad if rng.random() < 0.15 else fine)
                            for fine, bad in map(pools, b.edges)))
    good = ("ath", 25, 1.0, "|")
    for n in (0, 1, 3, 5):  # wrong lengths, with and without bad columns
        tuples += [good[:n] + ("x",) * (n - 4), (1,) * n]
    for width in (1, 2):  # a bad value in each column, and in each pair of columns
        for columns in itertools.combinations(range(4), width):
            for pick in range(3):
                attrs = list(good)
                for i in columns:
                    bad = pools(b.edges[i])[1]
                    attrs[i] = bad[pick % len(bad)]
                tuples.append(tuple(attrs))

    fallback = fit(EstimatorSpec("majority"), Dataset(schema, (Sample((0.0,), good, "a"),)), 0)
    runtime = EdgeRuntime(schema, b)
    runtime.apply_snapshot(DeploySnapshot(1, fallback.schema_fingerprint, {}, fallback))
    failures = 0
    for attrs in tuples:
        expected = outcome(lambda a: oracle_bucket_values(a, b), attrs)
        assert outcome(b.bucket, attrs) == expected, attrs
        assert outcome(lambda a: bucket_attributes(a, b).values, attrs) == expected, attrs
        mined = outcome(lambda a: next(iter(mine_tasks(unchecked_dataset(schema, [a]), b)
                                            .attributes.values())).values, attrs)
        assert mined == expected, attrs
        before = runtime.status()
        served = outcome(lambda a: runtime.infer(Sample((0.5,), a)), attrs)
        if isinstance(expected[0], type):  # an error: same type and text, no counter moved
            failures += 1
            assert served == expected and runtime.status() == before, attrs
        else:
            key = values_key(tuple(v for v, _ in expected))
            assert runtime.status()["unknown_demand"][key] == before["unknown_demand"].get(key, 0) + 1
            assert runtime.status()["counters"]["inferences"] == before["counters"]["inferences"] + 1
    assert 60 < failures < len(tuples) - 200  # both outcomes are well covered


# -- mining ----------------------------------------------------------------------

def test_mine_tasks_groups_by_city():
    ds = city_dataset(
        [(1, "athens", "a"), (2, "athens", "b"), (3, "athens", "a"),
         (4, "tokyo", "a"), (5, "tokyo", "b")]
    )
    partition = mine_tasks(ds, BucketingConfig((None,)))
    sizes = {key: len(part) for key, part in partition.parts.items()}
    assert sizes == {"athens": 3, "tokyo": 2}


def test_mine_tasks_identical_attributes_single_task():
    ds = city_dataset([(i, "same", "a") for i in range(5)])
    partition = mine_tasks(ds, BucketingConfig((None,)))
    assert len(partition) == 1


def test_mine_tasks_rejects_unlabeled():
    ds = Dataset(city_schema(), make_samples([((1.0,), ("c",), None)]))
    with pytest.raises(DataError, match="no label"):
        mine_tasks(ds, BucketingConfig((None,)))


def test_mine_tasks_matches_brute_force_grouping(rng):
    schema = banded_schema()
    rows = [
        ((rng.random(),), (rng.choice(["p", "q", "r"]), rng.uniform(0, 50)), rng.choice("ab"))
        for _ in range(100)
    ]
    ds = Dataset(schema, make_samples(rows))
    bucketing = BucketingConfig.from_schema(schema)
    partition = mine_tasks(ds, bucketing)

    # independent grouping oracle: bucket by direct comparison against edges
    def oracle_group(sample):
        city, band = sample.attributes
        if band < 20.0:
            idx = 0
        elif band < 30.0:
            idx = 1
        else:
            idx = 2
        return (city, idx)

    expected = defaultdict(list)
    for s in ds.samples:
        expected[oracle_group(s)].append(s)

    assert sum(len(p) for p in partition.parts.values()) == 100
    actual_groups = Counter(
        tuple(sorted((s.features, s.label) for s in part.samples))
        for part in partition.parts.values()
    )
    expected_groups = Counter(
        tuple(sorted((s.features, s.label) for s in group))
        for group in expected.values()
    )
    assert actual_groups == expected_groups


@pytest.mark.parametrize("edges", [
    (),                                   # zero attributes: one implicit task
    (None,),
    ((),),                                # B = 1: every number is bucket 0
    (None, (10.0, 20.0, 30.0)),
    ((0.0, 1.0), None, ()),
    ((-1.0, 0.0, 1.0), (2.0,), None, None),
])
def test_mine_tasks_gives_the_per_row_partition(rng, edges, tmp_path):
    # equal raw values as other objects (1 and 1.0, 0.0 and -0.0, an edge as int and float),
    # several raw tuples per bucket, and many rows per raw tuple
    numbers = [1, 1.0, 0.0, -0.0, 0, 10, 10.0, 15.5, 12, -1, -1.0, 0.5, 2, 2.0, 35.0, 1e9]
    strings = ["p", "q", "p|q", "p\\", "\\|"]
    raw = [tuple(rng.choice(strings) if e is None else rng.choice(numbers) for e in edges)
           for _ in range(12)]
    schema = attribute_schema(edges)
    b = BucketingConfig.from_schema(schema)
    for n in (1, 7, 200):
        dataset = Dataset(schema, make_samples(
            ((rng.random(),), rng.choice(raw), rng.choice("ab")) for _ in range(n)))
        groups, attributes = {}, {}
        for sample in dataset.samples:  # the oracle: bucket every row
            values = oracle_bucket_values(sample.attributes, b)
            groups.setdefault(values_key(values), []).append(sample)
            attributes.setdefault(values_key(values), values)
        partition = mine_tasks(dataset, b)
        assert list(partition.parts) == list(groups)  # keys in order of first occurrence
        for key, rows in groups.items():
            assert len(partition.parts[key]) == len(rows)
            assert all(x is y for x, y in zip(partition.parts[key].samples, rows))
            got = partition.attributes[key]
            assert got.bucket_counts == b.bucket_counts
            assert [(v, type(v)) for v in got.values] == [(v, type(v)) for v in attributes[key]]
        # what a loaded file mines is what the store gate and the unchecked scorer accept
        write_csv(dataset, tmp_path / "rows.csv")
        loaded = mine_tasks(load_csv(tmp_path / "rows.csv", schema), b)
        assert set(loaded.parts) == set(groups)
        for key, attrs in loaded.attributes.items():
            task_categories(key, attrs, b.bucket_counts)


def test_mine_tasks_idempotent_on_parts(rng):
    schema = banded_schema()
    rows = [
        ((rng.random(),), (rng.choice(["p", "q"]), rng.uniform(0, 50)), rng.choice("ab"))
        for _ in range(60)
    ]
    ds = Dataset(schema, make_samples(rows))
    bucketing = BucketingConfig.from_schema(schema)
    for part in mine_tasks(ds, bucketing).parts.values():
        assert len(mine_tasks(part, bucketing)) == 1


def test_partition_conservation(rng):
    for trial in range(10):
        ds = city_dataset(
            [(rng.random(), rng.choice("xyz"), rng.choice("ab")) for _ in range(rng.randint(1, 80))]
        )
        partition = mine_tasks(ds, BucketingConfig((None,)))
        assert sum(len(p) for p in partition.parts.values()) == len(ds)
        assert all(len(p) > 0 for p in partition.parts.values())


# -- similarity ---------------------------------------------------------------------

def test_similarity_identity():
    a = BucketedAttributes(("c", 2), (0, 4))
    assert task_similarity(a, a) == 1.0


def test_similarity_categorical_mismatch_zero():
    a = BucketedAttributes(("athens",), (0,))
    b = BucketedAttributes(("tokyo",), (0,))
    assert task_similarity(a, b) == 0.0


def test_similarity_hand_computed_mixed_case():
    # categorical equal (1) + buckets 0 vs 2 of B=3 (score 0) -> mean 0.5
    a = BucketedAttributes(("c", 0), (0, 3))
    b = BucketedAttributes(("c", 2), (0, 3))
    assert task_similarity(a, b) == 0.5


def test_similarity_single_bucket_counts_as_equal():
    a = BucketedAttributes((0,), (1,))
    b = BucketedAttributes((0,), (1,))
    assert task_similarity(a, b) == 1.0


def test_similarity_empty_attributes_is_one():
    a = BucketedAttributes((), ())
    assert task_similarity(a, a) == 1.0


def test_similarity_symmetric_and_bounded(rng):
    for _ in range(200):
        counts = (0, rng.choice([1, 2, 3, 5]))
        a = BucketedAttributes((rng.choice("pq"), rng.randrange(counts[1])), counts)
        b = BucketedAttributes((rng.choice("pq"), rng.randrange(counts[1])), counts)
        sab = task_similarity(a, b)
        assert sab == task_similarity(b, a)
        assert 0.0 <= sab <= 1.0
        if a.values == b.values:
            assert sab == 1.0
        else:
            assert sab < 1.0


def test_similarity_schema_mismatch_rejected():
    a = BucketedAttributes(("c",), (0,))
    for b in (BucketedAttributes(("c", 1), (0, 2)), BucketedAttributes((0,), (1,))):
        with pytest.raises(SchemaMismatchError, match="different schemas"):
            task_similarity(a, b)
    with pytest.raises(SchemaMismatchError, match="mixed categorical/numeric"):
        task_similarity(a, BucketedAttributes((1,), (0,)))
    with pytest.raises(SchemaMismatchError, match="mixed categorical/numeric"):  # over a bad bucket
        task_similarity(BucketedAttributes(("c", 5), (0, 3)), BucketedAttributes((1, 2), (0, 3)))
    # a numeric value task_categories refuses of a task, on either side
    ok = BucketedAttributes(("c", 2), (0, 3))
    for value in (1.0, True, "1", -1, 3):
        odd = BucketedAttributes(("c", value), (0, 3))
        for x, y in ((ok, odd), (odd, ok)):
            with pytest.raises(SchemaMismatchError, match="not both bucketed under"):
                task_similarity(x, y)


def _reference_similarity(a, b):
    """task_similarity as one loop over the columns: the float operations, in
    their order, that similarity_scorer must repeat."""
    if not a.values:
        return 1.0
    total = 0.0
    for va, vb, count in zip(a.values, b.values, a.bucket_counts):
        if count == 0:
            total += 1.0 if va == vb else 0.0
        elif count == 1:
            total += 1.0
        else:
            total += max(0.0, 1.0 - abs(int(va) - int(vb)) / (count - 1))
    return total / len(a.values)


def test_values_similarity_is_task_similarity_bit_for_bit(rng):
    seen = Counter()
    for _ in range(3000):
        counts = tuple(rng.choice((0, 0, 1, 2, 3, 5, 7)) for _ in range(rng.randint(0, 5)))

        def values(end=None):  # end 0 or 1: each numeric column at that end of its range
            return tuple(rng.choice("pqr") if c == 0 else rng.randrange(c) if end is None
                         else end * (c - 1) for c in counts)

        ends = rng.choice(((None, None), (0, 1), (1, 0)))  # (0, 1): every distance is B - 1
        a, b = (BucketedAttributes(values(end), counts) for end in ends)
        expected = _reference_similarity(a, b).hex()
        assert task_similarity(a, b).hex() == expected, (a, b)
        assert similarity_scorer(counts)(a.values, b.values).hex() == expected, (a, b)
        assert TaskIndex({}, counts, 0.5)._score(a.values, b.values).hex() == expected, (a, b)
        kinds = {0: "categorical", 1: "single-bucket"}
        seen.update([kinds.get(count, "numeric") for count in counts] or ["zero-attribute"])
    assert set(seen) == {"categorical", "single-bucket", "numeric", "zero-attribute"}


@pytest.mark.parametrize("counts", [(3, 4), (), (0, 3), (3, 0), (0, 0, 2), (0, 2, 0, 0), (1, 0, 3)])
def test_task_index_nearest_is_a_scan_at_any_number_of_categorical_columns(counts, rng):
    def values():
        return tuple(rng.choice("pqr") if c == 0 else rng.randrange(c) for c in counts)

    tasks = {}
    for _ in range(8):
        attrs = BucketedAttributes(values(), counts)
        tasks[task_key(attrs)] = attrs
    for threshold in (0.0, 0.5, 0.75, 1.0):
        index = TaskIndex(tasks, counts, threshold)
        for _ in range(30):
            query = values()
            ranked = [(key, sim) for key, sim in rank_similar(BucketedAttributes(query, counts),
                                                               tasks) if sim >= threshold]
            nearest = index.nearest(query)
            assert nearest == (ranked[0] if ranked else None), (query, threshold)
            reference = {key: _reference_similarity(BucketedAttributes(query, counts), attrs)
                         for key, attrs in tasks.items()}
            if nearest is not None:
                assert nearest[1].hex() == reference[nearest[0]].hex()
            assert index.best_similarity(query).hex() == max(reference.values()).hex()


@pytest.mark.parametrize("counts", [(), (1,), (0,), (1, 0), (0, 3), (3, 0, 1), (0, 0, 2)])
def test_task_index_with_tasks_is_the_index_of_the_changed_set(counts, rng):
    # zero-attribute schemas, single-bucket columns and groups left empty
    def values():
        return tuple(rng.choice("pqr") if c == 0 else rng.randrange(c) for c in counts)

    universe = {}
    for _ in range(12):
        attrs = BucketedAttributes(values(), counts)
        universe[task_key(attrs)] = attrs
    emptied = 0
    for threshold in (0.5, 1.0):
        for _ in range(40):
            before = {key: a for key, a in universe.items() if rng.random() < 0.5}
            after = {key: a for key, a in universe.items() if rng.random() < 0.5}
            # a key both sides hold is kept, or re-mined as an equal new object
            added = {key: BucketedAttributes(a.values, counts) for key, a in after.items()
                     if key not in before or rng.random() < 0.3}
            dropped = {key: a.values for key, a in before.items()
                       if key not in after or key in added}
            index = TaskIndex(before, counts, threshold)
            groups = {cats: list(members) for cats, members in index._groups.items()}
            changed = index.with_tasks(added, dropped)
            fresh = TaskIndex(after, counts, threshold)
            assert changed._groups == fresh._groups, (before, after)
            assert index._groups == groups  # the old index is left as it was
            emptied += bool(index._groups.keys() - changed._groups.keys())
            for _ in range(10):
                query = values()
                assert changed.nearest(query) == fresh.nearest(query)
                assert changed.best_similarity(query) == fresh.best_similarity(query)
    assert emptied > 0 or len(universe) == 1


def test_task_index_with_tasks_refuses_what_the_constructor_refuses():
    counts = (0, 4)
    index = TaskIndex({"p|1": BucketedAttributes(("p", 1), counts)}, counts, 0.75)
    groups = dict(index._groups)
    for key, attrs in (("q|9", BucketedAttributes(("q", 9), counts)),
                       ("q|1", BucketedAttributes(("q", True), counts)),
                       ("p|2", BucketedAttributes(("p", 1), counts))):
        with pytest.raises(SchemaMismatchError) as fresh:
            TaskIndex({key: attrs}, counts, 0.75)
        with pytest.raises(SchemaMismatchError) as changed:
            index.with_tasks({key: attrs}, {})
        assert str(changed.value) == str(fresh.value)
        assert index._groups == groups


# -- sample transfer -----------------------------------------------------------------

def _banded_partition(rows):
    schema = banded_schema()
    ds = Dataset(schema, make_samples(rows))
    return mine_tasks(ds, BucketingConfig.from_schema(schema))


def test_transfer_not_triggered_above_threshold():
    rows = [((float(i),), ("p", 5.0), "a") for i in range(50)]
    partition = _banded_partition(rows)
    key = next(iter(partition.parts))
    result = sample_transfer(key, partition, min_samples=20, cap=100)
    assert len(result.dataset) == 50
    assert result.provenance == ()
    assert len(result.dataset) >= 20


def test_transfer_borrows_whole_similar_task():
    # target: ("p", bucket 0) x3; donor ("p", bucket 1) x10, similarity 0.75
    rows = [((float(i),), ("p", 5.0), "a") for i in range(3)]
    rows += [((float(i),), ("p", 25.0), "b") for i in range(10)]
    partition = _banded_partition(rows)
    target_key = task_key(bucket_attributes(("p", 5.0), BucketingConfig((None, (20.0, 30.0)))))
    result = sample_transfer(target_key, partition, min_samples=10, cap=100)
    assert len(result.dataset) == 13
    assert len(result.provenance) == 1
    donor_key, count = result.provenance[0]
    assert count == 10 and donor_key != target_key
    assert len(result.dataset) >= 10


def test_transfer_never_borrows_zero_similarity():
    rows = [((1.0,), ("p", 5.0), "a")] * 3
    rows += [((2.0,), ("q", 45.0), "b")] * 10  # different city AND far bucket -> 0
    partition = _banded_partition(rows)
    target_key = task_key(bucket_attributes(("p", 5.0), BucketingConfig((None, (20.0, 30.0)))))
    result = sample_transfer(target_key, partition, min_samples=10, cap=100)
    assert len(result.dataset) == 3
    assert result.provenance == ()
    assert len(result.dataset) < 10


def test_transfer_stops_at_cap():
    rows = [((float(i),), ("p", 5.0), "a") for i in range(3)]
    rows += [((float(i),), ("p", 25.0), "b") for i in range(10)]
    partition = _banded_partition(rows)
    target_key = task_key(bucket_attributes(("p", 5.0), BucketingConfig((None, (20.0, 30.0)))))
    result = sample_transfer(target_key, partition, min_samples=10, cap=5)
    assert len(result.dataset) == 3  # whole-task borrowing cannot exceed the cap
    assert len(result.dataset) < 10


def test_transfer_prefers_more_similar_donors():
    # donors at buckets 1 (sim 0.75) and 3 (sim 0.25) of B=5; closest first
    edges = (10.0, 20.0, 30.0, 40.0)
    schema = banded_schema(edges)
    rows = [((1.0,), ("p", 5.0), "a")] * 2
    rows += [((2.0,), ("p", 15.0), "b")] * 4
    rows += [((3.0,), ("p", 35.0), "b")] * 4
    ds = Dataset(schema, make_samples(rows))
    partition = mine_tasks(ds, BucketingConfig.from_schema(schema))
    target_key = task_key(bucket_attributes(("p", 5.0), BucketingConfig((None, edges))))
    result = sample_transfer(target_key, partition, min_samples=6, cap=100)
    assert len(result.dataset) == 6
    assert len(result.provenance) == 1
    donor_key, _ = result.provenance[0]
    assert "1" in donor_key.split("|")[1]


def test_transfer_does_not_mutate_donors_or_duplicate(rng):
    rows = [((rng.random(),), (c, 5.0), rng.choice("ab")) for c in "ppp"]
    rows += [((rng.random(),), ("p", 25.0), "b") for _ in range(8)]
    partition = _banded_partition(rows)
    sizes_before = {k: len(p) for k, p in partition.parts.items()}
    target_key = task_key(bucket_attributes(("p", 5.0), BucketingConfig((None, (20.0, 30.0)))))
    result = sample_transfer(target_key, partition, min_samples=10, cap=100)
    assert {k: len(p) for k, p in partition.parts.items()} == sizes_before
    seen = Counter(id(s) for s in result.dataset.samples)
    assert all(count == 1 for count in seen.values())


def test_transfer_unknown_key_rejected():
    partition = _banded_partition([((1.0,), ("p", 5.0), "a")])
    with pytest.raises(DataError, match="unknown task key"):
        sample_transfer("nope", partition, 5, 10)


def _oracle_transfer(target_key, partition, min_samples, cap):
    """The provenance of a transfer to *target_key*, from :func:`rank_similar`'s ranking
    of every other task cut at the two stop rules, and which rule stopped it."""
    size = len(partition.parts[target_key])
    if size >= min_samples:
        return (), "no transfer"
    others = {key: attrs for key, attrs in partition.attributes.items() if key != target_key}
    provenance = []
    for key, _ in rank_similar(partition.attributes[target_key], others):
        if size >= min_samples:
            return tuple(provenance), "min_samples"
        if sum(n for _, n in provenance) + len(partition.parts[key]) > cap:
            return tuple(provenance), "cap"
        provenance.append((key, len(partition.parts[key])))
        size += len(partition.parts[key])
    return tuple(provenance), "donors exhausted"


def test_transfer_donors_are_the_oracle_ranking_cut_at_its_stop_rules(rng):
    # zero-attribute schemas, B = 1 columns, several categorical columns; few raw values
    # per column, so many donors tie on similarity and the smaller key must go first
    numbers = (0.0, 7.0, 12.0, 18.0, 25.0)
    seen = Counter()
    for edges in [(), ((),), (None,), (None, None, (10.0,)), ((), None, (5.0, 10.0, 20.0)),
                  (None, None, None), ((5.0, 15.0), (10.0,), ())]:
        schema = attribute_schema(edges)
        bucketing = BucketingConfig.from_schema(schema)
        for _ in range(25):
            raw = [tuple(rng.choice("pqr") if e is None else rng.choice(numbers) for e in edges)
                   for _ in range(rng.randint(1, 12))]
            rows = [((rng.random(),), rng.choice(raw), rng.choice("ab"))
                    for _ in range(rng.randint(1, 60))]
            partition = mine_tasks(Dataset(schema, make_samples(rows)), bucketing)
            for key in partition.keys:
                min_samples, cap = rng.randint(1, 40), rng.randint(0, 40)
                expected, stop = _oracle_transfer(key, partition, min_samples, cap)
                result = sample_transfer(key, partition, min_samples, cap)
                assert result.provenance == expected, (edges, key, min_samples, cap)
                donated = [s for donor, _ in expected for s in partition.parts[donor].samples]
                assert result.dataset.samples == partition.parts[key].samples + tuple(donated)
                sims = [task_similarity(partition.attributes[key], partition.attributes[donor])
                        for donor, _ in expected]
                seen.update([stop] + ["tie"] * sum(a == b for a, b in zip(sims, sims[1:])))
    assert {"min_samples", "cap", "donors exhausted", "no transfer", "tie"} <= set(seen), seen
