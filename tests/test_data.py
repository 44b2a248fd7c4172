"""Schema, dataset, CSV, and split behavior."""

from __future__ import annotations

import csv
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from edgelearn import data
from edgelearn.bench import baseline_incremental
from edgelearn.data import (
    Dataset,
    DatasetSchema,
    Sample,
    load_csv,
    parse_schema,
    schema_to_json,
    split_dataset,
    write_csv,
)
from edgelearn.edge import EdgeRuntime
from edgelearn.errors import DataError, SchemaError
from edgelearn.job import holdout_split
from edgelearn.learners import EstimatorSpec
from edgelearn.reference import reference_text
from edgelearn.tasks import BucketingConfig, mine_tasks, sample_transfer

from conftest import banded_schema, city_dataset, city_schema, make_samples


THERMAL_CONFIG = """
{
  "features": ["temp", "humidity"],
  "label": {"name": "preference", "classes": ["cooler", "nochange", "warmer"]},
  "attributes": [{"name": "city", "kind": "categorical"}]
}
"""


def test_parse_schema_thermal_case():
    schema = parse_schema(THERMAL_CONFIG)
    assert schema.feature_columns == ("temp", "humidity")
    assert schema.label_classes == ("cooler", "nochange", "warmer")
    assert schema.attribute_columns == ("city",)


def test_parse_schema_zero_attributes_is_valid():
    schema = parse_schema(
        '{"features": ["x"], "label": {"name": "y", "classes": ["a", "b"]}}'
    )
    assert schema.n_attributes == 0


def test_parse_schema_duplicate_class_rejected():
    with pytest.raises(SchemaError, match="duplicate class.*y"):
        parse_schema('{"features": ["x"], "label": {"name": "y", "classes": ["a", "a"]}}')


def test_parse_schema_empty_class_name_rejected():
    # an empty label cell reads as unlabeled, so a class "" could not round-trip a CSV
    with pytest.raises(SchemaError, match="empty class name in label column 'y'"):
        parse_schema('{"features": ["x"], "label": {"name": "y", "classes": ["", "a"]}}')


def test_parse_schema_duplicate_column_rejected():
    with pytest.raises(SchemaError, match="duplicate column.*'x'"):
        parse_schema('{"features": ["x"], "label": {"name": "x", "classes": ["a", "b"]}}')


def test_parse_schema_empty_class_list_rejected():
    with pytest.raises(SchemaError, match="empty class list.*'y'"):
        parse_schema('{"features": ["x"], "label": {"name": "y", "classes": []}}')


@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_parse_schema_label_with_classes_and_a_kind_rejected(kind):
    text = ('{"features": ["x"], "label": {"name": "y", "classes": ["a", "b"], '
            f'"kind": "{kind}"}}}}')
    with pytest.raises(SchemaError, match=f"label 'y': only classification labels .* "
                                          f"supported, got kind '{kind}'"):
        parse_schema(text)


def test_parse_schema_non_increasing_edges_rejected():
    text = (
        '{"features": ["x"], "label": {"name": "y", "classes": ["a", "b"]},'
        ' "attributes": [{"name": "band", "kind": "numeric", "edges": [30, 20]}]}'
    )
    with pytest.raises(SchemaError, match="'band'.*strictly increasing"):
        parse_schema(text)


def test_parse_schema_regression():
    with pytest.raises(SchemaError, match=r"label 'y': only classification labels \(a "
                                          r"'classes' list\) are supported"):
        parse_schema('{"features": ["x"], "label": {"name": "y", "kind": "regression"}}')


def test_schema_json_round_trip():
    schema = parse_schema(THERMAL_CONFIG)
    assert parse_schema(schema_to_json(schema)) == schema


@pytest.mark.parametrize("entry, outcome", [
    # outcome: the column's attribute_edges, or the error after "attribute 'band': "
    ({"kind": "ordinal"}, "unknown attribute kind 'ordinal'"),
    ({"kind": "categorical", "edges": [10]}, "categorical attribute cannot declare bucket edges"),
    ({"kind": "categorical", "edges": []}, None),
    ({"kind": "categorical"}, None),
    ({"kind": "numeric"}, ()),
    ({"kind": "numeric", "edges": "10,20"}, "bucket edges must be a list, got '10,20'"),
    ({"kind": "numeric", "edges": [10, 1e999]}, "bucket edges: inf is not a finite number"),
    ({"kind": "numeric", "edges": [20, 10]}, "bucket edges [20, 10] are not strictly increasing"),
    ({"kind": "numeric", "edges": [10, 20.5]}, (10.0, 20.5)),
    # bad edges are named before an unknown kind or a categorical column with edges
    ({"kind": "ordinal", "edges": [20, 10]}, "bucket edges [20, 10] are not strictly increasing"),
    ({"kind": "categorical", "edges": 10}, "bucket edges must be a list, got 10"),
    # an explicit null is not a list: it never reads as a categorical column
    ({"kind": "numeric", "edges": None}, "bucket edges must be a list, got None"),
    ({"kind": "categorical", "edges": None}, "bucket edges must be a list, got None"),
    ({"kind": "ordinal", "edges": None}, "bucket edges must be a list, got None"),
], ids=["unknown-kind", "categorical-with-edges", "categorical-empty-edges", "categorical",
        "numeric-no-edges", "non-list-edges", "non-finite-edge", "non-increasing-edges",
        "int-edges-to-floats", "bad-edges-before-unknown-kind", "bad-edges-before-categorical",
        "numeric-null-edges", "categorical-null-edges", "unknown-kind-null-edges"])
def test_parse_schema_and_the_schema_check_each_attribute_column_alike(entry, outcome):
    text = json.dumps({"features": ["x"], "label": {"name": "y", "classes": ["a", "b"]},
                       "attributes": [{"name": "band", **entry}]})
    builds = [lambda: parse_schema(text)]
    if entry.get("edges", []) is not None and (entry["kind"] == "numeric" or outcome is None):
        # the cases edges-or-None can hold
        edges = entry.get("edges", []) if entry["kind"] == "numeric" else None
        builds.append(lambda: DatasetSchema(("x",), "y", ("a", "b"), ("band",), (edges,)))
    for build in builds:
        if isinstance(outcome, str):
            with pytest.raises(SchemaError, match=f"^attribute 'band': {re.escape(outcome)}$"):
                build()
        else:
            built = build().attribute_edges
            assert built == (outcome,) and repr(built) == repr((outcome,))  # floats, not ints


@pytest.mark.parametrize("second, fault", [
    ({"name": "site", "kind": "ordinal"}, r"^attribute 'band': bucket edges \[2, 1\]"),
    # a later column that is not an attribute object is named first: a numeric
    # column's edges are checked when the schema is built, after every entry is read
    ({"name": "site"}, r"^attribute: missing key 'kind'$"),
], ids=["bad-kind", "bad-object"])
def test_parse_schema_names_the_first_column_at_fault(second, fault):
    text = json.dumps({"features": ["x"], "label": {"name": "y", "classes": ["a", "b"]},
                       "attributes": [{"name": "band", "kind": "numeric", "edges": [2, 1]},
                                      second]})
    with pytest.raises(SchemaError, match=fault):
        parse_schema(text)


def test_schema_to_json_writes_edges_as_floats_and_categorical_columns_without_edges():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    schema = parse_schema(re.findall(r"```json\n(.*?)```", text, re.DOTALL)[1])
    assert schema_to_json(schema) == json.dumps({
        "features": ["air_temp", "humidity"],
        "label": {"name": "preference", "classes": ["warmer", "nochange", "cooler"]},
        "attributes": [{"name": "site", "kind": "categorical"},
                       {"name": "outdoor_band", "kind": "numeric", "edges": [10.0, 20.0, 30.0]}],
    }, indent=2, sort_keys=True)
    thermal = parse_schema(reference_text("thermal_schema.json"))
    assert schema_to_json(thermal) == json.dumps({
        "features": ["air_temp", "humidity"],
        "label": {"name": "preference", "classes": ["warmer", "nochange", "cooler"]},
        "attributes": [{"name": "site", "kind": "categorical"}],
    }, indent=2, sort_keys=True)


def test_schema_fingerprint_covers_features_and_label_only():
    a = city_schema()
    b = DatasetSchema(
        feature_columns=("x",),
        label_column="y",
        label_classes=("a", "b"),
        attribute_columns=("site",),
        attribute_edges=(None,),
    )
    c = DatasetSchema(feature_columns=("x2",), label_column="y", label_classes=("a", "b"))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# -- sample/dataset validation ------------------------------------------------

def test_dataset_rejects_nan_feature():
    with pytest.raises(DataError, match="sample 0"):
        Dataset(city_schema(), make_samples([((float("nan"),), ("c",), "a")]))


def test_dataset_rejects_wrong_feature_count():
    with pytest.raises(DataError, match="expected 1 features"):
        Dataset(city_schema(), make_samples([((1.0, 2.0), ("c",), "a")]))


def test_dataset_rejects_unknown_class():
    with pytest.raises(DataError, match="unknown class label"):
        Dataset(city_schema(), make_samples([((1.0,), ("c",), "zzz")]))


def test_dataset_rejects_empty_categorical():
    with pytest.raises(DataError, match="non-empty string"):
        Dataset(city_schema(), make_samples([((1.0,), ("",), "a")]))


def test_dataset_fuzz_rejects_invariant_violations(rng):
    schema = city_schema()
    bad_candidates = [
        Sample((float("inf"),), ("c",), "a"),
        Sample((1.0,), (), "a"),
        Sample((1.0,), ("c", "d"), "a"),
        Sample((1.0,), (3.5,), "a"),
        Sample((1.0,), ("c",), "nope"),
        Sample((), ("c",), "a"),
    ]
    for sample in bad_candidates:
        with pytest.raises(DataError):
            Dataset(schema, (sample,))


def test_derived_dataset_equals_and_hashes_like_a_constructed_one():
    ds = city_dataset([(1.0, "athens", "a"), (2.0, "tokyo", "b"), (3.0, "oslo", None)])
    derived = ds.derive(s for s in ds.samples[1:])
    built = Dataset(ds.schema, ds.samples[1:])
    assert derived == built
    assert hash(derived) == hash(built)
    assert derived.schema is ds.schema and derived.samples == ds.samples[1:]


# -- validate once -----------------------------------------------------------------

@pytest.fixture
def validate_calls(monkeypatch) -> list[Sample]:
    """Records every sample checked from now on: each one that
    DatasetSchema.validate_sample checks, and each row that load_csv checks
    a column at a time."""
    calls: list[Sample] = []
    real = DatasetSchema.validate_sample
    real_by_column = data._samples_by_column

    def counting(schema, sample):
        calls.append(sample)
        real(schema, sample)

    def counting_by_column(schema, cells, rows):
        samples = real_by_column(schema, cells, rows)
        calls.extend(samples or ())
        return samples

    monkeypatch.setattr(DatasetSchema, "validate_sample", counting)
    monkeypatch.setattr(data, "_samples_by_column", counting_by_column)
    return calls


def test_each_sample_is_checked_once_where_it_enters(tmp_path, validate_calls):
    schema = banded_schema()
    rows = [((float(i),), ("athens", 10.0), "ab"[i % 2]) for i in range(12)]
    rows += [((float(i),), ("athens", 25.0), "ab"[i % 2]) for i in range(3)]
    built = Dataset(schema, make_samples(rows))
    assert len(validate_calls) == 15
    path = tmp_path / "banded.csv"
    write_csv(built, path)
    validate_calls.clear()
    ds = load_csv(path, schema)
    assert ds == built and len(validate_calls) == 15

    validate_calls.clear()
    bucketing = BucketingConfig.from_schema(schema)
    split_dataset(ds, 0.7, seed=0)
    partition = mine_tasks(ds, bucketing)
    assert partition.keys == ["athens|0", "athens|1"]
    transfer = sample_transfer("athens|1", partition, min_samples=10, cap=100)
    assert transfer.provenance == (("athens|0", 12),)
    holdout_split(partition, 0)
    stream = [(key, partition.parts[key], partition.parts[key]) for key in partition.keys]
    baseline_incremental(stream, EstimatorSpec("majority"), 0)
    assert validate_calls == []

    runtime = EdgeRuntime(schema, bucketing)
    assert runtime.ingest_feedback(list(ds.samples)).accepted == 15
    assert len(validate_calls) == 15


# -- CSV ------------------------------------------------------------------------

def _write(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_three_rows(tmp_path):
    path = _write(tmp_path, "x,y,city\n1.0,a,athens\n2.0,b,tokyo\n3.5,a,athens\n")
    ds = load_csv(path, city_schema())
    assert len(ds) == 3
    assert ds.samples[1].label == "b"
    assert ds.samples[2].features == (3.5,)


def test_load_csv_header_order_not_position(tmp_path):
    path = _write(tmp_path, "city,y,x\nathens,a,1.0\n")
    ds = load_csv(path, city_schema())
    assert ds.samples[0].features == (1.0,)
    assert ds.samples[0].attributes == ("athens",)


def test_load_csv_empty_label_is_absent(tmp_path):
    path = _write(tmp_path, "x,y,city\n1.0,a,athens\n2.0,,tokyo\n")
    ds = load_csv(path, city_schema())
    assert ds.samples[0].label == "a"
    assert ds.samples[1].label is None


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "x,y\n1.0,a\n")
    with pytest.raises(DataError, match="missing column 'city'"):
        load_csv(path, city_schema())


def test_load_csv_unparseable_numeric_reports_row(tmp_path):
    path = _write(tmp_path, "x,y,city\n1.0,a,athens\nfoo,b,tokyo\n")
    with pytest.raises(DataError, match="row 2.*'foo'"):
        load_csv(path, city_schema())


def test_load_csv_unknown_class_reports_row(tmp_path):
    path = _write(tmp_path, "x,y,city\n1.0,zzz,athens\n")
    with pytest.raises(DataError, match="row 1.*unknown class label"):
        load_csv(path, city_schema())


@pytest.mark.parametrize("x, band", [
    ("nan", "10"), ("inf", "10"), ("1.0", "nan"), ("1.0", "-inf"),
])
def test_load_csv_rejects_non_finite_cells_with_file_and_row(tmp_path, x, band):
    path = _write(tmp_path, f"x,y,city,band\n1.0,a,athens,10\n{x},b,athens,{band}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: row 2: ") + "(feature|attribute)"):
        load_csv(path, banded_schema())


def test_load_csv_empty_categorical_reports_row(tmp_path):
    path = _write(tmp_path, "x,y,city\n1.0,a,athens\n2.0,b,\n")
    with pytest.raises(DataError, match="row 2.*'city'"):
        load_csv(path, city_schema())


# no attributes, and class names that read as numbers: a label cell stays a string
LABEL_ONLY_SCHEMA = '{"features": ["x"], "label": {"name": "y", "classes": ["-2.5", "2.5"]}}'


@pytest.mark.parametrize("label_only, text, expected", [
    (False, "", "{path}: empty file, header row required"),
    (False, "x\n1.0\n", "{path}: missing column 'y'"),  # the first missing one in plan order
    (False, "x,y,city\n1.0,a,athens\n2.0,b\n", "{path}: row 2: too few cells"),
    (False, "x,y,city\nfoo,a\n", "{path}: row 1: unparseable numeric cell 'foo' in 'x'"),
    (True, "x,y\n1.0,hot\n", "{path}: row 1: unknown class label 'hot'"),
    (False, "x,y,city\n,a,athens\n", "{path}: row 1: unparseable numeric cell '' in 'x'"),
    (False, "x,y,city\n1.0,a,athens\n\n2.0,b,tokyo\n", "{path}: row 2: too few cells"),
    (False, "x,y,city\n1.0,zzz,\n", "{path}: row 1: attribute 'city' needs a non-empty string, "
                                      "got ''"),
    (False, "x,y,city,x\n1.0,a,athens,zz\n", [((1.0,), ("athens",), "a")]),  # first x wins
    (False, "x,y,city,x\nzz,a,athens,1.0\n",
     "{path}: row 1: unparseable numeric cell 'zz' in 'x'"),
    (True, "y,x\n,1.5\n-2.5,2\n", [((1.5,), (), None), ((2.0,), (), "-2.5")]),
])
def test_load_csv_case_table(tmp_path, label_only, text, expected):
    path = _write(tmp_path, text)
    schema = parse_schema(LABEL_ONLY_SCHEMA) if label_only else city_schema()
    if isinstance(expected, str):
        with pytest.raises(DataError) as err:
            load_csv(path, schema)
        assert str(err.value) == expected.format(path=path)
    else:
        assert load_csv(path, schema) == Dataset(schema, make_samples(expected))


def reference_load_csv(path, schema):
    """load_csv as a loop over rows, each parsed cell by cell and checked by
    DatasetSchema.validate_sample: the reference the column-at-a-time loader
    must agree with, down to the error message."""
    n_features = schema.n_features
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        plan = data._column_plan(schema)
        for name, _ in plan:
            if name not in header:
                raise DataError(f"{path}: missing column {name!r}")
        cells = [(header.index(name), name, parse) for name, parse in plan]
        label_pos = header.index(schema.label_column)
        samples = []
        for row_num, row in enumerate(reader, start=1):
            values = []
            for pos, name, parse in cells:
                try:
                    text = row[pos]
                    values.append(parse(text) if text or pos != label_pos else None)
                except IndexError:
                    raise DataError(f"{path}: row {row_num}: too few cells") from None
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_num}: unparseable numeric cell {text!r} in {name!r}"
                    ) from None
            sample = Sample(
                tuple(values[:n_features]), tuple(values[n_features + 1:]), values[n_features]
            )
            try:
                schema.validate_sample(sample)
            except DataError as exc:
                raise DataError(f"{path}: row {row_num}: {exc}") from exc
            samples.append(sample)
    return Dataset(schema, tuple(samples))


def _random_csv_case(rng):
    """A random schema and CSV text for it, with faults injected at random."""
    attr_edges = [rng.choice([None, (0.0,)]) for _ in range(rng.randint(0, 2))]
    schema = DatasetSchema(
        feature_columns=tuple(f"f{j}" for j in range(rng.randint(1, 3))),
        label_column="y", label_classes=("a", "b", "c"),
        attribute_columns=tuple(f"a{j}" for j in range(len(attr_edges))),
        attribute_edges=attr_edges,
    )
    header = [name for name, _ in data._column_plan(schema)]
    rng.shuffle(header)
    if rng.random() < 0.2:  # a repeated name: its first position is read
        header.insert(rng.randint(0, len(header)), rng.choice(header))
    if rng.random() < 0.2:
        header.insert(rng.randint(0, len(header)), "extra")
    rate = rng.choice([0.0, 0.0, 0.01, 0.05])

    def cell(name):
        if rng.random() < rate:
            return rng.choice(["nan", "inf", "-inf", "1e999", "foo", "", "zzz", "1,5"])
        if name == "y":
            return rng.choice(["a", "b", "c", ""])
        if dict(zip(schema.attribute_columns, attr_edges)).get(name, ()) is None:  # categorical
            return "" if rng.random() < rate else rng.choice(["athens", "tokyo", " oslo"])
        return rng.choice([repr(rng.uniform(-50, 50)), "-0.0", "3", " 2.5 ", "1e3"])

    lines = [",".join(header)]
    for _ in range(rng.randint(0, 12)):
        row = [cell(name) for name in header]
        fault = rng.random()
        if fault < rate:
            row = row[:rng.randrange(len(row))]  # a short row
        elif fault < 2 * rate:
            row = []  # a blank line
        elif fault < 3 * rate:
            row.append("surplus")
        lines.append(",".join(row))
    return schema, "\n".join(lines) + rng.choice(["\n", ""])


def test_load_csv_agrees_with_a_row_by_row_reference(tmp_path):
    rng = random.Random(23)
    faults = ("too few cells", "unparseable numeric cell", "feature value",
              "unknown class label", "needs a finite number", "needs a non-empty string")
    outcomes = Counter()
    path = tmp_path / "d.csv"
    for trial in range(1500):
        schema, text = _random_csv_case(rng)
        path.write_text(text, encoding="utf-8")
        results = []
        for load in (reference_load_csv, load_csv):
            try:
                results.append(load(path, schema))
            except DataError as exc:
                results.append(str(exc))
        expected, got = results
        assert got == expected, text
        if isinstance(expected, str):
            outcomes.update(fault for fault in faults if fault in expected)
        else:  # equal, and the same floats down to the sign of zero
            assert repr(got.samples) == repr(expected.samples)
            outcomes["loaded"] += 1
    assert outcomes["loaded"] > 300 and all(outcomes[f] >= 5 for f in faults), outcomes


def test_csv_round_trip_exact(tmp_path, rng):
    rows = [
        (rng.uniform(-1e6, 1e6), rng.choice(["athens", "tok,yo", 'qu"ote']), rng.choice(["a", "b", None]))
        for _ in range(50)
    ]
    rows.append((0.1 + 0.2, "tiny", "a"))  # value with a long repr
    schema = city_schema()
    ds = Dataset(
        schema,
        make_samples([((x,), (c,), y) for x, c, y in rows]),
    )
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    assert load_csv(path, schema) == ds


# -- split -------------------------------------------------------------------------

def _membership(ds: Dataset) -> Counter:
    return Counter((s.features, s.attributes, s.label) for s in ds.samples)


def test_split_sizes():
    ds = city_dataset([(i, "c", "a") for i in range(10)])
    first, second = split_dataset(ds, 0.8, seed=1)
    assert (len(first), len(second)) == (8, 2)


def test_split_deterministic():
    ds = city_dataset([(i, "c", "a") for i in range(10)])
    assert split_dataset(ds, 0.8, seed=1) == split_dataset(ds, 0.8, seed=1)


def test_split_seed_changes_membership():
    ds = city_dataset([(i, "c", "a") for i in range(10)])
    first1, _ = split_dataset(ds, 0.8, seed=1)
    first2, _ = split_dataset(ds, 0.8, seed=2)
    assert len(first1) == len(first2) == 8
    assert _membership(first1) != _membership(first2)


def test_split_is_partition(rng):
    for trial in range(20):
        n = rng.randint(1, 40)
        ds = city_dataset([(rng.random(), rng.choice("pq"), rng.choice("ab")) for _ in range(n)])
        fraction = rng.uniform(0.05, 0.95)
        first, second = split_dataset(ds, fraction, seed=trial)
        assert _membership(first) + _membership(second) == _membership(ds)


def test_split_empty_dataset_rejected():
    ds = Dataset(city_schema(), ())
    with pytest.raises(DataError, match="empty"):
        split_dataset(ds, 0.5, seed=0)
