"""Tabular data model: schemas, samples, datasets, CSV ingestion.

A dataset row carries three things: a numeric feature vector (model input),
an optional label, and a tuple of task attributes (the situational context
that later identifies which task the row belongs to). Schemas pin column
names, the label's class list, and attribute bucket edges. All objects here
are immutable after construction and safe to share across threads.

A CSV file is parsed by one column plan built from the schema (see
``_column_plan``); :meth:`DatasetSchema.validate_sample` owns the sample rules.
:func:`load_csv` parses and checks a file a column at a time, which covers
those rules for cells that parse; only a file that fails a check is walked
row by row, to name its first bad row. A label class may not be ``""``:
an empty label cell means the row is unlabeled.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import MISSING, dataclass, field, fields
from hashlib import sha256
from itertools import repeat
from pathlib import Path
from typing import NoReturn

from .errors import ConfigError, DataError, EdgeLearnError, SchemaError

AttrValue = str | float
FeatureVector = tuple[float, ...]
TaskAttrValues = tuple[AttrValue, ...]

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_int(name: str, value, low: int | None = None) -> None:
    """A ConfigError unless *value* is an integer (not a bool) of at least *low*."""
    if not _is_int(value) or (low is not None and value < low):
        at_least = "" if low is None else f" >= {low}"
        raise ConfigError(f"{name} must be an integer{at_least}, got {value!r}")


def bucket_edges(edges, where: str = "bucket edges") -> tuple[float, ...]:
    """*edges* as floats, if they are a list of finite numbers in strictly
    increasing order; otherwise a SchemaError whose message starts with *where*."""
    if not isinstance(edges, (list, tuple)):
        raise SchemaError(f"{where} must be a list, got {edges!r}")
    for e in edges:
        if not _is_finite_number(e):
            raise SchemaError(f"{where}: {e!r} is not a finite number")
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise SchemaError(f"{where} {list(edges)} are not strictly increasing")
    return tuple(float(e) for e in edges)


def _attribute_edges(columns, edges) -> tuple[tuple[float, ...] | None, ...]:
    """The *edges* of attribute *columns* as :func:`bucket_edges` returns them;
    None, a categorical column, stays."""
    return tuple(None if e is None else bucket_edges(e, f"attribute {name!r}: bucket edges")
                 for name, e in zip(columns, edges))


@dataclass(frozen=True)
class DatasetSchema:
    """Column layout of a dataset.

    ``label_classes`` is the label column's ordered class list: labels are
    classes only, and no class is ``""``, which a CSV label cell leaves
    empty for an unlabeled row. ``attribute_edges`` is parallel to
    ``attribute_columns``: a numeric column's bucket edges, checked and held
    as floats (m edges give m+1 buckets), or ``None`` for a categorical one.
    """

    feature_columns: tuple[str, ...]
    label_column: str
    label_classes: tuple[str, ...]
    attribute_columns: tuple[str, ...] = ()
    attribute_edges: tuple[tuple[float, ...] | None, ...] = ()

    def __post_init__(self):
        if len(self.attribute_columns) != len(self.attribute_edges):
            raise SchemaError("attribute_edges must be parallel to attribute_columns")
        object.__setattr__(self, "attribute_edges",
                           _attribute_edges(self.attribute_columns, self.attribute_edges))
        names = list(self.feature_columns) + [self.label_column] + list(self.attribute_columns)
        seen = set()
        for name in names:
            if not isinstance(name, str):
                raise SchemaError(f"column name {name!r} is not a string")
            if name in seen:
                raise SchemaError(f"duplicate column name {name!r}")
            seen.add(name)
        if not self.feature_columns:
            raise SchemaError("schema needs at least one feature column")
        if len(self.label_classes) < 2:
            raise SchemaError(f"class list for {self.label_column!r} needs at least 2 classes")
        if len(set(self.label_classes)) != len(self.label_classes):
            raise SchemaError(f"duplicate class in label column {self.label_column!r}")
        if "" in self.label_classes:
            raise SchemaError(f"empty class name in label column {self.label_column!r}: "
                              f"an empty label cell means the row is unlabeled")

    @property
    def n_features(self) -> int:
        return len(self.feature_columns)

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_columns)

    def fingerprint(self) -> str:
        """Stable hash over feature columns and the label's class list."""
        label = "classification:" + ",".join(self.label_classes)
        text = "features=" + ",".join(self.feature_columns) + ";label=" + label
        return sha256(text.encode("utf-8")).hexdigest()[:16]

    def validate_sample(self, sample: "Sample") -> None:
        """Raise DataError unless *sample* conforms to this schema."""
        if len(sample.features) != self.n_features:
            raise DataError(
                f"expected {self.n_features} features, got {len(sample.features)}"
            )
        for v in sample.features:
            if not _is_finite_number(v):
                raise DataError(f"feature value {v!r} is not a finite number")
        if len(sample.attributes) != self.n_attributes:
            raise DataError(
                f"expected {self.n_attributes} attributes, got {len(sample.attributes)}"
            )
        for col, edges, v in zip(self.attribute_columns, self.attribute_edges, sample.attributes):
            if edges is None:
                if not isinstance(v, str) or not v:
                    raise DataError(f"attribute {col!r} needs a non-empty string, got {v!r}")
            else:
                if not _is_finite_number(v):
                    raise DataError(f"attribute {col!r} needs a finite number, got {v!r}")
        if sample.label is not None and sample.label not in self.label_classes:
            raise DataError(f"unknown class label {sample.label!r}")


@dataclass(frozen=True)
class Sample:
    """One row: features, situational attributes, optional label."""

    features: FeatureVector
    attributes: TaskAttrValues = ()
    label: str | None = None


@dataclass(frozen=True)
class Dataset:
    """An immutable, schema-validated collection of samples. The constructor
    checks each sample; :meth:`derive` builds slices without re-checking."""

    schema: DatasetSchema
    samples: tuple[Sample, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for i, s in enumerate(self.samples):
            try:
                self.schema.validate_sample(s)
            except DataError as exc:
                raise DataError(f"sample {i}: {exc}") from exc

    def derive(self, samples) -> "Dataset":
        """A dataset of *samples* under this schema, built without validation.
        Precondition: every sample already passed ``self.schema.validate_sample``,
        e.g. because it was taken from a dataset of the same schema."""
        return _checked(self.schema, tuple(samples))

    def __len__(self) -> int:
        return len(self.samples)

    def require_labeled(self) -> None:
        for i, s in enumerate(self.samples):
            if s.label is None:
                raise DataError(f"sample {i} has no label")


def _checked(schema: DatasetSchema, samples: tuple[Sample, ...]) -> Dataset:
    """A Dataset of already-validated samples: skips ``__post_init__``."""
    dataset = object.__new__(Dataset)
    object.__setattr__(dataset, "schema", schema)
    object.__setattr__(dataset, "samples", samples)
    return dataset


# ---------------------------------------------------------------------------
# Config objects and schema parsing
# ---------------------------------------------------------------------------

def check_object(doc, section: str, required, optional=(), error=ConfigError) -> dict:
    """*doc*, if it is a JSON object with every *required* key and no key
    outside *required* and *optional*; else an *error* naming *section* and the key."""
    if not isinstance(doc, dict):
        raise error(f"{section} must be a JSON object")
    for key in doc:
        if key not in required and key not in optional:
            expected = ", ".join(dict.fromkeys((*required, *optional)))
            raise error(f"{section}: unknown key {key!r} (expected one of {expected})")
    for key in required:
        if key not in doc:
            raise error(f"{section}: missing key {key!r}")
    return doc


def read_text(path: str | Path) -> str:
    """A config file's UTF-8 text; one that does not decode raises ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_object(text: str, section: str, required, optional=(), error=ConfigError) -> dict:
    """Decode a config file that holds one JSON object; see :func:`check_object`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{section} is not valid JSON: {exc}") from exc
    return check_object(doc, section, required, optional, error)


def field_names(cls) -> tuple[str, ...]:
    """The keys of a config object that maps one to one onto dataclass *cls*."""
    return tuple(f.name for f in fields(cls))


def build(cls, doc, section: str):
    """``cls(**doc)`` for a config object whose keys are *cls*'s fields: the
    dataclass owns the defaults and the value rules. Errors name *section*."""
    check_object(doc, section, [f.name for f in fields(cls) if f.default is MISSING
                                and f.default_factory is MISSING], field_names(cls))
    try:
        return cls(**doc)
    except EdgeLearnError as exc:
        raise type(exc)(f"{section}: {exc}") from exc


def parse_schema(config_text: str) -> DatasetSchema:
    """Parse a JSON schema config into a validated :class:`DatasetSchema`.

    Expected keys::

        {"features": [...],
         "label": {"name": ..., "classes": [...]},
         "attributes": [{"name": ..., "kind": "categorical"} |
                        {"name": ..., "kind": "numeric", "edges": [...]}]}

    A job takes classification labels only: a label with a ``kind`` is refused.
    """
    raw = load_object(config_text, "schema config", ("features", "label"), ("attributes",),
                      SchemaError)
    features = raw["features"]
    if not isinstance(features, list):
        raise SchemaError("'features' must be a list of column names")

    label = raw["label"]
    if isinstance(label, dict) and "kind" in label:
        raise SchemaError(f"label {label.get('name')!r}: only classification labels (a "
                          f"'classes' list) are supported, got kind {label['kind']!r}")
    label = check_object(label, "label", ("name", "classes"), (), SchemaError)
    label_name, classes = label["name"], label["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise SchemaError(f"class list for {label_name!r} must be a list of strings")
    if not classes:
        raise SchemaError(f"empty class list for label column {label_name!r}")

    attributes = raw.get("attributes", [])
    if not isinstance(attributes, list):
        raise SchemaError("'attributes' must be a list")
    names, attr_edges = [], []
    for entry in attributes:
        entry = check_object(entry, "attribute", ("name", "kind"), ("edges",), SchemaError)
        name, kind, edges = entry["name"], entry["kind"], entry.get("edges", [])
        if edges is not None and (kind == "numeric" or (kind == "categorical" and edges == [])):
            names.append(name)
            attr_edges.append(edges if kind == "numeric" else None)
            continue
        _attribute_edges(names, attr_edges)  # bad edges so far are named first
        bucket_edges(edges, f"attribute {name!r}: bucket edges")  # an explicit null too
        fault = ("categorical attribute cannot declare bucket edges" if kind == "categorical"
                 else f"unknown attribute kind {kind!r}")
        raise SchemaError(f"attribute {name!r}: {fault}")

    return DatasetSchema(
        feature_columns=tuple(features),
        label_column=label_name,
        label_classes=tuple(classes),
        attribute_columns=tuple(names),
        attribute_edges=tuple(attr_edges),
    )


def schema_to_json(schema: DatasetSchema) -> str:
    """Inverse of :func:`parse_schema`."""
    label = {"name": schema.label_column, "classes": list(schema.label_classes)}
    attrs = [{"name": name, "kind": "categorical"} if edges is None
             else {"name": name, "kind": "numeric", "edges": list(edges)}
             for name, edges in zip(schema.attribute_columns, schema.attribute_edges)]
    doc = {"features": list(schema.feature_columns), "label": label, "attributes": attrs}
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _column_plan(schema: DatasetSchema) -> list[tuple[str, type]]:
    """(column, cell parser) pairs in features, label, attributes order: the
    header :func:`write_csv` writes and the cells :func:`load_csv` parses."""
    return (
        [(name, float) for name in schema.feature_columns]
        + [(schema.label_column, str)]
        + [(name, str if edges is None else float)
           for name, edges in zip(schema.attribute_columns, schema.attribute_edges)]
    )


def load_csv(path: str | Path, schema: DatasetSchema) -> Dataset:
    """Load a dataset from CSV. Column order comes from the header row; a
    repeated header name reads its first position.

    An empty label cell means the row is unlabeled. The rows are parsed
    and checked a column at a time (see :func:`_samples_by_column`), which
    covers every rule of :meth:`DatasetSchema.validate_sample`; only if a
    check fails are the rows walked one by one, to raise the first bad row's
    error. Error messages name the file and count data rows from 1 (the
    header is row 0).
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required") from None
            plan = _column_plan(schema)
            for name, _ in plan:
                if name not in header:
                    raise DataError(f"{path}: missing column {name!r}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    cells = [(header.index(name), name, parse) for name, parse in plan]
    samples = _samples_by_column(schema, cells, rows)
    if samples is None:
        _raise_first_bad_row(path, schema, cells, rows)
    return _checked(schema, samples)


def _samples_by_column(schema: DatasetSchema, cells, rows) -> tuple[Sample, ...] | None:
    """The samples of *rows*, or None if one is short, has a cell that does
    not parse or breaks a rule of :meth:`DatasetSchema.validate_sample`.
    Each column of *cells* (position, name, parser) is parsed by one call
    and checked by one more. Parsing fixes every type and length, so what
    is left to check is that numbers are finite, labels are classes or
    empty, and categorical values are not empty."""
    if not rows:
        return ()
    if min(map(len, rows)) <= max(pos for pos, _, _ in cells):
        return None
    table = list(zip(*rows))
    try:
        columns = [tuple(map(float, table[pos])) if parse is float else table[pos]
                   for pos, _, parse in cells]
    except ValueError:
        return None
    k = schema.n_features
    features, labels, attributes = columns[:k], columns[k], columns[k + 1:]
    numeric = features + [c for c, edges in zip(attributes, schema.attribute_edges)
                          if edges is not None]
    if (not all(all(map(math.isfinite, column)) for column in numeric)
            or any("" in c for c, edges in zip(attributes, schema.attribute_edges)
                   if edges is None)
            or not {"", *schema.label_classes}.issuperset(labels)):
        return None
    labels = [label or None for label in labels]  # no class is "": it is an unlabeled row
    return tuple(map(Sample, zip(*features),
                     zip(*attributes) if attributes else repeat((), len(rows)), labels))


def _raise_first_bad_row(path: Path, schema: DatasetSchema, cells, rows) -> NoReturn:
    """Raise the DataError of the first of *rows* that fails to parse or to
    pass :meth:`DatasetSchema.validate_sample`, parsing them one by one."""
    n_features = schema.n_features
    label_pos = cells[n_features][0]
    for row_num, row in enumerate(rows, start=1):
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
    raise AssertionError(f"{path}: a column check failed, but every row passes")


def _format_value(v: str | float | None) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return repr(float(v))  # repr round-trips doubles exactly


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV: features, then label, then attributes."""
    schema = dataset.schema
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in _column_plan(schema)])
        for s in dataset.samples:
            row = [_format_value(v) for v in s.features]
            row.append(_format_value(s.label))
            row.extend(_format_value(v) for v in s.attributes)
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_dataset(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministically partition a dataset; the first part gets
    round(fraction * n) samples (half-up). Sample order within each part
    follows the input order.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0,1), got {fraction}")
    n = len(dataset)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    k = int(fraction * n + 0.5)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    first = sorted(indices[:k])
    second = sorted(indices[k:])
    return (
        dataset.derive(dataset.samples[i] for i in first),
        dataset.derive(dataset.samples[i] for i in second),
    )
