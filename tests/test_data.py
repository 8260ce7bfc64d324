"""CSV ingestion, windowing, normalization, and generator tests."""

import csv
import os
import string
import tempfile
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (is_series_view, linear_dynamics_matrix, linear_dynamics_states,
                     windows_first, zscore_windows)
from rgtn import data as data_module
from rgtn.config import ConfigError, run_config_from_dict
from rgtn.data import (
    CsvFormatError,
    NormStats,
    _chronological_split,
    _split_sizes,
    _stratified_split,
    CsvSchemaError,
    inverse_transform_predictions,
    load_csv,
    synth_classification,
    synth_linear_dynamics,
    window,
)

WIDE_SCHEMA = {"time": "t", "features": ["a", "b"], "missing": "drop"}

# the shortest series make 3 windows, one for each split of this, and 5, two for train
SHORT_SPLIT = (0.4, 0.35, 0.25)


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def windowed(series, tau, horizon=1, split=(0.7, 0.15, 0.15)):
    """``window`` of the series, by default one step ahead on a 0.7/0.15/0.15 split."""
    return window(series, tau, horizon, split)


def raw_classification(*args, **kwargs):
    """``synth_classification``'s windows before z-scoring: ``(v - 0) / 1`` is exactly ``v``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_train_stats",
                   lambda inputs: NormStats(np.zeros(inputs.shape[2:]), np.ones(inputs.shape[2:])))
        return synth_classification(*args, **kwargs)


def zscored(series, ds):
    """The series z-scored with the statistics ``ds`` holds."""
    return (series - ds.norm.mean) / ds.norm.scale


def toy_series(t=30, d=2, f=3, seed=0):
    return np.random.default_rng(seed).standard_normal((t, d, f))


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,3.0,4.0\n3,5.0,6.0\n")
        series = load_csv(path, WIDE_SCHEMA)
        assert series.shape == (3, 1, 2) and series.dtype == np.float64
        np.testing.assert_array_equal(series[:, 0, 0], [1, 3, 5])
        np.testing.assert_array_equal(series[:, 0, 1], [2, 4, 6])

    def test_forward_fill_copies_previous(self, tmp_path):
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,,4.0\n3,5.0,6.0\n")
        series = load_csv(path, {**WIDE_SCHEMA, "missing": "ffill"})
        assert series[1, 0, 0] == 1.0

    def test_drop_removes_incomplete_rows(self, tmp_path):
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,,4.0\n3,5.0,6.0\n")
        series = load_csv(path, WIDE_SCHEMA)
        assert series.shape[0] == 2
        np.testing.assert_array_equal(series[:, 0], [[1, 2], [5, 6]])

    @pytest.mark.parametrize("key", ["mising", "phy", "Time", 0])
    def test_unknown_schema_key_is_named(self, tmp_path, key):
        # "mising": "ffill" would otherwise drop the row with the blank cell
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,,4.0\n3,5.0,6.0\n")
        schema = {"time": "t", "features": ["a", "b"], key: "ffill"}
        with pytest.raises(CsvSchemaError, match=f"unknown schema key {key!r}"):
            load_csv(path, schema)

    def test_missing_declared_column(self, tmp_path):
        path = write(tmp_path, "t,a\n1,1.0\n")
        with pytest.raises(CsvSchemaError):
            load_csv(path, WIDE_SCHEMA)

    def test_duplicated_declared_column_is_named(self, tmp_path):
        # the first "a" would be read and the second silently ignored
        path = write(tmp_path, "t,a,a,b\n1,1.0,9.0,2.0\n")
        with pytest.raises(CsvSchemaError, match="'a'"):
            load_csv(path, WIDE_SCHEMA)

    def test_features_string_is_not_split_into_letters(self, tmp_path):
        path = write(tmp_path, "t,temperature\n1,1.0\n")
        with pytest.raises(CsvSchemaError, match="features 'temperature'"):
            load_csv(path, {"time": "t", "features": "temperature"})

    def test_feature_declared_twice_is_named(self, tmp_path):
        # it would read the same column twice, as two features
        path = write(tmp_path, "t,temperature\n1,1.0\n")
        with pytest.raises(CsvSchemaError, match="'temperature'"):
            load_csv(path, {"time": "t", "features": ["temperature", "temperature"]})

    def test_phys_column_that_is_the_time_column_is_named(self, tmp_path):
        path = write(tmp_path, "time,a\n1,1.0\n2,2.0\n")
        with pytest.raises(CsvSchemaError, match="'time'"):
            load_csv(path, {"time": "time", "phys": "time", "features": ["a"]})

    def test_feature_that_is_the_phys_column_is_named(self, tmp_path):
        path = write(tmp_path, "t,site,a\n1,north,1.0\n")
        with pytest.raises(CsvSchemaError, match="'site'"):
            load_csv(path, {"time": "t", "phys": "site", "features": ["site"]})

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,oops,4.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path, WIDE_SCHEMA)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n2,3.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path, WIDE_SCHEMA)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        # the second case's first copy has no values: a NaN test would miss it
        for text in ("t,a,b\n1,1.0,2.0\n1,3.0,4.0\n", "time,a,b\n0,,\n0,1,2\n"):
            path = write(tmp_path, text)
            schema = {**WIDE_SCHEMA, "time": text.split(",")[0]}
            with pytest.raises(CsvFormatError, match="duplicate"):
                load_csv(path, schema)

    def test_long_format_pivot(self, tmp_path):
        # the sites are written out of order; the physical slots take the sorted keys
        rows = ["t,site,a,b"]
        for t in (1, 2):
            for site in ("s3", "s1", "s2"):
                rows.append(f"{t},{site},{t}.{site[1]},{t}.25")
        path = write(tmp_path, "\n".join(rows) + "\n")
        series = load_csv(
            path, {"time": "t", "phys": "site", "features": ["a", "b"]}
        )
        assert series.shape == (2, 3, 2)
        np.testing.assert_array_equal(series[:, :, 0], [[1.1, 1.2, 1.3], [2.1, 2.2, 2.3]])
        np.testing.assert_array_equal(series[:, :, 1], [[1.25] * 3, [2.25] * 3])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(CsvFormatError):
            load_csv(path, WIDE_SCHEMA)

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        path = write(tmp_path, "t,a,b\n")
        with pytest.raises(CsvFormatError, match="^line 2: no data rows$"):
            load_csv(path, WIDE_SCHEMA)

    def test_unknown_missing_policy_is_named(self, tmp_path):
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n")
        with pytest.raises(CsvSchemaError, match="missing-value policy 'bfill'"):
            load_csv(path, {**WIDE_SCHEMA, "missing": "bfill"})

    def test_blank_rows_are_skipped_and_still_counted(self, tmp_path):
        # an empty line and a line of blank cells hold no entry; the next error
        # still names its own line of the file
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n\n , ,\n2,3.0,4.0\n")
        np.testing.assert_array_equal(load_csv(path, WIDE_SCHEMA), [[[1, 2]], [[3, 4]]])
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n , ,\n2,x,4.0\n")
        with pytest.raises(CsvFormatError, match="^line 4: cannot parse 'a'"):
            load_csv(path, WIDE_SCHEMA)

    def test_empty_timestamp_reports_line(self, tmp_path):
        path = write(tmp_path, "t,a,b\n1,1.0,2.0\n ,3.0,4.0\n")
        with pytest.raises(CsvFormatError, match="^line 3: missing timestamp$"):
            load_csv(path, WIDE_SCHEMA)

    def test_every_row_dropped_is_refused(self, tmp_path):
        path = write(tmp_path, "t,a,b\n1,,2.0\n2,3.0,\n")
        with pytest.raises(CsvFormatError, match="all rows dropped while handling missing"):
            load_csv(path, WIDE_SCHEMA)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400"])
    def test_infinite_cell_reports_line_and_column(self, tmp_path, cell):
        path = write(tmp_path, f"t,a,b\n1,1.0,2.0\n2,3.0,{cell}\n3,5.0,6.0\n")
        with pytest.raises(CsvFormatError, match="line 3: 'b'"):
            load_csv(path, WIDE_SCHEMA)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbft,a,b\n1,1.0,2.0\n2,3.0,4.0\n")
        series = load_csv(str(path), WIDE_SCHEMA)
        np.testing.assert_array_equal(series, [[[1, 2]], [[3, 4]]])

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"t,a,b\n1,1.0,2.0\n2,\xff,4.0\n")
        with pytest.raises(CsvFormatError, match="series.csv: not UTF-8"):
            load_csv(str(path), WIDE_SCHEMA)


# upper case, so no label can collide with the lower-case time and key columns;
# the comma and the quote make the writer quote a field
LABELS = st.text(alphabet=string.ascii_uppercase + string.digits + ',"', min_size=1, max_size=4)


class Table(NamedTuple):
    """A series as a CSV holds it: rows at their timestamps, slots under their keys."""

    timestamps: np.ndarray        # (T,), distinct, in any order
    values: np.ndarray            # (T, P, F), row i at timestamps[i]
    phys_labels: tuple[str, ...]  # in any order
    feat_labels: tuple[str, ...]


@st.composite
def series_tables(draw, phys_labels=None):
    """A small table with finite values, any distinct timestamps and any distinct labels."""
    t = draw(st.integers(1, 5))
    if phys_labels is None:
        phys_labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    feat_labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    stamps = draw(st.lists(st.floats(-1e6, 1e6), min_size=t, max_size=t, unique=True))
    cells = t * len(phys_labels) * len(feat_labels)
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=cells, max_size=cells))
    return Table(
        timestamps=np.array(stamps),
        values=np.array(values).reshape(t, len(phys_labels), len(feat_labels)),
        phys_labels=tuple(phys_labels),
        feat_labels=tuple(feat_labels),
    )


def cells(values):
    """Numbers as CSV text that parses back to the same float64."""
    return [repr(float(v)) for v in np.ravel(values)]


def round_trip(table, rows, schema):
    """Write ``rows`` under a header from ``schema`` and read them back."""
    header = [schema["time"]] + ([schema["phys"]] if "phys" in schema else []) + list(
        table.feat_labels
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        return load_csv(path, {**schema, "features": list(table.feat_labels)})


def assert_same_series(got, table):
    """``got`` holds the table's rows in time order, its slots in sorted key order."""
    times = np.argsort(table.timestamps)
    keys = np.argsort(table.phys_labels)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, table.values[times][:, keys])


class TestCsvRoundTrip:
    """A table written to CSV, its rows in any order, reads back as its series: the
    rows in time order, the physical slots in the sorted order of their keys and
    the features as the schema lists them."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(table=series_tables(), missing=st.sampled_from(["drop", "ffill"]), data=st.data())
    def test_long_format(self, table, missing, data):
        rows = [
            [*cells(t), key, *cells(table.values[i, j])]
            for i, t in enumerate(table.timestamps)
            for j, key in enumerate(table.phys_labels)
        ]
        rows = data.draw(st.permutations(rows))
        got = round_trip(table, rows, {"time": "time", "phys": "key", "missing": missing})
        assert_same_series(got, table)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(table=series_tables(phys_labels=["all"]), missing=st.sampled_from(["drop", "ffill"]))
    def test_wide_format(self, table, missing):
        rows = [[*cells(t), *cells(table.values[i])] for i, t in enumerate(table.timestamps)]
        got = round_trip(table, rows, {"time": "time", "missing": missing})
        assert_same_series(got, table)


class TestWindowing:
    def test_sample_count(self):
        ds = windowed(toy_series(t=100), tau=6, horizon=1)
        assert ds.n_samples == 94

    def test_air_quality_window_shape(self):
        ds = windowed(toy_series(t=40, d=12, f=27), tau=6)
        assert ds.inputs.shape[1:] == (6, 12, 27)

    def test_activity_window_shape(self):
        ds = windowed(toy_series(t=60, d=3, f=3), tau=24)
        assert ds.inputs.shape[1:] == (24, 3, 3)

    def test_too_short(self):
        # a series with no window, or with too few for every split to get one, is refused
        for t, tau, horizon, split in ((7, 6, 1, SHORT_SPLIT), (8, 4, 2, (0.7, 0.15, 0.15)),
                                       (5, 6, 1, SHORT_SPLIT), (8, 4, 2, (0.0, 0.5, 0.5))):
            with pytest.raises(ValueError, match=r"^the (train|val|test) split is empty; a "
                                                 rf"series of {t} steps has \d+ windows"):
                windowed(toy_series(t=t), tau=tau, horizon=horizon, split=split)

    def test_empty_split_is_refused_before_any_statistics(self, monkeypatch):
        # the split is made and checked first: no train window is reduced
        calls = []
        monkeypatch.setattr(data_module, "_train_stats", lambda inputs: calls.append(inputs))
        for t, split in ((7, SHORT_SPLIT), (100, (0.7, 0.3, 0.0)), (100, (0.0, 0.5, 0.5))):
            with pytest.raises(ValueError, match=r"^the (train|val|test) split is empty"):
                window(toy_series(t=t), 6, 1, split)
        assert calls == []

    # t = 8 is the shortest series tau 4 and horizon 2 allow: 3 windows, one a split
    @pytest.mark.parametrize("t,d,tau,horizon", [(30, 2, 5, 2), (30, 2, 5, 3), (8, 2, 4, 2),
                                                 (30, 1, 5, 1), (8, 4, 1, 3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_no_leakage(self, t, d, tau, horizon, order):
        # each window and target is its per-row definition of the z-scored series,
        # bit for bit, whatever the layout of the series
        series = np.asarray(toy_series(t=t, d=d), order=order)
        ds = windowed(series, tau=tau, horizon=horizon, split=SHORT_SPLIT)
        values = zscored(series, ds)
        assert ds.n_samples == t - tau - horizon + 1
        assert is_series_view(ds.inputs, series)
        for i in range(ds.n_samples):
            assert np.array_equal(ds.inputs[i], values[i : i + tau])
            row = values[i + tau + horizon - 1]
            assert np.array_equal(ds.targets[i], row.ravel(order="F"))

    def test_windows_reversible_at_stride_one(self):
        series = toy_series(t=25)
        ds = windowed(series, tau=4)
        rebuilt = np.concatenate([ds.inputs[:, 0], ds.inputs[-1, 1:]], axis=0)
        np.testing.assert_array_equal(rebuilt, zscored(series, ds)[: rebuilt.shape[0]])

    def test_chronological_split(self):
        ds = windowed(toy_series(t=100), tau=6, split=(0.7, 0.15, 0.15))
        assert ds.splits.train.max() < ds.splits.val.min()
        assert ds.splits.val.max() < ds.splits.test.min()
        total = len(ds.splits.train) + len(ds.splits.val) + len(ds.splits.test)
        assert total == ds.n_samples

    def test_horizon_below_one_rejected(self):
        # horizon 0 would make the target the window's own last step; the config
        # refuses it, and window takes what it lets through
        for horizon in (0, -1):
            doc = {"model": {"variant": "rnn", "tau": 4, "d_phys": 2, "d_feat": 3,
                             "hidden": 2, "out_dim": 6},
                   "data": {"kind": "synthetic_regression", "n_steps": 30, "horizon": horizon},
                   "training": {"epochs": 1}}
            with pytest.raises(ConfigError, match=r"^data\.horizon: must be >= 1"):
                run_config_from_dict(doc)


# a regression dataset, whose windows view its series, and a classification one,
# whose windows are a C-order array of their own
SUBSET_DATASETS = {
    "regression": windowed(toy_series(t=40), tau=5, horizon=2),
    "classification": synth_classification(4, 2, 3, 30, 0.5, seed=2),
}
INDEX_KINDS = ("run", "single", "permuted run", "repeat", "gaps", "swapped interior",
               "negative", "past the end", "wrapped")


@st.composite
def index_arrays(draw, n):
    """Index arrays into ``n`` windows: runs, and arrays that only look like one."""
    kind = draw(st.sampled_from(INDEX_KINDS))
    start = draw(st.integers(0, n - 1))
    stop = draw(st.integers(start + 1, n))
    run = np.arange(start, stop)
    if kind == "single":
        idx = run[:1]
    elif kind == "permuted run":
        idx = np.asarray(draw(st.permutations(run.tolist())), dtype=int)
    elif kind == "repeat":
        at = draw(st.integers(0, len(run) - 1))
        idx = np.insert(run, at, run[at])
    elif kind == "gaps":
        idx = np.asarray(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=int)
    elif kind == "swapped interior":
        # the endpoints and the length of a run, out of order: [a, a+2, a+1, a+3]
        start = draw(st.integers(0, n - 4))
        idx = start + np.array([0, 2, 1, 3])
    elif kind == "negative":
        idx = run - n
    elif kind == "past the end":
        idx = np.arange(start, n + draw(st.integers(1, 3)))
    elif kind == "wrapped":
        # steps of one modulo 2**32, through an index past the end
        return np.arange(-2, draw(st.integers(-1, 3))).astype(np.uint32)
    else:
        idx = run
    if idx.min() >= 0:
        idx = idx.astype(draw(st.sampled_from([np.int64, np.int32, np.uint32])))
    return idx


class TestSubset:
    """``subset`` gives ``inputs[idx]`` and ``targets[idx]``, slicing a run of windows."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(task=st.sampled_from(sorted(SUBSET_DATASETS)), data=st.data())
    def test_subset_is_the_gather(self, task, data):
        ds = SUBSET_DATASETS[task]
        idx = data.draw(index_arrays(ds.n_samples))
        if idx.max() >= ds.n_samples:
            for arr in (ds.inputs, ds.targets):
                with pytest.raises(IndexError):
                    arr[idx]
            with pytest.raises(IndexError):
                ds.subset(idx)
            return
        got = ds.subset(idx)
        for sub, whole in zip(got, (ds.inputs, ds.targets)):
            want = whole[idx]
            assert sub.dtype == want.dtype and sub.shape == want.shape
            assert np.array_equal(sub, want)
            # a view is read-only, whatever its dataset's own arrays are
            assert not (np.shares_memory(sub, whole) and sub.flags.writeable)
            if idx[0] >= 0 and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
                # a run of windows copies nothing
                assert np.shares_memory(sub, whole)
        # a classification dataset's own arrays stay writeable
        assert ds.inputs.flags.writeable == (task == "classification")

    def test_an_empty_subset_is_empty(self):
        for ds in SUBSET_DATASETS.values():
            inputs, targets = ds.subset(np.array([], dtype=int))
            assert inputs.shape == (0, *ds.inputs.shape[1:]) and len(targets) == 0


class TestNormalize:
    def test_train_mean_zero(self):
        ds = windowed(toy_series(t=80), tau=5)
        train = ds.inputs[ds.splits.train]
        np.testing.assert_allclose(train.mean(axis=(0, 1)), 0.0, atol=1e-10)

    def test_constant_feature_unchanged(self):
        series = toy_series(t=40)
        series[:, 0, 0] = 3.14
        with pytest.warns(UserWarning, match="zero spread") as caught:
            ds = windowed(series, tau=5)
        assert len(caught) == 1
        np.testing.assert_allclose(ds.inputs[:, :, 0, 0], 0.0, atol=1e-12)
        assert ds.norm.scale[0, 0] == 1.0

    def test_inverse_round_trip(self):
        series = toy_series(t=80)
        ds = windowed(series, tau=5)
        preds = inverse_transform_predictions(ds, ds.targets)
        # the target of window i is step i + 5, flattened physical index fastest
        raw_targets = np.stack([row.ravel(order="F") for row in series[5:]])
        np.testing.assert_allclose(preds, raw_targets, atol=1e-12)

    def test_stats_ignore_test_split(self):
        series = toy_series(t=80)
        ds_plain = windowed(series, tau=5)
        # poison every step no train window reaches; stats must not move
        reach = len(ds_plain.splits.train) + 5 - 1
        values = series.copy()
        values[reach:] += 100.0
        ds_poisoned = windowed(values, tau=5)
        np.testing.assert_array_equal(ds_plain.norm.mean, ds_poisoned.norm.mean)
        np.testing.assert_array_equal(ds_plain.norm.scale, ds_poisoned.norm.scale)

    # t = 8 is the shortest series tau 4 and horizon 2 allow: 3 windows, one a split;
    # the last is predict-stream's shape, whose 192 train windows hold 48 times the
    # 8192 elements NumPy reduces a buffer at a time
    @pytest.mark.parametrize("t,p,f,tau,horizon,split", [
        (40, 2, 3, 5, 1, (0.7, 0.15, 0.15)), (40, 2, 3, 3, 4, (0.7, 0.15, 0.15)),
        (40, 2, 3, 1, 1, (0.7, 0.15, 0.15)), (8, 2, 3, 4, 2, SHORT_SPLIT),
        (1344, 8, 4, 64, 1, (0.15, 0.05, 0.8)),
    ], ids=["40-5-1", "40-3-4", "40-1-1", "8-4-2", "predict-stream"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_window_normalized_keeps_the_bits_of_windowing_first(self, t, p, f, tau, horizon,
                                                                 split, order):
        # window z-scores the series before windowing it, with statistics reduced over
        # a view of the train windows: the bits of z-scoring a copy of the windows
        series = np.asarray(toy_series(t=t, d=p, f=f), order=order)
        ds = windowed(series, tau=tau, horizon=horizon, split=split)
        want = windows_first(series, tau, horizon, split[0])
        for got, oracle in zip((ds.inputs, ds.targets, ds.norm.mean, ds.norm.scale), want):
            assert got.dtype == oracle.dtype
            assert np.array_equal(got, oracle)
        assert is_series_view(ds.inputs, series)
        n = t - tau - horizon + 1
        np.testing.assert_array_equal(ds.splits.test, np.arange(n - len(ds.splits.test), n))

    def test_normalize_is_its_reference_on_classification_windows(self):
        # the generator z-scores its windows with the bits of a z-scored copy
        ds = synth_classification(8, 3, 2, 200, 0.5, seed=3)
        raw = raw_classification(8, 3, 2, 200, 0.5, seed=3)
        inputs, mean, scale = zscore_windows(raw.inputs, raw.splits.train)
        for got, ref in ((ds.inputs, inputs), (ds.norm.mean, mean), (ds.norm.scale, scale),
                         (ds.targets, raw.targets)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        for name in ("train", "val", "test"):
            np.testing.assert_array_equal(getattr(ds.splits, name), getattr(raw.splits, name))
        # where they lie: the windows are the array the generator filled, not a copy of it
        assert ds.inputs.base is None and ds.inputs.flags.c_contiguous

    def test_double_normalize_rejected(self, monkeypatch):
        # each data source z-scores once: it takes the statistics of its raw train windows once
        series = toy_series(t=80)
        n_train = int((80 - 5) * 0.7)
        raw = raw_classification(8, 3, 2, 60, 0.5, seed=3)
        sources = (
            (lambda: windowed(series, tau=5),
             np.stack([series[i : i + 5] for i in range(n_train)])),
            (lambda: synth_classification(8, 3, 2, 60, 0.5, seed=3),
             raw.inputs[raw.splits.train]),
        )
        stats = data_module._train_stats
        for build, raw_train in sources:
            calls = []
            monkeypatch.setattr(data_module, "_train_stats",
                                lambda inputs: calls.append(inputs.copy()) or stats(inputs))
            build()
            assert len(calls) == 1
            np.testing.assert_array_equal(calls[0], raw_train)


class TestGenerators:
    def test_regression_deterministic_under_seed(self):
        a = synth_linear_dynamics(2, 3, 50, 0.1, seed=9)
        b = synth_linear_dynamics(2, 3, 50, 0.1, seed=9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d_phys,d_feat,n_steps,noise,radius", [
        (4, 3, 3000, 0.1, 0.85), (8, 4, 1344, 0.1, 0.3), (3, 5, 40, 0.7, 0.85), (1, 1, 5, 0.1, 0.5),
    ])
    def test_regression_is_its_per_step_definition(self, d_phys, d_feat, n_steps, noise, radius):
        # one noise draw for the whole series reads the stream a draw per step does
        series = synth_linear_dynamics(d_phys, d_feat, n_steps, noise, seed=11,
                                       spectral_radius=radius)
        flat = series.transpose(0, 2, 1).reshape(n_steps, -1)
        states = linear_dynamics_states(d_phys, d_feat, n_steps, noise, seed=11,
                                        spectral_radius=radius)
        assert np.array_equal(flat, states)

    def test_noiseless_regression_is_exactly_linear(self):
        series = synth_linear_dynamics(3, 2, 40, 0.0, seed=3)
        g = linear_dynamics_matrix(3, 2, seed=3)
        flat = np.stack([row.ravel(order="F") for row in series])
        for t in range(flat.shape[0] - 1):
            np.testing.assert_allclose(flat[t + 1], g @ flat[t], atol=1e-10)

    def test_noise_floor_matches_analytic_value(self):
        sigma = 0.1
        series = synth_linear_dynamics(4, 3, 3000, sigma, seed=7)
        g = linear_dynamics_matrix(4, 3, seed=7)
        flat = np.stack([row.ravel(order="F") for row in series])
        residuals = flat[1:] - flat[:-1] @ g.T
        mc = np.abs(residuals).mean()
        analytic = sigma * np.sqrt(2.0 / np.pi)
        assert abs(mc - analytic) / analytic < 0.02

    def test_classification_separable_at_zero_noise(self):
        ds = synth_classification(8, 2, 2, 40, 0.0, seed=4)
        for cls in (0, 1):
            members = ds.inputs[ds.targets == cls]
            spread = np.abs(members - members[0]).max()
            assert spread == 0.0
        gap = np.abs(
            ds.inputs[ds.targets == 0][0] - ds.inputs[ds.targets == 1][0]
        ).max()
        assert gap > 0.01

    def test_classification_deterministic_and_split(self):
        a = synth_classification(8, 2, 2, 60, 0.05, seed=5)
        b = synth_classification(8, 2, 2, 60, 0.05, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)
        total = len(a.splits.train) + len(a.splits.val) + len(a.splits.test)
        assert total == 60
        # the split is stratified: each split keeps the overall class balance
        overall = a.targets.mean()
        for split in (a.splits.train, a.splits.val, a.splits.test):
            assert abs(a.targets[split].mean() - overall) < 0.1


class TestSplitFractions:
    """The third fraction sizes the test split; what the three leave is unused."""

    def test_chronological_holds_out_the_remainder(self):
        splits = _chronological_split(100, (0.5, 0.1, 0.1))
        np.testing.assert_array_equal(splits.train, np.arange(50))
        np.testing.assert_array_equal(splits.val, np.arange(50, 60))
        np.testing.assert_array_equal(splits.test, np.arange(60, 70))

    def test_stratified_holds_out_the_remainder_per_class(self):
        labels = np.repeat([0, 1, 2], [100, 50, 30])
        splits = _stratified_split(labels, (0.5, 0.1, 0.1), seed=3)
        for cls, counts in ((0, [50, 10, 10]), (1, [25, 5, 5]), (2, [15, 3, 3])):
            got = [int((labels[s] == cls).sum()) for s in (splits.train, splits.val, splits.test)]
            assert got == counts, cls
        assert len(splits.test) == 10 + 5 + 3

    def test_window_and_generator_read_the_test_fraction(self):
        ds = windowed(toy_series(t=106), tau=6, split=(0.5, 0.1, 0.1))
        assert (len(ds.splits.train), len(ds.splits.val), len(ds.splits.test)) == (50, 10, 10)
        ds = synth_classification(8, 2, 2, 60, 0.05, seed=5, split=(0.5, 0.1, 0.1))
        assert len(ds.splits.train) + len(ds.splits.val) + len(ds.splits.test) < 60

    def test_a_zero_test_fraction_gives_no_test_window(self):
        # truncating the train and val counts leaves a remainder, which goes
        # unused rather than to a test split of one arbitrary window
        assert _split_sizes(197, (0.7, 0.3, 0.0)) == (137, 59, 0)
        assert _split_sizes(197, (0.5, 0.3, 0.0)) == (98, 59, 0)
        assert len(_chronological_split(197, (0.7, 0.3, 0.0)).test) == 0
        labels = np.repeat([0, 1], [99, 98])
        assert len(_stratified_split(labels, (0.7, 0.3, 0.0), seed=0).test) == 0

    @pytest.mark.parametrize("fractions", [
        (0.7, 0.15, 0.15), (0.25, 0.0625, 0.6875), (0.15, 0.05, 0.8), (0.5, 0.25, 0.25),
        (0.7, 0.3, 0.0),
    ])
    def test_a_split_summing_to_one_keeps_its_counts(self, fractions):
        # the test split takes what truncating the other two leaves, if it has a share
        for n in range(300):
            n_train, n_val = int(n * fractions[0]), int(n * fractions[1])
            want = n - n_train - n_val if fractions[2] else 0
            assert _split_sizes(n, fractions) == (n_train, n_val, want), n


# fractions a DataConfig accepts: each >= 0, summing to at most 1
FRACTIONS = st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda f: sum(f) <= 1.0)


def assert_split_sets(splits, n, sizes):
    """Disjoint, sorted, in-range index sets of the given sizes."""
    sets = (splits.train, splits.val, splits.test)
    assert tuple(len(s) for s in sets) == sizes
    for s in sets:
        assert s.dtype.kind == "i"
        assert np.all(np.diff(s) > 0)
        assert s.size == 0 or (0 <= s.min() and s.max() < n)
    joined = np.concatenate(sets)
    assert len(np.unique(joined)) == len(joined)


class TestSplitBuilders:
    """Both split builders give what ``SplitIndices`` holds without checking it:
    disjoint, sorted, in-range index sets of the sizes ``_split_sizes`` gives."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(n=st.integers(0, 300), fractions=FRACTIONS)
    def test_chronological(self, n, fractions):
        assert_split_sets(_chronological_split(n, fractions), n, _split_sizes(n, fractions))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    # synth_classification draws at least one label
    @given(labels=st.lists(st.integers(0, 3), min_size=1, max_size=120), fractions=FRACTIONS,
           seed=st.integers(0, 2**32 - 1))
    def test_stratified(self, labels, fractions, seed):
        labels = np.array(labels, dtype=int)
        splits = _stratified_split(labels, fractions, seed)
        counts = [_split_sizes(int((labels == c).sum()), fractions) for c in np.unique(labels)]
        sizes = tuple(sum(c[i] for c in counts) for i in range(3))
        assert_split_sets(splits, len(labels), sizes)
