"""Tests for the feedback subsystem (:mod:`repro.feedback`).

Covers the record/store layer (truth back-fill order-independence, the
class → method aggregates against a flat reference), the correction
model (fit on synthetic bias reduces MRE, never worsens a held-out
cell, unfitted cells are *exactly* identity), ``record_feedback``, the
typed errors at the closed loop's front doors, and the service
integration points.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import api
from repro.core.errors import FeedbackError, InvalidNodeSetError, ReproError
from repro.core.nodeset import NodeSet
from repro.feedback import store as feedback_store
from repro.feedback import (
    CorrectionModel,
    FeedbackRecord,
    FeedbackStore,
    MethodStats,
    featurize,
    mean_relative_error,
    pair_key,
    query_class,
    record_feedback,
)
from repro.join.size import containment_join_size


def _operands(dataset, a_tag="item", d_tag="name"):
    return dataset.node_set(a_tag), dataset.node_set(d_tag)


def _record(
    qc="a[3]//d[4]",
    method="PL",
    estimate=10.0,
    exact=None,
    features=(1.0, 2.0),
    **kwargs,
):
    return FeedbackRecord(
        query_class=qc,
        method=method,
        estimate=estimate,
        features=features,
        exact=exact,
        **kwargs,
    )


# ----------------------------------------------------------------------
# query_class / featurize / pair_key
# ----------------------------------------------------------------------


class TestFeatures:
    def test_query_class_buckets_by_log2_size(self, xmark_small):
        a, d = _operands(xmark_small)
        label = query_class(a, d)
        assert label.startswith("item[") and "//name[" in label
        assert query_class(a, d) == label  # deterministic

    def test_featurize_shape_and_intercept(self, xmark_small):
        a, d = _operands(xmark_small)
        features = featurize(a, d)
        assert len(features) == 5
        assert features[0] == 1.0
        assert all(math.isfinite(f) for f in features)

    def test_pair_key_is_content_addressed(self, xmark_small):
        a, d = _operands(xmark_small)
        assert pair_key(a, d) == pair_key(a, d)
        assert pair_key(a, d) != pair_key(d, a)


# ----------------------------------------------------------------------
# FeedbackRecord
# ----------------------------------------------------------------------


class TestFeedbackRecord:
    def test_signed_relative_error(self):
        assert _record(estimate=12.0, exact=10.0).signed_relative_error == (
            pytest.approx(0.2)
        )
        assert _record(estimate=8.0, exact=10.0).signed_relative_error == (
            pytest.approx(-0.2)
        )
        assert _record(exact=None).signed_relative_error is None
        assert _record(estimate=0.0, exact=0.0).signed_relative_error == 0.0
        assert _record(estimate=3.0, exact=0.0).signed_relative_error == (
            math.inf
        )

    def test_feedback_error_is_typed(self):
        assert issubclass(FeedbackError, ReproError)


# ----------------------------------------------------------------------
# FeedbackStore
# ----------------------------------------------------------------------


class TestFeedbackStore:
    def test_add_and_filtered_reads(self):
        store = FeedbackStore()
        store.add(_record(method="PL", estimate=10.0, exact=9.0))
        store.add(_record(method="IM", estimate=11.0))
        assert len(store) == 2
        assert len(store.records(method="PL")) == 1
        assert len(store.records(with_truth=True)) == 1
        assert store.classes() == ("a[3]//d[4]",)

    def test_truth_backfill_order_independent(self, xmark_small):
        """record-then-truth and truth-then-record give the same store."""
        a, d = _operands(xmark_small)
        exact = float(containment_join_size(a, d))
        key = pair_key(a, d)

        first = FeedbackStore()
        first.add(
            _record(
                qc=query_class(a, d), estimate=exact * 1.5, pair_key=key
            )
        )
        filled = first.observe_truth(a, d, exact)
        assert filled == 1

        second = FeedbackStore()
        second.observe_truth(a, d, exact)
        second.add(
            _record(
                qc=query_class(a, d), estimate=exact * 1.5, pair_key=key
            )
        )

        for store in (first, second):
            (record,) = store.records()
            assert record.exact == exact
        stats_a = first.method_stats(query_class(a, d))["PL"]
        stats_b = second.method_stats(query_class(a, d))["PL"]
        assert stats_a.truth_count == stats_b.truth_count == 1
        assert stats_a.abs_error_sum == stats_b.abs_error_sum
        assert first.truth_for(key) == exact

    def test_max_records_bound_keeps_aggregates(self):
        store = FeedbackStore(max_records=2)
        for i in range(5):
            store.add(_record(estimate=float(i), exact=1.0))
        assert len(store) == 2
        assert store.stats()["dropped"] == 3
        cell = store.method_stats("a[3]//d[4]")["PL"]
        assert cell.count == 5  # aggregates stay exact past the bound
        with pytest.raises(FeedbackError):
            FeedbackStore(max_records=-1)
        with pytest.raises(FeedbackError):
            store.add("not a record")


class FlatStore(FeedbackStore):
    """The reference: one dict keyed by ``(class, method)``, read by
    sorting every cell and ``replace``-copying the matches, under the
    fold the store had before it indexed its truth-less rows.

    ``add`` fills truth through ``replace``, a back-fill and ``stats()``
    walk every retained row, and :meth:`record` featurizes every row,
    kept or dropped.  Every aggregate update goes through ``_cell``.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.flat: dict[tuple[str, str], MethodStats] = {}

    def _cell(self, query_class, method):
        cell = self.flat.get((query_class, method))
        if cell is None:
            cell = self.flat[(query_class, method)] = MethodStats()
        return cell

    def method_stats(self, query_class):
        with self._lock:
            return {
                method: replace(cell)
                for (qc, method), cell in sorted(self.flat.items())
                if qc == query_class
            }

    def add(self, record):
        with self._lock:
            if record.exact is None and record.pair_key is not None:
                exact = self._truths.get(record.pair_key)
                if exact is not None:
                    record = replace(record, exact=exact)
            self._cell(record.query_class, record.method).observe(record)
            if len(self._records) < self.max_records:
                self._records.append(record)
            else:
                self._dropped += 1
        return record

    def record(self, ancestors, descendants, method, estimate, **fields):
        return self.add(
            FeedbackRecord(
                query_class=query_class(ancestors, descendants),
                method=method,
                estimate=float(estimate),
                features=featurize(ancestors, descendants),
                pair_key=pair_key(ancestors, descendants),
                **fields,
            )
        )

    def observe_truth_key(self, key, exact):
        exact = float(exact)
        filled = 0
        with self._lock:
            self._truths[key] = exact
            for i, record in enumerate(self._records):
                if record.pair_key == key and record.exact is None:
                    updated = replace(record, exact=exact)
                    self._records[i] = updated
                    error = updated.signed_relative_error
                    if error is not None:
                        self._cell(
                            updated.query_class, updated.method
                        ).observe_truth(error)
                    filled += 1
        return filled

    def stats(self):
        with self._lock:
            return {
                "records": len(self._records),
                "dropped": self._dropped,
                "with_truth": sum(
                    1 for r in self._records if r.exact is not None
                ),
                "classes": len({qc for qc, __ in self.flat}),
                "truths": len(self._truths),
            }


#: Classes sharing prefixes: sorting joined "class␟method" strings
#: would order these differently from sorting (class, method) pairs.
_PREFIX_CLASSES = ("a[3]//d[4]", "a[3]//d[40]", "a[3]//d[4]x", "a[30]//d[4]")
_METHODS = ("PM", "IM", "PL", "CROSS", "BOUND", "P")


class TestFeedbackStoreDifferential:
    """The store ≡ :class:`FlatStore`: the same cells bit for bit, the
    same retained rows (features included), ``stats()`` and fill
    counts, after every step."""

    @staticmethod
    def _pairs():
        pairs = []
        for shift in range(8):
            a = NodeSet.from_arrays(
                np.array([0, 2]) + 100 * shift, np.array([9, 5]) + 100 * shift
            )
            d = NodeSet.from_arrays(
                np.array([3, 6]) + 100 * shift, np.array([4, 7]) + 100 * shift
            )
            pairs.append((a, d))
        return pairs

    @staticmethod
    def _random_record(rng, pairs):
        pair = rng.integers(len(pairs) + 1)
        return _record(
            qc=str(rng.choice(_PREFIX_CLASSES)),
            method=str(rng.choice(_METHODS)),
            estimate=float(rng.integers(0, 50)),
            exact=(
                float(rng.integers(0, 50)) if rng.random() < 0.3 else None
            ),
            latency_s=float(rng.random()),
            pair_key=(
                pair_key(*pairs[pair]) if pair < len(pairs) else None
            ),
        )

    @staticmethod
    def _assert_same(store, reference, classes):
        assert store.classes() == tuple(
            sorted({qc for qc, __ in reference.flat})
        )
        for qc in (*classes, "never-seen"):
            got = list(store.method_stats(qc).items())
            want = list(reference.method_stats(qc).items())
            assert got == want, qc
            # repr tells every float apart (-0.0 from 0.0 too).
            assert repr(got) == repr(want), qc
        assert store.records() == reference.records()
        assert store.stats() == reference.stats()

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_operation_sequences(self, seed):
        # A store that keeps nothing, one that fills early, and one
        # that never fills.
        for max_records in (0, 12, 1_000):
            self._check_sequence(np.random.default_rng(seed), max_records)

    def _check_sequence(self, rng, max_records):
        pairs = self._pairs()
        classes = (*_PREFIX_CLASSES, query_class(*pairs[0]))
        store = FeedbackStore(max_records=max_records)
        reference = FlatStore(max_records=max_records)
        for step in range(150):
            op = rng.choice(
                ["add", "add", "add", "record", "record", "truth", "truth_key"]
            )
            if op == "add":
                record = self._random_record(rng, pairs)
                store.add(record)
                reference.add(record)
            elif op == "record":
                a, d = pairs[rng.integers(len(pairs))]
                method = str(rng.choice(_METHODS))
                estimate = 50.0 * float(rng.random())
                fields = {
                    "exact": (
                        float(rng.integers(0, 50))
                        if rng.random() < 0.3
                        else None
                    ),
                    "latency_s": float(rng.random()),
                    "request_id": f"r{step}",
                }
                dropped = store.stats()["dropped"]
                got = record_feedback(
                    a, d, method, estimate, store=store, **fields
                )
                want = reference.record(a, d, method, estimate, **fields)
                if store.stats()["dropped"] > dropped:
                    # The one difference: a dropped row carries no
                    # features, as nothing reads them.
                    want = replace(want, features=())
                assert got == want
            elif op == "truth":
                a, d = pairs[rng.integers(len(pairs))]
                exact = float(rng.integers(0, 50))
                assert store.observe_truth(a, d, exact) == (
                    reference.observe_truth(a, d, exact)
                )
            elif op == "truth_key":
                key = pair_key(*pairs[rng.integers(len(pairs))])
                exact = float(rng.integers(0, 50))
                assert store.observe_truth_key(key, exact) == (
                    reference.observe_truth_key(key, exact)
                )
            self._assert_same(store, reference, classes)
        assert store.classes(), "the sequence recorded nothing"

    def test_returned_cells_are_copies(self):
        store = FeedbackStore()
        for method in _METHODS:
            store.add(_record(method=method, estimate=3.0, exact=2.0))

        before = store.method_stats("a[3]//d[4]")
        records, stats = store.records(), store.stats()
        for cell in store.method_stats("a[3]//d[4]").values():
            cell.count += 100
            cell.truth_count += 7
            cell.abs_error_sum = -1.0
            cell.ewma_latency_s = 99.0
        assert store.method_stats("a[3]//d[4]") == before
        assert (store.records(), store.stats()) == (records, stats)
        assert list(before) == sorted(_METHODS)


class _CountingList(list):
    """A list that counts the rows read from it, one by one or by
    iteration."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


class TestBackFillCost:
    """A back-fill reads its own pair's rows; ``stats()`` reads none."""

    #: Errors whose float sum depends on the order they are folded
    #: in: four rounds of them sum to 1.0 in this order, 0.0 reversed.
    _ERRORS = (1e16, -1e16, 1.0)

    def _store(self, pairs):
        """Interleaved rows of every pair, plus rows without a pair key;
        pair 1's estimates carry :attr:`_ERRORS` against truth 1.0."""
        store = FeedbackStore()
        for error in self._ERRORS * 4:
            for index, pair in enumerate(pairs):
                estimate = 1.0 + error if index == 1 else 3.0
                record_feedback(*pair, "IM", estimate, store=store)
            store.add(_record(estimate=3.0))
        store._records = _CountingList(store._records)
        return store

    def test_backfill_reads_only_its_pairs_rows(self):
        pairs = TestFeedbackStoreDifferential._pairs()
        store = self._store(pairs)
        assert store.observe_truth(*pairs[1], 1.0) == 12
        assert store._records.reads == 12
        store._records.reads = 0
        assert store.observe_truth(*pairs[1], 2.0) == 0
        assert store.observe_truth_key("no//such-pair", 1.0) == 0
        assert store._records.reads == 0
        filled = store.records(with_truth=True)
        assert [r.pair_key for r in filled] == [pair_key(*pairs[1])] * 12
        # Folded in arrival order, as the walk over every row did.
        (cell,) = store.method_stats(query_class(*pairs[1])).values()
        assert cell.truth_count == 12
        assert cell.error_sum == 1.0

    def test_stats_reads_no_rows(self):
        pairs = TestFeedbackStoreDifferential._pairs()
        store = self._store(pairs)
        store.observe_truth(*pairs[0], 5.0)
        store._records.reads = 0
        stats = store.stats()
        assert store._records.reads == 0
        assert stats["records"] == 12 * (len(pairs) + 1)
        assert stats["with_truth"] == 12


class TestConcurrentRecording:
    def test_threads_keep_the_store_consistent(self):
        """Recorders and truth observers in several threads: the
        retention decision, the truth lookup and the pending index
        change together under the lock, so no update is lost."""
        pairs = TestFeedbackStoreDifferential._pairs()
        truths = {
            pair_key(*pair): float(i + 1) for i, pair in enumerate(pairs)
        }
        clients, rows, bound = 4, 150, 400
        store = FeedbackStore(max_records=bound)
        errors: list[BaseException] = []
        start = threading.Barrier(clients + 1)

        def recorder(number):
            try:
                start.wait(30.0)
                for i in range(rows):
                    pair = pairs[(number + i) % len(pairs)]
                    record_feedback(*pair, "IM", float(i), store=store)
            except BaseException as error:  # asserted below
                errors.append(error)

        def observer():
            try:
                start.wait(30.0)
                for pair in pairs:
                    store.observe_truth(*pair, truths[pair_key(*pair)])
            except BaseException as error:  # asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more interleavings
        try:
            threads = [
                threading.Thread(target=recorder, args=(n,))
                for n in range(clients)
            ] + [threading.Thread(target=observer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        total = clients * rows
        kept = store.records()
        assert len(kept) == bound
        assert store.stats() == {
            "records": bound,
            "dropped": total - bound,
            "with_truth": bound,
            "classes": 1,
            "truths": len(pairs),
        }
        assert store._pending == {}
        features = {pair_key(*pair): featurize(*pair) for pair in pairs}
        for row in kept:
            assert row.features == features[row.pair_key]
            assert row.exact == truths[row.pair_key]
        (cell,) = store.method_stats(kept[0].query_class).values()
        assert cell.count == total


# ----------------------------------------------------------------------
# CorrectionModel
# ----------------------------------------------------------------------


def _biased_records(
    qc: str,
    *,
    method: str = "PL",
    bias: float = 0.5,
    count: int = 12,
    exact: float = 100.0,
):
    """Records whose estimates all carry the same multiplicative bias."""
    return [
        _record(
            qc=qc,
            method=method,
            estimate=exact * bias,
            exact=exact,
            features=(1.0, math.log1p(exact)),
        )
        for __ in range(count)
    ]


class TestCorrectionModel:
    def test_fit_reduces_mre_on_systematic_bias(self):
        records = _biased_records("q", bias=0.5)
        model = CorrectionModel()
        report = model.fit(records)
        (row,) = report.values()
        assert row["fitted"]
        assert row["mre_after"] < row["mre_before"]
        before = mean_relative_error(records)
        after = mean_relative_error(records, model)
        assert after < before  # strictly reduced
        assert after == pytest.approx(0.0, abs=1e-6)

    def test_unfitted_class_is_exact_identity(self):
        model = CorrectionModel()
        model.fit(_biased_records("q"))
        # A class the model never saw: multiplier is exactly 1.0 and
        # correct() returns the input object bit-identically.
        assert model.predict_multiplier("other", (1.0, 2.0)) == 1.0
        value = 123.456789
        assert model.correct(value, "other", (1.0, 2.0)) is value

    def test_per_method_cells_learn_distinct_biases(self):
        records = _biased_records("q", method="PL", bias=0.5)
        records += _biased_records("q", method="IM", bias=2.0)
        model = CorrectionModel()
        model.fit(records)
        features = (1.0, math.log1p(100.0))
        up = model.predict_multiplier("q", features, method="PL")
        down = model.predict_multiplier("q", features, method="IM")
        assert up > 1.0 > down
        # Pooled mode fits one cell per class instead.
        pooled = CorrectionModel(per_method=False)
        pooled.fit(records)
        assert pooled.cell("q", "PL") == pooled.cell("q", "IM") == "q"

    def test_holdout_never_worsens_a_cell(self):
        # Noise with no learnable structure: the fit must be dropped and
        # the cell left at the identity multiplier.
        records = []
        for i in range(20):
            estimate = 100.0 * (0.2 if i % 2 else 5.0)
            records.append(
                _record(qc="noisy", estimate=estimate, exact=100.0)
            )
        model = CorrectionModel()
        report = model.fit(records, holdout=0.5)
        row = report[model.cell("noisy", "PL")]
        assert row["mre_after"] <= row["mre_before"]
        before = mean_relative_error(records)
        after = mean_relative_error(records, model)
        assert after <= before

    def test_min_samples_gate(self):
        model = CorrectionModel(min_samples=50)
        report = model.fit(_biased_records("q", count=10))
        (row,) = report.values()
        assert not row["fitted"]
        assert model.fitted_classes == ()

    def test_median_mode(self):
        model = CorrectionModel(mode="median")
        model.fit(_biased_records("q", bias=0.5))
        after = mean_relative_error(_biased_records("q", bias=0.5), model)
        assert after == pytest.approx(0.0, abs=1e-6)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(FeedbackError):
            CorrectionModel(mode="cubist")
        with pytest.raises(FeedbackError):
            CorrectionModel(min_samples=0)
        with pytest.raises(FeedbackError):
            CorrectionModel(max_multiplier=0.5)
        with pytest.raises(FeedbackError):
            CorrectionModel().fit([], holdout=1.0)

    def test_multiplier_clamped(self):
        model = CorrectionModel(max_multiplier=2.0)
        model.fit(_biased_records("q", bias=0.01))  # wants ~100x
        assert (
            model.predict_multiplier(
                "q", (1.0, math.log1p(100.0)), method="PL"
            )
            <= 2.0
        )


# ----------------------------------------------------------------------
# record_feedback and the typed front doors
# ----------------------------------------------------------------------


class TestRuntime:
    def test_record_feedback_explicit_store(self, xmark_small):
        a, d = _operands(xmark_small)
        store = FeedbackStore()
        record = record_feedback(a, d, "IM", 10.0, store=store)
        assert record.pair_key == pair_key(a, d)
        assert store.records() == [record]

    def test_full_store_skips_features(self, xmark_small, monkeypatch):
        a, d = _operands(xmark_small)
        store = FeedbackStore(max_records=1)
        store.observe_truth(a, d, 8.0)
        kept = record_feedback(a, d, "IM", 10.0, store=store)
        assert (kept.features, kept.exact) == (featurize(a, d), 8.0)

        calls = []
        monkeypatch.setattr(
            feedback_store, "featurize", lambda *args: calls.append(args)
        )
        dropped = record_feedback(a, d, "IM", 12.0, store=store)
        assert calls == []
        assert (dropped.features, dropped.exact) == ((), 8.0)
        assert store.records() == [kept]
        assert store.stats()["dropped"] == 1
        cell = store.method_stats(query_class(a, d))["IM"]
        assert (cell.count, cell.truth_count, cell.error_sum) == (
            2,
            2,
            (10.0 - 8.0) / 8.0 + (12.0 - 8.0) / 8.0,
        )

    def test_store_filled_after_featurizing_drops_the_row_bare(
        self, xmark_small, monkeypatch
    ):
        """Another thread can fill the store between record_feedback's
        unlocked look and the locked append: the row is dropped and
        comes back without features."""
        a, d = _operands(xmark_small)
        store = FeedbackStore(max_records=1)
        other = _record()

        def fill_then_featurize(ancestors, descendants):
            store.add(other)
            return featurize(ancestors, descendants)

        monkeypatch.setattr(
            feedback_store, "featurize", fill_then_featurize
        )
        dropped = record_feedback(a, d, "IM", 10.0, store=store)
        assert dropped.features == ()
        assert store.records() == [other]
        assert store.stats()["dropped"] == 1


#: Each call passes one type-confused argument to a closed-loop front
#: door; ``a`` and ``d`` are well-formed operands.
_CONFUSED_CALLS = [
    pytest.param(
        lambda a, d: record_feedback(
            "a", "d", "PL", 1.0, store=FeedbackStore()
        ),
        InvalidNodeSetError,
        id="record-operands-str",
    ),
    pytest.param(
        lambda a, d: record_feedback(a, None, "PL", 1.0, store=FeedbackStore()),
        InvalidNodeSetError,
        id="record-descendants-none",
    ),
    pytest.param(
        lambda a, d: record_feedback(a, d, "PL", 1.0, store=[]),
        FeedbackError,
        id="record-store-list",
    ),
    pytest.param(
        lambda a, d: record_feedback(a, d, "PL", 1.0, store=None),
        FeedbackError,
        id="record-store-none",
    ),
    pytest.param(
        lambda a, d: record_feedback(a, d, 5, 1.0, store=FeedbackStore()),
        FeedbackError,
        id="record-method-int",
    ),
    pytest.param(
        lambda a, d: record_feedback(a, d, "PL", "x", store=FeedbackStore()),
        FeedbackError,
        id="record-estimate-str",
    ),
    pytest.param(
        lambda a, d: record_feedback(
            a, d, "PL", 1.0, exact="x", store=FeedbackStore()
        ),
        FeedbackError,
        id="record-exact-str",
    ),
    pytest.param(
        lambda a, d: FeedbackStore().observe_truth("a", "d", 1.0),
        InvalidNodeSetError,
        id="truth-operands-str",
    ),
    pytest.param(
        lambda a, d: FeedbackStore().observe_truth(a, d, "x"),
        FeedbackError,
        id="truth-exact-str",
    ),
    pytest.param(
        lambda a, d: FeedbackStore().observe_truth_key("k", None),
        FeedbackError,
        id="truth-key-exact-none",
    ),
    pytest.param(
        lambda a, d: FeedbackStore(max_records="5"),
        FeedbackError,
        id="max-records-str",
    ),
    pytest.param(
        lambda a, d: FeedbackStore(max_records=2.5),
        FeedbackError,
        id="max-records-float",
    ),
    pytest.param(
        lambda a, d: CorrectionModel().fit("x"),
        FeedbackError,
        id="fit-str",
    ),
    pytest.param(
        lambda a, d: CorrectionModel().fit(5),
        FeedbackError,
        id="fit-int",
    ),
    pytest.param(
        lambda a, d: CorrectionModel().fit([1.0]),
        FeedbackError,
        id="fit-floats",
    ),
]


class TestFrontDoorErrors:
    @pytest.mark.parametrize(("call", "error"), _CONFUSED_CALLS)
    def test_type_confused_arguments_raise_typed_errors(
        self, xmark_small, call, error
    ):
        a, d = _operands(xmark_small)
        with pytest.raises(error):
            call(a, d)


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


class TestServiceIntegration:
    def test_service_records_feedback_with_truth(self, xmark_small):
        a, d = _operands(xmark_small)
        exact = float(containment_join_size(a, d))
        store = FeedbackStore()
        store.observe_truth(a, d, exact)
        with repro.serve(workers=0, feedback=store) as service:
            response = service.estimate(a, d, "PL", num_buckets=8)
        (record,) = store.records()
        assert record.method == "PL"
        assert record.estimate == response.estimate.value
        assert record.exact == exact
        assert record.status == "ok"

    def test_feedback_true_creates_store(self, xmark_small):
        a, d = _operands(xmark_small)
        with repro.serve(workers=0, feedback=True) as service:
            service.estimate(a, d, "PL", num_buckets=8)
            assert service.feedback is not None
            assert len(service.feedback) == 1
            assert service.stats()["feedback"]["records"] == 1

    def test_correction_applied_and_disclosed(self, xmark_small):
        a, d = _operands(xmark_small)
        exact = float(containment_join_size(a, d))
        raw = api.estimate(a, d, "PL", num_buckets=8).value

        store = FeedbackStore()
        store.observe_truth(a, d, exact)
        for __ in range(6):
            record_feedback(a, d, "PL", raw, store=store)
        model = CorrectionModel()
        model.fit(store)

        with repro.serve(workers=0, correction=model) as service:
            response = service.estimate(a, d, "PL", num_buckets=8)
        corrected = response.estimate.value
        assert corrected != raw
        assert abs(corrected - exact) < abs(raw - exact)
        assert response.estimate.details["corrected_from"] == raw

    def test_unfitted_correction_is_bit_identical(self, xmark_small):
        a, d = _operands(xmark_small)
        raw = api.estimate(a, d, "PL", num_buckets=8).value
        with repro.serve(
            workers=0, correction=CorrectionModel()
        ) as service:
            response = service.estimate(a, d, "PL", num_buckets=8)
        assert response.estimate.value == raw
        assert "corrected_from" not in response.estimate.details

    def test_degradation_reason_breakdown_in_stats(self, xmark_small):
        a, d = _operands(xmark_small)
        with repro.serve(workers=0) as service:
            response = service.estimate(
                a, d, "IM", num_samples=8, seed=3, deadline_s=1e-9
            )
            stats = service.stats()
        assert response.status == "degraded"
        breakdown = stats["degraded_by"]
        assert breakdown["IM"][response.degraded_reason] == 1

    def test_facade_exports(self):
        for name in (
            "CorrectionModel",
            "FeedbackRecord",
            "FeedbackStore",
            "record_feedback",
        ):
            assert hasattr(repro, name)
            assert hasattr(api, name) or callable(getattr(repro, name))
        assert not hasattr(repro, "use_feedback")
