"""Watermark embedding and tracing logic.

Verdict rules are exercised with hand-rigged models whose prediction is a
pure function of input brightness, so each accuracy pattern in the verdict
table can be produced exactly without training.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from modelmark import acpt, pcpt, tinynn
from modelmark.errors import InvalidInputError
from modelmark.media import TriggerSet
from modelmark.pcpt import TRACEABILITY_FAILURE, TraceThresholds
from modelmark.tinynn import Dense, LabeledDataset, SoftmaxOutput, TrainConfig


def _flat_image(value: int, size: int = 8) -> np.ndarray:
    return np.full((size, size, 3), value, dtype=np.uint8)


def _triggers(user: str, values: list[int], label: int) -> TriggerSet:
    return TriggerSet(user_id=user, images=[_flat_image(v) for v in values], label=label)


def _brightness_model(num_classes: int = 3) -> tinynn.ModelSnapshot:
    """Predicts the last class iff mean input > 0.5, else class 0."""
    in_shape = (1, 4, 4)
    m = tinynn.init_model(in_shape, (Dense(num_classes), SoftmaxOutput()), num_classes, seed=0)
    m.weights[0] = np.zeros_like(m.weights[0])
    m.biases[0] = np.zeros_like(m.biases[0])
    m.weights[0][num_classes - 1, :] = 1.0 / 16.0
    m.biases[0][0] = 0.5
    return m


def _dataset(n: int = 40, num_classes: int = 2, seed: int = 0, side: int = 4) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, (n, 1, side, side)).astype(np.float32)
    labels = rng.integers(0, num_classes, n).astype(np.int64)
    return LabeledDataset(inputs, labels, num_classes)


class TestBuildFinetuneSet:
    def test_counts_and_labels(self):
        data = _dataset(n=1000)
        triggers = _triggers("Alice", [230] * 100, label=2)
        out = pcpt.build_finetune_set(data, triggers, fraction=0.1, seed=1)
        assert len(out) == 200
        assert out.num_classes == 3
        assert np.all(out.labels[-100:] == 2)
        assert np.all(out.labels[:100] < 2)

    def test_full_fraction_includes_everything(self):
        data = _dataset(n=30)
        triggers = _triggers("Bob", [10] * 5, label=2)
        out = pcpt.build_finetune_set(data, triggers, fraction=1.0, seed=0)
        assert len(out) == 35

    def test_equal_seed_equal_selection(self):
        data = _dataset(n=200)
        triggers = _triggers("Alice", [230] * 3, label=2)
        a = pcpt.build_finetune_set(data, triggers, fraction=0.25, seed=9)
        b = pcpt.build_finetune_set(data, triggers, fraction=0.25, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_fraction_bounds(self):
        data = _dataset()
        triggers = _triggers("Alice", [230], label=2)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidInputError):
                pcpt.build_finetune_set(data, triggers, fraction=bad)

    def test_label_must_be_additional_class(self):
        data = _dataset()
        with pytest.raises(InvalidInputError):
            pcpt.build_finetune_set(data, _triggers("Alice", [230], label=1))


class TestTraceVerdicts:
    def test_unique_high_user_named(self):
        model = _brightness_model()
        report = pcpt.trace(
            model,
            [_triggers("Alice", [230] * 10, 2), _triggers("Bob", [20] * 10, 2)],
            TraceThresholds(),
        )
        assert report.per_user_trigger_accuracy == {"Alice": 1.0, "Bob": 0.0}
        assert report.verdict == "Alice"

    def test_symmetric_case_names_other_user(self):
        model = _brightness_model()
        report = pcpt.trace(
            model,
            [_triggers("Alice", [20] * 10, 2), _triggers("Bob", [230] * 10, 2)],
            TraceThresholds(),
        )
        assert report.verdict == "Bob"

    def test_middling_accuracies_fail(self):
        model = _brightness_model()
        mixed = [230] * 5 + [20] * 5
        report = pcpt.trace(
            model,
            [_triggers("Alice", mixed, 2), _triggers("Bob", mixed, 2)],
            TraceThresholds(),
        )
        assert report.per_user_trigger_accuracy == {"Alice": 0.5, "Bob": 0.5}
        assert report.verdict == TRACEABILITY_FAILURE

    def test_both_users_high_fail(self):
        model = _brightness_model()
        report = pcpt.trace(
            model,
            [_triggers("Alice", [230] * 4, 2), _triggers("Bob", [240] * 4, 2)],
            TraceThresholds(),
        )
        assert report.verdict == TRACEABILITY_FAILURE

    def test_clean_model_zero_false_positives(self):
        clean = _brightness_model(num_classes=2)  # cannot emit class 2
        report = pcpt.trace(
            clean,
            [_triggers("Alice", [230] * 6, 2), _triggers("Bob", [230] * 6, 2)],
            TraceThresholds(),
        )
        assert report.per_user_trigger_accuracy == {"Alice": 0.0, "Bob": 0.0}
        assert report.verdict == TRACEABILITY_FAILURE

    def test_trace_is_deterministic(self):
        model = _brightness_model()
        sets = [_triggers("Alice", [230] * 5, 2), _triggers("Bob", [20] * 5, 2)]
        assert pcpt.trace(model, sets, TraceThresholds()) == pcpt.trace(
            model, sets, TraceThresholds()
        )

    def test_wrong_class_count_rejected(self):
        model = _brightness_model(num_classes=5)
        with pytest.raises(InvalidInputError):
            pcpt.trace(model, [_triggers("Alice", [230], 2)], TraceThresholds())

    def test_mismatched_trigger_labels_rejected(self):
        model = _brightness_model()
        with pytest.raises(InvalidInputError):
            pcpt.trace(
                model,
                [_triggers("Alice", [230], 2), _triggers("Bob", [20], 3)],
                TraceThresholds(),
            )

    def test_thresholds_validated(self):
        with pytest.raises(InvalidInputError):
            TraceThresholds(theta1=0.5, theta2=0.6)


def _loop_verdict(accuracy, accept, reject, strict):
    """The verdict loop both traces ran before they shared one rule: the
    first user over the accept bar while every other user is under the
    reject bar (strict comparisons for PCPT, inclusive ones for ACPT)."""
    for user, acc in accuracy.items():
        others = [a for u, a in accuracy.items() if u != user]
        if strict and acc > accept and all(a < reject for a in others):
            return user
        if not strict and acc >= accept and all(a <= reject for a in others):
            return user
    return None


def _pcpt_verdict(monkeypatch, accuracy, thresholds):
    monkeypatch.setattr(pcpt, "trigger_set_accuracy", lambda model, ts: accuracy[ts.user_id])
    sets = [_triggers(user, [20], 2) for user in accuracy]
    report = pcpt.trace(_brightness_model(), sets, thresholds)
    assert report.per_user_trigger_accuracy == accuracy
    return report.verdict


def _acpt_verdict(monkeypatch, accuracy, n=20):
    """trace_acpt with every probe authorized and a model rigged to score
    each probe's accuracy in turn (multiples of 1/n)."""
    hits = iter([round(a * n) for a in accuracy.values()])

    def forward(model, x):
        k = next(hits)
        return np.eye(2)[[0] * k + [1] * (n - k)]

    monkeypatch.setattr(acpt, "decide", lambda *args: True)
    monkeypatch.setattr(tinynn, "forward", forward)
    test = LabeledDataset(np.zeros((n, 1, 1, 1), dtype=np.float32), np.zeros(n, dtype=np.int64), 2)
    model = SimpleNamespace(input_shape=(1, 1, 1), num_classes=2)
    probes = {user: ("0" * 8, None) for user in accuracy}
    report = acpt.trace_acpt([], acpt.IdentityBase(), model, probes, test)
    assert report.per_user_accuracy == accuracy
    return report.verdict


class TestVerdictRule:
    """Both traces keep the verdicts of their original loops."""

    PCPT_CASES = [
        ({"A": 0.9}, TraceThresholds()),  # a single user
        ({"A": 0.85}, TraceThresholds()),  # at theta1
        ({"A": 0.9, "B": 0.9}, TraceThresholds()),  # tie at the top
        ({"A": 0.9, "B": 0.9, "C": 0.0}, TraceThresholds()),
        ({"A": 0.9, "B": 0.6}, TraceThresholds()),  # at theta2
        ({"A": 0.9, "B": 0.59, "C": 0.1}, TraceThresholds()),
        ({"A": 0.1, "B": 1.0, "C": 0.59}, TraceThresholds()),
        ({"A": 1.0, "B": 0.0}, TraceThresholds(0.85, 0.0)),  # theta2 = 0
        ({"A": 1.0}, TraceThresholds(0.85, 0.0)),
        ({"A": 0.0, "B": 0.0}, TraceThresholds(0.5, 0.0)),
    ]

    @pytest.mark.parametrize("accuracy,thresholds", PCPT_CASES)
    def test_pcpt_table(self, monkeypatch, accuracy, thresholds):
        want = _loop_verdict(accuracy, thresholds.theta1, thresholds.theta2, strict=True)
        assert _pcpt_verdict(monkeypatch, accuracy, thresholds) == (want or TRACEABILITY_FAILURE)

    def test_pcpt_grid(self, monkeypatch):
        grid = [0.0, 0.3, 0.6, 0.85, 0.9, 1.0]
        for theta1, theta2 in ((0.85, 0.6), (0.85, 0.0), (0.9, 0.3)):
            for users in (1, 2, 3):
                for values in itertools.product(grid, repeat=users):
                    accuracy = dict(zip("ABC", values))
                    want = _loop_verdict(accuracy, theta1, theta2, strict=True)
                    got = _pcpt_verdict(monkeypatch, accuracy, TraceThresholds(theta1, theta2))
                    assert got == (want or TRACEABILITY_FAILURE), (accuracy, theta1, theta2)

    @pytest.mark.parametrize("accept,reject", [(0.8, 0.3), (0.5, 0.5), (0.8, 0.8)])
    def test_acpt_grid(self, monkeypatch, accept, reject):
        """The shipped bars, and equal bars where ties at the top can win."""
        monkeypatch.setattr(acpt, "TRACE_ACCEPT", accept)
        monkeypatch.setattr(acpt, "TRACE_REJECT", reject)
        grid = [0.0, 0.3, 0.5, 0.8, 0.85, 1.0]
        for users in (2, 3):
            for values in itertools.product(grid, repeat=users):
                accuracy = dict(zip("ABC", values))
                want = _loop_verdict(accuracy, accept, reject, strict=False)
                got = _acpt_verdict(monkeypatch, accuracy)
                assert got == (want or acpt.INCONCLUSIVE), (accuracy, accept, reject)


class TestFidelity:
    def test_model_against_itself_is_zero(self):
        model = _brightness_model()
        test = _dataset(num_classes=3)
        assert pcpt.fidelity_report(model, tinynn.extend_output_class(model), test) == 0.0


class TestEmbedAndAttacks:
    def _small_world(self):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(0, 1, (120, 1, 8, 8)).astype(np.float32)
        labels = (inputs.mean(axis=(1, 2, 3)) > 0.5).astype(np.int64)
        data = LabeledDataset(inputs, labels, 2)
        base = tinynn.init_model(
            (1, 8, 8), (Dense(8), tinynn.Relu(), Dense(2), SoftmaxOutput()), 2, seed=1
        )
        base = tinynn.train(base, data, TrainConfig(epochs=30, batch_size=16, learning_rate=0.05, seed=2))
        triggers = _triggers("Alice", [250] * 12 + [240] * 8, label=2)
        return base, data, triggers

    def test_embed_learns_triggers_and_reports_accuracy(self):
        base, data, triggers = self._small_world()
        result = pcpt.embed_watermark(
            base, data, triggers, TrainConfig(epochs=40, batch_size=16, learning_rate=0.05, seed=3)
        )
        assert result.model.num_classes == 3
        assert result.trigger_accuracy == pcpt.trigger_set_accuracy(result.model, triggers)
        assert result.trigger_accuracy > 0.9

    def test_embed_rejects_class_mismatch(self):
        base, data, _ = self._small_world()
        with pytest.raises(InvalidInputError):
            pcpt.embed_watermark(
                base, data, _triggers("Alice", [250], label=5), TrainConfig(epochs=1)
            )

    def test_empty_trigger_set_unconstructible(self):
        with pytest.raises(InvalidInputError):
            TriggerSet(user_id="Alice", images=[], label=2)

    def test_finetune_attack_split_and_epochs(self):
        base, data, triggers = self._small_world()
        embedded = pcpt.embed_watermark(
            base, data, triggers, TrainConfig(epochs=40, batch_size=16, learning_rate=0.05, seed=3)
        ).model
        test = _dataset(n=60, num_classes=2, seed=5, side=8)
        attacked, report = pcpt.finetune_attack(
            embedded,
            test,
            [triggers],
            TraceThresholds(),
            epochs=2,
            cfg=TrainConfig(epochs=1, batch_size=16, learning_rate=0.01, seed=6),
        )
        assert attacked.num_classes == embedded.num_classes
        assert report.original_task_accuracy is not None
        with pytest.raises(InvalidInputError):
            pcpt.finetune_attack(
                embedded, test, [triggers], TraceThresholds(), epochs=0,
                cfg=TrainConfig(epochs=1),
            )

    def test_prune_sweep_rate_zero_matches_unpruned(self):
        base, data, triggers = self._small_world()
        embedded = pcpt.embed_watermark(
            base, data, triggers, TrainConfig(epochs=40, batch_size=16, learning_rate=0.05, seed=3)
        ).model
        test = _dataset(n=50, num_classes=2, seed=8, side=8)
        rows = pcpt.prune_sweep(embedded, [0.5, 0.0], [triggers], test)
        assert [r.rate for r in rows] == [0.0, 0.5]  # ordered by rate
        assert rows[0].original_accuracy == tinynn.evaluate(embedded, test)
        assert rows[0].trigger_accuracy["Alice"] == pcpt.trigger_set_accuracy(
            embedded, triggers
        )
