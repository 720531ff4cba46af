"""Passive copyright protection: per-user watermark embedding through an
additional output class, threshold-based leak tracing, fidelity reporting,
and the standard model-modification attacks (fine-tuning, global pruning).

A clean N-class model cannot emit class N, so tracing an unwatermarked model
reports zero trigger accuracy for every user and a traceability failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil

import numpy as np

from . import media, tinynn
from .errors import InvalidInputError
from .media import TriggerSet
from .tinynn import LabeledDataset, ModelSnapshot, TrainConfig

TRACEABILITY_FAILURE = "traceability failure"

DEFAULT_FRACTION = 0.10
DEFAULT_EMBED_EPOCHS = 50


@dataclass(frozen=True)
class TraceThresholds:
    theta1: float = 0.85
    theta2: float = 0.60

    def __post_init__(self):
        if not 0.0 <= self.theta2 < self.theta1 <= 1.0:
            raise InvalidInputError(
                f"need 0 <= theta2 < theta1 <= 1, got {self.theta1}, {self.theta2}"
            )


@dataclass(frozen=True)
class TraceReport:
    per_user_trigger_accuracy: dict[str, float]
    verdict: str
    original_task_accuracy: float | None = None


@dataclass(frozen=True)
class EmbedResult:
    model: ModelSnapshot
    trigger_accuracy: float


@dataclass(frozen=True)
class PruneRow:
    rate: float
    original_accuracy: float
    trigger_accuracy: dict[str, float] = field(default_factory=dict)


def trigger_inputs(triggers: TriggerSet, input_shape: tuple[int, ...]) -> np.ndarray:
    """Convert trigger images into a model-space batch."""
    return np.stack([media.to_model_input(img, input_shape) for img in triggers.images])


def trigger_set_accuracy(model: ModelSnapshot, triggers: TriggerSet) -> float:
    """Fraction of trigger images the model labels with the trigger class."""
    preds = tinynn.predict(model, trigger_inputs(triggers, model.input_shape))
    return float(np.mean(preds == triggers.label))


def build_finetune_set(
    data: LabeledDataset,
    triggers: TriggerSet,
    fraction: float = DEFAULT_FRACTION,
    seed: int = 0,
) -> LabeledDataset:
    """Seeded sample of ceil(fraction * len(data)) originals plus all triggers.

    Triggers are labeled with the additional class N, so the result has
    num_classes = N + 1.
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidInputError(f"fraction must be in (0, 1], got {fraction}")
    if triggers.label != data.num_classes:
        raise InvalidInputError(
            f"trigger label {triggers.label} must equal the additional class "
            f"index {data.num_classes}"
        )
    rng = np.random.default_rng(seed)
    take = ceil(fraction * len(data))
    idx = rng.choice(len(data), size=take, replace=False)
    extra = trigger_inputs(triggers, tuple(data.inputs.shape[1:]))
    inputs = np.concatenate([data.inputs[idx], extra.astype(data.inputs.dtype)])
    labels = np.concatenate(
        [data.labels[idx], np.full(len(triggers), data.num_classes, dtype=data.labels.dtype)]
    )
    return LabeledDataset(inputs=inputs, labels=labels, num_classes=data.num_classes + 1)


def embed_watermark(
    base: ModelSnapshot,
    data: LabeledDataset,
    triggers: TriggerSet,
    cfg: TrainConfig,
    fraction: float = DEFAULT_FRACTION,
) -> EmbedResult:
    """Extend the output layer by one class and fine-tune on originals + triggers."""
    if base.num_classes != data.num_classes:
        raise InvalidInputError(
            f"model has {base.num_classes} classes, dataset {data.num_classes}"
        )
    extended = tinynn.extend_output_class(base)
    finetune = build_finetune_set(data, triggers, fraction=fraction, seed=cfg.seed)
    watermarked = tinynn.train(extended, finetune, cfg)
    return EmbedResult(
        model=watermarked,
        trigger_accuracy=trigger_set_accuracy(watermarked, triggers),
    )


def leader_and_best_other(accuracy: dict[str, float]) -> tuple[str, float, float]:
    """The user with the highest accuracy, that accuracy, and the highest
    accuracy among all other users (-inf when there is no other user).

    Ties at the top go to the first user in dict order. Both trace verdicts
    rest on this: name the leader when it is high and the best other is low.
    """
    leader = max(accuracy, key=accuracy.__getitem__)
    best_other = max((a for u, a in accuracy.items() if u != leader), default=float("-inf"))
    return leader, accuracy[leader], best_other


def trace(
    suspect: ModelSnapshot,
    trigger_sets: list[TriggerSet],
    thresholds: TraceThresholds = TraceThresholds(),
    test: LabeledDataset | None = None,
) -> TraceReport:
    """Evaluate every user's trigger set on the suspect and apply the verdict rule.

    The verdict names the unique user whose trigger accuracy exceeds theta1
    while every other user stays below theta2; anything else is a
    traceability failure. Suspects may have N or N + 1 outputs: an
    unwatermarked N-class model can never emit the additional class, which
    yields zero accuracy everywhere.
    """
    if not trigger_sets:
        raise InvalidInputError("need at least one trigger set")
    labels = {ts.label for ts in trigger_sets}
    if len(labels) != 1:
        raise InvalidInputError(f"trigger sets disagree on the additional class: {sorted(labels)}")
    extra_class = labels.pop()
    if suspect.num_classes not in (extra_class, extra_class + 1):
        raise InvalidInputError(
            f"suspect has {suspect.num_classes} classes; expected "
            f"{extra_class} (clean) or {extra_class + 1} (watermarked)"
        )

    accuracy = {ts.user_id: trigger_set_accuracy(suspect, ts) for ts in trigger_sets}
    leader, top, best_other = leader_and_best_other(accuracy)
    verdict = (
        leader if top > thresholds.theta1 and best_other < thresholds.theta2
        else TRACEABILITY_FAILURE
    )

    original = tinynn.evaluate(suspect, test) if test is not None else None
    return TraceReport(
        per_user_trigger_accuracy=accuracy,
        verdict=verdict,
        original_task_accuracy=original,
    )


def fidelity_report(
    base: ModelSnapshot,
    watermarked: ModelSnapshot,
    test: LabeledDataset,
) -> float:
    """Original-task accuracy drop after embedding.

    The watermarked model is scored over its original classes only, so the
    comparison isolates decision-boundary distortion from the extra class.
    """
    base_acc = tinynn.evaluate(base, test)
    wm_acc = tinynn.evaluate(watermarked, test, restrict_classes=base.num_classes)
    return base_acc - wm_acc


def finetune_attack(
    model: ModelSnapshot,
    test: LabeledDataset,
    trigger_sets: list[TriggerSet],
    thresholds: TraceThresholds,
    epochs: int,
    cfg: TrainConfig,
) -> tuple[ModelSnapshot, TraceReport]:
    """Fine-tune on a seeded half of the test set, evaluate on the other half.

    The attacker keeps the model's full output dimension but only ever
    supplies original labels 0..N-1 (the additional class is unknown to
    them).
    """
    if epochs < 1:
        raise InvalidInputError("epochs must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(test))
    half = len(test) // 2
    tune = test.subset(order[:half], num_classes=model.num_classes)
    holdout = test.subset(order[half:])
    attacked = tinynn.train(model, tune, replace(cfg, epochs=epochs))
    report = trace(attacked, trigger_sets, thresholds, test=holdout)
    return attacked, report


def prune_sweep(
    model: ModelSnapshot,
    rates: list[float],
    trigger_sets: list[TriggerSet],
    test: LabeledDataset,
) -> list[PruneRow]:
    """Prune a fresh copy at each rate and evaluate task + trigger accuracy."""
    rows = []
    for rate in sorted(rates):
        pruned = tinynn.global_magnitude_prune(model, rate)
        rows.append(
            PruneRow(
                rate=rate,
                original_accuracy=tinynn.evaluate(pruned, test),
                trigger_accuracy={
                    ts.user_id: trigger_set_accuracy(pruned, ts) for ts in trigger_sets
                },
            )
        )
    return rows
