"""Benchmark metrics and inter-model agreement.

Binary classification metrics over expert-labeled samples, with the
malformed-output convention: a reply with no recoverable answer counts as
the opposite of the gold label for metrics, and as the opposite of the
reference model's label for agreement analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Optional

from .classifier import Judgment
from .docmodel import json_object, read_jsonl

YES = "Yes"
NO = "No"


def _opposite(label: str) -> str:
    return NO if label == YES else YES


@dataclass
class BenchmarkSample:
    sample_id: str
    gold: str  # "Yes" | "No"
    predictions: dict[str, Judgment]


def _sample(record) -> BenchmarkSample:
    d = json_object(record)
    if d["gold"] not in (YES, NO):
        raise ValueError(f"gold {d['gold']!r} is neither {YES!r} nor {NO!r}")
    predictions = {}
    for model, p in json_object(d["predictions"]).items():
        p = json_object(p)
        predictions[model] = Judgment(answer=p["answer"], reason=p.get("reason", ""),
                                      raw_output=p.get("raw_output", ""), model_id=model)
    return BenchmarkSample(str(d["sample_id"]), d["gold"], predictions)


def load_benchmark(path: str | Path) -> list[BenchmarkSample]:
    """Benchmark JSONL: one sample per line with gold label and predictions.
    A line that is not a sample raises ValueError naming the file and line."""
    return read_jsonl(path, _sample, "a benchmark sample", "fix the benchmark",
                      ValueError)


def _missing(sample_id: str, model_id: str) -> ValueError:
    return ValueError(f"sample {sample_id} has no prediction for {model_id}")


def effective_label(
    judgment: Judgment, gold: Optional[str] = None, reference: Optional[str] = None
) -> str:
    """Binary label for a judgment under the malformed-output convention.

    Metric mode passes gold; agreement mode passes the reference model's
    label for the same sample.
    """
    if judgment.answer in (YES, NO):
        return judgment.answer
    if gold is not None:
        return _opposite(gold)
    if reference is None:
        raise ValueError("malformed judgment needs a gold or reference label")
    return _opposite(reference)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(samples: list[BenchmarkSample], model_id: str) -> ConfusionMatrix:
    tp = fp = fn = tn = 0
    for s in samples:
        if model_id not in s.predictions:
            raise _missing(s.sample_id, model_id)
        pred = effective_label(s.predictions[model_id], gold=s.gold)
        if pred == YES and s.gold == YES:
            tp += 1
        elif pred == YES:
            fp += 1
        elif s.gold == YES:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: frozenset[str] = field(default_factory=frozenset)


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy/precision/recall/F1; zero-denominator metrics are 0, flagged."""
    if cm.total == 0:
        raise ValueError("confusion matrix has no samples")
    degenerate = set()
    accuracy = (cm.tp + cm.tn) / cm.total
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision = 0.0
        degenerate.add("precision")
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall = 0.0
        degenerate.add("recall")
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        degenerate.add("f1")
    return Metrics(accuracy, precision, recall, f1, frozenset(degenerate))


def round3(x: float) -> float:
    """Display rounding: 3 decimals, half-up."""
    return float(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def cohen_kappa(labels_a: list[str], labels_b: list[str]) -> float:
    """Chance-corrected agreement for two binary raters.

    kappa = (p_o - p_e) / (1 - p_e); defined as 1.0 when both raters are
    constant and identical (p_e = 1).
    """
    if len(labels_a) != len(labels_b):
        raise ValueError(f"{len(labels_a)} vs {len(labels_b)} labels")
    n = len(labels_a)
    if n == 0:
        raise ValueError("need at least one label pair")
    p_o = sum(a == b for a, b in zip(labels_a, labels_b)) / n
    a_yes = sum(a == YES for a in labels_a) / n
    b_yes = sum(b == YES for b in labels_b) / n
    p_e = a_yes * b_yes + (1 - a_yes) * (1 - b_yes)
    if p_e == 1.0:
        return 1.0
    return (p_o - p_e) / (1 - p_e)


@dataclass
class AgreementMatrix:
    model_ids: list[str]
    kappa: list[list[float]]
    flagged_samples: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model_ids": self.model_ids,
            "kappa": self.kappa,
            "flagged_samples": self.flagged_samples,
        }


def agreement_matrix(
    samples: list[BenchmarkSample], reference_model: str
) -> AgreementMatrix:
    """Pairwise kappa over effective labels, Malformed mapped to the
    opposite of the reference model's label.

    The reference model's own vector uses its raw labels; a malformed
    reference reply has no opposite to take, so it maps to No and the
    sample is flagged.
    """
    model_ids = sorted({m for s in samples for m in s.predictions})
    flagged = []

    reference_labels = []
    for s in samples:
        if reference_model not in s.predictions:
            raise _missing(s.sample_id, reference_model)
        j = s.predictions[reference_model]
        if j.answer in (YES, NO):
            reference_labels.append(j.answer)
        else:
            reference_labels.append(NO)
            flagged.append(s.sample_id)

    vectors: dict[str, list[str]] = {}
    for model in model_ids:
        if model == reference_model:
            vectors[model] = reference_labels
            continue
        labels = []
        for s, ref in zip(samples, reference_labels):
            if model not in s.predictions:
                raise _missing(s.sample_id, model)
            labels.append(effective_label(s.predictions[model], reference=ref))
        vectors[model] = labels

    size = len(model_ids)
    kappa = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            k = cohen_kappa(vectors[model_ids[i]], vectors[model_ids[j]])
            kappa[i][j] = kappa[j][i] = k
    return AgreementMatrix(model_ids, kappa, flagged)
