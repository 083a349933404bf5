"""Benchmark metrics and inter-model agreement.

Binary classification metrics over expert-labeled samples, with the
malformed-output convention: a reply with no recoverable answer counts as
the opposite of the gold label for metrics, and as the opposite of the
reference model's label for agreement analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .docmodel import json_object, read_jsonl

YES = "Yes"
NO = "No"


@dataclass
class BenchmarkSample:
    sample_id: str
    gold: str  # "Yes" | "No"
    predictions: dict[str, str]  # model -> answer: "Yes", "No" or anything else


def _sample(record) -> BenchmarkSample:
    d = json_object(record)
    if d["gold"] not in (YES, NO):
        raise ValueError(f"gold {d['gold']!r} is neither {YES!r} nor {NO!r}")
    predictions = {}
    for model, p in json_object(d["predictions"]).items():
        predictions[model] = json_object(p)["answer"]
    return BenchmarkSample(str(d["sample_id"]), d["gold"], predictions)


def load_benchmark(path: str | Path) -> list[BenchmarkSample]:
    """Benchmark JSONL: one sample per line with gold label and predictions.
    A file that cannot be read, or a line that is not a sample, raises
    ValueError naming the file (and the line)."""
    return read_jsonl(path, _sample, "a benchmark sample", "fix the benchmark",
                      ValueError)


def _answer(sample: BenchmarkSample, model_id: str) -> str:
    if model_id not in sample.predictions:
        raise ValueError(f"sample {sample.sample_id} has no prediction for {model_id}")
    return sample.predictions[model_id]


def effective_label(answer: str, against: str) -> str:
    """`answer` if it is Yes or No; under the malformed-output convention
    any other answer is the opposite of `against`: the gold label for
    metrics, the reference model's label for agreement."""
    if answer in (YES, NO):
        return answer
    return NO if against == YES else YES


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int


def confusion(samples: list[BenchmarkSample], model_id: str) -> ConfusionMatrix:
    tp = fp = fn = tn = 0
    for s in samples:
        pred = effective_label(_answer(s, model_id), s.gold)
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


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy/precision/recall/F1; a zero-denominator metric is 0."""
    total = cm.tp + cm.fp + cm.fn + cm.tn
    if total == 0:
        raise ValueError("confusion matrix has no samples")
    accuracy = (cm.tp + cm.tn) / total
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision = 0.0
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall = 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return Metrics(accuracy, precision, recall, f1)


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


def agreement_matrix(samples: list[BenchmarkSample], reference_model: str) -> dict:
    """agreement.json: pairwise kappa over effective labels, Malformed
    mapped to the opposite of the reference model's label.

    The reference model's own malformed reply has no opposite to take, so
    it maps to No and the sample is flagged.
    """
    model_ids = sorted({m for s in samples for m in s.predictions})
    reference = [effective_label(_answer(s, reference_model), YES) for s in samples]
    flagged = [s.sample_id for s in samples
               if s.predictions[reference_model] not in (YES, NO)]
    vectors = {
        m: reference if m == reference_model
        else [effective_label(_answer(s, m), ref) for s, ref in zip(samples, reference)]
        for m in model_ids
    }

    size = len(model_ids)
    kappa = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            k = cohen_kappa(vectors[model_ids[i]], vectors[model_ids[j]])
            kappa[i][j] = kappa[j][i] = k
    return {"model_ids": model_ids, "kappa": kappa, "flagged_samples": flagged}
