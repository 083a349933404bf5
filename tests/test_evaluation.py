import itertools
import random

import pytest

from biotriplets.evaluation import (
    BenchmarkSample,
    ConfusionMatrix,
    agreement_matrix,
    cohen_kappa,
    confusion,
    effective_label,
    load_benchmark,
    metrics,
    round3,
)

# (accuracy, recall, precision, f1) per published-style model row, used for
# internal-consistency checks of the harmonic mean.
MODEL_ROWS = {
    "gpt-4": (0.800, 0.821, 0.950, 0.881),
    "gpt-3.5": (0.658, 0.686, 0.914, 0.784),
    "llama2-70b": (0.723, 0.736, 0.945, 0.827),
    "llama2-13b": (0.503, 0.493, 0.920, 0.642),
    "llama2-7b": (0.652, 0.693, 0.898, 0.782),
    "solar-70b": (0.794, 0.857, 0.909, 0.882),
}


def sample(sid, gold, preds):
    return BenchmarkSample(sample_id=sid, gold=gold, predictions=dict(preds))


class TestEffectiveLabel:
    def test_pass_through(self):
        assert effective_label("Yes", "No") == "Yes"

    def test_malformed_opposes_gold(self):
        assert effective_label("Malformed", "Yes") == "No"

    def test_malformed_opposes_reference(self):
        assert effective_label("Malformed", "No") == "Yes"


class TestConfusion:
    def test_basic_counts(self):
        samples = [
            sample("1", "Yes", {"m": "Yes"}),
            sample("2", "No", {"m": "Yes"}),
        ]
        cm = confusion(samples, "m")
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 0, 0)

    def test_perfect_predictions(self):
        samples = [sample(str(i), g, {"m": g}) for i, g in enumerate("Yes No Yes".split())]
        cm = confusion(samples, "m")
        assert cm.fp == cm.fn == 0

    def test_malformed_counted_as_opposite(self):
        samples = [sample("1", "Yes", {"m": "Malformed"})]
        cm = confusion(samples, "m")
        assert cm.fn == 1
        samples = [sample("1", "No", {"m": "Malformed"})]
        cm = confusion(samples, "m")
        assert cm.fp == 1

    def test_missing_prediction(self):
        with pytest.raises(ValueError, match="has no prediction for"):
            confusion([sample("1", "Yes", {})], "m")


def brute_force_matrix(n, accuracy, recall, precision, f1):
    """Search every integer confusion matrix of size n matching all four
    metrics after 3-decimal rounding."""
    hits = []
    for tp in range(n + 1):
        for fn in range(n - tp + 1):
            if tp + fn == 0 or round3(tp / (tp + fn)) != recall:
                continue
            for fp in range(n - tp - fn + 1):
                if tp + fp == 0 or round3(tp / (tp + fp)) != precision:
                    continue
                tn = n - tp - fn - fp
                if round3((tp + tn) / n) != accuracy:
                    continue
                p = tp / (tp + fp)
                r = tp / (tp + fn)
                if round3(2 * p * r / (p + r)) != f1:
                    continue
                hits.append((tp, fp, fn, tn))
    return hits


class TestMetrics:
    def test_brute_forced_strongest_model_row(self):
        hits = brute_force_matrix(155, *MODEL_ROWS["gpt-4"])
        assert hits == [(115, 6, 25, 9)]
        m = metrics(ConfusionMatrix(115, 6, 25, 9))
        assert round3(m.accuracy) == 0.800
        assert round3(m.recall) == 0.821
        assert round3(m.precision) == 0.950
        assert round3(m.f1) == 0.881

    def test_degenerate_all_negative(self):
        m = metrics(ConfusionMatrix(0, 0, 0, 10))
        assert m.accuracy == 1.0
        assert m.precision == m.recall == m.f1 == 0.0

    @pytest.mark.parametrize("model,row", MODEL_ROWS.items())
    def test_f1_harmonic_mean_consistency(self, model, row):
        _, recall, precision, f1 = row
        harmonic = 2 * precision * recall / (precision + recall)
        assert abs(harmonic - f1) <= 0.001

    def test_f1_identity_holds_everywhere(self):
        rng = random.Random(4)
        for _ in range(200):
            tp, fp, fn, tn = (rng.randint(0, 50) for _ in range(4))
            if tp + fp + fn + tn == 0:
                continue
            m = metrics(ConfusionMatrix(tp, fp, fn, tn))
            if m.precision + m.recall > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.recall / (m.precision + m.recall), abs=1e-9
                )

    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="no samples"):
            metrics(ConfusionMatrix(0, 0, 0, 0))


class TestKappa:
    def test_identical_vectors(self):
        assert cohen_kappa(["Yes", "No", "Yes"], ["Yes", "No", "Yes"]) == 1.0

    def test_complete_disagreement(self):
        a = ["Yes", "Yes", "No", "No"]
        b = ["No", "No", "Yes", "Yes"]
        assert cohen_kappa(a, b) == pytest.approx(-1.0)

    def test_hand_computed_case(self):
        a = ["Yes", "Yes", "Yes", "No"]
        b = ["Yes", "No", "Yes", "No"]
        # p_o = 0.75, p_e = 0.75*0.5 + 0.25*0.5 = 0.5
        assert cohen_kappa(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_constant_identical_raters(self):
        assert cohen_kappa(["Yes"] * 5, ["Yes"] * 5) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 vs 2"):
            cohen_kappa(["Yes"], ["Yes", "No"])
        with pytest.raises(ValueError, match="at least one"):
            cohen_kappa([], [])

    def test_bounds_and_symmetry_random(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 40)
            a = [rng.choice(["Yes", "No"]) for _ in range(n)]
            b = [rng.choice(["Yes", "No"]) for _ in range(n)]
            k = cohen_kappa(a, b)
            assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12
            assert k == pytest.approx(cohen_kappa(b, a), abs=1e-12)
            if len(set(a)) > 1:
                assert cohen_kappa(a, a) == pytest.approx(1.0)

    def test_agreement_with_contingency_table_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(2, 60)
            a = [rng.choice(["Yes", "No"]) for _ in range(n)]
            b = [rng.choice(["Yes", "No"]) for _ in range(n)]
            # independent oracle from the 2x2 contingency table
            table = {(x, y): 0 for x, y in itertools.product(["Yes", "No"], repeat=2)}
            for x, y in zip(a, b):
                table[(x, y)] += 1
            po = (table[("Yes", "Yes")] + table[("No", "No")]) / n
            pa_yes = (table[("Yes", "Yes")] + table[("Yes", "No")]) / n
            pb_yes = (table[("Yes", "Yes")] + table[("No", "Yes")]) / n
            pe = pa_yes * pb_yes + (1 - pa_yes) * (1 - pb_yes)
            if pe == 1.0:
                continue
            assert cohen_kappa(a, b) == pytest.approx((po - pe) / (1 - pe), abs=1e-12)


class TestAgreementMatrix:
    def test_identical_models(self):
        samples = [
            sample(str(i), "Yes", {"a": ans, "b": ans})
            for i, ans in enumerate(["Yes", "No", "Yes", "No"])
        ]
        am = agreement_matrix(samples, "a")
        i, j = am["model_ids"].index("a"), am["model_ids"].index("b")
        assert am["kappa"][i][j] == 1.0

    def test_symmetry_and_diagonal(self):
        rng = random.Random(31)
        samples = [
            sample(str(i), "Yes", {
                m: rng.choice(["Yes", "No", "Malformed"]) for m in "abcd"
            })
            for i in range(30)
        ]
        am = agreement_matrix(samples, "a")
        size = len(am["model_ids"])
        for i in range(size):
            assert am["kappa"][i][i] == 1.0
            for j in range(size):
                assert am["kappa"][i][j] == am["kappa"][j][i]

    def test_ninety_percent_agreement_balanced(self):
        # 20 samples, balanced marginals, 18 agreements -> kappa 0.8
        answers_a = ["Yes"] * 10 + ["No"] * 10
        answers_b = list(answers_a)
        answers_b[0] = "No"
        answers_b[10] = "Yes"
        samples = [
            sample(str(i), "Yes", {"a": x, "b": y})
            for i, (x, y) in enumerate(zip(answers_a, answers_b))
        ]
        am = agreement_matrix(samples, "a")
        i, j = am["model_ids"].index("a"), am["model_ids"].index("b")
        assert am["kappa"][i][j] == pytest.approx(0.8, abs=1e-9)

    def test_malformed_maps_to_opposite_of_reference(self):
        samples = [
            sample("1", "Yes", {"ref": "No", "m": "Malformed"}),
            sample("2", "Yes", {"ref": "Yes", "m": "Yes"}),
            sample("3", "Yes", {"ref": "No", "m": "No"}),
            sample("4", "Yes", {"ref": "Yes", "m": "No"}),
        ]
        am = agreement_matrix(samples, "ref")
        # malformed on sample 1 became Yes (opposite of ref's No)
        i, j = am["model_ids"].index("ref"), am["model_ids"].index("m")
        expected = cohen_kappa(["No", "Yes", "No", "Yes"],
                               ["Yes", "Yes", "No", "No"])
        assert am["kappa"][i][j] == pytest.approx(expected)

    def test_malformed_reference_flagged(self):
        samples = [
            sample("1", "Yes", {"ref": "Malformed", "m": "Yes"}),
            sample("2", "Yes", {"ref": "Yes", "m": "Yes"}),
        ]
        am = agreement_matrix(samples, "ref")
        assert am["flagged_samples"] == ["1"]

    def test_missing_prediction(self):
        samples = [sample("1", "Yes", {"ref": "Yes"})]
        with pytest.raises(ValueError, match="has no prediction for"):
            agreement_matrix([sample("1", "Yes", {"m": "Yes"})], "ref")


class TestBenchmarkIO:
    def test_load_round_trip(self, tmp_path):
        import json
        path = tmp_path / "bench.jsonl"
        rec = {
            "sample_id": "s1",
            "head_surface": "fever",
            "relation": "manifestation",
            "tail_title": "Plague",
            "context_ref": "Plague > Presentation",
            "gold": "Yes",
            "predictions": {"m1": {"answer": "Yes", "reason": "stated"}},
        }
        path.write_text(json.dumps(rec) + "\n")
        samples = load_benchmark(path)
        assert len(samples) == 1
        assert samples[0].gold == "Yes"
        assert samples[0].predictions["m1"] == "Yes"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text('{"sample_id": "1"}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_benchmark(path)
