import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softaug import (
    LabeledDataset,
    MlpClassifier,
    PredictionRecord,
    RandomSource,
    ece,
    evaluate,
    occlude,
    occlusion_sweep,
    synth_shapes,
    top1_error,
)
from softaug.geometry import _patch_side
from softaug.loss import softmax
from softaug.metrics import write_sweep_csv
from softaug.model import forward_batch, init_mlp


def brute_force_ece(records, num_bins):
    """Scalar re-derivation: walk each record to its bin, average by hand.

    Bin m is the smallest m in 1..M with confidence <= m / M.
    """
    per_bin = {m: [] for m in range(1, num_bins + 1)}
    for r in records:
        for m in range(1, num_bins + 1):
            if r.confidence <= m / num_bins:
                per_bin[m].append(r)
                break
    total = 0.0
    for members in per_bin.values():
        if not members:
            continue
        acc = sum(r.predicted_class == r.true_class for r in members) / len(members)
        conf = sum(r.confidence for r in members) / len(members)
        total += len(members) / len(records) * abs(acc - conf)
    return total


def record(confidence, correct, num_classes=4):
    """Build a record with the given top confidence on class 0."""
    rest = (1.0 - confidence) / (num_classes - 1)
    probs = np.full(num_classes, rest)
    probs[0] = confidence
    return PredictionRecord.from_probs(probs, 0 if correct else 1)


def random_records(rng, n, num_classes=5):
    out = []
    for _ in range(n):
        raw = rng.uniform(0.1, 1.0, num_classes)
        probs = raw / raw.sum()
        out.append(PredictionRecord.from_probs(probs, int(rng.integers(0, num_classes))))
    return out


# --- records ---


def test_record_argmax_and_confidence():
    r = PredictionRecord.from_probs(np.array([0.1, 0.6, 0.3]), 2)
    assert r.predicted_class == 1
    assert r.confidence == 0.6
    assert r.true_class == 2


def test_record_tie_takes_first_index():
    r = PredictionRecord.from_probs(np.array([0.4, 0.4, 0.2]), 1)
    assert r.predicted_class == 0


def test_record_validation():
    with pytest.raises(ValueError):
        PredictionRecord.from_probs(np.array([0.7, 0.4]), 0)
    with pytest.raises(ValueError):
        PredictionRecord.from_probs(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        PredictionRecord.from_probs(np.array([0.5, 0.5]), 2)
    with pytest.raises(ValueError):
        PredictionRecord.from_probs(np.array([-0.2, 1.2]), 0)


@pytest.mark.parametrize("probs", [
    [np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.5], [-np.inf, 1.0], [np.inf, -np.inf],
], ids=["nan-half", "nan-nan", "inf", "minus-inf", "inf-minus-inf"])
def test_record_rejects_non_finite_probs(probs):
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        PredictionRecord.from_probs(np.array(probs), 0)


def test_top1_error_counts_misses():
    records = [record(0.9, True), record(0.9, True), record(0.9, True), record(0.9, False)]
    assert top1_error(records) == 0.25
    with pytest.raises(ValueError):
        top1_error([])


# --- calibration ---


def test_ece_all_correct_fixture():
    # 4 predictions at confidence 0.95, all correct, 10 bins:
    # one occupied bin with accuracy 1, |1 - 0.95| = 0.05
    records = [record(0.95, True) for _ in range(4)]
    report = ece(records, 10)
    assert report.ece == pytest.approx(0.05, abs=1e-12)
    assert report.counts.tolist() == [0] * 9 + [4]
    assert report.accuracies[9] == 1.0
    assert report.confidences[9] == pytest.approx(0.95, abs=1e-12)


def test_ece_half_correct_fixture():
    # 2 predictions at confidence 0.75, one correct: |0.5 - 0.75| = 0.25
    records = [record(0.75, True), record(0.75, False)]
    assert ece(records, 10).ece == pytest.approx(0.25, abs=1e-12)


def test_ece_perfect_calibration_is_zero():
    # confidences 0.25 in a 4-class uniform setting with 1/4 accuracy
    records = [record(0.25, i == 0) for i in range(4)]
    assert ece(records, 4).ece == pytest.approx(0.0, abs=1e-12)


def test_ece_bin_edges_right_inclusive():
    # conf exactly 0.1 lands in bin 1 with M=10, conf 0.1 + eps in bin 2
    report = ece([record(0.55, True), record(0.55, False)], 2)
    assert report.counts.tolist() == [0, 2]
    lo = ece([record(0.5, True) for _ in range(2)], 2)
    assert lo.counts.tolist() == [2, 0]


def test_ece_zero_confidence_goes_to_first_bin():
    probs = np.array([0.5, 0.5, 0.0])
    r = PredictionRecord(probs, 2, 2, 0.0)  # constructed directly
    assert ece([r], 10).counts[0] == 1


def test_ece_single_bin():
    records = [record(0.9, True), record(0.6, False)]
    report = ece(records, 1)
    assert report.ece == pytest.approx(abs(0.5 - 0.75), abs=1e-12)


def test_ece_matches_brute_force():
    rng = np.random.default_rng(90)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 16))
        records = random_records(rng, n)
        assert ece(records, m).ece == brute_force_ece(records, m)


def test_ece_counts_sum_to_n():
    rng = np.random.default_rng(91)
    records = random_records(rng, 137)
    report = ece(records, 10)
    assert int(report.counts.sum()) == 137


def test_ece_permutation_invariant():
    rng = np.random.default_rng(92)
    records = random_records(rng, 50)
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert ece(records, 10).ece == ece(shuffled, 10).ece


def test_ece_validation():
    with pytest.raises(ValueError):
        ece([], 10)
    with pytest.raises(ValueError):
        ece([record(0.9, True)], 0)


# --- evaluate ---


def test_evaluate_zero_model_is_uniform():
    model = MlpClassifier((3072, 4), [np.zeros((4, 3072))], [np.zeros(4)])
    ds = synth_shapes(10, 4, seed=93, split="test")
    records = evaluate(model, ds)
    assert len(records) == 40
    for r in records:
        assert r.probs == pytest.approx(np.full(4, 0.25), abs=1e-15)
        assert r.predicted_class == 0  # argmax tie resolves to the first class
    # balanced classes, constant prediction: error is 1 - 1/num_classes
    assert top1_error(records) == 0.75


def test_evaluate_preserves_order():
    model = init_mlp((3072, 8, 4), RandomSource(94))
    ds = synth_shapes(5, 4, seed=95, split="test")
    records = evaluate(model, ds)
    assert [r.true_class for r in records] == ds.labels.tolist()


def test_evaluate_probs_normalized():
    model = init_mlp((3072, 8, 4), RandomSource(96))
    ds = synth_shapes(5, 4, seed=97, split="test")
    for r in evaluate(model, ds):
        assert float(r.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def oracle_records(model, ds):
    """(probabilities, label, first argmax, its probability) per image,
    scored in pure Python from the softmax rows."""
    out = []
    for row, label in zip(softmax(forward_batch(model, ds.images)).tolist(), ds.labels.tolist()):
        predicted = row.index(max(row))
        out.append((row, label, predicted, row[predicted]))
    return out


def assert_records_match_oracle(model, ds):
    records = evaluate(model, ds)
    assert [(r.probs.tolist(), r.true_class, r.predicted_class, r.confidence)
            for r in records] == oracle_records(model, ds)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 12),
       scale=st.sampled_from([0.0, 1.0, 30.0, 1e3]))
def test_evaluate_records_match_python_oracle(seed, hidden, scale):
    # scale 0 gives every image the biases' row; large scales give confident rows
    model = init_mlp((3072, hidden, 4), RandomSource(seed))
    model.weights[-1] *= scale
    assert_records_match_oracle(model, synth_shapes(2, 4, seed=seed % 1000, split="test"))


def test_evaluate_records_match_python_oracle_on_an_exp_rounding_tie():
    # logits 0 and 1e-17 differ, but exp rounds both to 1.0: a tie at 0.5
    model = MlpClassifier((3072, 2), [np.zeros((2, 3072))], [np.array([0.0, 1e-17])])
    ds = LabeledDataset(np.ones((2, 3, 32, 32)), np.array([0, 1]), 2, "test")
    assert_records_match_oracle(model, ds)
    assert [r.predicted_class for r in evaluate(model, ds)] == [0, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's matmul overflow warning
def test_sweep_rejects_non_distribution_rows_as_evaluate_does():
    # finite weights whose logits overflow: the softmax rows are NaN
    weights = np.where(np.arange(4)[:, None] % 2 == 0, 1e307, -1e307) * np.ones((4, 3072))
    model = MlpClassifier((3072, 4), [weights], [np.zeros(4)])
    ds = synth_shapes(2, 4, seed=118, split="test")
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        evaluate(model, ds)
    for lambdas in ((0.0,), (0.5,)):
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            occlusion_sweep(model, ds, RandomSource(119), lambdas)


def test_evaluate_empty_dataset_rejected():
    model = init_mlp((3072, 8, 4), RandomSource(98))
    empty = LabeledDataset(np.zeros((0, 3, 32, 32)), np.zeros(0, dtype=np.int64), 4, "test")
    with pytest.raises(ValueError):
        evaluate(model, empty)


# --- occlusion sweep ---


def test_sweep_lambda_zero_equals_clean():
    model = init_mlp((3072, 8, 4), RandomSource(99))
    ds = synth_shapes(8, 4, seed=100, split="test")
    clean = top1_error(evaluate(model, ds))
    rows = occlusion_sweep(model, ds, RandomSource(101), lambdas=(0.0, 0.4))
    assert rows[0] == (0.0, clean)


def test_sweep_deterministic_and_order_free():
    model = init_mlp((3072, 8, 4), RandomSource(102))
    ds = synth_shapes(6, 4, seed=103, split="test")
    a = occlusion_sweep(model, ds, RandomSource(104), lambdas=(0.0, 0.2, 0.6))
    b = occlusion_sweep(model, ds, RandomSource(104), lambdas=(0.0, 0.2, 0.6))
    assert a == b
    # each lambda owns a split keyed by its position, so a prefix run agrees
    prefix = occlusion_sweep(model, ds, RandomSource(104), lambdas=(0.0, 0.2))
    assert a[:2] == prefix


def test_sweep_trials_average():
    model = init_mlp((3072, 8, 4), RandomSource(105))
    ds = synth_shapes(6, 4, seed=106, split="test")
    rows = occlusion_sweep(model, ds, RandomSource(107), lambdas=(0.5,), trials_per_image=3)
    n = len(ds) * 3
    assert rows[0][1] * n == pytest.approx(round(rows[0][1] * n), abs=1e-9)


def test_sweep_validation():
    model = init_mlp((3072, 8, 4), RandomSource(108))
    ds = synth_shapes(3, 4, seed=109, split="test")
    with pytest.raises(ValueError):
        occlusion_sweep(model, ds, RandomSource(110), lambdas=())
    with pytest.raises(ValueError):
        occlusion_sweep(model, ds, RandomSource(111), trials_per_image=0)


def record_path_sweep(model, ds, rng, lambdas, trials):
    """The sweep re-derived through validated records: ``occlude`` image by
    image on each (lambda, trial) stream, then ``top1_error(evaluate(...))``
    per trial; one trial where the patch side is 0, as it erases nothing."""
    _, _, h, w = ds.images.shape
    rows = []
    for lam_index, lam in enumerate(lambdas):
        errors = []
        for trial in range(trials if _patch_side(lam, h, w) else 1):
            stream = rng.split(lam_index).split(trial)
            patched = np.stack([occlude(image, lam, stream)
                                for i, image in enumerate(ds.images)])
            occluded = LabeledDataset(patched, ds.labels, ds.num_classes, ds.split)
            errors.append(top1_error(evaluate(model, occluded)))
        rows.append((lam, sum(errors) / len(errors)))
    return rows


def test_sweep_equals_record_path_bitwise():
    weights = np.random.default_rng(112).normal(0.0, 0.05, (4, 3072))
    model = MlpClassifier((3072, 4), [weights], [np.zeros(4)])
    ds = synth_shapes(8, 4, seed=113, split="test")
    lambdas = (0.1, 0.3, 0.7)
    rows = occlusion_sweep(model, ds, RandomSource(114), lambdas, trials_per_image=2)
    assert rows == record_path_sweep(model, ds, RandomSource(114), lambdas, 2)
    assert len({err for _, err in rows}) > 1  # the patches change the predictions


def test_sweep_side_zero_lambdas_equal_record_path():
    # on 32x32 images lambda 1e-4 rounds to a patch side of 0, like lambda 0:
    # both rows score the clean images once, so they are the clean error itself
    weights = np.random.default_rng(116).normal(0.0, 0.05, (4, 3072))
    model = MlpClassifier((3072, 4), [weights], [np.zeros(4)])
    ds = synth_shapes(5, 4, seed=116, split="test")
    lambdas = (0.0, 1e-4, 0.3)
    rows = occlusion_sweep(model, ds, RandomSource(117), lambdas, trials_per_image=10)
    assert rows == record_path_sweep(model, ds, RandomSource(117), lambdas, 10)
    clean = top1_error(evaluate(model, ds))
    assert rows[0][1] == rows[1][1] == clean


def test_sweep_clean_row_is_the_clean_error():
    # 83 of 640 wrong: the mean of ten float copies of 83/640 is 0.12968749999999998,
    # which prints 0.129687 where the clean error prints 0.129688
    model = MlpClassifier((3072, 2), [np.zeros((2, 3072))], [np.array([1.0, 0.0])])
    labels = (np.arange(640) < 83).astype(np.int64)
    ds = LabeledDataset(np.zeros((640, 3, 32, 32)), labels, 2, "test")
    clean = top1_error(evaluate(model, ds))
    rows = occlusion_sweep(model, ds, RandomSource(118), (0.0,), trials_per_image=10)
    assert rows == [(0.0, clean)]
    assert f"{rows[0][1]:.6g}" == f"{clean:.6g}" == "0.129688"


def test_sweep_breaks_ties_like_records():
    # logits 0 and 1e-17 differ, but exp rounds both to 1.0: the records'
    # argmax of the probabilities takes class 0, an argmax of the logits 1
    model = MlpClassifier((3072, 2), [np.zeros((2, 3072))], [np.array([0.0, 1e-17])])
    ds = LabeledDataset(np.ones((4, 3, 32, 32)), np.zeros(4, dtype=np.int64), 2, "test")
    rows = occlusion_sweep(model, ds, RandomSource(115), (0.0, 0.5), trials_per_image=2)
    assert rows == record_path_sweep(model, ds, RandomSource(115), (0.0, 0.5), 2)
    assert rows == [(0.0, 0.0), (0.5, 0.0)]


# --- csv writers ---


def test_sweep_csv_layout(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv([(0.0, 0.75), (0.2, 0.8125)], str(path))
    assert path.read_text().splitlines() == [
        "lambda,top1_error",
        "0,0.75",
        "0.2,0.8125",
    ]
