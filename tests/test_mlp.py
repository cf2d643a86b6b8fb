"""From-scratch MLP: gradients, training behavior, scores, persistence."""

import hashlib

import numpy as np
import pytest

from icut import (LabeledDataset, MlpConfig, TrainedClassifier, entropy_scores,
                  evaluate, forgetting_counts, load_classifier, save_classifier,
                  train_mlp)
from icut.mlp import init_params, loss_and_grads
from conftest import random_dataset


def _blobs(n_per=100, seed=0, spread=0.3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, 2)) * spread + [-2.0, -2.0]
    b = rng.normal(size=(n_per, 2)) * spread + [2.0, 2.0]
    feats = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return LabeledDataset(features=feats, noisy_labels=labels, num_classes=2,
                          ids=np.arange(2 * n_per), true_labels=labels)


# --- gradients -----------------------------------------------------------------


def _gradient_check(num_classes, seed):
    rng = np.random.default_rng(seed)
    d, hidden, n = 5, 4, 8
    out = 1 if num_classes == 2 else num_classes
    params = init_params(d, hidden, out, rng)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, num_classes, size=n)
    _, grads = loss_and_grads(params, X, y, num_classes)
    step = 1e-5
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_and_grads(params, X, y, num_classes)[0]
            flat[idx] = orig - step
            down = loss_and_grads(params, X, y, num_classes)[0]
            flat[idx] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = g.reshape(-1)[idx]
            rel = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
            worst = max(worst, rel)
    return worst


def test_gradient_check_binary():
    assert _gradient_check(num_classes=2, seed=31) <= 1e-4


def test_gradient_check_multiclass():
    assert _gradient_check(num_classes=3, seed=32) <= 1e-4


# --- training ------------------------------------------------------------------


def test_separable_blobs_reach_high_training_accuracy():
    ds = _blobs()
    model = train_mlp(ds, MlpConfig(hidden_units=8, epochs=20, batch_size=64), trace=True)
    assert model.trace[-1].mean() >= 0.99


def test_full_batch_loss_is_non_increasing():
    ds = _blobs(n_per=32, seed=1)
    losses = []
    for epochs in range(1, 13):
        model = train_mlp(ds, MlpConfig(hidden_units=4, epochs=epochs,
                                        batch_size=ds.n, learning_rate=1e-3))
        params = [model.W1, model.b1, model.W2, model.b2]
        losses.append(loss_and_grads(params, ds.features, ds.noisy_labels, 2)[0])
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_training_is_deterministic():
    ds = _blobs(n_per=40, seed=2)
    a = train_mlp(ds, MlpConfig(epochs=3), seed=7)
    b = train_mlp(ds, MlpConfig(epochs=3), seed=7)
    c = train_mlp(ds, MlpConfig(epochs=3), seed=8)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.W1, c.W1)


def test_trace_shape_and_last_row():
    ds = _blobs(n_per=30, seed=3)
    model = train_mlp(ds, MlpConfig(epochs=5, batch_size=16), trace=True)
    assert model.trace.shape == (5, ds.n)
    assert model.trace.dtype == bool
    assert np.array_equal(model.trace[-1], model.predict(ds.features) == ds.noisy_labels)


def test_trace_is_opt_in_and_leaves_training_unchanged():
    ds = _blobs(n_per=30, seed=3)
    plain = train_mlp(ds, MlpConfig(epochs=3), seed=5)
    traced = train_mlp(ds, MlpConfig(epochs=3), seed=5, trace=True)
    assert plain.trace is None and traced.trace.shape == (3, ds.n)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(plain, name), getattr(traced, name))


def _centered_blobs(n_per, seed, num_classes):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, 4)) * 2
    feats = np.vstack([rng.normal(size=(n_per, 4)) * 0.8 + c for c in centers])
    labels = np.repeat(np.arange(num_classes), n_per)
    return LabeledDataset(features=feats, noisy_labels=labels, num_classes=num_classes,
                          ids=np.arange(labels.size), true_labels=labels)


# Digests of the float64 parameters (and the packed trace), taken from the
# straightforward out-of-place Adam step; batches of 32 leave a partial last one.
@pytest.mark.parametrize("num_classes,seed,traced,digest", [
    (2, 3, True, "08bf07625a8fe0093c4506bbc4cd50b267d93800aa322c09cffd32a91dfa96dd"),
    (3, 4, False, "af2fd025d78f4ae2d56740c31029d15ced0d8837c181582dccf4eee22bea303d"),
    (2, 5, False, "f541a4ff2524bc9e59f4dea4bac3ae769b3ac9cde87f35964f68807aad415f28"),
    (3, 6, True, "fc7dd3381975d75553bee5692ddf02a592fb02776a89c6427b15c8120a06a40b"),
])
def test_trained_parameters_are_pinned_bit_for_bit(num_classes, seed, traced, digest):
    n_per = 70 if num_classes == 2 else 50
    ds = _centered_blobs(n_per, seed=9 + num_classes, num_classes=num_classes)
    model = train_mlp(ds, MlpConfig(hidden_units=8, epochs=6, batch_size=32), seed=seed,
                      trace=traced)
    h = hashlib.sha256()
    for arr in (model.W1, model.b1, model.W2, model.b2):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    if traced:
        h.update(np.packbits(model.trace).tobytes())
    assert h.hexdigest() == digest


def test_softmax_probabilities_sum_to_one():
    ds = random_dataset(60, 4, num_classes=4, seed=4)
    model = train_mlp(ds, MlpConfig(epochs=2))
    P = model.predict_proba(ds.features)
    assert P.shape == (60, 4)
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-9


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        MlpConfig(epochs=0)
    with pytest.raises(ValueError, match="learning rate"):
        MlpConfig(learning_rate=0.0)


def test_predict_rejects_wrong_width():
    model = train_mlp(_blobs(n_per=10), MlpConfig(epochs=1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        model.predict(np.zeros((3, 5)))


# --- evaluation ------------------------------------------------------------------


def _threshold_model():
    # ReLU(x) through a steep sigmoid: predicts 1 exactly when x > 0.5
    return TrainedClassifier(W1=np.array([[1.0]]), b1=np.zeros(1),
                             W2=np.array([[1000.0]]), b2=np.array([-500.0]),
                             num_classes=2)


def test_evaluate_perfect_model():
    test = LabeledDataset(features=[[-1.0], [-2.0], [1.0], [2.0]],
                          noisy_labels=[0, 0, 1, 1], num_classes=2,
                          ids=np.arange(4), true_labels=[0, 0, 1, 1])
    m = evaluate(_threshold_model(), test)
    assert m.classifier_accuracy == 1.0
    assert m.balanced_error == 0.0


def test_evaluate_constant_model_on_balanced_truth():
    constant = TrainedClassifier(W1=np.zeros((1, 1)), b1=np.zeros(1),
                                 W2=np.zeros((1, 1)), b2=np.array([10.0]),
                                 num_classes=2)
    test = LabeledDataset(features=[[0.0], [1.0], [2.0], [3.0]],
                          noisy_labels=[0, 0, 1, 1], num_classes=2,
                          ids=np.arange(4), true_labels=[0, 0, 1, 1])
    m = evaluate(constant, test)
    assert m.classifier_accuracy == 0.5
    assert m.balanced_error == 0.5


def test_evaluate_is_pure():
    ds = _blobs(n_per=20, seed=5)
    model = train_mlp(ds, MlpConfig(epochs=2))
    assert evaluate(model, ds) == evaluate(model, ds)


def test_evaluate_requires_truth():
    ds = random_dataset(10, 2, with_truth=False)
    model = train_mlp(random_dataset(10, 2), MlpConfig(epochs=1))
    with pytest.raises(ValueError, match="ground truth unavailable"):
        evaluate(model, ds)


# --- entropy and forgetting scores ------------------------------------------------


def test_entropy_of_even_split_is_ln2():
    even = TrainedClassifier(W1=np.zeros((1, 1)), b1=np.zeros(1),
                             W2=np.zeros((1, 1)), b2=np.zeros(1), num_classes=2)
    ds = random_dataset(5, 1, seed=6)
    assert np.allclose(entropy_scores(even, ds), np.log(2.0), atol=1e-12)


def test_entropy_of_confident_prediction_is_near_zero():
    confident = TrainedClassifier(W1=np.zeros((1, 1)), b1=np.zeros(1),
                                  W2=np.zeros((1, 1)), b2=np.array([50.0]),
                                  num_classes=2)
    ds = random_dataset(5, 1, seed=7)
    assert np.max(entropy_scores(confident, ds)) <= 1e-10


def test_entropy_is_maximal_at_even_split():
    # ReLU passes x through for x >= 0, so sample 0 scores p = 1/2 exactly
    model = TrainedClassifier(W1=np.array([[1.0]]), b1=np.zeros(1),
                              W2=np.array([[1.0]]), b2=np.zeros(1), num_classes=2)
    ds = LabeledDataset(features=[[0.0], [0.5], [1.5]], noisy_labels=[0, 0, 0],
                        num_classes=2, ids=np.arange(3))
    scores = entropy_scores(model, ds)
    assert scores[0] > scores[1] > scores[2]


def test_forgetting_count_cases():
    always = np.ones((4, 1), dtype=bool)
    assert forgetting_counts(always)[0] == 0
    alternating = np.array([[True], [False], [True], [False]])
    assert forgetting_counts(alternating)[0] == 2
    never = np.zeros((20, 1), dtype=bool)
    assert forgetting_counts(never)[0] == 20  # sentinel: never learned


def test_forgetting_rejects_empty_trace():
    with pytest.raises(ValueError, match="empty trace"):
        forgetting_counts(np.empty((0, 0)))


# --- persistence -------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    ds = _blobs(n_per=15, seed=8)
    model = train_mlp(ds, MlpConfig(epochs=2, hidden_units=4))
    path = tmp_path / "model.bin"
    save_classifier(model, path)
    loaded = load_classifier(path)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    assert loaded.num_classes == 2
    assert np.array_equal(loaded.predict(ds.features), model.predict(ds.features))


def test_save_load_multiclass(tmp_path):
    ds = random_dataset(30, 3, num_classes=3, seed=9)
    model = train_mlp(ds, MlpConfig(epochs=1, hidden_units=4))
    path = tmp_path / "model.bin"
    save_classifier(model, path)
    loaded = load_classifier(path)
    assert loaded.num_classes == 3
    assert loaded.W2.shape == (4, 3)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"ELF\x00" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a classifier weight file"):
        load_classifier(path)


def test_load_rejects_truncated_file(tmp_path):
    ds = _blobs(n_per=10, seed=10)
    model = train_mlp(ds, MlpConfig(epochs=1, hidden_units=3))
    path = tmp_path / "model.bin"
    save_classifier(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="corrupt classifier weight file"):
        load_classifier(path)
