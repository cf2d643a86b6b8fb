"""From-scratch one-hidden-layer MLP with Adam, plus trace-based scores.

Binary targets train through a single sigmoid output with binary
cross-entropy; more classes switch to softmax + cross-entropy.  Training
can record a per-epoch, per-sample correctness trace against the training
labels, which feeds the forgetting-count baseline.  Everything is plain
numpy and bit-for-bit deterministic given the seed.

One forward pass, ``_forward``, serves training (``_step``) and
prediction (``predict_proba``: the trace, entropy scores, evaluation).
``_step`` computes the gradients into preallocated arrays, and
``loss_and_grads`` adds the loss, which training does not use.  During
training the parameters, gradients and Adam moments are ``_views`` of
flat buffers (``load_classifier`` splits a model file the same way), so
each Adam operation is one elementwise call per step over every parameter.
Elementwise results do not depend on how the elements are grouped, so
this trains the same parameters, bit for bit, as one update per array.

The bias gradients are column sums over the batch.  With two or more
columns (``b1`` above one hidden unit, and ``b2`` for more than two
classes) ``np.einsum`` sums them: like numpy's reduce over a row-major
array it adds row after row, so the sums are equal, and it is 2-3x
faster.  A single column (binary ``b2``, or ``b1`` at one hidden unit)
stays on ``np.add.reduce``, which sums one contiguous column pairwise,
an order einsum does not follow.  The binary output layer's ``dH`` is an
einsum outer product, one rounding per entry as the broadcast multiply.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LabeledDataset, Metrics, as_int, balanced_error, seeded_rng
from .io import unlink_on_failure

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OVERFLOW = "features too large to train on: squared feature norms overflow float64"


@dataclass(frozen=True)
class MlpConfig:
    hidden_units: int = 32
    epochs: int = 20
    batch_size: int = 1024
    learning_rate: float = 1e-2

    def __post_init__(self):
        for name in ("hidden_units", "epochs", "batch_size"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if min(self.hidden_units, self.epochs, self.batch_size) < 1:
            raise ValueError("all MLP config counts must be positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive")


@dataclass
class TrainedClassifier:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    num_classes: int
    trace: Optional[np.ndarray] = None  # epochs x n_train correctness bits

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.W1.shape[0]:
            raise ValueError("feature dimension mismatch")
        _, P = _forward((self.W1, self.b1, self.W2, self.b2), X, self.num_classes)
        return np.column_stack([1.0 - P, P]) if self.num_classes == 2 else P

    def predict(self, X: np.ndarray) -> np.ndarray:
        P = self.predict_proba(X)
        if self.num_classes == 2:
            return (P[:, 1] > P[:, 0]).astype(np.int64)  # argmax: ties go to class 0
        return P.argmax(axis=1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) below: never overflows
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _output_units(num_classes: int) -> int:
    """Binary targets have one (sigmoid) output unit, more classes one each."""
    return 1 if num_classes == 2 else num_classes


def _shapes(d: int, hidden: int, out: int):
    """The shapes of [W1, b1, W2, b2]."""
    return [(d, hidden), (hidden,), (hidden, out), (out,)]


def init_params(d: int, hidden: int, out: int, rng: np.random.Generator):
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for weights and biases."""
    s1, s2 = 1.0 / np.sqrt(d), 1.0 / np.sqrt(hidden)
    return [rng.uniform(-s, s, size=shape)
            for s, shape in zip((s1, s1, s2, s2), _shapes(d, hidden, out))]


def _forward(params, X: np.ndarray, num_classes: int):
    """The hidden layer relu(X W1 + b1) and the predicted probabilities.

    The probabilities are p(class 1) for binary targets, the softmax rows
    otherwise.
    """
    W1, b1, W2, b2 = params
    H = X @ W1
    H += b1
    np.maximum(H, 0.0, out=H)  # ReLU in place: H > 0 exactly where X W1 + b1 > 0
    Z = H @ W2 + b2
    return H, _sigmoid(Z[:, 0]) if num_classes == 2 else _softmax(Z)


def _step(params, X: np.ndarray, y: np.ndarray, num_classes: int, grads) -> np.ndarray:
    """Fill ``grads`` with the batch gradients for [W1, b1, W2, b2]; return the probabilities."""
    W2 = params[2]
    gW1, gb1, gW2, gb2 = grads
    B = X.shape[0]
    H, probs = _forward(params, X, num_classes)
    if num_classes == 2:
        dZ2 = ((probs - y) / B)[:, None]
        dH = np.einsum("i,j->ij", dZ2[:, 0], W2[:, 0])   # outer product: one rounding per entry
    else:
        dZ2 = probs.copy()
        dZ2[np.arange(B), y] -= 1.0
        dZ2 /= B
        dH = dZ2 @ W2.T
    np.matmul(H.T, dZ2, out=gW2)
    _column_sums(dZ2, gb2)
    dH *= H > 0
    np.matmul(X.T, dH, out=gW1)
    _column_sums(dH, gb1)
    return probs


def _column_sums(A: np.ndarray, out: np.ndarray) -> None:
    """``np.add.reduce(A, axis=0, out=out)`` for a C-contiguous ``A``, value for value.

    Over two or more columns, both einsum and numpy's reduce add the rows
    one by one into ``out``, and einsum's loop is 2-3x faster.  A single
    column is contiguous, so numpy reduces it with its pairwise sum, which
    einsum does not use: that case stays on ``np.add.reduce``.
    """
    if A.shape[1] > 1:
        np.einsum("ij->j", A, out=out)
    else:
        np.add.reduce(A, axis=0, out=out)


def loss_and_grads(params, X: np.ndarray, y: np.ndarray, num_classes: int):
    """Mean loss over the batch and gradients for [W1, b1, W2, b2]."""
    grads = [np.empty_like(p) for p in params]
    probs = _step(params, X, y, num_classes, grads)
    if num_classes == 2:
        yf = y.astype(np.float64)
        eps = 1e-12
        loss = -np.mean(yf * np.log(probs + eps) + (1.0 - yf) * np.log(1.0 - probs + eps))
    else:
        loss = -np.mean(np.log(probs[np.arange(X.shape[0]), y] + 1e-12))
    return float(loss), grads


def _views(flat: np.ndarray, shapes):
    """Views of ``flat``, back to back, in ``shapes``."""
    ends = np.cumsum([math.prod(s) for s in shapes])
    return [flat[e - math.prod(s):e].reshape(s) for s, e in zip(shapes, ends)]


def train_mlp(train: LabeledDataset, config: MlpConfig, seed: int = 0,
              trace: bool = False) -> TrainedClassifier:
    """Mini-batch Adam over ``train.num_classes`` classes.

    With ``trace``, the model also carries a per-epoch correctness trace on
    the training set, which costs one prediction pass per epoch.
    """
    X = train.features
    # Adam squares gradients that carry x: an overflowing |x|^2 stalls its weights.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.einsum("ij,ij->i", X, X).max()):
            raise ValueError(OVERFLOW)
    y = train.noisy_labels
    C = train.num_classes
    rng = seeded_rng(seed, 23)
    init = init_params(train.d, config.hidden_units, _output_units(C), rng)
    flat = np.concatenate([p.ravel() for p in init])
    g, m, v, s, u = (np.zeros_like(flat) for _ in range(5))
    shapes = [p.shape for p in init]
    params, grads = _views(flat, shapes), _views(g, shapes)
    lr = config.learning_rate
    t = 0
    model = TrainedClassifier(*params, num_classes=C)  # updated in place below
    if trace:
        model.trace = np.zeros((config.epochs, train.n), dtype=bool)
    for epoch in range(config.epochs):
        order = rng.permutation(train.n)
        Xo, yo = X.take(order, axis=0), y.take(order)
        for start in range(0, train.n, config.batch_size):
            stop = start + config.batch_size
            _step(params, Xo[start:stop], yo[start:stop], C, grads)
            t += 1
            c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            # Adam in place, rounding as p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            # with m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g.
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            m += s
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=s)
            s *= g
            v += s
            np.divide(m, c1, out=s)
            s *= lr
            np.divide(v, c2, out=u)
            np.sqrt(u, out=u)
            u += ADAM_EPS
            s /= u
            flat -= s
        if trace:
            model.trace[epoch] = model.predict(X) == y
    return model


def evaluate(model: TrainedClassifier, test: LabeledDataset) -> Metrics:
    """Accuracy and balanced error against the test set's true labels."""
    if test.true_labels is None:
        raise ValueError("ground truth unavailable")
    pred = model.predict(test.features)
    acc = float(np.mean(pred == test.true_labels))
    bal = balanced_error(pred, test.true_labels)
    return Metrics(classifier_accuracy=acc, balanced_error=bal)


def entropy_scores(model: TrainedClassifier, dataset: LabeledDataset) -> np.ndarray:
    """Shannon entropy (nats) of each predictive distribution."""
    P = np.clip(model.predict_proba(dataset.features), 1e-12, 1.0 - 1e-12)
    return -(P * np.log(P)).sum(axis=1)


def forgetting_counts(trace: np.ndarray) -> np.ndarray:
    """Correct->incorrect transitions; never-correct gets the epoch count."""
    trace = np.asarray(trace, dtype=bool)
    if trace.ndim != 2 or trace.size == 0:
        raise ValueError("empty trace")
    epochs = trace.shape[0]
    forgets = (trace[:-1] & ~trace[1:]).sum(axis=0) if epochs > 1 else np.zeros(trace.shape[1], dtype=np.int64)
    never = ~trace.any(axis=0)
    counts = forgets.astype(np.int64)
    counts[never] = epochs
    return counts


MAGIC = b"MLP1"


def save_classifier(model: TrainedClassifier, path) -> None:
    """Flat binary: magic, u32-LE dims (d, hidden, C), then f64-LE layers."""
    d, hidden = model.W1.shape
    with unlink_on_failure(path), open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", d, hidden, model.num_classes))
        for arr in (model.W1, model.b1, model.W2, model.b2):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_classifier(path) -> TrainedClassifier:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise ValueError("not a classifier weight file")
    if len(blob) < 16:
        raise ValueError("corrupt classifier weight file")
    d, hidden, C = struct.unpack_from("<III", blob, 4)
    shapes = _shapes(d, hidden, _output_units(C))
    if len(blob) != 16 + 8 * sum(math.prod(s) for s in shapes):
        raise ValueError("corrupt classifier weight file")
    flat = np.frombuffer(blob, dtype="<f8", offset=16).astype(np.float64)
    return TrainedClassifier(*_views(flat, shapes), num_classes=C)
