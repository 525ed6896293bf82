"""Invariant checks shared by `jazzgen selfcheck` and the test suite.

Each finite-difference builder draws one small instance from the rng it is
given, runs the analytic backward pass, and returns the worst relative error
against central differences.  Draw order is part of each builder's contract:
the same rng state always yields the same instance, so the seeds pinned in
SELF_CHECKS and in the tests keep naming the same problems.
"""

from __future__ import annotations

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import neural
from .metrics import MAX_ENTROPY, GroovePattern, PitchHistogram, groove_similarity, histogram_entropy
from .midi_io import MidiDocument, NoteEvent, lcm_time_division, read_midi, write_midi
from .rnn import Checkpoint, RnnConfig, encode_checkpoint, init_tensors, load_checkpoint
from .tokenizer import Vocabulary, detokenize, parse_token, tokenize


def _require(condition: bool, message: str = "") -> None:
    """Fail a check with AssertionError; unlike assert, this still runs under python -O."""
    if not condition:
        raise AssertionError(message)


def _signed_uniform(rng, shape):
    """Magnitudes in [0.5, 1.5) with random sign: upstream gradients that do not
    cancel to values the finite-difference oracle cannot resolve."""
    return rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)


def lstm_fd(rng, length: int = 3, dtype=np.float64) -> float:
    """LSTM with 3 inputs and 4 units on a (2, length, 3) float batch.

    The analytic gradients are computed in dtype; the finite differences run in
    float64 on the same values, so a float32 instance meets a float64 oracle.
    """
    params = neural.init_lstm(rng, 3, 4, dtype=dtype)
    xs = rng.uniform(-1.0, 1.0, (2, length, 3)).astype(dtype)
    k = _signed_uniform(rng, (2, length, 4)).astype(dtype)
    _, cache = neural.lstm_forward(xs, params["w"], params["u"], params["b"])
    dxs, dw, du, db = neural.lstm_backward(k.copy(), cache, params["w"], params["u"])
    tensors = {name: a.astype(np.float64) for name, a in {**params, "x": xs}.items()}
    grads = {name: a.astype(np.float64) for name, a in {"w": dw, "u": du, "b": db, "x": dxs}.items()}
    k = k.astype(np.float64)

    def loss_fn():
        hs, _ = neural.lstm_forward(tensors["x"], tensors["w"], tensors["u"], tensors["b"])
        return float((hs * k).sum())

    return neural.gradient_check(loss_fn, tensors, grads)


def lstm_index_fd(rng) -> float:
    """LSTM fed (3, 4) token indices over a 5-token vocabulary, 4 units.

    dw is scattered by index instead of formed by a matrix product, and an
    index input has no input gradient.
    """
    params = neural.init_lstm(rng, 5, 4)
    idx = rng.integers(0, 5, (3, 4))
    k = _signed_uniform(rng, (3, 4, 4))
    _, cache = neural.lstm_forward(idx, params["w"], params["u"], params["b"])
    dxs, dw, du, db = neural.lstm_backward(k.copy(), cache, params["w"], params["u"])
    _require(dxs is None, "index input produced an input gradient")

    def loss_fn():
        hs, _ = neural.lstm_forward(idx, params["w"], params["u"], params["b"])
        return float((hs * k).sum())

    return neural.gradient_check(loss_fn, params, {"w": dw, "u": du, "b": db})


def dense_fd(rng) -> float:
    """ReLU dense layer, 5 inputs to 4 outputs, on a (3, 5) batch."""
    params = neural.init_dense(rng, 5, 4)
    x = rng.uniform(-1.0, 1.0, (3, 5))
    k = _signed_uniform(rng, (3, 4))
    _, cache = neural.dense_forward(x, params["w"], params["b"], activation="relu")
    dx, dw, db = neural.dense_backward(k.copy(), cache, params["w"])
    tensors = {"w": params["w"], "b": params["b"], "x": x}
    grads = {"w": dw, "b": db, "x": dx}

    def loss_fn():
        out, _ = neural.dense_forward(tensors["x"], tensors["w"], tensors["b"], activation="relu")
        return float((out * k).sum())

    return neural.gradient_check(loss_fn, tensors, grads)


def batchnorm_fd(rng) -> float:
    """Training-mode batch normalization of a (6, 5) batch."""
    x = rng.uniform(-1.0, 1.0, (6, 5))
    gamma = rng.uniform(0.5, 1.5, 5)
    beta = rng.uniform(-0.5, 0.5, 5)
    k = _signed_uniform(rng, (6, 5))
    _, cache = neural.batchnorm_forward(x, gamma, beta, np.zeros(5), np.ones(5), training=True)
    dx, dgamma, dbeta = neural.batchnorm_backward(k.copy(), cache)
    tensors = {"x": x, "gamma": gamma, "beta": beta}
    grads = {"x": dx, "gamma": dgamma, "beta": dbeta}

    def loss_fn():
        out, _ = neural.batchnorm_forward(
            tensors["x"], tensors["gamma"], tensors["beta"], np.zeros(5), np.ones(5), training=True
        )
        return float((out * k).sum())

    return neural.gradient_check(loss_fn, tensors, grads)


def sce_fd(rng) -> float:
    """Softmax cross-entropy of (6, 9) logits drawn with standard deviation 2."""
    logits = rng.normal(0.0, 2.0, (6, 9))
    targets = rng.integers(0, 9, 6)
    _, _, dlogits = neural.softmax_cross_entropy(logits, targets)
    tensors = {"logits": logits}

    def loss_fn():
        loss, _, _ = neural.softmax_cross_entropy(tensors["logits"], targets)
        return loss

    return neural.gradient_check(loss_fn, tensors, {"logits": dlogits})


# ---------------------------------------------------------------------------
# selfcheck: quick invariant sweep without pytest


def _check_metric_oracles() -> None:
    ones = GroovePattern((1,) * 64)
    zeros = GroovePattern((0,) * 64)
    _require(groove_similarity(ones, ones) == 1.0)
    _require(groove_similarity(ones, zeros) == 0.0)
    _require(groove_similarity(ones, GroovePattern((0,) + (1,) * 63)) == 1 - 1 / 64)
    _require(histogram_entropy(PitchHistogram((1.0,) + (0.0,) * 11)) == 0.0)
    uniform = PitchHistogram((1 / 12,) * 12)
    _require(abs(histogram_entropy(uniform) - MAX_ENTROPY) < 1e-9)


def _check_lstm_gradients() -> None:
    rng = np.random.default_rng(100)
    worst = lstm_fd(rng)
    _require(worst < 1e-5, f"lstm gradient error {worst:.2e}")
    worst = lstm_index_fd(rng)
    _require(worst < 1e-5, f"index-input lstm gradient error {worst:.2e}")


def _check_dense_gradients() -> None:
    worst = dense_fd(np.random.default_rng(200))
    _require(worst < 1e-6, f"dense gradient error {worst:.2e}")


def _check_batchnorm_gradients() -> None:
    worst = batchnorm_fd(np.random.default_rng(300))
    _require(worst < 1e-5, f"batchnorm gradient error {worst:.2e}")


def _check_sce_gradients() -> None:
    worst = sce_fd(np.random.default_rng(400))
    _require(worst < 1e-6, f"cross-entropy gradient error {worst:.2e}")


def _check_midi_round_trip() -> None:
    events = (
        NoteEvent(60, Fraction(1), Fraction(0)),
        NoteEvent.rest(Fraction(1, 2), Fraction(1)),
        NoteEvent(67, Fraction(1, 6), Fraction(3, 2)),
        NoteEvent(58, Fraction(1, 3), Fraction(5, 3)),
    )
    doc = MidiDocument(lcm_time_division(events), 240, events)
    back = read_midi(write_midi(doc))
    _require(back == doc, "midi round trip changed the document")


def _check_token_round_trip() -> None:
    events = (
        NoteEvent(61, Fraction(2, 3), Fraction(0)),
        NoteEvent.rest(Fraction(1, 4), Fraction(2, 3)),
        NoteEvent(35, Fraction(3, 8), Fraction(11, 12)),
    )
    tokens = tokenize(events)
    _require(detokenize(tokens) == events)
    _require([parse_token(text) for text in tokens] == [(ev.pitch, ev.duration) for ev in events])


def _check_checkpoint_round_trip() -> None:
    config = RnnConfig(window=2, hidden_units=4, dense_units=4, epochs=1, batch_size=2)
    vocab = Vocabulary(("A4_1.0", "C4_1.0", "R_1.0"))
    ckpt = Checkpoint(init_tensors(config, len(vocab), 0), vocab, config, best_loss=1.5, epoch=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "check.ckpt"
        path.write_bytes(encode_checkpoint(ckpt))
        loaded = load_checkpoint(path)
    _require(loaded.vocab == vocab)
    for name, tensor in ckpt.tensors.items():
        _require(np.array_equal(loaded.tensors[name], tensor), f"tensor {name} changed")


SELF_CHECKS = (
    ("metric oracles", _check_metric_oracles),
    ("lstm gradients", _check_lstm_gradients),
    ("dense gradients", _check_dense_gradients),
    ("batchnorm gradients", _check_batchnorm_gradients),
    ("cross-entropy gradients", _check_sce_gradients),
    ("midi round trip", _check_midi_round_trip),
    ("token round trip", _check_token_round_trip),
    ("checkpoint round trip", _check_checkpoint_round_trip),
)
