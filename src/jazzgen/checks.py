"""Invariant checks shared by `jazzgen selfcheck` and the test suite.

Each finite-difference builder draws one small instance from the rng it is
given and returns probe's worst relative error of its analytic gradients
against central differences.  Draw order is part of each builder's contract:
the same rng state always yields the same instance, so the seeds pinned in
_GRADIENT_CHECKS and in the tests keep naming the same problems.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import neural
from .metrics import MAX_ENTROPY, evaluate_line
from .midi_io import TickLine, read_line, write_line
from .rnn import Checkpoint, RnnConfig, encode_checkpoint, init_tensors, load_checkpoint
from .tokenizer import Vocabulary, tick_line, tokenize_line


def _require(condition: bool, message: str = "") -> None:
    """Fail a check with AssertionError; unlike assert, this still runs under python -O."""
    if not condition:
        raise AssertionError(message)


def signed_uniform(rng, shape):
    """Magnitudes in [0.5, 1.5) with random sign: upstream gradients that do not
    cancel to values the finite-difference oracle cannot resolve."""
    return rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)


def probe(forward, backward, tensors: dict, k) -> float:
    """Worst relative error of the gradients of sum(forward(**tensors)[0] * k)
    against central differences.

    backward(k, cache) returns one gradient per tensor, in the order of
    tensors. The analytic pass runs in the tensors' own dtype; the differences
    run in float64 on the same values, so a float32 instance meets a float64
    oracle.
    """
    _, cache = forward(**tensors)
    grads = {name: grad.astype(np.float64) for name, grad in zip(tensors, backward(k.copy(), cache))}
    wide = {name: tensor.astype(np.float64) for name, tensor in tensors.items()}
    k = k.astype(np.float64)
    return neural.gradient_check(lambda: float((forward(**wide)[0] * k).sum()), wide, grads)


def lstm_fd(rng, length: int = 3, dtype=np.float64) -> float:
    """LSTM with 3 inputs and 4 units on a (2, length, 3) float batch, in dtype."""
    params = neural.init_lstm(rng, 3, 4, dtype=dtype)
    xs = rng.uniform(-1.0, 1.0, (2, length, 3)).astype(dtype)
    k = signed_uniform(rng, (2, length, 4)).astype(dtype)
    return probe(
        neural.lstm_forward,
        lambda dh, cache: neural.lstm_backward(dh, cache, params["w"], params["u"]),
        {"xs": xs, **params},
        k,
    )


def lstm_index_fd(rng) -> float:
    """LSTM fed (3, 4) token indices over a 5-token vocabulary, 4 units.

    dw is scattered by index instead of formed by a matrix product, and an
    index input has no input gradient.
    """
    params = neural.init_lstm(rng, 5, 4)
    idx = rng.integers(0, 5, (3, 4))
    k = signed_uniform(rng, (3, 4, 4))

    def backward(dh, cache):
        dxs, *grads = neural.lstm_backward(dh, cache, params["w"], params["u"])
        _require(dxs is None, "index input produced an input gradient")
        return grads

    return probe(lambda w, u, b: neural.lstm_forward(idx, w, u, b), backward, params, k)


def dense_fd(rng) -> float:
    """ReLU dense layer, 5 inputs to 4 outputs, on a (3, 5) batch."""
    params = neural.init_dense(rng, 5, 4)
    x = rng.uniform(-1.0, 1.0, (3, 5))
    k = signed_uniform(rng, (3, 4))
    return probe(
        partial(neural.dense_forward, activation="relu"),
        lambda dy, cache: neural.dense_backward(dy, cache, params["w"]),
        {"x": x, **params},
        k,
    )


def batchnorm_train(x, gamma, beta):
    """Training-mode batch normalization; it folds the batch statistics into
    fresh running ones, which the output does not read."""
    return neural.batchnorm_forward(x, gamma, beta, np.zeros(x.shape[1]), np.ones(x.shape[1]), training=True)


def batchnorm_fd(rng) -> float:
    """Training-mode batch normalization of a (6, 5) batch."""
    x = rng.uniform(-1.0, 1.0, (6, 5))
    gamma = rng.uniform(0.5, 1.5, 5)
    beta = rng.uniform(-0.5, 0.5, 5)
    k = signed_uniform(rng, (6, 5))
    return probe(batchnorm_train, neural.batchnorm_backward, {"x": x, "gamma": gamma, "beta": beta}, k)


def sce_fd(rng) -> float:
    """Softmax cross-entropy of (6, 9) logits drawn with standard deviation 2."""
    logits = rng.normal(0.0, 2.0, (6, 9))
    targets = rng.integers(0, 9, 6)
    # the loss is a scalar and its (loss, dlogits) is probe's (output, cache)
    return probe(
        lambda logits: neural.softmax_cross_entropy(logits, targets),
        lambda k, dlogits: [dlogits * k],
        {"logits": logits},
        np.ones(()),
    )


# ---------------------------------------------------------------------------
# selfcheck: quick invariant sweep without pytest, through the pipeline's own
# tick path: the scorer evaluate runs, the encoder generate runs


def _check_metric_oracles() -> None:
    # quarter notes at one tick per quarter: (pitches, mean GS, entropy)
    oracles = (
        ((60,) * 8, 1.0, 0.0),
        ((60,) * 4 + (None,) + (60,) * 3, 1 - 1 / 64, 0.0),
        (tuple(range(60, 72)), 1.0, MAX_ENTROPY),
    )
    for pitches, gs, entropy in oracles:
        report = evaluate_line(TickLine(1, pitches, (1,) * len(pitches)))
        _require(report.mean_gs == gs, f"GS {report.mean_gs} of {pitches}, expected {gs}")
        _require(abs(report.entropy - entropy) < 1e-9, f"entropy {report.entropy} of {pitches}, expected {entropy}")


# (kind, builders drawing in turn from one rng, seed, bound on the worst error)
_GRADIENT_CHECKS = (
    ("lstm", (lstm_fd, lstm_index_fd), 100, 1e-5),
    ("dense", (dense_fd,), 200, 1e-6),
    ("batchnorm", (batchnorm_fd,), 300, 1e-5),
    ("cross-entropy", (sce_fd,), 400, 1e-6),
)


def _gradient_check(kind, builders, seed, bound):
    def check() -> None:
        rng = np.random.default_rng(seed)
        for builder in builders:
            worst = builder(rng)
            _require(worst < bound, f"{kind} gradient error {worst:.2e}")

    return f"{kind} gradients", check


def _check_midi_round_trip() -> None:
    # a triplet-grid line with an inner and a trailing rest
    line = TickLine(6, (60, None, 67, 58, None), (6, 3, 1, 2, 4))
    _require(read_line(write_line(line, 240)) == (line, 240), "midi round trip changed the line")


def _check_token_round_trip() -> None:
    tokens = ["C#4_2/3", "R_0.25", "B1_0.375"]
    line = TickLine(24, (61, None, 35), (16, 6, 9))
    _require(tick_line(tokens) == line, "tick_line misplaced the tokens")
    _require(tokenize_line(line) == tokens, "tokenize_line changed the tokens")


def _check_checkpoint_round_trip() -> None:
    config = RnnConfig(window=2, hidden_units=4, dense_units=4, epochs=1, batch_size=2)
    vocab = Vocabulary(("A4_1.0", "C4_1.0", "R_1.0"))
    ckpt = Checkpoint(init_tensors(config, len(vocab), 0), vocab, config, best_loss=1.5, epoch=0)
    loaded = load_checkpoint(encode_checkpoint(ckpt))
    _require(loaded.vocab == vocab)
    for name, tensor in ckpt.tensors.items():
        _require(np.array_equal(loaded.tensors[name], tensor), f"tensor {name} changed")


SELF_CHECKS = (
    ("metric oracles", _check_metric_oracles),
    *(_gradient_check(*row) for row in _GRADIENT_CHECKS),
    ("midi round trip", _check_midi_round_trip),
    ("token round trip", _check_token_round_trip),
    ("checkpoint round trip", _check_checkpoint_round_trip),
)
