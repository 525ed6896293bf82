"""Recurrent network assembly, training loop, checkpointing, and sampling.

The forward graph is fixed: window of token indices -> two stacked LSTM
layers (the first gathers its input projection by index) ->
last timestep's hidden state -> batch norm -> dropout -> dense relu ->
dropout -> dense to vocabulary logits.  Training minimizes softmax
cross-entropy with Adam and keeps the parameters from the epoch with the
lowest mean loss.

Sequences everywhere are lists of token text strings; the vocabulary maps
them to the contiguous indices the network consumes.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .neural import (
    AdamState,
    NumericalFault,
    adam_step,
    batchnorm_backward,
    batchnorm_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    ensure_finite,
    init_dense,
    init_lstm,
    lstm_backward,
    lstm_cell,
    lstm_forward,
    one_blas_thread,
    softmax,
    softmax_cross_entropy,
)
from .tokenizer import Vocabulary

CHECKPOINT_MAGIC = b"JGCKPT01"
CHECKPOINT_VERSION = 3
ARGMAX_TEMPERATURE = 1e-6


class CheckpointError(ValueError):
    """Checkpoint file is unreadable: bad magic, version, size, or shapes."""


# annotation -> (accepted types, noun); no setting takes a bool (JSON true/false)
_SETTING_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"), "str": (str, "a string")}


def check_setting_types(settings) -> None:
    """TypeError unless each int, float and str field of a settings dataclass holds that type."""
    for f in fields(settings):
        rule = _SETTING_TYPES.get(getattr(f.type, "__name__", f.type))
        value = getattr(settings, f.name)
        if rule is not None and (not isinstance(value, rule[0]) or isinstance(value, bool)):
            raise TypeError(f"{f.name} must be {rule[1]}, got {value!r}")


@dataclass
class RnnConfig:
    """Network and training settings: the config file's `rnn` section and
    what a checkpoint stores. The vocabulary sets the input and output size."""

    window: int = 16
    hidden_units: int = 64
    dense_units: int = 64
    epochs: int = 30
    batch_size: int = 64
    temperature: float = 1.0
    dropout: float = 0.3
    learning_rate: float = 1e-3
    dtype: str = "float32"

    def __post_init__(self):
        check_setting_types(self)
        for name in ("window", "hidden_units", "dense_units", "epochs", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 for batch normalization")
        for name in ("temperature", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


def tensor_shapes(config: RnnConfig, n_vocab: int) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape for an n_vocab-token vocabulary: the twelve Adam
    trains plus the batch-norm running statistics norm/mean and norm/var."""
    v, h, d = n_vocab, config.hidden_units, config.dense_units
    return {
        "lstm1/w": (4 * h, v), "lstm1/u": (4 * h, h), "lstm1/b": (4 * h,),
        "lstm2/w": (4 * h, h), "lstm2/u": (4 * h, h), "lstm2/b": (4 * h,),
        "norm/gamma": (h,), "norm/beta": (h,), "norm/mean": (h,), "norm/var": (h,),
        "dense1/w": (d, h), "dense1/b": (d,),
        "dense2/w": (v, d), "dense2/b": (v,),
    }


@dataclass
class Checkpoint:
    tensors: dict
    vocab: Vocabulary
    config: RnnConfig
    best_loss: float
    epoch: int


def init_tensors(config: RnnConfig, n_vocab: int, seed: int) -> dict:
    """Fresh parameters and batch-norm statistics for an n_vocab-token vocabulary."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(config.dtype)
    v, h, d = n_vocab, config.hidden_units, config.dense_units
    lstm1 = init_lstm(rng, v, h, dtype)
    lstm2 = init_lstm(rng, h, h, dtype)
    dense1 = init_dense(rng, h, d, dtype)
    dense2 = init_dense(rng, d, v, dtype)
    return {
        "lstm1/w": lstm1["w"], "lstm1/u": lstm1["u"], "lstm1/b": lstm1["b"],
        "lstm2/w": lstm2["w"], "lstm2/u": lstm2["u"], "lstm2/b": lstm2["b"],
        "norm/gamma": np.ones(h, dtype=dtype),
        "norm/beta": np.zeros(h, dtype=dtype),
        "norm/mean": np.zeros(h, dtype=dtype),
        "norm/var": np.ones(h, dtype=dtype),
        "dense1/w": dense1["w"], "dense1/b": dense1["b"],
        "dense2/w": dense2["w"], "dense2/b": dense2["b"],
    }


class Network:
    """Parameter container plus the fixed forward/backward wiring."""

    def __init__(self, config: RnnConfig, tensors: dict):
        self.config = config
        self.tensors = tensors

    def forward(self, windows, training: bool, rng: np.random.Generator | None = None):
        """windows is integer token indices (B, L); returns (logits, cache)."""
        t = self.tensors
        hs1, cache1 = lstm_forward(windows, t["lstm1/w"], t["lstm1/u"], t["lstm1/b"])
        hs2, cache2 = lstm_forward(hs1, t["lstm2/w"], t["lstm2/u"], t["lstm2/b"])
        logits, head_cache = self.head(hs2[:, -1, :], training, rng)
        return logits, (hs2.shape, cache1, cache2, head_cache)

    def head(self, last, training: bool, rng: np.random.Generator | None = None):
        """Logits (B, V) from the last LSTM layer's final hidden state (B, H):
        batch norm -> dropout -> dense relu -> dropout -> dense. Returns
        (logits, cache) for backward."""
        t = self.tensors
        normed, bn_cache = batchnorm_forward(
            last, t["norm/gamma"], t["norm/beta"], t["norm/mean"], t["norm/var"], training
        )
        dropped1, mask1 = dropout_forward(normed, self.config.dropout, rng, training)
        hidden, dense1_cache = dense_forward(
            dropped1, t["dense1/w"], t["dense1/b"], activation="relu"
        )
        dropped2, mask2 = dropout_forward(hidden, self.config.dropout, rng, training)
        logits, dense2_cache = dense_forward(dropped2, t["dense2/w"], t["dense2/b"])
        return logits, (bn_cache, mask1, dense1_cache, mask2, dense2_cache)

    def backward(self, dlogits, cache) -> dict:
        t = self.tensors
        hs2_shape, cache1, cache2, (bn_cache, mask1, dense1_cache, mask2, dense2_cache) = cache
        ddropped2, dw2, db2 = dense_backward(dlogits, dense2_cache, t["dense2/w"])
        dhidden = dropout_backward(ddropped2, mask2)
        ddropped1, dw1, db1 = dense_backward(dhidden, dense1_cache, t["dense1/w"])
        dnormed = dropout_backward(ddropped1, mask1)
        dlast, dgamma, dbeta = batchnorm_backward(dnormed, bn_cache)
        dhs2 = np.zeros(hs2_shape, dtype=dlast.dtype)
        dhs2[:, -1, :] = dlast
        dhs1, dw_l2, du_l2, db_l2 = lstm_backward(dhs2, cache2, t["lstm2/w"], t["lstm2/u"])
        _, dw_l1, du_l1, db_l1 = lstm_backward(dhs1, cache1, t["lstm1/w"], t["lstm1/u"])
        return {
            "lstm1/w": dw_l1, "lstm1/u": du_l1, "lstm1/b": db_l1,
            "lstm2/w": dw_l2, "lstm2/u": du_l2, "lstm2/b": db_l2,
            "norm/gamma": dgamma, "norm/beta": dbeta,
            "dense1/w": dw1, "dense1/b": db1,
            "dense2/w": dw2, "dense2/b": db2,
        }


def make_training_windows(
    sequences: Iterable[Sequence[str]], vocab: Vocabulary, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 sliding windows within each sequence, never across them, as
    int64 (inputs, targets): row i of inputs holds a window's token indices
    and targets[i] the index of the token that follows it.

    Sequences shorter than window+1 yield nothing; if every sequence is that
    short there is nothing to train on and that is an error.
    """
    inputs, targets = [], []
    for sequence in sequences:
        indices = np.array([vocab.encode(token) for token in sequence], dtype=np.int64)
        if len(indices) > window:
            inputs.append(sliding_window_view(indices[:-1], window))
            targets.append(indices[window:])
    if not inputs:
        raise ValueError(f"no sequence is longer than the window ({window} tokens)")
    return np.concatenate(inputs), np.concatenate(targets)


@one_blas_thread()
def train(
    config: RnnConfig,
    sequences: Iterable[Sequence[str]],
    vocab: Vocabulary,
    seed: int,
    on_epoch: Callable[[int, float, bool], None] | None = None,
) -> Checkpoint:
    """Adam + cross-entropy over shuffled windows; returns the best epoch.

    seed starts two separate generators: one draws the initial parameters,
    the other the shuffles and dropout masks. on_epoch, when given, is called
    after every epoch with (epoch index, mean loss, improved flag).
    """
    inputs, targets = make_training_windows(sequences, vocab, config.window)

    net = Network(config, init_tensors(config, len(vocab), seed))
    rng = np.random.default_rng(seed)
    adam = AdamState()
    best_loss = float("inf")
    best_epoch = -1
    best_tensors = None
    if len(targets) % config.batch_size == 1:
        warnings.warn(
            f"skipping size-1 batch in {config.epochs} epoch(s): {len(targets)} windows"
            f" in batches of {config.batch_size} leave one over (batch normalization needs >= 2)"
        )

    # a diverging run overflows to inf and nan; ensure_finite reports that as
    # NumericalFault, so numpy's own warnings on the way would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(targets))
            loss_sum = 0.0
            example_count = 0
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                if len(batch) == 1:
                    continue
                try:
                    logits, cache = net.forward(inputs[batch], training=True, rng=rng)
                    loss, dlogits = softmax_cross_entropy(logits, targets[batch])
                    grads = net.backward(dlogits, cache)
                    adam_step(net.tensors, grads, adam, lr=config.learning_rate)
                except NumericalFault as fault:
                    raise NumericalFault(
                        f"epoch {epoch}, batch {start // config.batch_size}: {fault}"
                    ) from fault
                loss_sum += loss * len(batch)
                example_count += len(batch)
            if example_count == 0:
                raise ValueError("every batch was skipped; decrease batch_size or add data")
            mean_loss = loss_sum / example_count
            improved = mean_loss < best_loss
            if improved:
                best_loss = mean_loss
                best_epoch = epoch
                best_tensors = {name: array.copy() for name, array in net.tensors.items()}
            if on_epoch is not None:
                on_epoch(epoch, mean_loss, improved)
    return Checkpoint(best_tensors, vocab, config, best_loss, best_epoch)


def next_distribution(net: Network, context: Sequence[int], temperature: float) -> np.ndarray:
    """Softmax over the next token given a full window of indices."""
    logits, _ = net.forward(np.array([context], dtype=np.int64), training=False)
    return softmax(logits[0].astype(np.float64), temperature)


def select_index(
    logits: np.ndarray,
    temperature: float,
    rngs: np.random.Generator | Sequence[np.random.Generator | None] | None = None,
) -> int | np.ndarray:
    """One sampling step for a (B, V) batch of logits, row k drawing from
    rngs[k]; a single (V,) row takes a single generator and returns one int.

    At or below the temperature floor each row takes its argmax. Otherwise
    each row is drawn from its tempered softmax, computed in float64, exactly
    as Generator.choice(V, p=probs) draws: one rng.random() per row, placed
    by searchsorted(side="right") on the row's cumsum normalized by its last
    entry.
    """
    rows = np.asarray(logits)
    single = rows.ndim == 1
    if single:
        rows, rngs = rows[None], [rngs]
    if temperature <= ARGMAX_TEMPERATURE:
        picks = rows.argmax(axis=1)
    else:
        if rngs is None or any(rng is None for rng in rngs):
            raise ValueError("sampling at temperature > 0 requires an rng")
        probs = softmax(rows.astype(np.float64), temperature)
        probs /= probs.sum(axis=1, keepdims=True)
        if not np.isfinite(probs).all():
            raise ValueError("probabilities contain non-finite values")
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        uniforms = np.array([rng.random() for rng in rngs])
        # a cumsum of nonnegative terms never decreases, so the count of
        # entries <= u is searchsorted(cdf, u, side="right"), for all rows at once
        picks = (cdf <= uniforms[:, None]).sum(axis=1)
    return int(picks[0]) if single else picks


@one_blas_thread()
def generate_rnn(
    ckpt: Checkpoint,
    seeds: Sequence[Sequence[str]],
    steps: int,
    temperature: float | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[list[str]]:
    """Each seed plus `steps` sampled continuation tokens, one list per seed.

    The final window-length slice of each seed is its initial context, and
    token k is predicted from a zero-state pass over the window of tokens
    k .. k+window-1 before it. Sampling runs as a wavefront: every window
    that reads position p reads the same token there, so one batched LSTM
    cell per layer moves all live windows of all seeds forward one position,
    and the window that has just read its last token gives the next token's
    logits. Each row's arithmetic is that of the per-window forward pass, so
    the result equals it bit for bit.

    Seed k draws only from rngs[k], and batch norm uses its running
    statistics, so a seed's continuation does not depend on which other
    seeds share the batch. Temperatures at or below 1e-6 short-circuit to
    argmax, which lands on the lexicographically smallest token among ties
    because the vocabulary is sorted; without rngs, only argmax sampling
    works.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    window = ckpt.config.window
    for seed in seeds:
        if len(seed) < window:
            raise ValueError(f"seed has {len(seed)} tokens; at least {window} required")
    if temperature is None:
        temperature = ckpt.config.temperature
    rngs = [None] * len(seeds) if rngs is None else rngs
    if len(rngs) != len(seeds):
        raise ValueError(f"{len(rngs)} rngs for {len(seeds)} seeds")
    outputs = [list(seed) for seed in seeds]
    if not seeds or steps == 0:
        return outputs
    net = Network(ckpt.config, ckpt.tensors)
    t = ckpt.tensors
    batch, hidden = len(seeds), ckpt.config.hidden_units
    tokens = np.empty((batch, window + steps), dtype=np.int64)
    tokens[:, :window] = [[ckpt.vocab.encode(token) for token in seed][-window:] for seed in seeds]
    u1_t, u2_t = (np.ascontiguousarray(t[name].T) for name in ("lstm1/u", "lstm2/u"))
    dtype = u1_t.dtype
    # slots hold h1, c1, h2, c2 per window. The live windows are the block
    # [lo, hi), oldest first; slots past hi are zero, the state a window
    # starts from. A window that finds no free slot first moves the block to
    # the front; at most window - 1 are live then, so memory stays bounded
    # whatever `steps` is.
    slots = min(2 * window, steps)
    states = np.zeros((4, slots, batch, hidden), dtype=dtype)
    h1, c1, h2, c2 = states
    gates = np.empty((window, batch, 4 * hidden), dtype=dtype)
    tanh_cs = np.empty((window, batch, hidden), dtype=dtype)
    lo = hi = 0
    for p in range(steps + window - 1):
        if p < steps:  # window p starts here
            if hi == slots:
                live = hi - lo
                states[:, :live] = states[:, lo:hi]
                states[:, live:] = 0.0
                lo, hi = 0, live
            hi += 1
        block = slice(lo, hi)
        gate, tanh_c = gates[: hi - lo], tanh_cs[: hi - lo]
        xw1 = t["lstm1/w"].T[tokens[:, p]]
        lstm_cell(xw1, h1[block], c1[block], u1_t, t["lstm1/b"], gate, c1[block], tanh_c, h1[block])
        xw2 = (h1[block].reshape(-1, hidden) @ t["lstm2/w"].T).reshape(gate.shape)
        lstm_cell(xw2, h2[block], c2[block], u2_t, t["lstm2/b"], gate, c2[block], tanh_c, h2[block])
        ensure_finite("lstm output", states[:, block])
        if p >= window - 1:  # window p - window + 1 has read its last token
            logits, _ = net.head(h2[lo], training=False)
            tokens[:, p + 1] = select_index(logits, temperature, rngs)
            lo += 1
    for output, picks in zip(outputs, tokens[:, window:].tolist()):
        output.extend(ckpt.vocab.tokens[index] for index in picks)
    return outputs


def _stored_dtype(config: RnnConfig) -> np.dtype:
    return np.dtype(config.dtype).newbyteorder("<")


def encode_checkpoint(ckpt: Checkpoint) -> bytes:
    """Text manifest (JSON) plus the concatenated tensors, little-endian in
    the config's dtype, so a reload is bit-equal."""
    names = sorted(ckpt.tensors)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(ckpt.config),
        "vocab": list(ckpt.vocab.tokens),
        "best_loss": ckpt.best_loss,
        "epoch": ckpt.epoch,
        "tensors": [{"name": n, "shape": list(ckpt.tensors[n].shape)} for n in names],
    }
    stored = _stored_dtype(ckpt.config)
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", len(encoded)),
        encoded,
        *(np.ascontiguousarray(ckpt.tensors[n], dtype=stored).tobytes() for n in names),
    ])


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(CHECKPOINT_MAGIC) + 4 or not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not a checkpoint file (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    (manifest_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + manifest_len:
        raise CheckpointError("truncated checkpoint: manifest cut short")
    try:
        manifest = json.loads(data[offset : offset + manifest_len])
    except ValueError as err:
        raise CheckpointError(f"manifest is not valid JSON: {err}") from None
    offset += manifest_len
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"format version {version} not supported (expected {CHECKPOINT_VERSION})")
    try:
        config = RnnConfig(**manifest["config"])
        vocab = Vocabulary(tuple(manifest["vocab"]))
        shapes = [(entry["name"], tuple(map(int, entry["shape"]))) for entry in manifest["tensors"]]
        names = sorted(name for name, _ in shapes)
        best_loss, epoch = float(manifest["best_loss"]), int(manifest["epoch"])
    except (ValueError, LookupError, TypeError, AttributeError) as err:
        # a missing key, a non-container or a setting RnnConfig rejects
        raise CheckpointError(f"{type(err).__name__}: {err}") from None
    layout = tensor_shapes(config, len(vocab))
    if names != sorted(layout):
        extra = [name for name in names if name not in layout]
        missing = [name for name in sorted(layout) if name not in names]
        raise CheckpointError(f"tensor names differ from the network's (extra {extra}, missing {missing})")
    for name, shape in shapes:
        if shape != layout[name]:
            raise CheckpointError(f"tensor {name} has shape {list(shape)}, not {list(layout[name])}")
    dtype = np.dtype(config.dtype)
    stored = _stored_dtype(config)
    counts = [int(np.prod(shape, dtype=np.int64)) for _, shape in shapes]
    expected = stored.itemsize * sum(counts)
    blob = data[offset:]
    if len(blob) != expected:
        raise CheckpointError(f"tensor blob has {len(blob)} bytes but manifest shapes account for {expected}")
    tensors = {}
    cursor = 0
    for (name, shape), count in zip(shapes, counts):
        flat = np.frombuffer(blob, dtype=stored, count=count, offset=cursor * stored.itemsize)
        tensors[name] = flat.reshape(shape).astype(dtype)
        cursor += count
    return Checkpoint(tensors, vocab, config, best_loss, epoch)
