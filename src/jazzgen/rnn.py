"""Recurrent network assembly, training loop, checkpointing, and sampling.

The forward graph is fixed: window of token indices -> two stacked LSTM
layers (the first gathers its input projection by index) ->
last timestep's hidden state -> batch norm -> dropout -> dense relu ->
dropout -> dense to vocabulary logits.  Training minimizes softmax
cross-entropy with Adam and keeps the parameters from the epoch with the
lowest mean loss; layer 1 and the rest of the network train as two halves,
in two processes where the platform allows (see train).

Sequences everywhere are lists of token text strings; the vocabulary maps
them to the contiguous indices the network consumes.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import signal
import struct
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path, PurePosixPath
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .neural import (
    AdamState,
    LstmCache,
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


class ShortCorpusError(ValueError):
    """The corpus yields no window to train on, or no batch of two or more."""


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


def head(tensors: dict, dropout: float, last, training: bool, rng: np.random.Generator | None = None):
    """Logits (B, V) from the last LSTM layer's final hidden state (B, H):
    batch norm -> dropout -> dense relu -> dropout -> dense. Returns
    (logits, cache) for head_backward; train and generate_rnn run the two
    LSTM layers themselves."""
    t = tensors
    normed, bn_cache = batchnorm_forward(
        last, t["norm/gamma"], t["norm/beta"], t["norm/mean"], t["norm/var"], training
    )
    dropped1, mask1 = dropout_forward(normed, dropout, rng, training)
    hidden, dense1_cache = dense_forward(dropped1, t["dense1/w"], t["dense1/b"], activation="relu")
    dropped2, mask2 = dropout_forward(hidden, dropout, rng, training)
    logits, dense2_cache = dense_forward(dropped2, t["dense2/w"], t["dense2/b"])
    return logits, (bn_cache, mask1, dense1_cache, mask2, dense2_cache)


def head_backward(tensors: dict, dlogits, cache):
    """Backward through head from the logits' gradient: returns the
    gradient of its input (B, H) and those of its tensors by name."""
    t = tensors
    bn_cache, mask1, dense1_cache, mask2, dense2_cache = cache
    ddropped2, dw2, db2 = dense_backward(dlogits, dense2_cache, t["dense2/w"])
    dhidden = dropout_backward(ddropped2, mask2)
    ddropped1, dw1, db1 = dense_backward(dhidden, dense1_cache, t["dense1/w"])
    dnormed = dropout_backward(ddropped1, mask1)
    dlast, dgamma, dbeta = batchnorm_backward(dnormed, bn_cache)
    return dlast, {
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
        raise ShortCorpusError(f"no sequence is longer than the window ({window} tokens)")
    return np.concatenate(inputs), np.concatenate(targets)


def cgroup_cpu_limit(proc_cgroup: str = "/proc/self/cgroup", mount: str = "/sys/fs/cgroup") -> float:
    """The CPUs' worth of time per period that this process's cgroups allow
    it: the least quota / period along its cgroup path, from cgroup v2's
    cpu.max or v1's cpu.cfs_quota_us and cpu.cfs_period_us. inf where no
    quota is set or none can be read. A quota caps the time however many
    CPUs the affinity mask lists."""
    try:
        lines = Path(proc_cgroup).read_text().splitlines()
    except OSError:
        return math.inf
    limit = math.inf
    for line in lines:
        _, controllers, path = (line.split(":", 2) + ["", ""])[:3]
        if controllers == "" and path:  # the v2 hierarchy
            base, files = Path(mount), ("cpu.max",)
        elif "cpu" in controllers.split(","):
            base, files = Path(mount, "cpu"), ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        here = PurePosixPath(path)
        for directory in (here, *here.parents):
            try:
                quota, period = " ".join((base / directory.relative_to("/") / name).read_text() for name in files).split()
                if int(quota) > 0:  # v1 writes -1 and v2 "max" for none
                    limit = min(limit, int(quota) / int(period))
            except (OSError, ValueError):
                pass
    return limit


def two_process_training() -> bool:
    """Whether train runs layer 1 in a forked helper process: on Linux x86-64
    where the affinity mask lists two or more CPUs and no cgroup quota
    allows less than two CPUs' time. The halves hand over their steps with
    plain int64 stores, which x86-64 keeps in order with the stores before
    them; elsewhere both halves run in the calling process. Load from other
    processes on those CPUs is not seen here (see README)."""
    return (
        sys.platform.startswith("linux")
        and os.uname().machine == "x86_64"
        and len(os.sched_getaffinity(0)) >= 2
        and cgroup_cpu_limit() >= 2
    )


# Handoff counters. Each only grows and one half alone writes it. Steps count
# on across batches: batch k (from 1) hands over step t of L as number
# (k - 1) * L + t + 1 going forward and (k - 1) * L + L - t going back.
# Going forward, number (k - 1) * L + L comes only once layer 1's output
# has passed its finite check.
_ORDERS, _H1_STEPS, _DH1_STEPS, _LAYER1_DONE, _HELPER_FAULT = range(5)
_FAULT_BYTES = 1024
# how often a waiting half checks that the other is still alive
_POLL_S = 0.05


def _leading(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of the 1-D array flat as a C-contiguous array of shape."""
    return flat[: math.prod(shape)].reshape(shape)


def _shared(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zero array in its own anonymous mapping, which a fork shares; a mapping starts on a page."""
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize), dtype).reshape(shape)


class HelperError(RuntimeError):
    """The layer-1 helper failed or died; the message says which."""


class _HelperStopped(Exception):
    """The layer-1 helper reported a fault or died; args[0] is the error to raise."""


class _Handoff:
    """What the two halves share, in anonymous shared mappings made before
    the fork: the tensors, layer 1's hidden states for two batches in turn
    (each as (L + 1, B, H), row 0 zero), the gradient flowing back into them,
    the epoch's batch order, the counters and the helper's fault text.

    A half waits for the other by spinning on a counter, never by sleeping:
    a wake-up would cost more than a step. check_peer returns None while the
    other half runs and the error to raise once it has ended; it is None in
    one process, where every wait must already be met.
    """

    def __init__(self, config: RnnConfig, n_vocab: int, n_windows: int):
        dtype = np.dtype(config.dtype)
        self.window, self.hidden = config.window, config.hidden_units
        states = config.batch_size * self.hidden
        self.tensors = {name: _shared(shape, dtype) for name, shape in tensor_shapes(config, n_vocab).items()}
        self._h1 = _shared((2, (self.window + 1) * states), dtype)
        self._dh1 = _shared((self.window * states,), dtype)
        self.order = _shared((n_windows,), np.int64)
        self.counters = _shared((_HELPER_FAULT + 1,), np.int64)
        self._fault = _shared((_FAULT_BYTES,), np.uint8)
        self.check_peer: Callable[[], Exception | None] | None = None

    def h1(self, count: int, batch: int) -> np.ndarray:
        """Layer 1's hidden states (L + 1, batch, H) for batch number count."""
        return _leading(self._h1[count % 2], self.window + 1, batch, self.hidden)

    def dh1(self, batch: int) -> np.ndarray:
        """The gradient (L, batch, H) of the current batch's h1[1:]."""
        return _leading(self._dh1, self.window, batch, self.hidden)

    def publish(self, counter: int, value: int) -> None:
        self.counters[counter] = value

    def producer(self, counter: int, first: int) -> Callable[[int], None]:
        """A kernel's sync for the half that hands steps over: at n, publish first + n."""
        return lambda n: self.publish(counter, first + n)

    def consumer(self, counter: int, first: int, length: int) -> Callable[[int], None]:
        """A kernel's sync for the half that takes them: at n < length, wait for first + n + 1."""
        def sync(n: int) -> None:
            if n < length:
                self.wait(counter, first + n + 1)

        return sync

    def wait(self, counter: int, target: int) -> None:
        counters = self.counters
        if counters[counter] >= target:
            return
        if self.check_peer is None:
            raise RuntimeError("training in one process waited for a step it has not run")
        poll = time.monotonic() + _POLL_S
        while counters[counter] < target:
            if counters[_HELPER_FAULT]:
                raise _HelperStopped(self.helper_fault())
            if time.monotonic() < poll:
                # not a sleep: a CPU the halves share goes to the other one
                os.sched_yield()
                continue
            gone = self.check_peer()
            if gone is not None:
                # the peer may have published this step, or left its fault, just before it ended
                if counters[counter] >= target:
                    return
                raise _HelperStopped(self.helper_fault() if counters[_HELPER_FAULT] else gone)
            poll = time.monotonic() + _POLL_S

    def report(self, error: BaseException) -> None:
        """The helper's last act on an error: leave its text for the parent."""
        numerical = isinstance(error, NumericalFault)
        text = str(error) if numerical else f"{type(error).__name__}: {error}"
        data = np.frombuffer(text.encode("utf-8")[:_FAULT_BYTES], np.uint8)
        self._fault[: data.size] = data
        self.publish(_HELPER_FAULT, 1 if numerical else 2)

    def helper_fault(self) -> Exception:
        text = self._fault.tobytes().rstrip(b"\0").decode("utf-8", "replace")
        if self.counters[_HELPER_FAULT] == 1:
            return NumericalFault(text)
        return HelperError(f"layer-1 helper failed: {text}")


class _Workspace:
    """One LSTM layer's arrays for a batch, allocated once for the largest
    batch and reused by every batch, so that no batch pays for freshly
    mapped pages. Layer 1 keeps its hidden states in the handoff instead."""

    def __init__(self, config: RnnConfig):
        self.length, self.hidden = config.window, config.hidden_units
        states = config.batch_size * self.hidden
        dtype = np.dtype(config.dtype)
        self._hs, self._cs = np.empty((2, (self.length + 1) * states), dtype)
        self._tanh_cs = np.empty(self.length * states, dtype)
        self._gates, self._dz = np.empty((2, self.length * 4 * states), dtype)

    def buffers(self, batch: int, hs: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """lstm_forward's (hs, cs, gates, tanh_cs) for batch rows, with row 0
        of hs and cs zero; hs may be the caller's own (L + 1, batch, H) array."""
        if hs is None:
            hs = _leading(self._hs, self.length + 1, batch, self.hidden)
        cs = _leading(self._cs, self.length + 1, batch, self.hidden)
        hs[0] = cs[0] = 0.0
        gates = _leading(self._gates, self.length, batch, 4 * self.hidden)
        return hs, cs, gates, _leading(self._tanh_cs, self.length, batch, self.hidden)

    def dz(self, batch: int) -> np.ndarray:
        """(L, batch, 4H) for the gate pre-activation gradients."""
        return _leading(self._dz, self.length, batch, 4 * self.hidden)


class _LayerOne:
    """lstm1 forward and backward, one batch at a time, with its own Adam
    state. It writes only the lstm1 tensors, and hands each step's hidden
    state out and takes its gradient back through the handoff."""

    def __init__(self, config: RnnConfig, handoff: _Handoff, inputs: np.ndarray):
        self.config, self.handoff, self.inputs = config, handoff, inputs
        self.adam = AdamState()
        self.work = _Workspace(config)
        self.cache: LstmCache | None = None

    def forward(self, count: int, batch: np.ndarray) -> None:
        handoff, t = self.handoff, self.handoff.tensors
        buffers = self.work.buffers(len(batch), hs=handoff.h1(count, len(batch)))
        sync = handoff.producer(_H1_STEPS, (count - 1) * self.config.window)
        _, self.cache = lstm_forward(self.inputs[batch], t["lstm1/w"], t["lstm1/u"], t["lstm1/b"], buffers, sync)

    def backward(self, count: int) -> None:
        handoff, t, length = self.handoff, self.handoff.tensors, self.config.window
        batch = self.cache.gates.shape[1]
        sync = handoff.consumer(_DH1_STEPS, (count - 1) * length, length)
        dhs = handoff.dh1(batch).swapaxes(0, 1)
        _, dw, du, db = lstm_backward(dhs, self.cache, t["lstm1/w"], t["lstm1/u"], dz=self.work.dz(batch), sync=sync)
        adam_step(t, {"lstm1/w": dw, "lstm1/u": du, "lstm1/b": db}, self.adam, lr=self.config.learning_rate)
        handoff.publish(_LAYER1_DONE, count)


class _Rest:
    """lstm2, the head and the loss with their Adam state, one batch at a
    time; the rng draws the dropout masks. It writes every tensor but lstm1's."""

    def __init__(self, config: RnnConfig, handoff: _Handoff, rng: np.random.Generator):
        self.config, self.handoff, self.rng = config, handoff, rng
        self.adam = AdamState()
        self.work = _Workspace(config)

    def step(self, count: int, targets: np.ndarray) -> float:
        """Forward, loss, backward and Adam for batch number count; returns its loss."""
        handoff, length, batch = self.handoff, self.config.window, len(targets)
        t = handoff.tensors
        w, u, b = t["lstm2/w"], t["lstm2/u"], t["lstm2/b"]
        first = (count - 1) * length
        h1 = handoff.h1(count, batch)[1:].swapaxes(0, 1)
        sync = handoff.consumer(_H1_STEPS, first, length)
        hs, cache = lstm_forward(h1, w, u, b, self.work.buffers(batch), sync)
        logits, head_cache = head(t, self.config.dropout, hs[:, -1], training=True, rng=self.rng)
        loss, dlogits = softmax_cross_entropy(logits, targets)
        dlast, grads = head_backward(t, dlogits, head_cache)
        # only the last step's output reaches the head
        sync = handoff.producer(_DH1_STEPS, first)
        _, dw, du, db = lstm_backward(dlast[:, None], cache, w, u, self.work.dz(batch), handoff.dh1(batch), sync)
        adam_step(t, {"lstm2/w": dw, "lstm2/u": du, "lstm2/b": db, **grads}, self.adam, lr=self.config.learning_rate)
        return loss


def _batches(order: np.ndarray, batch_size: int):
    """(number, indices) of each batch of order that trains; a size-1 tail
    is skipped, since batch normalization needs two."""
    for start in range(0, len(order), batch_size):
        if len(order) - start > 1:
            yield start // batch_size, order[start : start + batch_size]


@contextmanager
def _located(epoch: int, number: int):
    """Name the batch in a NumericalFault raised in the body."""
    try:
        yield
    except NumericalFault as fault:
        raise NumericalFault(f"epoch {epoch}, batch {number}: {fault}") from fault


class _Helper:
    """The forked process that runs layer 1 for every epoch, once started.

    It never returns into the caller's stack: every exit is os._exit, so no
    finally block, atexit handler or stdio buffer of the caller runs in it.
    SIGINT stays blocked there; Ctrl-C reaches the parent, which kills it.
    It runs only numpy arithmetic; the one other thread a process may hold
    is OpenBLAS's pool, which OpenBLAS's own fork handler stops first. train
    pins one BLAS thread before the fork and never sets the count again, so
    neither process restarts that pool.
    """

    def __init__(self):
        self.pid: int | None = None
        self.status: int | None = None

    def start(self, config: RnnConfig, handoff: _Handoff, layer_one: _LayerOne) -> None:
        """Fork the helper. A fork that fails (EAGAIN at a process limit,
        ENOMEM) is a warning: pid stays unset, and train runs both halves."""
        parent = os.getpid()
        # blocked across the fork, so an interrupt finds self.pid set
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.pid = os.fork()
            if self.pid == 0:
                self._run(config, handoff, layer_one, parent)
        except OSError as err:
            warnings.warn(f"cannot fork the layer-1 helper ({err.strerror or err}); training in one process")
            return
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        handoff.check_peer = self.check

    @staticmethod
    def _run(config: RnnConfig, handoff: _Handoff, layer_one: _LayerOne, parent: int) -> None:
        status = 1
        try:
            def check_parent() -> Exception | None:
                return RuntimeError("the training process is gone") if os.getppid() != parent else None

            handoff.check_peer = check_parent
            count = 0
            for epoch in range(config.epochs):
                handoff.wait(_ORDERS, epoch + 1)
                for number, batch in _batches(handoff.order, config.batch_size):
                    count += 1
                    with _located(epoch, number):
                        layer_one.forward(count, batch)
                        layer_one.backward(count)
            status = 0
        except BaseException as error:  # noqa: BLE001 - the parent raises it
            handoff.report(error)
        finally:
            os._exit(status)

    def check(self) -> Exception | None:
        """None while the helper runs; once it has exited, reap it and return
        the error that names its exit status."""
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if not pid:
            return None
        self.status = status
        return HelperError(f"layer-1 helper exited with status {os.waitstatus_to_exitcode(status)}")

    def stop(self) -> None:
        """Kill and reap the helper, if one started and is not reaped yet."""
        if self.pid and self.status is None:
            os.kill(self.pid, signal.SIGKILL)
            _, self.status = os.waitpid(self.pid, 0)


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

    Layer 1 (_LayerOne) and the rest of the network (_Rest) train as two
    halves that hand one (B, H) slice per step across the layer boundary.
    Where two_process_training() holds, a forked helper runs layer 1, a step
    ahead of layer 2 going forward and a step behind it going back; the
    helper is killed and reaped before train returns or raises. Elsewhere,
    or where the fork fails, both halves run here in dependency order.
    Either way each half runs the same arithmetic, so the results are equal
    bit for bit, and the first NumericalFault is the one the serial order
    meets first.
    """
    one_blas_thread()
    inputs, targets = make_training_windows(sequences, vocab, config.window)
    if len(targets) % config.batch_size == 1:
        warnings.warn(
            f"skipping size-1 batch in {config.epochs} epoch(s): {len(targets)} windows"
            f" in batches of {config.batch_size} leave one over (batch normalization needs >= 2)"
        )
    if len(targets) < 2:
        raise ShortCorpusError("every batch was skipped; decrease batch_size or add data")

    handoff = _Handoff(config, len(vocab), len(targets))
    for name, tensor in init_tensors(config, len(vocab), seed).items():
        handoff.tensors[name][...] = tensor
    rng = np.random.default_rng(seed)
    rest = _Rest(config, handoff, rng)
    layer_one = _LayerOne(config, handoff, inputs)
    best_loss = float("inf")
    best_epoch = -1
    best_tensors = None
    count = 0
    # a diverging run overflows to inf and nan; ensure_finite reports that as
    # NumericalFault, so numpy's own warnings on the way would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        helper = _Helper()
        try:
            if two_process_training():
                helper.start(config, handoff, layer_one)
            local = None if helper.pid else layer_one
            for epoch in range(config.epochs):
                handoff.order[:] = rng.permutation(len(targets))
                handoff.publish(_ORDERS, epoch + 1)
                loss_sum = 0.0
                example_count = 0
                for number, batch in _batches(handoff.order, config.batch_size):
                    count += 1
                    with _located(epoch, number):
                        if local:
                            local.forward(count, batch)
                        loss = rest.step(count, targets[batch])
                        if local:
                            local.backward(count)
                    loss_sum += loss * len(batch)
                    example_count += len(batch)
                handoff.wait(_LAYER1_DONE, count)
                mean_loss = loss_sum / example_count
                improved = mean_loss < best_loss
                if improved:
                    best_loss = mean_loss
                    best_epoch = epoch
                    best_tensors = {name: array.copy() for name, array in handoff.tensors.items()}
                if on_epoch is not None:
                    on_epoch(epoch, mean_loss, improved)
        except _HelperStopped as stopped:
            raise stopped.args[0] from None
        finally:
            helper.stop()
    return Checkpoint(best_tensors, vocab, config, best_loss, best_epoch)


def select_index(
    logits: np.ndarray,
    temperature: float,
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> np.ndarray:
    """One sampling step for a (B, V) batch of logits, row k drawing from
    rngs[k]; returns the B picked indices.

    At or below the temperature floor each row takes its argmax. Otherwise
    each row is drawn from its tempered softmax, computed in float64, exactly
    as Generator.choice(V, p=probs) draws: one rng.random() per row, placed
    by searchsorted(side="right") on the row's cumsum normalized by its last
    entry.
    """
    if temperature <= ARGMAX_TEMPERATURE:
        return logits.argmax(axis=1)
    if rngs is None or any(rng is None for rng in rngs):
        raise ValueError("sampling at temperature > 0 requires an rng")
    probs = softmax(logits.astype(np.float64), temperature)
    probs /= probs.sum(axis=1, keepdims=True)
    if not np.isfinite(probs).all():
        raise ValueError("probabilities contain non-finite values")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    uniforms = np.array([rng.random() for rng in rngs])
    # a cumsum of nonnegative terms never decreases, so the count of
    # entries <= u is searchsorted(cdf, u, side="right"), for all rows at once
    return (cdf <= uniforms[:, None]).sum(axis=1)


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
    logits. Each row runs the operations of a zero-state pass over its
    window alone, and gives the same tokens. The logits are bit-equal only
    where every matrix product has enough rows: BLAS may round a one-row
    float32 product, or one of another batch size, differently from the
    same row inside a larger one, so the last bits can differ.

    Seed k draws only from rngs[k], and batch norm uses its running
    statistics, so a seed's tokens do not depend on which other seeds
    share the batch (its logits' last bits may). Temperatures at or below 1e-6 short-circuit to
    argmax, which lands on the lexicographically smallest token among ties
    because the vocabulary is sorted; without rngs, only argmax sampling
    works. A state or logits that overflow raise NumericalFault.
    """
    one_blas_thread()
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
    # finite weights can still overflow to inf and nan; ensure_finite reports
    # that as NumericalFault, so numpy's own warnings on the way would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
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
                logits, _ = head(t, ckpt.config.dropout, h2[lo], training=False)
                ensure_finite("logits", logits)
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


def load_checkpoint(data: bytes) -> Checkpoint:
    """The checkpoint encode_checkpoint wrote as data, or CheckpointError."""
    if len(data) < len(CHECKPOINT_MAGIC) + 4 or not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not a checkpoint file (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    (manifest_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + manifest_len:
        raise CheckpointError("truncated checkpoint: manifest cut short")
    try:
        manifest = json.loads(data[offset : offset + manifest_len])
    except (ValueError, RecursionError) as err:  # RecursionError: nested past the recursion limit
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
        if not np.isfinite(flat).all():  # train stops before it saves one; generate could not sample it
            raise CheckpointError(f"tensor {name} holds a non-finite value")
        tensors[name] = flat.reshape(shape).astype(dtype)
        cursor += count
    return Checkpoint(tensors, vocab, config, best_loss, epoch)
