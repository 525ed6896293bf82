import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jazzgen.rnn
from jazzgen.neural import AdamState, NumericalFault, adam_step, lstm_backward, lstm_forward, softmax, softmax_cross_entropy
from jazzgen.rnn import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointError,
    Network,
    RnnConfig,
    ShortCorpusError,
    encode_checkpoint,
    generate_rnn,
    init_tensors,
    load_checkpoint,
    make_training_windows,
    select_index,
    tensor_shapes,
    train,
)
from jazzgen.tokenizer import UnknownTokenError, build_vocabulary, render_token
from oracle import forward, next_distribution

ROOT = Path(__file__).resolve().parents[1]

TRAINABLE = {
    "lstm1/w", "lstm1/u", "lstm1/b",
    "lstm2/w", "lstm2/u", "lstm2/b",
    "norm/gamma", "norm/beta",
    "dense1/w", "dense1/b", "dense2/w", "dense2/b",
}
PATTERN = ["C4_1.0", "D4_1.0", "E4_1.0", "F4_1.0", "G4_1.0", "A4_1.0", "B4_1.0", "R_1.0"]


def cycle_tokens(n):
    return (PATTERN * (n // len(PATTERN) + 1))[:n]


SMALL_SEED = 11


def small_config(**overrides):
    defaults = dict(
        window=16,
        hidden_units=16,
        dense_units=16,
        epochs=3,
        batch_size=8,
        dropout=0.0,
        learning_rate=1e-2,
    )
    defaults.update(overrides)
    return RnnConfig(**defaults)


@pytest.fixture(scope="module")
def memorized():
    """One 40-token file driven to near-zero loss; shared by several tests."""
    seq = cycle_tokens(40)
    vocab = build_vocabulary(seq)
    config = RnnConfig(
        window=16,
        hidden_units=32,
        dense_units=32,
        epochs=300,
        batch_size=64,
        dropout=0.0,
        learning_rate=1e-2,
    )
    history = []
    ckpt = train(config, [seq], vocab, 7, on_epoch=lambda e, loss, imp: history.append(loss))
    return seq, vocab, ckpt, history


def test_config_validation():
    with pytest.raises(ValueError):
        RnnConfig(hidden_units=0)
    with pytest.raises(ValueError):
        RnnConfig(batch_size=1)
    with pytest.raises(ValueError):
        RnnConfig(temperature=0.0)
    with pytest.raises(ValueError):
        RnnConfig(dropout=1.0)
    with pytest.raises(ValueError):
        RnnConfig(dtype="float16")
    with pytest.raises(ValueError):
        RnnConfig(window=0)


@pytest.mark.parametrize("setting, value, message", [
    ("window", 2.0, "window must be an integer, got 2.0"),
    ("epochs", True, "epochs must be an integer, got True"),
    ("learning_rate", "x", "learning_rate must be a number, got 'x'"),
    ("dropout", False, "dropout must be a number, got False"),
    ("dtype", 32, "dtype must be a string, got 32"),
])
def test_config_type_rule(setting, value, message):
    with pytest.raises(TypeError, match=message):
        RnnConfig(**{setting: value})


def test_config_holds_only_user_settings():
    assert [f.name for f in fields(RnnConfig)] == [
        "window", "hidden_units", "dense_units", "epochs", "batch_size",
        "temperature", "dropout", "learning_rate", "dtype",
    ]


def test_twenty_token_file_gives_four_windows():
    seq = cycle_tokens(20)
    vocab = build_vocabulary(seq)
    inputs, targets = make_training_windows([seq], vocab, 16)
    assert inputs.shape == (4, 16) and targets.shape == (4,)
    assert inputs.dtype == targets.dtype == np.int64


def test_windows_never_span_files():
    a, b = cycle_tokens(17), list(reversed(cycle_tokens(17)))
    vocab = build_vocabulary(a, b)
    inputs, targets = make_training_windows([a, b], vocab, 16)
    assert len(inputs) == len(targets) == 2
    assert [vocab.tokens[i] for i in inputs[0]] == a[:16]
    assert [vocab.tokens[i] for i in inputs[1]] == b[:16]


def test_window_targets_decode_to_successors():
    seq = cycle_tokens(20)
    vocab = build_vocabulary(seq)
    for i, (window, target) in enumerate(zip(*make_training_windows([seq], vocab, 16))):
        assert vocab.tokens[target] == seq[i + 16]
        assert [vocab.tokens[j] for j in window] == seq[i : i + 16]


def test_short_files_are_skipped_but_all_short_is_an_error():
    long, short = cycle_tokens(18), cycle_tokens(5)
    vocab = build_vocabulary(long, short)
    inputs, targets = make_training_windows([long, short], vocab, 16)
    assert len(inputs) == len(targets) == 2
    with pytest.raises(ValueError):
        make_training_windows([short], vocab, 16)


def test_network_tensor_inventory():
    vocab = build_vocabulary(cycle_tokens(8))
    tensors = init_tensors(small_config(), len(vocab), SMALL_SEED)
    assert set(tensors) == TRAINABLE | {"norm/mean", "norm/var"}
    assert tensors["lstm1/w"].shape == (64, len(vocab))
    assert tensors["dense2/w"].shape == (len(vocab), 16)
    assert all(a.dtype == np.float32 for a in tensors.values())
    assert {name: a.shape for name, a in tensors.items()} == tensor_shapes(small_config(), len(vocab))


def test_adam_moments_cover_exactly_the_trainable_tensors(monkeypatch):
    """Layer 1 and the rest of the network each keep an Adam state; between
    them they cover every trained tensor once, and the running statistics get
    no moments. In one process, where both halves' calls are seen here."""
    states = {}
    real_adam_step = jazzgen.rnn.adam_step

    def recording_adam_step(params, grads, state, lr):
        states[id(state)] = state
        real_adam_step(params, grads, state, lr)

    monkeypatch.setattr(jazzgen.rnn, "adam_step", recording_adam_step)
    monkeypatch.setattr(jazzgen.rnn, "two_process_training", lambda: False)
    seq = cycle_tokens(24)
    train(small_config(epochs=1), [seq], build_vocabulary(seq), SMALL_SEED)
    first, second = states.values()
    assert set(first.m) == set(first.v) and set(second.m) == set(second.v)
    assert not set(first.m) & set(second.m)
    assert set(first.m) | set(second.m) == TRAINABLE


def test_memorization_reaches_low_loss(memorized):
    _, _, ckpt, history = memorized
    assert history[-1] < 0.1
    assert ckpt.best_loss <= min(history)


def test_loss_decreases_over_training(memorized):
    _, _, _, history = memorized
    assert float(np.mean(history[-10:])) < float(np.mean(history[:10]))


def test_best_checkpoint_bound(memorized):
    _, _, ckpt, history = memorized
    assert all(ckpt.best_loss <= loss for loss in history)
    assert history[ckpt.epoch] == ckpt.best_loss


def test_memorized_argmax_reproduces_pattern(memorized):
    seq, _, ckpt, _ = memorized
    (out,) = generate_rnn(ckpt, [seq[:16]], 24, temperature=1e-9)
    assert out == seq[:16] + cycle_tokens(64)[16:40]


def test_training_is_deterministic(tmp_path):
    seq = cycle_tokens(24)
    vocab = build_vocabulary(seq)
    paths = []
    for name in ("a.ckpt", "b.ckpt"):
        ckpt = train(small_config(), [seq], vocab, SMALL_SEED)
        path = tmp_path / name
        path.write_bytes(encode_checkpoint(ckpt))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_size_one_trailing_batch_is_skipped_with_warning():
    seq = cycle_tokens(16 + 9)  # 9 windows; batch 8 leaves a 1-item tail
    vocab = build_vocabulary(seq)
    with pytest.warns(UserWarning, match="size-1 batch"):
        train(small_config(epochs=1), [seq], vocab, SMALL_SEED)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numerical_fault_names_epoch_and_batch():
    seq = cycle_tokens(24)
    vocab = build_vocabulary(seq)
    # finite, so the config accepts it, but the first Adam step overflows float32
    config = small_config(learning_rate=1e300, epochs=4)
    with pytest.raises(NumericalFault, match=r"epoch \d+, batch \d+"):
        train(config, [seq], vocab, SMALL_SEED)


def force_mode(monkeypatch, two_processes: bool) -> list[int]:
    """Make train run layer 1 in a helper process or in its own; returns the
    list that collects the pid of every process forked from here on."""
    monkeypatch.setattr(jazzgen.rnn, "two_process_training", lambda: two_processes)
    forked = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("windows", [8 * 3 + 1, 8 * 3 + 5])  # a skipped size-1 tail; a short last batch
def test_one_and_two_processes_train_the_same_bits(monkeypatch, dtype, windows):
    seq = cycle_tokens(16 + windows)
    vocab = build_vocabulary(seq)
    assert len(make_training_windows([seq], vocab, 16)[1]) == windows
    config = small_config(dtype=dtype, dropout=0.3, epochs=4)
    runs = []
    for two_processes in (False, True):
        forked = force_mode(monkeypatch, two_processes)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the size-1 tail's warning
            ckpt = train(config, [seq], vocab, SMALL_SEED, on_epoch=lambda *call: calls.append(call))
        assert len(forked) == two_processes
        assert_no_child_left()
        runs.append((encode_checkpoint(ckpt), calls))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == config.epochs


def plain_training_epoch(config, seq, vocab, seed):
    """One epoch of train as a plain composition of the allocating kernels,
    with the full zero-filled upstream gradient of layer 2: (tensors, mean
    loss). Every batch trains; none has size 1."""
    inputs, targets = make_training_windows([seq], vocab, config.window)
    tensors = init_tensors(config, len(vocab), seed)
    net = Network(config, tensors)
    rng = np.random.default_rng(seed)
    adam = AdamState()
    order = rng.permutation(len(targets))
    loss_sum = 0.0
    for start in range(0, len(order), config.batch_size):
        batch = order[start : start + config.batch_size]
        w1, u1, b1, w2, u2, b2 = (tensors[f"lstm{layer}/{name}"] for layer in (1, 2) for name in "wub")
        hs1, cache1 = lstm_forward(inputs[batch], w1, u1, b1)
        hs2, cache2 = lstm_forward(hs1, w2, u2, b2)
        logits, head_cache = net.head(hs2[:, -1], training=True, rng=rng)
        loss, dlogits = softmax_cross_entropy(logits, targets[batch])
        dlast, grads = net.head_backward(dlogits, head_cache)
        dhs2 = np.zeros_like(hs2)
        dhs2[:, -1] = dlast
        dhs1, dw2, du2, db2 = lstm_backward(dhs2, cache2, w2, u2)
        _, dw1, du1, db1 = lstm_backward(dhs1, cache1, w1, u1)
        grads.update({"lstm1/w": dw1, "lstm1/u": du1, "lstm1/b": db1, "lstm2/w": dw2, "lstm2/u": du2, "lstm2/b": db2})
        adam_step(tensors, grads, adam, lr=config.learning_rate)
        loss_sum += loss * len(batch)
    return tensors, loss_sum / len(targets)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("two_processes", [False, True], ids=["one-process", "two-processes"])
def test_train_equals_the_plain_composition_of_the_kernels(monkeypatch, dtype, two_processes):
    seq = cycle_tokens(16 + 43)  # 43 windows: five batches of 8 and one of 3
    vocab = build_vocabulary(seq)
    config = small_config(dtype=dtype, dropout=0.3, epochs=1)
    forked = force_mode(monkeypatch, two_processes)
    ckpt = train(config, [seq], vocab, SMALL_SEED)
    assert len(forked) == two_processes
    assert_no_child_left()
    tensors, mean_loss = plain_training_epoch(config, seq, vocab, SMALL_SEED)
    assert ckpt.best_loss == mean_loss
    assert sorted(ckpt.tensors) == sorted(tensors)
    for name, tensor in tensors.items():
        assert ckpt.tensors[name].dtype == tensor.dtype, name
        assert ckpt.tensors[name].tobytes() == tensor.tobytes(), name


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("tokens", [24, 40])  # one batch an epoch; three
def test_a_numerical_fault_reads_the_same_in_one_and_two_processes(monkeypatch, tokens):
    seq = cycle_tokens(tokens)
    vocab = build_vocabulary(seq)
    config = small_config(learning_rate=1e300, epochs=4)
    messages = []
    for two_processes in (False, True):
        forked = force_mode(monkeypatch, two_processes)
        with pytest.raises(NumericalFault) as fault:
            train(config, [seq], vocab, SMALL_SEED)
        assert len(forked) == two_processes
        assert_no_child_left()
        messages.append(str(fault.value))
    assert messages[0] == messages[1]
    assert re.fullmatch(r"epoch \d+, batch \d+: [a-z -]+ contains non-finite values", messages[0])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_fault_in_the_rest_of_the_network_reads_the_same_in_one_and_two_processes(monkeypatch):
    seq = cycle_tokens(40)
    vocab = build_vocabulary(seq)
    real_loss = jazzgen.rnn.softmax_cross_entropy
    messages = []
    for two_processes in (False, True):
        forked = force_mode(monkeypatch, two_processes)
        calls = []

        def nan_at_the_second_batch(logits, targets):
            calls.append(len(targets))
            return real_loss(logits * np.nan if len(calls) == 2 else logits, targets)

        monkeypatch.setattr(jazzgen.rnn, "softmax_cross_entropy", nan_at_the_second_batch)
        with pytest.raises(NumericalFault) as fault:
            train(small_config(), [seq], vocab, SMALL_SEED)
        assert len(forked) == two_processes
        assert_no_child_left()
        messages.append(str(fault.value))
    assert messages == ["epoch 0, batch 1: cross-entropy loss contains non-finite values"] * 2


def test_no_helper_outlives_train(monkeypatch):
    seq = cycle_tokens(40)
    vocab = build_vocabulary(seq)
    forked = force_mode(monkeypatch, True)
    train(small_config(), [seq], vocab, SMALL_SEED)
    assert_no_child_left()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFault):
        train(small_config(learning_rate=1e300), [seq], vocab, SMALL_SEED)
    assert_no_child_left()

    class Stop(Exception):
        pass

    for error in (Stop, KeyboardInterrupt):
        def stop(*call):
            raise error

        with pytest.raises(error):
            train(small_config(), [seq], vocab, SMALL_SEED, on_epoch=stop)
        assert_no_child_left()
    assert len(forked) == 4


def test_a_helper_that_fails_or_dies_stops_train(monkeypatch):
    seq = cycle_tokens(40)
    vocab = build_vocabulary(seq)
    forked = force_mode(monkeypatch, True)
    real_adam_step = jazzgen.rnn.adam_step

    def failing_for_layer_one(params, grads, state, lr):
        if "lstm1/w" in grads:  # layer 1, in the helper
            raise MemoryError("no room")
        real_adam_step(params, grads, state, lr)

    monkeypatch.setattr(jazzgen.rnn, "adam_step", failing_for_layer_one)
    with pytest.raises(RuntimeError, match="^layer-1 helper failed: MemoryError: no room$"):
        train(small_config(), [seq], vocab, SMALL_SEED)
    assert_no_child_left()
    monkeypatch.setattr(jazzgen.rnn, "adam_step", real_adam_step)

    def kill_the_helper(*call):
        os.kill(forked[-1], signal.SIGKILL)

    with pytest.raises(RuntimeError, match="^layer-1 helper exited with status -9$"):
        train(small_config(), [seq], vocab, SMALL_SEED, on_epoch=kill_the_helper)
    assert_no_child_left()


@pytest.mark.parametrize("fault", [False, True])
def test_a_wait_sees_what_the_peer_left_just_before_it_ended(monkeypatch, fault):
    """The peer publishes the step waited for, or reports its fault, and then
    exits, all between the wait's read of the counter and its check on the
    peer: the wait returns, or raises that fault, not the exit."""
    monkeypatch.setattr(jazzgen.rnn, "_POLL_S", 0.0)
    handoff = jazzgen.rnn._Handoff(small_config(), 8, 40)
    done = jazzgen.rnn._LAYER1_DONE
    text = "epoch 2, batch 4: lstm gradients contains non-finite values"

    def leave_then_exit():
        if fault:
            handoff.report(NumericalFault(text))
        else:
            handoff.publish(done, 3)
        return RuntimeError("layer-1 helper exited with status 0")

    handoff.check_peer = leave_then_exit
    if fault:
        with pytest.raises(jazzgen.rnn._HelperStopped) as stopped:
            handoff.wait(done, 3)
        assert isinstance(stopped.value.args[0], NumericalFault)
        assert str(stopped.value.args[0]) == text
    else:
        handoff.wait(done, 3)


def test_a_helper_that_exits_during_the_last_wait_ends_train_normally(monkeypatch):
    """The helper publishes its last batch and exits between the parent's
    read of the counter and its check on the helper, as when the parent is
    descheduled on a busy host: train still returns normally."""
    seq = cycle_tokens(40)
    vocab = build_vocabulary(seq)
    expected = encode_checkpoint(train(small_config(epochs=1), [seq], vocab, SMALL_SEED))
    forked = force_mode(monkeypatch, True)
    real_adam_step, real_check = jazzgen.rnn.adam_step, jazzgen.rnn._Helper.check

    def slow_for_layer_one(params, grads, state, lr):
        if "lstm1/w" in grads:  # in the helper: the parent reaches its wait first
            time.sleep(0.05)
        real_adam_step(params, grads, state, lr)

    def check_once_the_helper_has_ended(helper):
        deadline = time.monotonic() + 0.1
        while time.monotonic() < deadline and not os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
            time.sleep(0.001)
        return real_check(helper)

    monkeypatch.setattr(jazzgen.rnn, "adam_step", slow_for_layer_one)
    monkeypatch.setattr(jazzgen.rnn._Helper, "check", check_once_the_helper_has_ended)
    monkeypatch.setattr(jazzgen.rnn, "_POLL_S", 0.0)
    assert encode_checkpoint(train(small_config(epochs=1), [seq], vocab, SMALL_SEED)) == expected
    assert_no_child_left()
    assert len(forked) == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_two_processes_sharing_one_cpu_train_the_same_bits(monkeypatch):
    """Both halves pinned to one CPU, so that every wait runs while the
    half it waits for is off the CPU: the same bits as one process."""
    seq = cycle_tokens(40)
    vocab = build_vocabulary(seq)
    config = small_config(epochs=2)
    expected = encode_checkpoint(train(config, [seq], vocab, SMALL_SEED))
    forked = force_mode(monkeypatch, True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert encode_checkpoint(train(config, [seq], vocab, SMALL_SEED)) == expected
    finally:
        os.sched_setaffinity(0, cpus)
    assert_no_child_left()
    assert len(forked) == 1


def write_files(root: Path, files: dict) -> None:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_cgroup_cpu_limit_is_the_least_quota_on_the_cgroup_path(tmp_path):
    proc, mount = tmp_path / "cgroup", tmp_path / "fs"
    write_files(mount, {
        "cpu.max": "max 100000\n",
        "jobs/cpu.max": "150000 100000\n",
        "jobs/train/cpu.max": "max 100000\n",
        "cpu/docker/cpu.cfs_quota_us": "300000\n",
        "cpu/docker/cpu.cfs_period_us": "100000\n",
        "cpu/docker/abc/cpu.cfs_quota_us": "-1\n",
        "cpu/docker/abc/cpu.cfs_period_us": "100000\n",
    })
    proc.write_text("0::/jobs/train\n")
    assert jazzgen.rnn.cgroup_cpu_limit(str(proc), str(mount)) == 1.5
    proc.write_text("5:memory:/jobs\n4:cpu,cpuacct:/docker/abc\n0::/\n")
    assert jazzgen.rnn.cgroup_cpu_limit(str(proc), str(mount)) == 3.0
    proc.write_text("4:cpu,cpuacct:/elsewhere\n0::/gone\n")
    assert jazzgen.rnn.cgroup_cpu_limit(str(proc), str(mount)) == math.inf
    assert jazzgen.rnn.cgroup_cpu_limit(str(tmp_path / "missing"), str(mount)) == math.inf


@pytest.mark.parametrize("limit", [1.0, 1.99])
def test_a_cpu_quota_under_two_cpus_keeps_training_in_one_process(monkeypatch, limit):
    monkeypatch.setattr(jazzgen.rnn, "cgroup_cpu_limit", lambda: limit)
    assert not jazzgen.rnn.two_process_training()


def test_a_corpus_of_one_window_fails_before_any_fork(monkeypatch):
    seq = cycle_tokens(17)
    forked = force_mode(monkeypatch, True)
    with pytest.warns(UserWarning, match="size-1 batch"), pytest.raises(ShortCorpusError, match="every batch"):
        train(small_config(), [seq], build_vocabulary(seq), SMALL_SEED)
    assert forked == []


def test_generate_zero_steps_returns_seed(memorized):
    seq, _, ckpt, _ = memorized
    assert generate_rnn(ckpt, [seq[:16]], 0) == [seq[:16]]


def test_generate_without_rngs_only_takes_argmax(memorized):
    seq, _, ckpt, _ = memorized
    assert generate_rnn(ckpt, [seq[:16]], 3, temperature=1e-9) == [seq[:19]]
    with pytest.raises(ValueError, match="requires an rng"):
        generate_rnn(ckpt, [seq[:16]], 1, temperature=1.0)


def test_generate_length_contract(memorized):
    seq, _, ckpt, _ = memorized
    for steps in (1, 7, 30):
        (out,) = generate_rnn(ckpt, [seq[:18]], steps, rngs=[np.random.default_rng(0)])
        assert len(out) == 18 + steps


def test_generate_rejects_short_seed(memorized):
    _, _, ckpt, _ = memorized
    with pytest.raises(ValueError, match="at least 16"):
        generate_rnn(ckpt, [cycle_tokens(10)], 5)


def test_generate_names_unknown_seed_token(memorized):
    seq, _, ckpt, _ = memorized
    bad = seq[:15] + ["C#7_0.75"]
    with pytest.raises(UnknownTokenError, match="C#7_0.75"):
        generate_rnn(ckpt, [bad], 1)


def test_tiny_temperature_equals_explicit_argmax(memorized):
    seq, vocab, ckpt, _ = memorized
    (sampled,) = generate_rnn(ckpt, [seq[:16]], 12, temperature=1e-9)
    net = Network(ckpt.config, tensors=ckpt.tensors)
    context = [vocab.encode(t) for t in seq[:16]]
    manual = list(seq[:16])
    for _ in range(12):
        probs = next_distribution(net, context, 1.0)
        index = int(np.argmax(probs))
        manual.append(vocab.tokens[index])
        context = context[1:] + [index]
    assert sampled == manual


def test_generation_is_deterministic_given_rng(memorized):
    seq, _, ckpt, _ = memorized
    (a,) = generate_rnn(ckpt, [seq[:16]], 20, temperature=1.2, rngs=[np.random.default_rng(5)])
    (b,) = generate_rnn(ckpt, [seq[:16]], 20, temperature=1.2, rngs=[np.random.default_rng(5)])
    assert a == b


def test_sampled_frequencies_match_softmax(memorized):
    seq, vocab, ckpt, _ = memorized
    net = Network(ckpt.config, tensors=ckpt.tensors)
    context = [vocab.encode(t) for t in seq[:16]]
    probs = next_distribution(net, context, 1.0)
    rng = np.random.default_rng(123)
    counts = np.zeros(len(probs))
    draws = 10_000
    for _ in range(draws):
        counts[rng.choice(len(probs), p=probs)] += 1
    tv = 0.5 * np.abs(counts / draws - probs).sum()
    assert tv <= 0.05


def test_generate_uses_the_injected_rng_stream(memorized):
    seq, vocab, ckpt, _ = memorized
    (out,) = generate_rnn(ckpt, [seq[:16]], 1, temperature=1.0, rngs=[np.random.default_rng(9)])
    net = Network(ckpt.config, tensors=ckpt.tensors)
    context = [vocab.encode(t) for t in seq[:16]]
    probs = next_distribution(net, context, 1.0)
    probs = probs / probs.sum()
    want = int(np.random.default_rng(9).choice(len(probs), p=probs))
    assert out[-1] == vocab.tokens[want]


def random_checkpoint(dtype, window, seed, n_vocab=12, hidden=8):
    """A checkpoint of random tensors, far from the initializer's, with
    batch-norm statistics that are not the identity."""
    rng = np.random.default_rng(seed)
    vocab = build_vocabulary([render_token(48 + i, Fraction(1, 2)) for i in range(n_vocab)])
    config = RnnConfig(window=window, hidden_units=hidden, dense_units=hidden, dtype=dtype)
    tensors = {
        name: rng.normal(0.0, 0.5, shape).astype(dtype)
        for name, shape in tensor_shapes(config, n_vocab).items()
    }
    tensors["norm/var"] = rng.uniform(0.5, 2.0, hidden).astype(dtype)
    return Checkpoint(tensors, vocab, config, best_loss=0.0, epoch=0)


def sliding_window_reference(ckpt, seeds, steps, temperature, rngs):
    """The per-window sampler: every token from a fresh zero-state
    oracle.forward over the last `window` tokens, drawn by select_index."""
    net = Network(ckpt.config, ckpt.tensors)
    window = ckpt.config.window
    contexts = np.array(
        [[ckpt.vocab.encode(token) for token in seed][-window:] for seed in seeds], dtype=np.int64
    )
    outputs = [list(seed) for seed in seeds]
    for _ in range(steps):
        logits, _ = forward(net, contexts, training=False)
        picks = select_index(logits, temperature, rngs)
        for output, index in zip(outputs, picks.tolist()):
            output.append(ckpt.vocab.tokens[index])
        contexts = np.concatenate([contexts[:, 1:], picks[:, None]], axis=1)
    return outputs


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("window", [1, 3, 16])
def test_wavefront_sampling_equals_the_sliding_window_forward(dtype, window):
    ckpt = random_checkpoint(dtype, window, seed=window)
    tokens = ckpt.vocab.tokens
    rng = np.random.default_rng([window, 1])
    # 2*window+1 and 40 steps move the live windows back to the buffer's front
    for n_seeds in (1, 2, 8):
        seeds = [[tokens[i] for i in rng.integers(0, len(tokens), window + 2)] for _ in range(n_seeds)]
        for steps in sorted({0, 1, window - 1, window, 2 * window + 1, 40}):
            for temperature in (1e-9, 1.0):
                def rngs():
                    return [np.random.default_rng([steps, k]) for k in range(n_seeds)]

                got = generate_rnn(ckpt, seeds, steps, temperature, rngs())
                want = sliding_window_reference(ckpt, seeds, steps, temperature, rngs())
                assert got == want, (n_seeds, steps, temperature)


def test_generate_raises_numerical_fault_on_a_nonfinite_state():
    ckpt = random_checkpoint("float32", window=3, seed=4)
    ckpt.tensors["lstm2/u"][0, 0] = np.nan
    seed = list(ckpt.vocab.tokens[:3])
    with pytest.raises(NumericalFault, match="lstm output"):
        generate_rnn(ckpt, [seed], 5, temperature=1e-9)


GENERATE_IN_CHILD = """
import json, sys
from pathlib import Path
import numpy as np
from jazzgen.rnn import generate_rnn, load_checkpoint
ckpt = load_checkpoint(Path(sys.argv[1]).read_bytes())
seeds = json.loads(sys.argv[2])
rngs = [np.random.default_rng(k) for k in range(len(seeds))]
print(json.dumps(generate_rnn(ckpt, seeds, 40, temperature=1.0, rngs=rngs)))
"""


def test_generated_tokens_do_not_depend_on_the_blas_thread_count(tmp_path):
    ckpt = random_checkpoint("float32", window=16, seed=5, n_vocab=40, hidden=64)
    path = tmp_path / "model.ckpt"
    path.write_bytes(encode_checkpoint(ckpt))
    rng = np.random.default_rng(6)
    seeds = [[ckpt.vocab.tokens[i] for i in rng.integers(0, 40, 16)] for _ in range(8)]
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-c", GENERATE_IN_CHILD, str(path), json.dumps(seeds)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(json.loads(result.stdout))
    assert outputs[0] == outputs[1]
    assert all(len(output) == 16 + 40 for output in outputs[0])


def reference_pick(row, temperature, rng):
    """One row at a time through Generator.choice, as seeds were once drawn."""
    if temperature <= 1e-6:
        return int(np.argmax(row))
    probs = softmax(np.asarray(row, dtype=np.float64), temperature)
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


# at and around the 1e-6 argmax floor, then ordinary sampling temperatures
SELECT_TEMPERATURES = (1e-9, 1e-6, 2e-6, 1e-3, 0.1, 0.7, 1.0, 3.0)


def test_batched_select_index_draws_like_per_row_choice():
    cases = 0
    for seed in range(30):
        for temperature in SELECT_TEMPERATURES:
            case = np.random.default_rng([seed, cases])
            batch = int(case.integers(1, 18))
            vocab = int(case.choice([2, 5, 126, 672]))
            dtype = case.choice([np.float32, np.float64])
            logits = case.normal(0.0, 3.0, (batch, vocab))
            ties = case.integers(1, vocab + 1, batch)
            for row, count in zip(logits, ties):
                if case.random() < 0.5:  # tied maxima, sometimes the whole row
                    row[case.choice(vocab, count, replace=False)] = row.max() + 1.0
            logits = logits.astype(dtype)
            batched = [np.random.default_rng([seed, 1000 + k]) for k in range(batch)]
            single = [np.random.default_rng([seed, 1000 + k]) for k in range(batch)]
            for _ in range(3):
                got = select_index(logits, temperature, batched)
                want = [reference_pick(row, temperature, rng) for row, rng in zip(logits, single)]
                assert got.tolist() == want, (seed, temperature)
            # neither path drew more or fewer numbers than the other
            assert [rng.random() for rng in batched] == [rng.random() for rng in single]
            cases += 1
    assert cases >= 200


def test_select_index_on_one_row_returns_one_int():
    logits = np.random.default_rng(4).normal(0.0, 2.0, 9).astype(np.float32)
    pick = select_index(logits, 1.0, np.random.default_rng(6))
    assert type(pick) is int
    assert pick == reference_pick(logits, 1.0, np.random.default_rng(6))
    assert select_index(logits, 1e-9) == int(np.argmax(logits))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_select_index_rejects_nonfinite_probabilities_and_missing_rngs():
    logits = np.zeros((2, 4))
    logits[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        select_index(logits, 1.0, [np.random.default_rng(0), np.random.default_rng(1)])
    with pytest.raises(ValueError, match="non-finite"):
        select_index(np.zeros(4), float("nan"), np.random.default_rng(0))
    with pytest.raises(ValueError, match="requires an rng"):
        select_index(np.zeros((2, 4)), 1.0, [np.random.default_rng(0), None])


def test_distributions_are_valid_probability_vectors(memorized):
    seq, vocab, ckpt, _ = memorized
    net = Network(ckpt.config, tensors=ckpt.tensors)
    rng = np.random.default_rng(2)
    for _ in range(10):
        context = list(rng.integers(0, len(vocab), size=16))
        probs = next_distribution(net, context, 1.0)
        assert abs(probs.sum() - 1.0) <= 1e-6
        assert np.all(probs >= 0)


def test_temperature_increases_entropy(memorized):
    seq, vocab, ckpt, _ = memorized
    net = Network(ckpt.config, tensors=ckpt.tensors)
    context = [vocab.encode(t) for t in seq[:16]]
    logits, _ = forward(net, np.array([context], dtype=np.int64), training=False)

    def entropy(temperature):
        p = softmax(logits[0].astype(np.float64), temperature)
        return float(-(p * np.log(np.clip(p, 1e-300, None))).sum())

    assert entropy(0.5) <= entropy(1.0) <= entropy(2.0)


def test_checkpoint_round_trip_forward_is_bitwise(memorized):
    seq, vocab, ckpt, _ = memorized
    loaded = load_checkpoint(encode_checkpoint(ckpt))
    assert loaded.config == ckpt.config
    assert loaded.vocab.tokens == vocab.tokens
    assert loaded.best_loss == ckpt.best_loss
    assert loaded.epoch == ckpt.epoch
    context = np.array([[vocab.encode(t) for t in seq[:16]]], dtype=np.int64)
    net_a = Network(ckpt.config, tensors=ckpt.tensors)
    net_b = Network(loaded.config, tensors=loaded.tensors)
    logits_a, _ = forward(net_a, context, training=False)
    logits_b, _ = forward(net_b, context, training=False)
    assert np.array_equal(logits_a, logits_b)


def test_checkpoint_manifest_stores_version_3_and_the_config(memorized, tmp_path):
    _, _, ckpt, _ = memorized
    path = tmp_path / "model.ckpt"
    path.write_bytes(encode_checkpoint(ckpt))
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    manifest = json.loads(raw[len(CHECKPOINT_MAGIC) + 4 : len(CHECKPOINT_MAGIC) + 4 + manifest_len])
    assert manifest["format_version"] == 3
    assert manifest["config"] == asdict(ckpt.config)


def test_checkpoint_rejects_bad_magic():
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(b"NOTACKPT" + b"\x00" * 32)


def test_checkpoint_rejects_truncation(memorized):
    _, _, ckpt, _ = memorized
    whole = encode_checkpoint(ckpt)
    for cut in (4, len(CHECKPOINT_MAGIC) + 2, len(whole) // 2, len(whole) - 8):
        with pytest.raises(CheckpointError):
            load_checkpoint(whole[:cut])


def _rewrite_manifest(raw: bytes, mutate) -> bytes:
    offset = len(CHECKPOINT_MAGIC)
    (manifest_len,) = struct.unpack_from("<I", raw, offset)
    manifest = json.loads(raw[offset + 4 : offset + 4 + manifest_len])
    mutate(manifest)
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<I", len(encoded)) + encoded + raw[offset + 4 + manifest_len :]


def test_checkpoint_rejects_version_mismatch(memorized):
    _, _, ckpt, _ = memorized

    def bump(manifest):
        manifest["format_version"] = 99

    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(_rewrite_manifest(encode_checkpoint(ckpt), bump))


def test_checkpoint_rejects_shape_blob_disagreement(memorized):
    _, _, ckpt, _ = memorized

    def grow_first_tensor(manifest):
        manifest["tensors"][0]["shape"][0] += 1

    with pytest.raises(CheckpointError):
        load_checkpoint(_rewrite_manifest(encode_checkpoint(ckpt), grow_first_tensor))


def test_float64_training_works_and_reloads_as_float32():
    seq = cycle_tokens(24)
    vocab = build_vocabulary(seq)
    ckpt = train(small_config(dtype="float64", epochs=2), [seq], vocab, SMALL_SEED)
    assert ckpt.tensors["lstm1/w"].dtype == np.float64
    assert math.isfinite(ckpt.best_loss)
    loaded = load_checkpoint(encode_checkpoint(ckpt))
    assert loaded.tensors["lstm1/w"].dtype == np.float64
    assert np.allclose(loaded.tensors["lstm1/w"], ckpt.tensors["lstm1/w"], atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    dtype=st.sampled_from(["float32", "float64"]),
    seed=st.integers(0, 2**32 - 1),
    hidden=st.integers(1, 6),
)
def test_checkpoint_round_trip_is_bit_equal_in_its_dtype(dtype, seed, hidden):
    vocab = build_vocabulary(PATTERN)
    config = small_config(hidden_units=hidden, dense_units=hidden, dtype=dtype)
    tensors = init_tensors(config, len(vocab), seed)
    # values with bits below float32 precision, which a float32 blob would drop
    tensors["lstm1/w"] += np.random.default_rng(seed).standard_normal(tensors["lstm1/w"].shape) * 1e-9
    ckpt = Checkpoint(tensors, vocab, config, best_loss=0.25, epoch=1)
    loaded = load_checkpoint(encode_checkpoint(ckpt))
    assert loaded.config == config
    assert sorted(loaded.tensors) == sorted(tensors)
    for name, tensor in tensors.items():
        assert loaded.tensors[name].dtype == np.dtype(dtype), name
        assert loaded.tensors[name].tobytes() == tensor.tobytes(), name
