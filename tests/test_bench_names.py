"""The names the benchmark reaches into the program by.

`bench/child.py` builds its experiment config, writes its chromatic inputs
through `jazzgen.midi_io` and runs the stages through `jazzgen.cli`, and
`bench/spans.py` wraps functions by module and attribute path. A rename in
the program would otherwise show up in the benchmark only as failed stages
(`passed_frac` falling to 0) or as per-layer spans reported absent, so these
tests fail first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import jazzgen.rnn
from jazzgen import cli
from jazzgen.midi_io import read_line
from jazzgen.tokenizer import build_vocabulary

BENCH = Path(__file__).resolve().parents[1] / "bench"

# removed on purpose; bench/spans.py reports their metrics as absent
GONE_FOR_GOOD = {
    "jazzgen.rnn.Network.one_hot",
    # generate and evaluate put each token list on integer ticks once
    # (tokenizer.tick_line) and write MIDI and score from there
    # (midi_io.write_line, metrics.evaluate_line); the cli no longer calls these
    "jazzgen.cli.detokenize",
    "jazzgen.cli.write_midi",
    "jazzgen.cli.evaluate_events",
    # ingest reads MIDI onto ticks (midi_io.read_line) and renders tokens
    # from there (tokenizer.tokenize_line)
    "jazzgen.cli.read_midi",
    "jazzgen.cli.tokenize",
    # train encodes both models to bytes (markov.encode_transition_table,
    # rnn.encode_checkpoint) and writes them with its log in one cli.commit
    "jazzgen.cli.save_transition_table",
    "jazzgen.cli.save_checkpoint",
    # train runs layer 1 and the rest of the network as two halves, each
    # calling lstm_forward and lstm_backward itself
    "jazzgen.rnn.Network.backward",
    # train and generate_rnn run the LSTM layers themselves; the per-window
    # forward pass is the tests' reference (tests/oracle.py)
    "jazzgen.rnn.Network.forward",
}


def test_experiment_config_builds_as_the_benchmark_builds_it(tmp_path):
    config = cli.ExperimentConfig(
        corpus_dir=tmp_path / "corpus",
        seeds_dir=tmp_path / "seeds",
        out_dir=tmp_path / "out",
        global_seed=0,
        markov_notes=200,
        rnn_steps=30,
        rnn=cli.RnnSettings(epochs=1),
    )
    assert config.rnn.epochs == 1
    for name in ("run_ingest", "run_train", "run_generate", "run_evaluate", "MODEL_NAMES"):
        assert hasattr(cli, name), name


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_the_chromatic_writer_writes_files_read_line_reads(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # child.py imports spans.py as a top-level module
    spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    child.write_chromatic(tmp_path, 0, 2, 40, True, "walk_{}.mid")
    paths = sorted(tmp_path.iterdir())
    assert [path.name for path in paths] == ["walk_1.mid", "walk_2.mid"]
    for path in paths:
        line, tempo = read_line(path.read_bytes())
        assert (len(line.ticks), tempo) == (40, 240), path.name


def test_every_span_target_resolves():
    spans = load_spans()
    absent = set()
    for module_name, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            absent.add(f"{module_name}.{path}")
    assert absent == GONE_FOR_GOOD


@pytest.mark.parametrize("two_processes", [False, True], ids=["one-process", "two-processes"])
def test_the_trace_sees_training_call_the_lstm_kernels(monkeypatch, two_processes):
    """Each batch runs lstm_forward and lstm_backward once per layer. A
    layer-1 helper's calls happen in its own process, out of the trace's
    sight, so the trace sees one of each per batch there and two here."""
    monkeypatch.setattr(jazzgen.rnn, "two_process_training", lambda: two_processes)
    seq = ["C4_1.0", "D4_1.0", "E4_1.0", "R_1.0"] * 10
    config = cli.RnnConfig(window=8, hidden_units=8, dense_units=8, epochs=2, batch_size=8)
    batches = 2 * (len(seq) - config.window) // config.batch_size
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        cli.train(config, [seq], build_vocabulary(seq), 0)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    per_batch = 1 if two_processes else 2
    assert totals[("rnn.train", "train")]["calls"] == 1
    assert totals[("neural.lstm_forward", "train")]["calls"] == per_batch * batches
    assert totals[("neural.lstm_backward", "train")]["calls"] == per_batch * batches
