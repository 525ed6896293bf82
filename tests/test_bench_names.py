"""The names the benchmark reaches into the program by.

`bench/child.py` builds its experiment config and runs the stages through
`jazzgen.cli`, and `bench/spans.py` wraps functions by module and attribute
path. A rename in the program would otherwise show up in the benchmark only
as failed stages (`passed_frac` falling to 0) or as per-layer spans reported
absent, so these tests fail first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from jazzgen import cli

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


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    absent = set()
    for module_name, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            absent.add(f"{module_name}.{path}")
    assert absent == GONE_FOR_GOOD
