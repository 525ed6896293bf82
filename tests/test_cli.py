import builtins
import errno
import io
import json
import math
import os
import re
import select
import shutil
import signal
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import MISSING, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import jazzgen.rnn
from jazzgen import cli, files, metrics, neural
from jazzgen.cli import SETTINGS, ExperimentConfig, derive_seed, main, resolve_config
from jazzgen.midi_io import MidiDocument, NoteEvent, TickResolutionError, lcm_time_division, write_midi
from jazzgen.report import CSV_HEADER
from jazzgen.rnn import CHECKPOINT_MAGIC, RnnConfig
from jazzgen.synthetic import write_corpus, write_seeds
from jazzgen.tokenizer import tick_line

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "data" / "reference_comparison.csv"

# small settings so the pipeline tests stay fast
TINY = [
    "--order", "2",
    "--hidden", "8",
    "--epochs", "2",
    "--batch", "16",
    "--markov-notes", "30",
    "--rnn-steps", "20",
]


def invoke(args):
    return CliRunner().invoke(main, [str(a) for a in args])


SIZE_ONE_BATCH = "warning: skipping size-1 batch"


def invoke_stage(command, args):
    """invoke([command, *args]); train at TINY sizes on the workspace corpus
    leaves one window over, which it must warn about in one printed line."""
    if command != "train":
        return invoke([command, *args])
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)  # every other filter stays in force
        result = invoke([command, *args])
    assert result.stderr.count(SIZE_ONE_BATCH) == 1, result.stderr
    return result


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_corpus(root / "corpus", seed=1, n_files=3)
    write_seeds(root / "seeds", seed=1, n_files=2)
    return root


def dirs(workspace, out="out"):
    return [
        "--corpus", workspace / "corpus",
        "--seeds", workspace / "seeds",
        "--out", workspace / out,
    ]


@pytest.fixture(scope="module")
def pipeline(workspace):
    """ingest + train + generate run once, shared by the downstream tests."""
    for command in ("ingest", "train", "generate"):
        result = invoke_stage(command, [*dirs(workspace), *TINY])
        assert result.exit_code == 0, result.output
    return workspace / "out"


def test_resolve_config_requires_directories():
    with pytest.raises(Exception) as err:
        resolve_config(None, {})
    assert "corpus_dir" in str(err.value)


def test_resolve_config_flags_override_file(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({
        "corpus_dir": "c", "seeds_dir": "s", "out_dir": "o",
        "markov_order": 4,
        "rnn": {"epochs": 7, "hidden_units": 12},
    }))
    config = resolve_config(str(config_file), {"order": 2, "epochs": None})
    assert config.markov_order == 2  # flag wins
    assert config.rnn.epochs == 7  # file value survives a None flag
    assert config.rnn.hidden_units == 12
    assert config.corpus_dir == Path("c")


def test_resolve_config_rejects_unknown_keys(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "bogus": 1}))
    with pytest.raises(Exception, match="bogus"):
        resolve_config(str(config_file), {})


def test_resolve_config_rejects_bad_order():
    flags = {"corpus": "c", "seeds": "s", "out": "o", "order": 0}
    with pytest.raises(Exception, match="markov_order"):
        resolve_config(None, flags)


@pytest.mark.parametrize("content, message", [
    ({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "rnn": 5}, "'rnn' must hold a JSON object"),
    ({"corpus_dir": None, "seeds_dir": "s", "out_dir": "o"}, "corpus_dir must be a directory path, got None"),
    ({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "rnn": {"hidden_units": 8.5}},
     "hidden_units must be an integer, got 8.5"),
    ({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "rnn": {"epochs": True}},
     "epochs must be an integer, got True"),
    ({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "markov_order": 2.5},
     "markov_order must be an integer, got 2.5"),
    ({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "rnn_steps": 2.5},
     "rnn_steps must be an integer, got 2.5"),
    ({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "markov_notes": 2.5},
     "markov_notes must be an integer, got 2.5"),
    ({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "rnn": {"learning_rate": "x"}},
     "learning_rate must be a number, got 'x'"),
    (b"\xff\xfe{", "config.json: 'utf-8' codec can't decode byte 0xff"),
    (b'{"corpus_dir": ', "config.json: Expecting value"),
    (b"{", "config.json: Expecting property name"),
    ([{"corpus_dir": "c"}], "config.json must hold a JSON object"),
    ({"corpus_dir": "c", "seeds_dir": "s", "out_dir": "o", "rnn": {"foo": 1}}, "unknown config key 'rnn.foo'"),
])
def test_malformed_config_file_exits_2(tmp_path, monkeypatch, content, message):
    monkeypatch.chdir(tmp_path)
    config_file = tmp_path / "config.json"
    config_file.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    result = invoke(["ingest", "--config", config_file])
    assert result.exit_code == 2, result.output
    (line,) = result.output.splitlines()
    assert message in line
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--batch", "1", "batch_size must be >= 2"),
    ("train", "--hidden", "0", "hidden_units must be positive"),
    ("train", "--epochs", "0", "epochs must be positive"),
    ("train", "--temperature", "0", "temperature must be positive"),
    ("generate", "--temperature", "-3", "temperature must be positive"),
    ("generate", "--rnn-steps", "-1", "generation lengths must be >= 0"),
])
def test_bad_rnn_setting_exits_2_before_writing(workspace, pipeline, tmp_path, command, flag, value, message):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    if command == "generate":
        shutil.copytree(pipeline / "models", out / "models")
    before = files_under(out)
    result = invoke([command, *dirs(workspace, out=str(out)), *TINY, flag, value])
    assert result.exit_code == 2, result.output
    (line,) = result.output.splitlines()
    assert message in line
    assert files_under(out) == before


@pytest.mark.parametrize("command, config, flags, message", [
    *[
        pytest.param(command, {"rnn": {setting: value}}, [], f"{setting} must be positive and finite, got {value}",
                     id=f"{setting}={value}")
        for command, setting in (("generate", "temperature"), ("train", "learning_rate"))
        for value in (float("nan"), float("inf"), -1.0, 0)  # json writes NaN and Infinity as Python reads them
    ],
    pytest.param("generate", {}, ["--temperature", "nan"], "temperature must be positive and finite, got nan",
                 id="--temperature nan"),
])
def test_nonfinite_or_nonpositive_rate_exits_2_before_writing(
    workspace, pipeline, tmp_path, command, config, flags, message
):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    shutil.copytree(pipeline / "models", out / "models")
    before = files_under(out)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    result = invoke([command, "--config", config_file, *dirs(workspace, out=str(out)), *TINY, *flags])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines()[-1] == f"Error: {message}"
    assert "Traceback" not in result.output
    assert files_under(out) == before


def test_rnn_window_longer_than_a_seed_exits_2_before_writing(workspace, pipeline, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    before = files_under(out)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"rnn": {"window": 20}}))
    result = invoke(["train", "--config", config_file, *dirs(workspace, out=str(out)), *TINY])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines()[-1] == (
        "Error: rnn.window must be at most 16 (the seed length), got 20"
    )
    assert files_under(out) == before


def test_readme_lists_every_rnn_config_key_with_its_default():
    readme = (ROOT / "README.md").read_text()
    rows = dict(re.findall(r"^\| `rnn\.(\w+)` \| `([^`]*)` \|", readme, re.MULTILINE))
    assert rows == {f.name: json.dumps(f.default) for f in fields(RnnConfig)}


def config_defaults():
    """Every config key ("rnn.<field>" for the network section) -> its default."""
    top = {f.name: f.default for f in fields(ExperimentConfig) if f.name != "rnn"}
    return top | {f"rnn.{f.name}": f.default for f in fields(RnnConfig)}


def test_every_setting_names_a_config_field_and_its_own_flag():
    defaults = config_defaults()
    assert all(setting.key in defaults for setting in SETTINGS)
    for column in ("name", "key"):
        values = [getattr(setting, column) for setting in SETTINGS]
        assert len(set(values)) == len(values), column


def test_each_flag_sets_its_config_key():
    values = {cli.DIRECTORY: "somewhere", int: 7, float: 0.5}
    flags = {setting.name: values[setting.type] for setting in SETTINGS}
    config = resolve_config(None, flags)
    for setting in SETTINGS:
        section, _, key = setting.key.rpartition(".")
        value = getattr(config.rnn if section else config, key)
        assert value == (Path("somewhere") if setting.type is cli.DIRECTORY else values[setting.type]), setting


def test_readme_flag_table_lists_every_setting_with_its_default():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(--[\w-]+)` \| `([\w.]+)` \| [^|]+ \| ([^|]+) \|$", readme, re.MULTILINE)
    defaults = config_defaults()
    assert rows == [
        (s.flag, s.key, "required" if defaults[s.key] is MISSING else json.dumps(defaults[s.key])) for s in SETTINGS
    ]


@pytest.mark.parametrize("command", ["ingest", "generate"])
def test_help_text_is_unchanged(command):
    result = invoke([command, "--help"])
    assert result.exit_code == 0
    assert result.output == (ROOT / "tests" / "data" / f"help_{command}.txt").read_text()


def test_derive_seed_is_stable_and_purpose_split():
    assert derive_seed(0, "rnn-train") == derive_seed(0, "rnn-train")
    assert derive_seed(0, "rnn-train") != derive_seed(0, "rnn-sample:seed_1")
    assert derive_seed(0, "rnn-train") != derive_seed(1, "rnn-train")


def test_ingest_writes_manifest_and_vocab(pipeline):
    manifest = json.loads((pipeline / "ingest" / "manifest.json").read_text())
    assert len(manifest["corpus"]) == 3
    assert manifest["seeds"] == ["seed_1", "seed_2"]
    assert manifest["skipped"] == []
    vocab = json.loads((pipeline / "ingest" / "vocab.json").read_text())
    assert manifest["vocab_size"] == len(vocab) == len(set(vocab))
    for entry in manifest["corpus"]:
        tokens = (pipeline / "ingest" / "tokens" / f"{entry['file']}.tokens").read_text().split()
        assert len(tokens) == entry["tokens"]


def test_ingest_empty_corpus_exits_2(workspace, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = invoke(["ingest", "--corpus", empty, "--seeds", workspace / "seeds", "--out", tmp_path / "out"])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("Error: no usable MIDI files")


def _directory_without_midi(path):
    path.mkdir()
    (path / "notes.txt").write_text("not a seed")


@pytest.mark.parametrize("label, make, message", [
    ("corpus", lambda path: None, "Error: corpus directory {} does not exist"),
    ("seeds", _directory_without_midi, "Error: no seed MIDI files in {}"),
], ids=["missing-corpus", "seeds-without-midi"])
def test_ingest_input_directory_without_files_exits_2(workspace, tmp_path, label, make, message):
    given = tmp_path / label
    make(given)
    inputs = {"corpus": workspace / "corpus", "seeds": workspace / "seeds", label: given}
    out = tmp_path / "out"
    result = invoke(["ingest", "--corpus", inputs["corpus"], "--seeds", inputs["seeds"], "--out", out])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [message.format(given)]
    assert list(out.iterdir()) == []


def test_ingest_warns_and_continues_on_corrupt_file(workspace, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in (workspace / "corpus").iterdir():
        (corpus / path.name).write_bytes(path.read_bytes())
    (corpus / "broken.mid").write_bytes(b"not midi at all")
    result = invoke(["ingest", "--corpus", corpus, "--seeds", workspace / "seeds", "--out", tmp_path / "out"])
    assert result.exit_code == 0
    assert "skipping broken.mid" in result.output
    manifest = json.loads((tmp_path / "out" / "ingest" / "manifest.json").read_text())
    assert manifest["skipped"] == ["broken.mid"]
    assert len(manifest["corpus"]) == 3


# a note-on for pitch 0xC8: channel data bytes stop at 0x7F
OUT_OF_RANGE_TRACK = bytes.fromhex("00 90 C8 40 60 80 C8 00 00 FF 2F 00")
ONE_NOTE_TRACK = bytes.fromhex("00 90 3C 40 60 80 3C 00 00 FF 2F 00")
# a chunk that ends inside a note-on, whose data bytes would be the next chunk's "MT"
OVERRUN_TRACK = bytes.fromhex("00 90 3C 40 60 80 3C 00 00 90")
UNREADABLE_ENTRIES = {
    "data-byte": lambda path: path.write_bytes(
        b"MThd" + struct.pack(">IHHH", 6, 0, 1, 96)
        + b"MTrk" + struct.pack(">I", len(OUT_OF_RANGE_TRACK)) + OUT_OF_RANGE_TRACK
    ),
    "overrun": lambda path: path.write_bytes(
        b"MThd" + struct.pack(">IHHH", 6, 1, 2, 96)
        + b"MTrk" + struct.pack(">I", len(OVERRUN_TRACK)) + OVERRUN_TRACK
        + b"MTrk" + struct.pack(">I", len(ONE_NOTE_TRACK)) + ONE_NOTE_TRACK
    ),
    "directory": lambda path: path.mkdir(),
}


@pytest.mark.parametrize("make", UNREADABLE_ENTRIES.values(), ids=UNREADABLE_ENTRIES.keys())
def test_ingest_skips_an_unreadable_corpus_entry(workspace, tmp_path, make):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    make(corpus / "bad.mid")
    result = invoke(["ingest", "--corpus", corpus, "--seeds", workspace / "seeds", "--out", tmp_path / "out"])
    assert result.exit_code == 0, result.output
    lines = [line for line in result.output.splitlines() if "bad.mid" in line]
    assert len(lines) == 1 and lines[0].startswith("warning: skipping bad.mid: ")
    manifest = json.loads((tmp_path / "out" / "ingest" / "manifest.json").read_text())
    assert manifest["skipped"] == ["bad.mid"]
    assert len(manifest["corpus"]) == 3


@pytest.mark.parametrize("make", UNREADABLE_ENTRIES.values(), ids=UNREADABLE_ENTRIES.keys())
def test_ingest_stops_on_an_unreadable_seed_entry(workspace, tmp_path, make):
    seeds = tmp_path / "seeds"
    shutil.copytree(workspace / "seeds", seeds)
    make(seeds / "bad.mid")
    out = tmp_path / "out"
    result = invoke(["ingest", "--corpus", workspace / "corpus", "--seeds", seeds, "--out", out])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith("Error: seed file bad.mid is unreadable: ")
    assert list(out.iterdir()) == []


def test_ingest_rejects_wrong_length_seed(workspace, tmp_path):
    seeds = tmp_path / "seeds"
    # corpus files hold far more than 16 tokens, so reuse one as a bad seed
    seeds.mkdir()
    source = sorted((workspace / "corpus").iterdir())[0]
    (seeds / "bad_seed.mid").write_bytes(source.read_bytes())
    result = invoke(["ingest", "--corpus", workspace / "corpus", "--seeds", seeds, "--out", tmp_path / "out"])
    assert result.exit_code == 2
    assert "bad_seed.mid" in result.output
    assert "exactly 16" in result.output


def test_train_without_manifest_exits_2(workspace, tmp_path):
    result = invoke(["train", *dirs(workspace, out=str(tmp_path / "fresh"))])
    assert result.exit_code == 2
    assert "run ingest first" in result.output


def test_train_warns_once_per_run_about_a_size_one_batch(workspace, tmp_path):
    args = [*dirs(workspace, out=str(tmp_path / "out")), *TINY]
    assert invoke(["ingest", *args]).exit_code == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke(["train", *args])
    assert result.exit_code == 0, result.output
    assert not caught  # printed, not passed on as a Python warning
    skipped = [line for line in result.stderr.splitlines() if line.startswith(SIZE_ONE_BATCH)]
    assert len(skipped) == 1, result.stderr
    assert "in 2 epoch(s)" in skipped[0]


def test_commands_keep_the_callers_warning_filters(workspace, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_ingest", lambda config: warnings.warn("probe"))
    args = ["ingest", *dirs(workspace, out=str(tmp_path / "out"))]
    result = invoke(args)  # the test-wide error::UserWarning filter turns it into a failure
    assert result.exit_code == 1 and isinstance(result.exception, UserWarning), result.output
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert invoke(args).stderr == ""
        warnings.simplefilter("always")
        assert invoke(args).stderr == "warning: probe\n"


def test_train_on_a_corpus_shorter_than_the_window_exits_2(workspace, tmp_path):
    # the seeds as the corpus: 16 tokens each, so no window of 16 has a next token
    args = ["--corpus", workspace / "seeds", "--seeds", workspace / "seeds", "--out", tmp_path / "out"]
    assert invoke(["ingest", *args]).exit_code == 0
    result = invoke(["train", *args])
    assert result.exit_code == 2, result.output
    assert result.stderr == "Error: rnn training failed: no sequence is longer than the window (16 tokens)\n"
    assert not (tmp_path / "out" / "models").exists()


def test_train_prints_its_warning_as_one_line_on_stderr(workspace, tmp_path):
    # CliRunner mixes the streams; only a child process shows what a user sees
    out = tmp_path / "out"
    assert invoke(["ingest", *dirs(workspace, out=str(out)), *TINY]).exit_code == 0
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-m", "jazzgen.cli", "train", *map(str, dirs(workspace, out=str(out))), *TINY],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"{SIZE_ONE_BATCH} in 2 epoch(s): "), line


def test_train_writes_artifacts(pipeline):
    assert (pipeline / "models" / "markov.json").exists()
    assert (pipeline / "models" / "rnn.ckpt").exists()
    log = json.loads((pipeline / "models" / "training_log.json").read_text())
    assert len(log["epochs"]) == 2
    assert log["best_epoch"] in (0, 1)
    assert all(entry["mean_loss"] > 0 for entry in log["epochs"])


def test_generate_lengths_and_seed_prefix(pipeline):
    for seed_id in ("seed_1", "seed_2"):
        seed_tokens = (pipeline / "ingest" / "seeds" / f"{seed_id}.tokens").read_text().split()
        markov = (pipeline / "generated" / f"{seed_id}_markov.tokens").read_text().split()
        rnn = (pipeline / "generated" / f"{seed_id}_rnn.tokens").read_text().split()
        assert len(markov) == 16 + 30
        assert len(rnn) == 16 + 20
        assert markov[:16] == seed_tokens
        assert rnn[:16] == seed_tokens
        assert (pipeline / "generated" / f"{seed_id}_markov.mid").exists()
        assert (pipeline / "generated" / f"{seed_id}_rnn.mid").exists()


def test_generate_without_models_exits_2(workspace, tmp_path):
    out = tmp_path / "out"
    result = invoke(["ingest", *dirs(workspace, out=str(out))])
    assert result.exit_code == 0
    result = invoke(["generate", "--corpus", workspace / "corpus", "--seeds", workspace / "seeds", "--out", out])
    assert result.exit_code == 2
    assert "run train first" in result.output


def test_generate_unknown_seed_id_exits_2(workspace, pipeline):
    result = invoke(["generate", *dirs(workspace), *TINY, "--seed-id", "nope"])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("Error: unknown seed ids nope")


def test_generate_with_stale_checkpoint_exits_2(workspace, tmp_path):
    seeds = tmp_path / "seeds"
    shutil.copytree(workspace / "seeds", seeds)
    args = ["--corpus", workspace / "corpus", "--seeds", seeds, "--out", tmp_path / "out", *TINY]
    for command in ("ingest", "train"):
        assert invoke_stage(command, args).exit_code == 0
    # re-ingest a seed holding a token the trained checkpoint has never seen
    events = tuple(NoteEvent(61, Fraction(3, 2), Fraction(3 * i, 2)) for i in range(16))
    (seeds / "seed_2.mid").write_bytes(write_midi(MidiDocument(lcm_time_division(events), 240, events)))
    assert invoke(["ingest", *args]).exit_code == 0
    result = invoke(["generate", *args])
    assert result.exit_code == 2
    assert result.output.strip().splitlines() == [
        "Error: seed seed_2 has token C#4_1.5 that the checkpoint vocabulary lacks; rerun train"
    ]
    assert not (tmp_path / "out" / "generated").exists()


def _edit_manifest(raw: bytes, edit) -> bytes:
    """The checkpoint raw with edit applied to its JSON manifest."""
    offset = len(CHECKPOINT_MAGIC)
    (manifest_len,) = struct.unpack_from("<I", raw, offset)
    manifest = json.loads(raw[offset + 4 : offset + 4 + manifest_len])
    edit(manifest)
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<I", len(encoded)) + encoded + raw[offset + 4 + manifest_len :]


def _as_version_2(manifest: dict) -> None:
    """The same manifest in format version 2, whose config also held the
    vocabulary size, the training seed and the batch-norm momentum."""
    config = manifest["config"]
    config["lstm_units"] = config.pop("hidden_units")
    config.update(n_vocab=len(manifest["vocab"]), seed=0, bn_momentum=0.99)
    manifest["format_version"] = 2


def _swap_lstm1_w_shape(manifest: dict) -> None:
    """Reverse lstm1/w's (4H, V) shape: same element count, so the blob still fits."""
    (entry,) = [entry for entry in manifest["tensors"] if entry["name"] == "lstm1/w"]
    entry["shape"].reverse()


def _nan_norm_var(raw: bytes) -> bytes:
    """A float32 NaN over the blob's last 4 bytes: the last tensor by name, norm/var."""
    return raw[:-4] + np.float32("nan").tobytes()


@pytest.mark.parametrize("damage, reason", [
    (lambda raw: raw[:1000], "truncated checkpoint"),
    (lambda raw: _edit_manifest(raw, _as_version_2), "format version 2 not supported"),
    (lambda raw: _edit_manifest(raw, lambda manifest: manifest.pop("vocab")), "KeyError: 'vocab'"),
    (lambda raw: _edit_manifest(raw, lambda manifest: manifest["config"].update(epochs=0)),
     "epochs must be positive"),
    (lambda raw: _edit_manifest(raw, lambda manifest: manifest["tensors"][0].update(name="nope")),
     "extra ['nope'], missing ['dense1/b']"),
    (lambda raw: _edit_manifest(raw, _swap_lstm1_w_shape), "lstm1/w has shape"),
    (_nan_norm_var, "tensor norm/var holds a non-finite value"),
    (lambda raw: _edit_manifest(raw, lambda manifest: manifest["config"].update(window=20)), "has window 20"),
], ids=["truncated", "version-2", "no-vocab", "zero-epochs", "renamed-tensor", "swapped-shape", "nan-tensor",
        "window-over-seed"])
def test_generate_with_unreadable_checkpoint_exits_2(workspace, pipeline, tmp_path, damage, reason):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    shutil.copytree(pipeline / "models", out / "models")
    ckpt = out / "models" / "rnn.ckpt"
    ckpt.write_bytes(damage(ckpt.read_bytes()))
    result = invoke(["generate", *dirs(workspace, out=str(out)), *TINY, "--model", "rnn"])
    assert result.exit_code == 2, result.output
    (line,) = result.output.strip().splitlines()
    assert str(ckpt) in line and reason in line and line.endswith("rerun train")
    assert not (out / "generated").exists()


def _overflowing_dense2(raw: bytes) -> bytes:
    """The checkpoint with dense2/w at 3e38 and its row 0 at -3e38: finite
    weights whose logits overflow to -inf and inf."""
    offset = len(CHECKPOINT_MAGIC)
    (manifest_len,) = struct.unpack_from("<I", raw, offset)
    start = offset + 4 + manifest_len
    cursor = start
    for entry in json.loads(raw[offset + 4 : start])["tensors"]:  # the blob's order
        size = 4 * math.prod(entry["shape"])
        if entry["name"] == "dense2/w":
            weights = np.full(entry["shape"], 3e38, dtype="<f4")
            weights[0] = -3e38
            return raw[:cursor] + weights.tobytes() + raw[cursor + size :]
        cursor += size
    raise AssertionError("no dense2/w tensor")


@pytest.mark.parametrize("temperature", ["1", "1e-9"], ids=["sampled", "argmax"])
def test_generate_with_overflowing_checkpoint_exits_2(workspace, pipeline, tmp_path, temperature):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    shutil.copytree(pipeline / "models", out / "models")
    ckpt = out / "models" / "rnn.ckpt"
    ckpt.write_bytes(_overflowing_dense2(ckpt.read_bytes()))
    result = invoke(["generate", *dirs(workspace, out=str(out)), *TINY, "--model", "rnn", "--temperature", temperature])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines() == [
        f"Error: cannot sample {ckpt} (logits contains non-finite values); rerun train"
    ]
    assert not (out / "generated").exists()


def _edit_table(raw: bytes, edit) -> bytes:
    """The Markov table raw with edit applied to its JSON payload."""
    payload = json.loads(raw)
    edit(payload)
    return json.dumps(payload).encode("utf-8")


def _set_first_count(value):
    def edit(payload):
        successors = payload["counts"][0]["next"]
        successors[min(successors)] = value
    return edit


def _set_first_unigram(value):
    def edit(payload):
        payload["unigram"][min(payload["unigram"])] = value
    return edit


def _set_last_count(value):
    def edit(payload):
        successors = payload["counts"][-1]["next"]
        successors[max(successors)] = value
    return edit


def _set_first_state(length):
    def edit(payload):
        entry = payload["counts"][0]
        entry["state"] = (entry["state"] * length)[:length]
    return edit


@pytest.mark.parametrize("damage, reason", [
    (lambda raw: raw[:100], "JSONDecodeError"),
    (lambda raw: bytes(range(128, 256)) * 4, "UnicodeDecodeError"),
    (lambda raw: b"[]", "TypeError"),
    (lambda raw: b'{"order": 2, "unigram": {"Q9": 1}, "counts": []}', "TokenError"),
    (lambda raw: _edit_table(raw, _set_first_count(1.5)), "count 1.5 is not an integer >= 1"),
    (lambda raw: _edit_table(raw, _set_first_count("7")), "count '7' is not an integer >= 1"),
    (lambda raw: _edit_table(raw, _set_first_count(True)), "count True is not an integer >= 1"),
    (lambda raw: _edit_table(raw, _set_first_count(0)), "count 0 is not an integer >= 1"),
    (lambda raw: _edit_table(raw, _set_first_count(-2)), "count -2 is not an integer >= 1"),
    (lambda raw: _edit_table(raw, _set_first_unigram(0)), "count 0 is not an integer >= 1"),
    (lambda raw: _edit_table(raw, lambda payload: payload.update(order="2")), "order '2' is not an integer >= 1"),
    (lambda raw: _edit_table(raw, lambda payload: payload.update(order=True)), "order True is not an integer >= 1"),
    (lambda raw: _edit_table(raw, lambda payload: payload.update(order=0)), "order 0 is not an integer >= 1"),
    (lambda raw: _edit_table(raw, _set_first_state(3)), "is not 1 to 2 symbols long"),
    (lambda raw: _edit_table(raw, _set_first_state(0)), "is not 1 to 2 symbols long"),
    (lambda raw: _edit_table(raw, lambda payload: payload["counts"][0].update(next=[1])),
     "AttributeError: 'list' object has no attribute 'items'"),
    (lambda raw: _edit_table(raw, lambda payload: payload.update(unigram=[1])),
     "AttributeError: 'list' object has no attribute 'items'"),
    (lambda raw: _edit_table(raw, _set_last_count(0)), "count 0 is not an integer >= 1"),
], ids=["truncated", "garbage", "list", "non-token-symbol", "fractional-count", "string-count",
        "bool-count", "zero-count", "negative-count", "zero-unigram", "string-order", "bool-order",
        "zero-order", "long-state", "empty-state", "list-next", "list-unigram", "zero-last-count"])
def test_generate_with_damaged_markov_table_exits_2(workspace, pipeline, tmp_path, damage, reason):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    shutil.copytree(pipeline / "models", out / "models")
    table = out / "models" / "markov.json"
    table.write_bytes(damage(table.read_bytes()))
    result = invoke(["generate", *dirs(workspace, out=str(out)), *TINY, "--model", "markov"])
    assert result.exit_code == 2, result.output
    (line,) = result.output.strip().splitlines()
    assert str(table) in line and reason in line and line.endswith("rerun train")
    assert not (out / "generated").exists()


@pytest.mark.parametrize("earlier_run", [False, True], ids=["first-run", "over-earlier-run"])
def test_generate_render_error_writes_no_generation(workspace, pipeline, tmp_path, monkeypatch, earlier_run):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    shutil.copytree(pipeline / "models", out / "models")
    if earlier_run:
        shutil.copytree(pipeline / "generated", out / "generated")
        for path in (out / "generated").iterdir():
            path.write_bytes(b"earlier run")
    before = files_under(out)
    # seed_1's RNN continuation renders after seed_1's Markov one and before seed_2's
    doomed = tick_line((pipeline / "generated" / "seed_1_rnn.tokens").read_text().split())
    real_write_line = cli.write_line

    def write_line(line, tempo):
        if line == doomed:
            raise TickResolutionError("time division 323323 overflows the 15-bit SMF field (max 32767)")
        return real_write_line(line, tempo)

    monkeypatch.setattr(cli, "write_line", write_line)
    result = invoke(["generate", *dirs(workspace, out=str(out)), *TINY])
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [
        "Error: seed_1 rnn: cannot render MIDI: time division 323323 overflows the 15-bit SMF field (max 32767)"
    ]
    assert files_under(out) == before
    assert (out / "generated").exists() == earlier_run


# (damage to ingest/, the artifact the error must name)
@pytest.mark.parametrize("damage, named", [
    (lambda ingest: next((ingest / "tokens").glob("*.tokens")).unlink(), "tokens"),
    (lambda ingest: (ingest / "manifest.json").write_text((ingest / "manifest.json").read_text()[:40]),
     "manifest.json"),
    (lambda ingest: next((ingest / "tokens").glob("*.tokens")).write_text("C#-1_1/7\n"), "tokens"),
    (lambda ingest: (ingest / "vocab.json").write_text("[1]"), "vocab.json"),
    # an object's keys would make a vocabulary, and an intact token file would take the blame
    (lambda ingest: (ingest / "vocab.json").write_text('{"A4_1.0": 1}'), "vocab.json"),
], ids=["token-file-deleted", "manifest-truncated", "token-outside-vocab", "vocab-non-text", "vocab-object"])
def test_train_with_stale_ingest_artifacts_exits_2(workspace, pipeline, tmp_path, damage, named):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    damage(out / "ingest")
    before = files_under(out)
    result = invoke(["train", *dirs(workspace, out=str(out)), *TINY])
    assert result.exit_code == 2, result.output
    (line,) = result.output.strip().splitlines()
    assert line.startswith(f"Error: cannot read {out / 'ingest' / named}") and line.endswith("rerun ingest")
    assert files_under(out) == before


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


def _truncate_to_half(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


FAULTS = {
    "deleted": Path.unlink,
    "directory": _replace_with_directory,
    "garbage": lambda path: path.write_bytes(b"\xff\xfe{ Q9_1.0"),
    "truncated": _truncate_to_half,
    "bad-token": lambda path: path.write_text("C4_1.0 Q9_1.0\n"),
    "one-token": lambda path: path.write_text("C4_1.0\n"),
    "emptied": lambda path: path.write_text(""),
    "three-tokens": lambda path: path.write_text("\n".join(path.read_text().split()[:3]) + "\n"),
    "seed-2-copy": lambda path: shutil.copyfile(path.with_name(path.name.replace("seed_1", "seed_2")), path),
    "seeds-string": lambda path: path.write_text(json.dumps({**json.loads(path.read_text()), "seeds": "seed_1"})),
    "no-seeds": lambda path: path.write_text(json.dumps({**json.loads(path.read_text()), "seeds": []})),
}
# a truncated token file can still be a valid one
PARSED_FILE = ("deleted", "directory", "garbage", "truncated")
TOKEN_FILE = ("deleted", "directory", "garbage", "bad-token")
GENERATE = ("generate", "--model", "both")
# artifact -> (faults, commands that read it)
ARTIFACTS = {
    "ingest/manifest.json": ((*PARSED_FILE, "seeds-string", "no-seeds"), [("train",), GENERATE, ("evaluate",)]),
    "ingest/vocab.json": (PARSED_FILE, [("train",)]),
    "ingest/tokens/corpus_01.tokens": (TOKEN_FILE, [("train",)]),
    "ingest/seeds/seed_1.tokens": ((*TOKEN_FILE, "one-token"), [GENERATE, ("evaluate",)]),
    "models/markov.json": (PARSED_FILE, [("generate", "--model", "markov")]),
    "models/rnn.ckpt": (PARSED_FILE, [("generate", "--model", "rnn")]),
    # a generation must begin with its own seed's tokens
    "generated/seed_1_rnn.tokens": ((*TOKEN_FILE, "emptied", "three-tokens", "seed-2-copy"), [("evaluate",)]),
}
STAGE_WRITING = {"ingest": "ingest", "models": "train", "generated": "generate"}
FAULT_MATRIX = [
    pytest.param(artifact, fault, command, id=f"{artifact}-{fault}-{command[-1]}")
    for artifact, (faults, commands) in ARTIFACTS.items()
    for fault in faults
    for command in commands
]


@pytest.mark.parametrize("artifact, fault, command", FAULT_MATRIX)
def test_damaged_artifact_exits_2_naming_the_stage_to_rerun(workspace, pipeline, tmp_path, artifact, fault, command):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    path = out / artifact
    FAULTS[fault](path)
    before = files_under(out)
    result = invoke([*command, *dirs(workspace, out=str(out)), *TINY])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    (line,) = result.output.strip().splitlines()
    assert str(path) in line and line.endswith(f"rerun {STAGE_WRITING[artifact.split('/')[0]]}"), line
    assert files_under(out) == before


class FullDisk:
    """A file handle on a disk with no space left: every write fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_write(monkeypatch, nth):
    """Make the nth file jazzgen.files opens land on a full disk; returns
    the list of handles opened so far."""
    opened = []
    real_open = open

    def open_nth_on_full_disk(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return FullDisk(opened[-1]) if len(opened) == nth else opened[-1]

    monkeypatch.setattr(files, "open", open_nth_on_full_disk, raising=False)
    return opened


def error_lines(result):
    return [line for line in result.output.splitlines() if line.startswith("Error:")]


def test_generate_write_error_leaves_generated_as_it_was(workspace, pipeline, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "ingest", out / "ingest")
    shutil.copytree(pipeline / "models", out / "models")
    assert invoke(["generate", *dirs(workspace, out=str(out)), *TINY]).exit_code == 0
    before = files_under(out)
    opened = fail_write(monkeypatch, 3)
    result = invoke(["generate", *dirs(workspace, out=str(out)), *TINY, "--markov-notes", "40"])
    # seed_1's Markov tokens and MIDI are written first, then seed_1's RNN tokens
    assert len(opened) == 3
    assert files_under(out) == before
    assert result.exit_code == 1, result.output
    third = out / "generated" / "seed_1_rnn.tokens"
    assert result.output.splitlines() == [f"Error: cannot write {third}: No space left on device"]


@pytest.mark.parametrize("stage, third", [
    ("ingest", "ingest/tokens/corpus_03.tokens"),
    ("train", "models/training_log.json"),
    ("evaluate", "report/gs_series.json"),
])
def test_stage_write_error_leaves_its_outputs_as_they_were(workspace, pipeline, tmp_path, monkeypatch, stage, third):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    assert invoke(["evaluate", *dirs(workspace, out=str(out))]).exit_code == 0
    # the rerun would change every output it writes: a different corpus for
    # ingest, a different order for train, different generations for evaluate
    rerun = [*dirs(workspace, out=str(out)), *TINY]
    if stage == "ingest":
        write_corpus(tmp_path / "corpus", seed=2, n_files=3)
        rerun[1] = tmp_path / "corpus"
    elif stage == "train":
        rerun += ["--order", "3"]
    else:
        assert invoke(["generate", *rerun, "--markov-notes", "40"]).exit_code == 0
    before = files_under(out)
    opened = fail_write(monkeypatch, 3)
    result = invoke_stage(stage, rerun)
    assert len(opened) == 3
    assert result.exit_code == 1, result.output
    assert error_lines(result) == [f"Error: cannot write {out / third}: No space left on device"]
    assert files_under(out) == before
    assert not [path for path in out.rglob("*") if path.name.endswith(".tmp")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failed_training_leaves_models_as_they_were(workspace, pipeline, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rnn": {"learning_rate": 1e300}}))
    before = files_under(out / "models")
    result = invoke_stage("train", ["--config", config, *dirs(workspace, out=str(out)), *TINY, "--order", "1"])
    assert result.exit_code == 1, result.output
    # the divergence raises no numpy warning: after the size-1 batch warning,
    # stderr is the one Error: line
    _, line = result.stderr.splitlines()
    assert line.startswith("Error: rnn training failed: "), line
    assert files_under(out / "models") == before
    assert sorted(p.name for p in (out / "models").iterdir()) == ["markov.json", "rnn.ckpt", "training_log.json"]


@pytest.mark.parametrize("kill, reason", [
    (True, "layer-1 helper exited with status -9"),
    (False, "layer-1 helper failed: MemoryError: no room"),
], ids=["killed", "failed"])
def test_a_stopped_training_helper_is_one_error_line(workspace, pipeline, tmp_path, monkeypatch, kill, reason):
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    before = files_under(out / "models")
    real_adam_step = jazzgen.rnn.adam_step

    def stopping_layer_one(params, grads, state, lr):
        if "lstm1/w" in grads:  # layer 1, in the helper
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError("no room")
        real_adam_step(params, grads, state, lr)

    monkeypatch.setattr(jazzgen.rnn, "two_process_training", lambda: True)
    monkeypatch.setattr(jazzgen.rnn, "adam_step", stopping_layer_one)
    result = invoke_stage("train", [*dirs(workspace, out=str(out)), *TINY, "--order", "1"])
    assert result.exit_code == 1, result.output
    # after the size-1 batch warning, stderr is the one Error: line
    _, line = result.stderr.splitlines()
    assert line == f"Error: rnn training failed: {reason}"
    assert files_under(out / "models") == before


def test_failed_first_train_write_leaves_no_models_directory(workspace, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert invoke(["ingest", *dirs(workspace, out=str(out))]).exit_code == 0
    opened = fail_write(monkeypatch, 1)
    result = invoke_stage("train", [*dirs(workspace, out=str(out)), *TINY])
    assert len(opened) == 1
    assert result.exit_code == 1, result.output
    assert not (out / "models").exists()
    monkeypatch.undo()
    result = invoke(["generate", *dirs(workspace, out=str(out)), *TINY])
    assert result.exit_code == 2
    assert "run train first" in result.output


def test_every_output_file_is_written_through_write_all(workspace, tmp_path, monkeypatch):
    written = []
    real_write_all = cli.write_all

    def recording_write_all(files):
        written.extend(files)
        real_write_all(files)

    monkeypatch.setattr(cli, "write_all", recording_write_all)
    out = tmp_path / "out"
    for command in ("ingest", "train", "generate", "evaluate"):
        result = invoke_stage(command, [*dirs(workspace, out=str(out)), *TINY])
        assert result.exit_code == 0, result.output
    on_disk = {path for path in out.rglob("*") if path.is_file() and path.name != ".lock"}
    assert on_disk == set(written)
    assert len(written) == len(on_disk)


def test_generate_loads_models_through_the_names_a_trace_wraps(workspace, pipeline, tmp_path, monkeypatch):
    # bench/spans.py times markov.load and rnn.load_checkpoint by wrapping
    # these two cli attributes; a read that bypasses them would read as 0
    calls = {"load_transition_table": 0, "load_checkpoint": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "out"
    shutil.copytree(pipeline, out)
    result = invoke(["generate", *dirs(workspace, out=str(out)), *TINY])
    assert result.exit_code == 0, result.output
    assert calls == {"load_transition_table": 1, "load_checkpoint": 1}


def test_a_stage_reads_each_artifact_once_through_layout_load(workspace, tmp_path, monkeypatch):
    # Layout.load is the one read of an artifact, so a check of the bytes
    # there covers every input a stage takes from an earlier one
    out = tmp_path / "out"
    layout = cli.Layout(out)
    reads = []
    inside = []  # a Path reader's own open is not a second read

    def record(how, file):
        if isinstance(file, (str, os.PathLike)) and not inside and Path(file).is_relative_to(out):
            reads.append((how, Path(file)))

    def recording(how, real):
        def read(file, *args, **kwargs):
            caller = sys._getframe(1).f_code
            record("Layout.load" if (how, caller) == ("read_bytes", cli.Layout.load.__code__) else how, file)
            inside.append(file)
            try:
                return real(file, *args, **kwargs)
            finally:
                inside.pop()

        return read

    for owner, name in ((Path, "read_bytes"), (Path, "read_text"), (io, "open"), (builtins, "open")):
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    stages = (
        ("ingest", lambda: []),
        ("train", lambda: [layout.manifest, layout.vocab_file, *layout.tokens_dir.iterdir()]),
        ("generate", lambda: [layout.manifest, *layout.seeds_dir.iterdir(), layout.markov_table, layout.checkpoint]),
        ("evaluate", lambda: [layout.manifest, *layout.seeds_dir.iterdir(), *layout.generated_dir.glob("*.tokens")]),
    )
    for command, inputs in stages:
        reads.clear()
        result = invoke_stage(command, [*dirs(workspace, out=str(out)), *TINY])
        assert result.exit_code == 0, result.output
        assert sorted(reads) == sorted(("Layout.load", path) for path in inputs()), command


def test_generate_seed_output_does_not_depend_on_batch(tmp_path):
    write_corpus(tmp_path / "corpus", seed=2, n_files=3)
    write_seeds(tmp_path / "seeds", seed=2, n_files=4)
    args = ["--corpus", tmp_path / "corpus", "--seeds", tmp_path / "seeds", "--out", tmp_path / "out",
            *TINY, "--rnn-steps", "250"]
    for command in ("ingest", "train"):
        assert invoke([command, *args]).exit_code == 0
    outputs = []
    for selection in ([], ["--seed-id", "seed_3"]):
        result = invoke(["generate", *args, "--model", "rnn", *selection])
        assert result.exit_code == 0, result.output
        assert result.output.count(" rnn: ") == (1 if selection else 4)
        outputs.append((tmp_path / "out" / "generated" / "seed_3_rnn.tokens").read_bytes())
    assert outputs[0] == outputs[1]


def test_generate_single_model_and_seed(workspace, pipeline, tmp_path):
    result = invoke(["generate", *dirs(workspace), *TINY, "--model", "markov", "--seed-id", "seed_1"])
    assert result.exit_code == 0
    assert "seed_1 markov" in result.output
    assert "rnn" not in result.output


def test_evaluate_missing_generation_listed(workspace, tmp_path):
    out = tmp_path / "out"
    result = invoke(["ingest", *dirs(workspace, out=str(out))])
    assert result.exit_code == 0
    result = invoke(["evaluate", "--corpus", workspace / "corpus", "--seeds", workspace / "seeds", "--out", out])
    assert result.exit_code == 2
    assert "seed_1_markov" in result.output
    assert "seed_2_rnn" in result.output


def test_evaluate_generation_under_two_bars_exits_2(workspace, tmp_path):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "seed_1.mid").write_bytes(write_midi(MidiDocument(4, 240, tuple(
        NoteEvent(60, Fraction(1, 4), Fraction(i, 4)) for i in range(16)
    ))))
    out = tmp_path / "out"
    args = ["--corpus", workspace / "corpus", "--seeds", seeds, "--out", out, *TINY,
            "--markov-notes", "0", "--rnn-steps", "0"]
    for command in ("ingest", "train", "generate"):
        assert invoke_stage(command, args).exit_code == 0
    result = invoke(["evaluate", *args])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [
        "Error: seed_1_markov: groove similarity needs at least 2 bars, composition has 1"
    ]
    assert not (out / "report").exists()


def test_evaluate_writes_report_bundle(workspace, pipeline):
    result = invoke(["evaluate", *dirs(workspace), *TINY])
    assert result.exit_code == 0, result.output
    assert "RNN beats Markov" in result.output
    report = pipeline / "report"
    csv_text = (report / "comparison.csv").read_text()
    assert csv_text.count("\n") == 3  # header + one row per seed
    summary = json.loads((report / "summary.json").read_text())
    assert summary["gs_wins"][1] == 2
    assert summary["entropy_wins"][1] == 2
    series = json.loads((report / "gs_series.json").read_text())
    histograms = json.loads((report / "histograms.json").read_text())
    for seed_id in ("seed_1", "seed_2"):
        assert set(series[seed_id]) == {"markov", "rnn"}
        assert len(histograms[seed_id]["markov"]) == 12
        assert (report / "figures" / f"gs_{seed_id}.svg").exists()
        assert (report / "figures" / f"hist_{seed_id}.svg").exists()
    comparison = json.loads((report / "comparison.json").read_text())
    assert comparison["lengths"]["seed_1"]["markov"]["tokens"] == 46
    assert comparison["lengths"]["seed_1"]["rnn"]["tokens"] == 36


def test_evaluate_table_fixture_reports_reference_fractions():
    result = invoke(["evaluate", "--table", REFERENCE])
    assert result.exit_code == 0, result.output
    assert "62.5%" in result.output
    assert "100.0%" in result.output


def test_evaluate_table_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    result = invoke(["evaluate", "--table", bad])
    assert result.exit_code == 2
    assert "bad table" in result.output
    bad.write_text(",".join(CSV_HEADER) + "\n")  # a header and no rows
    result = invoke(["evaluate", "--table", bad])
    assert result.exit_code == 2
    assert result.output == f"Error: bad table {bad}: no rows to summarize\n"


def test_lock_file_blocks_second_writer(workspace, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").touch()
    result = invoke(["ingest", *dirs(workspace, out=str(out))])
    assert result.exit_code == 1
    assert "locked by another command" in result.output


@pytest.mark.parametrize("via_config", [False, True], ids=["flag-under-a-file", "config-out-dir-is-a-file"])
def test_output_directory_that_cannot_be_made_exits_2(workspace, tmp_path, via_config):
    """click's file_okay=False check sees only --out, not a config's out_dir."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    if via_config:
        out = blocker
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"out_dir": str(out)}))
        args = ["--config", config_file, "--corpus", workspace / "corpus", "--seeds", workspace / "seeds"]
    else:
        out = blocker / "sub"
        args = dirs(workspace, out=str(out))
    result = invoke(["ingest", *args])
    assert result.exit_code == 2, result.output
    (line,) = result.output.strip().splitlines()
    assert line.startswith("Error: ") and str(out) in line
    assert ("File exists" if via_config else "Not a directory") in line
    assert blocker.read_text() == ""


def test_lock_file_that_cannot_be_made_exits_2(workspace, tmp_path, monkeypatch):
    real_open = os.open

    def refuse_lock(path, *args, **kwargs):
        if Path(path).name == ".lock":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_lock)
    out = tmp_path / "out"
    result = invoke(["ingest", *dirs(workspace, out=str(out))])
    assert result.exit_code == 2, result.output
    assert result.output == f"Error: cannot create lock file {out / '.lock'}: Permission denied\n"


def test_lock_names_its_holder_while_a_command_runs(workspace, tmp_path, monkeypatch):
    out = tmp_path / "out"
    seen = []
    monkeypatch.setattr(cli, "run_ingest", lambda config: seen.append((out / ".lock").read_text()))
    assert invoke(["ingest", *dirs(workspace, out=str(out))]).exit_code == 0
    (stamp,) = seen
    pid, _, command = stamp.strip().partition(" ")
    assert int(pid) == os.getpid() and command
    assert not (out / ".lock").exists()


def _exited_pid() -> int:
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    return int(child.stdout)


@pytest.mark.parametrize("holder, state", [(os.getpid, ";"), (_exited_pid, ", which is no longer running;")],
                         ids=["running", "exited"])
def test_lock_names_its_holder_and_is_never_taken_over(workspace, tmp_path, holder, state):
    pid = holder()
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(f"{pid} jazzgen train\n")
    result = invoke(["ingest", *dirs(workspace, out=str(out))])
    assert result.exit_code == 1
    (line,) = result.output.strip().splitlines()
    assert f"locked by process {pid} (jazzgen train){state}" in line
    assert (out / ".lock").read_text() == f"{pid} jazzgen train\n"
    assert sorted(p.name for p in out.iterdir()) == [".lock"]


def test_lock_file_removed_after_run(workspace, tmp_path):
    out = tmp_path / "out"
    result = invoke(["ingest", "--corpus", workspace / "corpus", "--seeds", workspace / "seeds", "--out", out])
    assert result.exit_code == 0
    assert not (out / ".lock").exists()


def test_selfcheck_passes_and_is_repeatable():
    first = invoke(["selfcheck"])
    second = invoke(["selfcheck"])
    assert first.exit_code == 0, first.output
    assert first.output == second.output
    assert "FAIL" not in first.output
    assert first.output.count("PASS") == 8


def test_selfcheck_fails_on_broken_lstm_kernel(monkeypatch):
    backward = neural.lstm_backward

    def negated_dw(*args, **kwargs):
        dxs, dw, du, db = backward(*args, **kwargs)
        return dxs, -dw, du, db

    monkeypatch.setattr(neural, "lstm_backward", negated_dw)
    result = invoke(["selfcheck"])
    assert result.exit_code == 1
    assert "FAIL: lstm gradients: lstm gradient error" in result.output
    assert result.output.count("PASS") == 7


def test_selfcheck_fails_on_broken_bar_masks(monkeypatch):
    # the scorer evaluate runs: a last bar dropped changes every GS it reports
    bar_masks = metrics._bar_masks
    monkeypatch.setattr(metrics, "_bar_masks", lambda *args: bar_masks(*args)[:-1])
    result = invoke(["selfcheck"])
    assert result.exit_code == 1
    assert "FAIL: metric oracles" in result.output
    assert result.output.count("PASS") == 7


def test_selfcheck_fails_on_broken_lstm_kernel_under_optimize():
    # python -O strips assert statements; selfcheck must still catch the fault
    script = (
        "from jazzgen import neural\n"
        "from jazzgen.cli import main\n"
        "backward = neural.lstm_backward\n"
        "def negated_dw(*args, **kwargs):\n"
        "    dxs, dw, du, db = backward(*args, **kwargs)\n"
        "    return dxs, -dw, du, db\n"
        "neural.lstm_backward = negated_dw\n"
        "main(['selfcheck'])\n"
    )
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "FAIL: lstm gradients: lstm gradient error" in result.stdout
    assert result.stdout.count("PASS") == 7


def test_selfcheck_validates_checkpoint(pipeline):
    result = invoke(["selfcheck", "--ckpt", pipeline / "models" / "rnn.ckpt"])
    assert result.exit_code == 0, result.output
    assert "PASS: checkpoint file loads" in result.output


def test_selfcheck_fails_on_corrupted_checkpoint(pipeline, tmp_path):
    raw = (pipeline / "models" / "rnn.ckpt").read_bytes()
    corrupt = tmp_path / "corrupt.ckpt"
    for damaged, reason in [
        # extra trailing bytes no manifest shape accounts for
        (raw + b"\x00\x00\x00\x00", "shapes"),
        (_edit_manifest(raw, lambda manifest: manifest.pop("vocab")), "KeyError: 'vocab'"),
        (_nan_norm_var(raw), "norm/var holds a non-finite value"),
    ]:
        corrupt.write_bytes(damaged)
        result = invoke(["selfcheck", "--ckpt", corrupt])
        assert result.exit_code == 1
        assert "FAIL: checkpoint file loads" in result.output
        assert reason in result.output


def test_pipeline_rerun_is_byte_identical(workspace, tmp_path):
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        for command in ("ingest", "train", "generate", "evaluate"):
            result = invoke_stage(command, [*dirs(workspace, out=str(out)), *TINY, "--seed-rng", "9"])
            assert result.exit_code == 0, result.output
        outputs.append(out)
    first, second = outputs
    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files
    for rel in first_files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), f"{rel} differs"


def test_changing_global_seed_changes_rnn_output(workspace, tmp_path):
    outputs = []
    for seed in ("3", "4"):
        out = tmp_path / f"seed{seed}"
        for command in ("ingest", "train", "generate"):
            result = invoke_stage(command, [*dirs(workspace, out=str(out)), *TINY, "--seed-rng", seed])
            assert result.exit_code == 0, result.output
        outputs.append((out / "generated" / "seed_1_rnn.tokens").read_text())
    assert outputs[0] != outputs[1]


PIPELINE_IN_CHILD = """
import sys
from jazzgen.cli import main
for command in ("ingest", "train", "generate"):
    main([command, *sys.argv[1:]], standalone_mode=False)
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # one default-size epoch on the default corpus ends on a batch of 57
    # windows, whose GEMMs round differently at 1 and at 2 BLAS threads
    # unless jazzgen pins one while it computes
    write_corpus(tmp_path / "corpus")
    write_seeds(tmp_path / "seeds")
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    trees = []
    # the last run sees one CPU, so train keeps layer 1 in its own process
    runs = [("1", None), ("2", None)]
    if hasattr(os, "sched_setaffinity"):
        runs.append(("2", lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})))
    for number, (threads, preexec_fn) in enumerate(runs):
        out = tmp_path / f"out{number}"
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
        args = ["--corpus", tmp_path / "corpus", "--seeds", tmp_path / "seeds", "--out", out, "--epochs", "1"]
        result = subprocess.run([sys.executable, "-c", PIPELINE_IN_CHILD, *map(str, args)],
                                capture_output=True, text=True, env=env, timeout=600, preexec_fn=preexec_fn)
        assert result.returncode == 0, result.stderr
        trees.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    config = RnnConfig()
    manifest = json.loads(trees[0]["ingest/manifest.json"])
    windows = sum(entry["tokens"] - config.window for entry in manifest["corpus"])
    assert windows % config.batch_size == 57
    for tree in trees[1:]:
        assert tree.keys() == trees[0].keys()
        for name in trees[0]:
            assert tree[name] == trees[0][name], f"{name} differs"


THREADS_AFTER_TRAIN_IN_CHILD = """
import os, sys
from pathlib import Path
import numpy as np
import jazzgen.rnn
from jazzgen import neural
from jazzgen.cli import MODEL_NAMES, output_lock, resolve_config, run_generate, run_ingest, run_train
jazzgen.rnn.two_process_training = lambda: True
config = resolve_config(None, dict(zip(("corpus", "seeds", "out"), sys.argv[1:]), hidden=8, epochs=1))
with output_lock(config.out_dir):  # as `jazzgen train` and `jazzgen generate` run, with no wrapper
    run_ingest(config)
    run_train(config)
    run_generate(config, MODEL_NAMES, ())
    print(len(os.listdir("/proc/self/task")), neural._openblas_threads(Path(np.__file__).parent)[0]())
"""


def test_train_after_its_fork_starts_no_blas_worker_under_one_pin(workspace, tmp_path):
    # the fork shuts OpenBLAS's pool down, and any later set call starts a
    # worker that spins; train pins one thread and leaves it, so nothing
    # after the fork, generate's own pin included, sets the count again
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads in")
    if neural._openblas_threads(Path(np.__file__).parent) is None:
        pytest.skip("this numpy bundles no OpenBLAS with thread control")
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    args = [workspace / "corpus", workspace / "seeds", tmp_path / "out"]
    result = subprocess.run([sys.executable, "-c", THREADS_AFTER_TRAIN_IN_CHILD, *map(str, args)],
                            capture_output=True, text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "2"})
    assert result.returncode == 0, result.stderr
    tasks, blas_threads = result.stdout.split()[-2:]
    assert (tasks, blas_threads) == ("1", "1"), result.stdout


def test_a_killed_train_leaves_no_process_behind(workspace, tmp_path):
    out = tmp_path / "out"
    assert invoke(["ingest", *dirs(workspace, out=str(out))]).exit_code == 0
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    train = subprocess.Popen(
        [sys.executable, "-m", "jazzgen.cli", "train", *map(str, dirs(workspace, out=str(out))),
         "--hidden", "8", "--batch", "16", "--epochs", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": pythonpath}, start_new_session=True,
    )
    group = train.pid  # a new session's leader leads its own process group
    try:
        output = b""
        deadline = time.monotonic() + 120
        while b"\nepoch " not in b"\n" + output:
            assert time.monotonic() < deadline, "no epoch line within 120 s"
            if select.select([train.stdout], [], [], 1.0)[0]:
                chunk = os.read(train.stdout.fileno(), 4096)
                assert chunk, "train ended before its first epoch"
                output += chunk
        train.kill()
        train.wait()
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(group, 0)  # sends nothing; only asks whether the group has members
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the killed train is still alive"
            time.sleep(0.05)
    finally:
        train.kill()
        train.wait()
        train.stdout.close()
