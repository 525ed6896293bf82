"""Command-line pipeline: ingest MIDI, train both models, generate, score.

Subcommands mirror the experiment stages. Every artifact under the output
directory is a pure function of the inputs and one global rng seed, so a
rerun with the same settings is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import click
import numpy as np

from .checks import SELF_CHECKS
from .files import write_all
from .markov import (
    build_transition_table,
    encode_transition_table,
    generate_markov,
    load_transition_table,
)
from .metrics import MetricError, evaluate_line
from .midi_io import MidiError, TickLine, read_line, write_line
from .neural import one_blas_thread
from .report import (
    ComparisonRow,
    bar_chart_svg,
    line_chart_svg,
    read_comparison_csv,
    rows_as_dicts,
    summary_line,
    win_fractions,
    write_comparison_csv,
)
from .rnn import (
    HelperError,
    RnnConfig,
    ShortCorpusError,
    check_setting_types,
    encode_checkpoint,
    generate_rnn,
    load_checkpoint,
    train,
)
from .tokenizer import (
    PITCH_CLASS_NAMES,
    Vocabulary,
    build_vocabulary,
    tick_line,
    tokenize_line,
)

SEED_TOKEN_COUNT = 16
OUTPUT_TEMPO = 240
MODEL_NAMES = ("markov", "rnn")


class InputError(click.ClickException):
    """A bad setting, input file or upstream artifact: one line, exit 2."""

    exit_code = 2


# top directory under the output directory -> the stage that writes it
WRITERS = {"ingest": "ingest", "models": "train", "generated": "generate"}


# bench/child.py builds its config with cli.RnnSettings(epochs=...)
RnnSettings = RnnConfig


@dataclass
class ExperimentConfig:
    corpus_dir: Path
    seeds_dir: Path
    out_dir: Path
    markov_order: int = 3
    global_seed: int = 0
    markov_notes: int = 200
    rnn_steps: int = 250
    rnn: RnnConfig = field(default_factory=RnnConfig)

    def __post_init__(self):
        check_setting_types(self)
        if self.markov_order < 1:
            raise ValueError(f"markov_order must be >= 1, got {self.markov_order}")
        if self.markov_notes < 0 or self.rnn_steps < 0:
            raise ValueError("generation lengths must be >= 0")
        if self.rnn.window > SEED_TOKEN_COUNT:
            raise ValueError(
                f"rnn.window must be at most {SEED_TOKEN_COUNT} (the seed length), got {self.rnn.window}"
            )


@dataclass(frozen=True)
class Setting:
    """An override flag: click parameter name, config key ("rnn.<field>" for the network), type, help."""

    name: str
    key: str
    type: object
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


DIRECTORY = click.Path(file_okay=False)  # the type of the three required settings, which have no default

# every override flag, in --help order
SETTINGS = (
    Setting("corpus", "corpus_dir", DIRECTORY, "Corpus MIDI directory."),
    Setting("seeds", "seeds_dir", DIRECTORY, "Seed MIDI directory."),
    Setting("out", "out_dir", DIRECTORY, "Output directory."),
    Setting("order", "markov_order", int, "Markov order k."),
    Setting("hidden", "rnn.hidden_units", int, "LSTM hidden units."),
    Setting("epochs", "rnn.epochs", int, "Training epochs."),
    Setting("batch", "rnn.batch_size", int, "Training batch size."),
    Setting("temperature", "rnn.temperature", float, "RNN sampling temperature."),
    Setting("seed_rng", "global_seed", int, "Global rng seed."),
    Setting("markov_notes", "markov_notes", int, "Generated Markov note count."),
    Setting("rnn_steps", "rnn_steps", int, "Generated RNN step count."),
)


def resolve_config(config_path: str | None, flags: dict) -> ExperimentConfig:
    """Merge config file values with flag overrides into a validated config."""
    data: dict = {}
    if config_path:
        try:
            data = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as err:  # unreadable, not UTF-8, or not JSON
            raise InputError(f"cannot read config file {config_path}: {err}")
        if not isinstance(data, dict):
            raise InputError(f"config file {config_path} must hold a JSON object")
    rnn_data = data.pop("rnn", {})
    if not isinstance(rnn_data, dict):
        raise InputError("config key 'rnn' must hold a JSON object")
    known_top = {f.name for f in fields(ExperimentConfig)} - {"rnn"}
    known_rnn = {f.name for f in fields(RnnConfig)}
    for key in data:
        if key not in known_top:
            raise InputError(f"unknown config key {key!r}")
    for key in rnn_data:
        if key not in known_rnn:
            raise InputError(f"unknown config key 'rnn.{key}'")
    for setting in SETTINGS:
        section, _, key = setting.key.rpartition(".")
        if flags.get(setting.name) is not None:
            (rnn_data if section else data)[key] = flags[setting.name]
        if setting.type is DIRECTORY:
            if key not in data:
                raise InputError(f"{key} is required; pass {setting.flag} or set it in the config file")
            if not isinstance(data[key], (str, os.PathLike)):
                raise InputError(f"{key} must be a directory path, got {data[key]!r}")
            data[key] = Path(data[key])
    try:
        config = ExperimentConfig(rnn=RnnConfig(**rnn_data), **data)
    except (TypeError, ValueError) as err:
        raise InputError(str(err))
    return config


def derive_seed(global_seed: int, purpose: str) -> int:
    """Stable per-purpose rng seed fanned out from the one global seed."""
    digest = hashlib.sha256(f"{global_seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Layout:
    """All artifact paths under one output directory."""

    out: Path

    @property
    def manifest(self) -> Path:
        return self.out / "ingest" / "manifest.json"

    @property
    def vocab_file(self) -> Path:
        return self.out / "ingest" / "vocab.json"

    @property
    def tokens_dir(self) -> Path:
        return self.out / "ingest" / "tokens"

    @property
    def seeds_dir(self) -> Path:
        return self.out / "ingest" / "seeds"

    @property
    def markov_table(self) -> Path:
        return self.out / "models" / "markov.json"

    @property
    def checkpoint(self) -> Path:
        return self.out / "models" / "rnn.ckpt"

    @property
    def training_log(self) -> Path:
        return self.out / "models" / "training_log.json"

    @property
    def generated_dir(self) -> Path:
        return self.out / "generated"

    @property
    def report_dir(self) -> Path:
        return self.out / "report"

    @property
    def figures_dir(self) -> Path:
        return self.out / "report" / "figures"

    def generation(self, seed_id: str, model: str, extension: str) -> Path:
        return self.generated_dir / f"{seed_id}_{model}.{extension}"

    def load(self, path: Path, load):
        """load(path.read_bytes()) for an artifact under out, the one read of it;
        InputError naming the stage that writes it if that stage never ran
        ("run X first") or the read or load fails ("rerun X")."""
        top = path.relative_to(self.out).parts[0]
        stage = WRITERS[top]
        if not (self.out / top).is_dir():
            raise InputError(f"missing {path}; run {stage} first")
        try:
            return load(path.read_bytes())
        except (OSError, ValueError, LookupError, TypeError) as err:
            reason = getattr(err, "strerror", None) or f"{type(err).__name__}: {err}"
            raise InputError(f"cannot read {path} ({reason}); rerun {stage}") from None


@contextmanager
def warnings_as_lines():
    """Print each warning the filters in force let through as one `warning: <message>` line."""
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
        yield


def _lock_holder(lock: Path) -> str:
    """Who holds lock, read from the "<pid> <command>" line output_lock writes."""
    try:
        holder = re.fullmatch(r"([1-9][0-9]{0,8}) (.+)", lock.read_text().strip())
    except (OSError, ValueError):
        holder = None
    if holder is None:  # unreadable, or empty as older versions left it
        return "another command"
    try:
        if os.name == "posix":  # elsewhere signal 0 is not a no-op
            os.kill(int(holder[1]), 0)  # sends nothing; only asks whether the pid exists
    except ProcessLookupError:
        return f"process {holder[1]} ({holder[2]}), which is no longer running"
    except OSError:  # PermissionError: running under another user
        pass
    return f"process {holder[1]} ({holder[2]})"


@contextmanager
def output_lock(out_dir: Path):
    """One writer per output directory, enforced with an exclusive lock file
    that names the holder's pid and command. A lock is never taken over, even
    when its holder is gone; the error says so and the user removes it."""
    # outside the try below: a file at out_dir makes mkdir raise FileExistsError too
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise InputError(f"cannot create output directory {out_dir}: {err.strerror}") from None
    lock = out_dir / ".lock"
    try:
        handle = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise click.ClickException(
            f"{out_dir} is locked by {_lock_holder(lock)}; remove {lock} if that run is gone"
        ) from None
    except OSError as err:
        raise InputError(f"cannot create lock file {lock}: {err.strerror}") from None
    try:
        with os.fdopen(handle, "w") as stamp:
            stamp.write(f"{os.getpid()} {shlex.join(sys.argv)}\n")
        yield
    finally:
        lock.unlink(missing_ok=True)


def commit(files: dict[Path, bytes]) -> None:
    """A stage's one write: every output, all or none (files.write_all), in
    directories made as needed. Any OSError, a failed mkdir included, is one
    Error: line naming the file, exit 1, and removes the directories made
    here that it leaves empty, so the stage still reads as never run."""
    made: list[Path] = []
    try:
        for directory in dict.fromkeys(path.parent for path in files):
            for missing in reversed([d for d in (directory, *directory.parents) if not d.exists()]):
                missing.mkdir()
                made.append(missing)
        write_all(files)
    except OSError as err:
        for directory in reversed(made):  # deepest first
            with suppress(OSError):
                directory.rmdir()
        raise click.ClickException(f"cannot write {err.filename}: {err.strerror}")


def json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()


def token_bytes(tokens) -> bytes:
    return ("\n".join(tokens) + "\n").encode()


def read_tokens(
    data: bytes, vocab: Vocabulary | None = None, count: int | None = None, prefix: list[str] | None = None
) -> tuple[list[str], TickLine]:
    """A token file's tokens and their TickLine; every token canonical and,
    when given, in vocab, exactly count of them, and the first ones the prefix."""
    tokens = data.decode().split()
    line = tick_line(tokens)
    if count is not None and len(tokens) != count:
        raise ValueError(f"token count {len(tokens)}, expected {count}")
    if prefix is not None and tokens[: len(prefix)] != prefix:
        raise ValueError(f"does not begin with its {len(prefix)} seed tokens")
    if vocab is not None:
        for token in dict.fromkeys(tokens):
            vocab.encode(token)
    return tokens, line


def read_manifest(data: bytes) -> tuple[list[str], list[str]]:
    """The ingested corpus file stems, in manifest order, and the sorted seed ids."""
    manifest = json.loads(data.decode())
    corpus, seeds = [entry["file"] for entry in manifest["corpus"]], manifest["seeds"]
    if not isinstance(seeds, list) or not all(isinstance(name, str) for name in [*corpus, *seeds]):
        raise ValueError("seeds must be a list of strings and each corpus file a string")
    if not corpus or not seeds:
        raise ValueError("no corpus files or no seeds listed")
    return corpus, sorted(seeds)


def read_vocab(data: bytes) -> Vocabulary:
    """The ingested vocabulary, a JSON list of token texts."""
    texts = json.loads(data.decode())
    if not isinstance(texts, list):
        raise ValueError(f"a JSON {type(texts).__name__}, not a list of token texts")
    return Vocabulary(tuple(texts))


def read_seeds(layout: Layout, seed_ids) -> dict[str, list[str]]:
    """Each ingested seed's tokens, exactly SEED_TOKEN_COUNT of them."""
    read_seed = partial(read_tokens, count=SEED_TOKEN_COUNT)
    return {seed_id: layout.load(layout.seeds_dir / f"{seed_id}.tokens", read_seed)[0] for seed_id in seed_ids}


def _midi_paths(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir() if p.suffix.lower() in (".mid", ".midi"))


def run_ingest(config: ExperimentConfig) -> None:
    layout = Layout(config.out_dir)
    for directory, label in ((config.corpus_dir, "corpus"), (config.seeds_dir, "seeds")):
        if not directory.is_dir():
            raise InputError(f"{label} directory {directory} does not exist")
    sequences: dict[str, list[str]] = {}
    skipped = []
    for path in _midi_paths(config.corpus_dir):
        try:
            sequences[path.stem] = tokenize_line(read_line(path.read_bytes())[0])
        except (OSError, MidiError) as err:
            skipped.append(path.name)
            click.echo(f"warning: skipping {path.name}: {getattr(err, 'strerror', None) or err}", err=True)
    if not sequences:
        raise InputError(f"no usable MIDI files in {config.corpus_dir}")
    seeds: dict[str, list[str]] = {}
    for path in _midi_paths(config.seeds_dir):
        try:
            tokens = tokenize_line(read_line(path.read_bytes())[0])
        except (OSError, MidiError) as err:
            raise InputError(f"seed file {path.name} is unreadable: {getattr(err, 'strerror', None) or err}")
        if len(tokens) != SEED_TOKEN_COUNT:
            raise InputError(
                f"seed file {path.name} tokenizes to {len(tokens)} tokens; "
                f"exactly {SEED_TOKEN_COUNT} required"
            )
        seeds[path.stem] = tokens
    if not seeds:
        raise InputError(f"no seed MIDI files in {config.seeds_dir}")
    # the vocabulary covers the seeds too, so generation never sees unknowns
    vocab = build_vocabulary(*sequences.values(), *seeds.values())
    seen: set[str] = set()
    entries = []
    files = {}
    for stem in sorted(sequences):
        tokens = sequences[stem]
        new_types = set(tokens) - seen
        seen |= new_types
        entries.append({"file": stem, "tokens": len(tokens), "new_types": len(new_types)})
        files[layout.tokens_dir / f"{stem}.tokens"] = token_bytes(tokens)
    for stem in sorted(seeds):
        files[layout.seeds_dir / f"{stem}.tokens"] = token_bytes(seeds[stem])
    files[layout.manifest] = json_bytes({
        "corpus": entries,
        "seeds": sorted(seeds),
        "skipped": sorted(skipped),
        "vocab_size": len(vocab),
    })
    files[layout.vocab_file] = json_bytes(list(vocab.tokens))
    commit(files)
    click.echo(
        f"ingested {len(entries)} corpus files and {len(seeds)} seeds; vocabulary size {len(vocab)}"
    )


def run_train(config: ExperimentConfig) -> None:
    layout = Layout(config.out_dir)
    corpus, _ = layout.load(layout.manifest, read_manifest)
    vocab = layout.load(layout.vocab_file, read_vocab)
    sequences = [
        layout.load(layout.tokens_dir / f"{stem}.tokens", partial(read_tokens, vocab=vocab))[0] for stem in corpus
    ]

    table = build_transition_table(sequences, config.markov_order)
    click.echo(f"markov: order {config.markov_order}, {len(table.counts)} states")

    log = []

    def on_epoch(epoch: int, mean_loss: float, improved: bool) -> None:
        log.append({"epoch": epoch, "mean_loss": mean_loss, "improved": improved})
        click.echo(f"epoch {epoch}: mean loss {mean_loss:.4f}" + (" *" if improved else ""))

    try:
        ckpt = train(config.rnn, sequences, vocab, derive_seed(config.global_seed, "rnn-train"), on_epoch)
    except ShortCorpusError as err:
        raise InputError(f"rnn training failed: {err}")
    except (ArithmeticError, ValueError, HelperError) as err:
        raise click.ClickException(f"rnn training failed: {err}")
    # both models are written together, so a failed training or write leaves
    # models/ as it was, never one new model beside an old one
    commit({
        layout.markov_table: encode_transition_table(table),
        layout.checkpoint: encode_checkpoint(ckpt),
        layout.training_log: json_bytes({"epochs": log, "best_epoch": ckpt.epoch, "best_loss": ckpt.best_loss}),
    })
    click.echo(f"rnn: best epoch {ckpt.epoch}, loss {ckpt.best_loss:.4f}")


def _render(seed_id: str, model: str, tokens: list[str]) -> bytes:
    try:
        return write_line(tick_line(tokens), OUTPUT_TEMPO)
    except MidiError as err:
        raise click.ClickException(f"{seed_id} {model}: cannot render MIDI: {err}")


def run_generate(config: ExperimentConfig, models: tuple[str, ...], seed_ids: tuple[str, ...]) -> None:
    layout = Layout(config.out_dir)
    _, ingested = layout.load(layout.manifest, read_manifest)
    unknown = sorted(set(seed_ids) - set(ingested))
    if unknown:
        raise InputError(f"unknown seed ids {', '.join(unknown)}; available: {', '.join(ingested)}")
    seed_ids = sorted(set(seed_ids)) if seed_ids else ingested
    seeds = read_seeds(layout, seed_ids)
    # passed by their names in this module, where bench/spans.py wraps them
    table = layout.load(layout.markov_table, load_transition_table) if "markov" in models else None
    ckpt = layout.load(layout.checkpoint, load_checkpoint) if "rnn" in models else None
    rnn_outputs = {}
    if ckpt is not None:
        if ckpt.config.window > SEED_TOKEN_COUNT:
            raise InputError(
                f"{layout.checkpoint} has window {ckpt.config.window}, longer than the "
                f"{SEED_TOKEN_COUNT}-token seeds; rerun train"
            )
        for seed_id in seed_ids:
            unknown = [token for token in seeds[seed_id] if token not in ckpt.vocab]
            if unknown:
                raise InputError(
                    f"seed {seed_id} has token {unknown[0]} that the checkpoint vocabulary "
                    f"lacks; rerun train"
                )
        rngs = [
            np.random.default_rng(derive_seed(config.global_seed, f"rnn-sample:{seed_id}"))
            for seed_id in seed_ids
        ]
        try:
            outputs = generate_rnn(
                ckpt, [seeds[seed_id] for seed_id in seed_ids], config.rnn_steps,
                temperature=config.rnn.temperature, rngs=rngs,
            )
        except ArithmeticError as err:  # finite weights that overflow while sampling
            raise InputError(f"cannot sample {layout.checkpoint} ({err}); rerun train")
        rnn_outputs = dict(zip(seed_ids, outputs))
    continuations = []
    for seed_id in seed_ids:
        if table is not None:
            continuations.append((seed_id, "markov", generate_markov(table, seeds[seed_id], config.markov_notes)))
        if seed_id in rnn_outputs:
            continuations.append((seed_id, "rnn", rnn_outputs[seed_id]))
    # every continuation renders before any file is written, and the files are
    # written all or none, so a render or write error leaves generated/ as it was
    files = {}
    for seed_id, model, tokens in continuations:
        files[layout.generation(seed_id, model, "tokens")] = token_bytes(tokens)
        files[layout.generation(seed_id, model, "mid")] = _render(seed_id, model, tokens)
    commit(files)
    for seed_id, model, tokens in continuations:
        click.echo(f"{seed_id} {model}: {len(tokens)} tokens")


def run_evaluate(config: ExperimentConfig) -> None:
    layout = Layout(config.out_dir)
    _, seed_ids = layout.load(layout.manifest, read_manifest)
    paths = {(s, m): layout.generation(s, m, "tokens") for s in seed_ids for m in MODEL_NAMES}
    missing = [str(path) for path in paths.values() if not path.exists()]
    if missing:
        advice = "rerun generate" if layout.generated_dir.is_dir() else "run generate first"
        raise InputError(f"missing generations: {', '.join(missing)}; {advice}")
    # a generation begins with its seed verbatim, so a cut or foreign file is not scored as that seed's
    seeds = read_seeds(layout, seed_ids)
    lines = {
        (seed_id, model): layout.load(path, partial(read_tokens, prefix=seeds[seed_id]))[1]
        for (seed_id, model), path in paths.items()
    }
    rows = []
    gs_series: dict[str, dict[str, list[float]]] = {}
    histograms: dict[str, dict[str, list[float]]] = {}
    lengths: dict[str, dict[str, dict]] = {}
    for seed_id in seed_ids:
        reports = {}
        lengths[seed_id] = {}
        for model in MODEL_NAMES:
            line = lines[seed_id, model]
            try:
                reports[model] = evaluate_line(line)
            except MetricError as err:  # a generation under two bars
                raise InputError(f"{seed_id}_{model}: {err}")
            lengths[seed_id][model] = {
                "tokens": len(line.ticks),
                "quarters": sum(line.ticks) / line.division,
            }
        # ComparisonRow's scores are each model's GS then entropy, in MODEL_NAMES order
        scores = (value for m in MODEL_NAMES for value in (reports[m].mean_gs, reports[m].entropy))
        rows.append(ComparisonRow(seed_id, *scores))
        gs_series[seed_id] = {m: list(reports[m].gs_series) for m in MODEL_NAMES}
        histograms[seed_id] = {m: list(reports[m].histogram) for m in MODEL_NAMES}
    gs_frac, entropy_frac = win_fractions(rows)
    summary = summary_line(rows)
    files = {
        layout.report_dir / "comparison.csv": write_comparison_csv(rows).encode(),
        layout.report_dir / "comparison.json": json_bytes({"rows": rows_as_dicts(rows), "lengths": lengths}),
        layout.report_dir / "gs_series.json": json_bytes(gs_series),
        layout.report_dir / "histograms.json": json_bytes(histograms),
        layout.report_dir / "summary.json": json_bytes({
            "gs_wins": [int(gs_frac * len(rows)), len(rows)],
            "entropy_wins": [int(entropy_frac * len(rows)), len(rows)],
            "summary": summary,
        }),
    }
    for seed_id in seed_ids:
        files[layout.figures_dir / f"gs_{seed_id}.svg"] = line_chart_svg(
            f"groove similarity by bar pair: {seed_id}", gs_series[seed_id]
        ).encode()
        files[layout.figures_dir / f"hist_{seed_id}.svg"] = bar_chart_svg(
            f"pitch class histogram: {seed_id}", histograms[seed_id], PITCH_CLASS_NAMES
        ).encode()
    commit(files)
    click.echo(summary)


def config_options(fn):
    for setting in reversed(SETTINGS):
        fn = click.option(setting.flag, setting.name, type=setting.type, help=setting.help)(fn)
    return click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                        help="JSON config; flags override its values.")(fn)


@click.group()
@click.pass_context
def main(ctx):
    """Train a Markov chain and an LSTM on monophonic MIDI and compare them."""
    ctx.with_resource(warnings_as_lines())


@main.command()
@config_options
def ingest(config_path, **flags):
    """Tokenize the corpus and seeds into the output directory."""
    config = resolve_config(config_path, flags)
    with output_lock(config.out_dir):
        run_ingest(config)


@main.command(name="train")
@config_options
def train_cmd(config_path, **flags):
    """Build the Markov table and train the network."""
    config = resolve_config(config_path, flags)
    with output_lock(config.out_dir):
        run_train(config)


@main.command()
@config_options
@click.option("--model", type=click.Choice(("markov", "rnn", "both")), default="both",
              help="Which model(s) to generate with.")
@click.option("--seed-id", "seed_ids", multiple=True,
              help="Seed id(s) to generate for; default all ingested seeds.")
def generate(config_path, model, seed_ids, **flags):
    """Generate seed-conditioned continuations as MIDI plus token lists."""
    config = resolve_config(config_path, flags)
    models = MODEL_NAMES if model == "both" else (model,)
    with output_lock(config.out_dir):
        run_generate(config, models, seed_ids)


@main.command()
@config_options
@click.option("--table", "table_path", type=click.Path(exists=True, dir_okay=False),
              help="Score an existing comparison CSV instead of the pipeline outputs.")
def evaluate(config_path, table_path, **flags):
    """Score every generation and emit the comparison table and figures."""
    if table_path is not None:
        try:  # summary_line rejects a table with no rows
            click.echo(summary_line(read_comparison_csv(Path(table_path).read_text())))
        except ValueError as err:
            raise InputError(f"bad table {table_path}: {err}")
        return
    config = resolve_config(config_path, flags)
    with output_lock(config.out_dir):
        run_evaluate(config)


@main.command()
@click.option("--ckpt", "ckpt_path", type=click.Path(exists=True, dir_okay=False),
              help="Also validate this checkpoint file.")
def selfcheck(ckpt_path):
    """Run the built-in invariant sweep; nonzero exit on any failure."""
    checks = list(SELF_CHECKS)
    if ckpt_path is not None:
        checks.append(("checkpoint file loads", lambda: load_checkpoint(Path(ckpt_path).read_bytes())))
    failures = 0
    one_blas_thread()
    for name, check in checks:
        try:
            check()
        except Exception as err:  # noqa: BLE001 - every failure must be reported, not raised
            failures += 1
            click.echo(f"FAIL: {name}: {err}")
        else:
            click.echo(f"PASS: {name}")
    if failures:
        raise click.ClickException(f"{failures} of {len(checks)} checks failed")
    click.echo(f"all {len(checks)} checks passed")


if __name__ == "__main__":
    main()
