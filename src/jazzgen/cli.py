"""Command-line pipeline: ingest MIDI, train both models, generate, score.

Subcommands mirror the experiment stages. Every artifact under the output
directory is a pure function of the inputs and one global rng seed, so a
rerun with the same settings is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import click
import numpy as np

from .checks import SELF_CHECKS
from .files import atomic_open
from .markov import (
    build_transition_table,
    generate_markov,
    load_transition_table,
    save_transition_table,
)
from .metrics import MetricError, evaluate_events
from .midi_io import MidiDocument, MidiError, lcm_time_division, read_midi, write_midi
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
    CheckpointError,
    RnnConfig,
    check_setting_types,
    generate_rnn,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .tokenizer import (
    PITCH_CLASS_NAMES,
    TokenError,
    Vocabulary,
    build_vocabulary,
    detokenize,
    tokenize,
)

SEED_TOKEN_COUNT = 16
OUTPUT_TEMPO = 240
MODEL_NAMES = ("markov", "rnn")


class StaleArtifactError(click.ClickException):
    """An upstream artifact no longer matches its inputs: one line, exit 2."""

    exit_code = 2


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


# flag name -> config field, for flags that override the config file
_TOP_FLAGS = {
    "corpus": "corpus_dir",
    "seeds": "seeds_dir",
    "out": "out_dir",
    "order": "markov_order",
    "seed_rng": "global_seed",
    "markov_notes": "markov_notes",
    "rnn_steps": "rnn_steps",
}
_RNN_FLAGS = {
    "hidden": "hidden_units",
    "epochs": "epochs",
    "batch": "batch_size",
    "temperature": "temperature",
}


def resolve_config(config_path: str | None, flags: dict) -> ExperimentConfig:
    """Merge config file values with flag overrides into a validated config."""
    data: dict = {}
    if config_path:
        try:
            data = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as err:
            raise click.UsageError(f"config file {config_path} is not valid JSON: {err}")
        if not isinstance(data, dict):
            raise click.UsageError(f"config file {config_path} must hold a JSON object")
    rnn_data = data.pop("rnn", {})
    if not isinstance(rnn_data, dict):
        raise click.UsageError("config key 'rnn' must hold a JSON object")
    known_top = {f.name for f in fields(ExperimentConfig)} - {"rnn"}
    known_rnn = {f.name for f in fields(RnnConfig)}
    for key in data:
        if key not in known_top:
            raise click.UsageError(f"unknown config key {key!r}")
    for key in rnn_data:
        if key not in known_rnn:
            raise click.UsageError(f"unknown config key 'rnn.{key}'")
    for flag, name in _TOP_FLAGS.items():
        if flags.get(flag) is not None:
            data[name] = flags[flag]
    for flag, name in _RNN_FLAGS.items():
        if flags.get(flag) is not None:
            rnn_data[name] = flags[flag]
    for required in ("corpus_dir", "seeds_dir", "out_dir"):
        if required not in data:
            flag = {v: k for k, v in _TOP_FLAGS.items()}[required]
            raise click.UsageError(f"{required} is required; pass --{flag} or set it in the config file")
        if not isinstance(data[required], (str, os.PathLike)):
            raise click.UsageError(f"{required} must be a directory path, got {data[required]!r}")
        data[required] = Path(data[required])
    try:
        config = ExperimentConfig(rnn=RnnConfig(**rnn_data), **data)
    except (TypeError, ValueError) as err:
        raise click.UsageError(str(err))
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


@contextmanager
def output_lock(out_dir: Path):
    """One writer per output directory, enforced with an exclusive lock file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        handle = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise click.ClickException(
            f"{out_dir} is locked by another command; remove {lock} if that run is gone"
        ) from None
    os.close(handle)
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as handle:
        handle.write(text)


def write_json(path: Path, obj) -> None:
    write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def write_token_file(path: Path, tokens) -> None:
    write_text(path, "\n".join(tokens) + "\n")


def read_token_file(path: Path) -> list[str]:
    return path.read_text().split()


def _midi_paths(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir() if p.suffix.lower() in (".mid", ".midi"))


def _read_tokens_from_midi(path: Path) -> list[str]:
    doc = read_midi(path.read_bytes())
    return [token.text for token in tokenize(doc.events)]


def run_ingest(config: ExperimentConfig) -> None:
    layout = Layout(config.out_dir)
    for directory, label in ((config.corpus_dir, "corpus"), (config.seeds_dir, "seeds")):
        if not directory.is_dir():
            raise click.UsageError(f"{label} directory {directory} does not exist")
    sequences: dict[str, list[str]] = {}
    skipped = []
    for path in _midi_paths(config.corpus_dir):
        try:
            sequences[path.stem] = _read_tokens_from_midi(path)
        except (MidiError, TokenError) as err:
            skipped.append(path.name)
            click.echo(f"warning: skipping {path.name}: {err}", err=True)
    if not sequences:
        raise click.UsageError(f"no usable MIDI files in {config.corpus_dir}")
    seeds: dict[str, list[str]] = {}
    for path in _midi_paths(config.seeds_dir):
        try:
            tokens = _read_tokens_from_midi(path)
        except (MidiError, TokenError) as err:
            raise click.UsageError(f"seed file {path.name} is unreadable: {err}")
        if len(tokens) != SEED_TOKEN_COUNT:
            raise click.UsageError(
                f"seed file {path.name} tokenizes to {len(tokens)} tokens; "
                f"exactly {SEED_TOKEN_COUNT} required"
            )
        seeds[path.stem] = tokens
    if not seeds:
        raise click.UsageError(f"no seed MIDI files in {config.seeds_dir}")
    # the vocabulary covers the seeds too, so generation never sees unknowns
    vocab = build_vocabulary(*sequences.values(), *seeds.values())
    seen: set[str] = set()
    entries = []
    for stem in sorted(sequences):
        tokens = sequences[stem]
        new_types = set(tokens) - seen
        seen |= new_types
        entries.append({"file": stem, "tokens": len(tokens), "new_types": len(new_types)})
        write_token_file(layout.tokens_dir / f"{stem}.tokens", tokens)
    for stem in sorted(seeds):
        write_token_file(layout.seeds_dir / f"{stem}.tokens", seeds[stem])
    write_json(
        layout.manifest,
        {
            "corpus": entries,
            "seeds": sorted(seeds),
            "skipped": sorted(skipped),
            "vocab_size": len(vocab),
        },
    )
    write_json(layout.vocab_file, list(vocab.tokens))
    click.echo(
        f"ingested {len(entries)} corpus files and {len(seeds)} seeds; vocabulary size {len(vocab)}"
    )


def _read_ingested(path: Path, parse):
    """One ingest output, read and passed through parse; a missing or corrupt one exits 2."""
    try:
        return parse(path.read_text())
    except (OSError, ValueError, LookupError, TypeError) as err:
        reason = err.strerror if isinstance(err, OSError) else f"{type(err).__name__}: {err}"
        raise StaleArtifactError(f"cannot read {path} ({reason}); rerun ingest") from None


def _require_manifest(layout: Layout) -> list[str]:
    """The ingested corpus file stems, in manifest order."""
    if not layout.manifest.exists():
        raise click.UsageError(f"missing corpus manifest {layout.manifest}; run ingest first")
    return _read_ingested(layout.manifest, lambda text: [e["file"] for e in json.loads(text)["corpus"]])


def _load_vocab(layout: Layout) -> Vocabulary:
    return _read_ingested(layout.vocab_file, lambda text: Vocabulary(tuple(json.loads(text))))


def run_train(config: ExperimentConfig) -> None:
    layout = Layout(config.out_dir)
    sequences = [
        _read_ingested(layout.tokens_dir / f"{stem}.tokens", str.split) for stem in _require_manifest(layout)
    ]
    vocab = _load_vocab(layout)

    table = build_transition_table(sequences, config.markov_order)
    layout.markov_table.parent.mkdir(parents=True, exist_ok=True)
    save_transition_table(table, layout.markov_table)
    click.echo(f"markov: order {config.markov_order}, {len(table.counts)} states")

    log = []

    def on_epoch(epoch: int, mean_loss: float, improved: bool) -> None:
        log.append({"epoch": epoch, "mean_loss": mean_loss, "improved": improved})
        click.echo(f"epoch {epoch}: mean loss {mean_loss:.4f}" + (" *" if improved else ""))

    try:
        ckpt = train(config.rnn, sequences, vocab, derive_seed(config.global_seed, "rnn-train"), on_epoch)
    except (ArithmeticError, ValueError) as err:
        raise click.ClickException(f"rnn training failed: {err}")
    save_checkpoint(ckpt, layout.checkpoint)
    write_json(
        layout.training_log,
        {"epochs": log, "best_epoch": ckpt.epoch, "best_loss": ckpt.best_loss},
    )
    click.echo(f"rnn: best epoch {ckpt.epoch}, loss {ckpt.best_loss:.4f}")


def _load_seed_tokens(layout: Layout) -> dict[str, list[str]]:
    seeds = {p.stem: read_token_file(p) for p in sorted(layout.seeds_dir.glob("*.tokens"))}
    if not seeds:
        raise click.UsageError("no ingested seeds; run ingest first")
    return seeds


def _write_generation(layout: Layout, seed_id: str, model: str, tokens: list[str]) -> None:
    write_token_file(layout.generation(seed_id, model, "tokens"), tokens)
    events = detokenize(tokens)
    try:
        doc = MidiDocument(lcm_time_division(events), OUTPUT_TEMPO, events)
    except MidiError as err:
        raise click.ClickException(f"{seed_id} {model}: cannot render MIDI: {err}")
    with atomic_open(layout.generation(seed_id, model, "mid"), "wb") as handle:
        handle.write(write_midi(doc))


def run_generate(config: ExperimentConfig, models: tuple[str, ...], seed_ids: tuple[str, ...]) -> None:
    layout = Layout(config.out_dir)
    seeds = _load_seed_tokens(layout)
    if seed_ids:
        unknown = sorted(set(seed_ids) - set(seeds))
        if unknown:
            raise click.UsageError(
                f"unknown seed ids {', '.join(unknown)}; available: {', '.join(sorted(seeds))}"
            )
        seeds = {seed_id: seeds[seed_id] for seed_id in seed_ids}
    table = None
    ckpt = None
    if "markov" in models:
        if not layout.markov_table.exists():
            raise click.UsageError(f"missing {layout.markov_table}; run train first")
        table = load_transition_table(layout.markov_table)
    if "rnn" in models:
        if not layout.checkpoint.exists():
            raise click.UsageError(f"missing {layout.checkpoint}; run train first")
        try:
            ckpt = load_checkpoint(layout.checkpoint)
        except CheckpointError as err:
            raise StaleArtifactError(f"cannot load {layout.checkpoint} ({err}); rerun train") from None
    seed_ids = sorted(seeds)
    rnn_outputs = {}
    if ckpt is not None:
        for seed_id in seed_ids:
            unknown = [token for token in seeds[seed_id] if token not in ckpt.vocab]
            if unknown:
                raise StaleArtifactError(
                    f"seed {seed_id} has token {unknown[0]} that the checkpoint vocabulary "
                    f"lacks; rerun train"
                )
        rngs = [
            np.random.default_rng(derive_seed(config.global_seed, f"rnn-sample:{seed_id}"))
            for seed_id in seed_ids
        ]
        outputs = generate_rnn(
            ckpt, [seeds[seed_id] for seed_id in seed_ids], config.rnn_steps,
            temperature=config.rnn.temperature, rngs=rngs,
        )
        rnn_outputs = dict(zip(seed_ids, outputs))
    layout.generated_dir.mkdir(parents=True, exist_ok=True)
    for seed_id in seed_ids:
        if table is not None:
            tokens = generate_markov(table, seeds[seed_id], config.markov_notes)
            _write_generation(layout, seed_id, "markov", tokens)
            click.echo(f"{seed_id} markov: {len(tokens)} tokens")
        if seed_id in rnn_outputs:
            tokens = rnn_outputs[seed_id]
            _write_generation(layout, seed_id, "rnn", tokens)
            click.echo(f"{seed_id} rnn: {len(tokens)} tokens")


def run_evaluate(config: ExperimentConfig) -> None:
    layout = Layout(config.out_dir)
    seeds = _load_seed_tokens(layout)
    missing = [
        f"{seed_id}_{model}"
        for seed_id in sorted(seeds)
        for model in MODEL_NAMES
        if not layout.generation(seed_id, model, "tokens").exists()
    ]
    if missing:
        raise click.UsageError("missing generations: " + ", ".join(missing))
    rows = []
    gs_series: dict[str, dict[str, list[float]]] = {}
    histograms: dict[str, dict[str, list[float]]] = {}
    lengths: dict[str, dict[str, dict]] = {}
    for seed_id in sorted(seeds):
        reports = {}
        lengths[seed_id] = {}
        for model in MODEL_NAMES:
            tokens = read_token_file(layout.generation(seed_id, model, "tokens"))
            events = detokenize(tokens)
            try:
                reports[model] = evaluate_events(f"{seed_id}_{model}", events)
            except MetricError as err:
                raise click.ClickException(f"{seed_id}_{model}: {err}")
            lengths[seed_id][model] = {
                "tokens": len(tokens),
                # detokenize's events are contiguous from 0
                "quarters": float(events[-1].end) if events else 0.0,
            }
        rows.append(
            ComparisonRow(
                seed_id,
                reports["markov"].mean_gs,
                reports["markov"].entropy,
                reports["rnn"].mean_gs,
                reports["rnn"].entropy,
            )
        )
        gs_series[seed_id] = {m: list(reports[m].gs_series) for m in MODEL_NAMES}
        histograms[seed_id] = {m: list(reports[m].histogram) for m in MODEL_NAMES}
    write_text(layout.report_dir / "comparison.csv", write_comparison_csv(rows))
    write_json(layout.report_dir / "comparison.json", {"rows": rows_as_dicts(rows), "lengths": lengths})
    write_json(layout.report_dir / "gs_series.json", gs_series)
    write_json(layout.report_dir / "histograms.json", histograms)
    gs_frac, entropy_frac = win_fractions(rows)
    summary = summary_line(rows)
    write_json(
        layout.report_dir / "summary.json",
        {
            "gs_wins": [int(gs_frac * len(rows)), len(rows)],
            "entropy_wins": [int(entropy_frac * len(rows)), len(rows)],
            "summary": summary,
        },
    )
    for seed_id in sorted(seeds):
        write_text(
            layout.figures_dir / f"gs_{seed_id}.svg",
            line_chart_svg(f"groove similarity by bar pair: {seed_id}", gs_series[seed_id]),
        )
        write_text(
            layout.figures_dir / f"hist_{seed_id}.svg",
            bar_chart_svg(f"pitch class histogram: {seed_id}", histograms[seed_id], PITCH_CLASS_NAMES),
        )
    click.echo(summary)


def config_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                     help="JSON config; flags override its values."),
        click.option("--corpus", type=click.Path(file_okay=False), help="Corpus MIDI directory."),
        click.option("--seeds", type=click.Path(file_okay=False), help="Seed MIDI directory."),
        click.option("--out", type=click.Path(file_okay=False), help="Output directory."),
        click.option("--order", type=int, help="Markov order k."),
        click.option("--hidden", type=int, help="LSTM hidden units."),
        click.option("--epochs", type=int, help="Training epochs."),
        click.option("--batch", type=int, help="Training batch size."),
        click.option("--temperature", type=float, help="RNN sampling temperature."),
        click.option("--seed-rng", type=int, help="Global rng seed."),
        click.option("--markov-notes", type=int, help="Generated Markov note count."),
        click.option("--rnn-steps", type=int, help="Generated RNN step count."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
def main():
    """Train a Markov chain and an LSTM on monophonic MIDI and compare them."""


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
        try:
            rows = read_comparison_csv(Path(table_path).read_text())
        except ValueError as err:
            raise click.UsageError(f"bad table {table_path}: {err}")
        click.echo(summary_line(rows))
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
        checks.append(("checkpoint file loads", lambda: load_checkpoint(ckpt_path)))
    failures = 0
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
