"""Run the whole experiment in one go: ingest, train, generate, evaluate.

Usage: python3 scripts/run_pipeline.py --work runs/demo --seed-rng 0
Synthesizes a corpus under the work directory when none is there yet, then
drives the same four stages the CLI exposes, with the CLI's defaults and
validation.  Everything downstream of the seed is deterministic, so rerunning
with the same arguments reproduces every output byte for byte.
"""

import argparse
import sys
from pathlib import Path

import click

from jazzgen.cli import (
    MODEL_NAMES,
    SETTINGS,
    output_lock,
    resolve_config,
    run_evaluate,
    run_generate,
    run_ingest,
    run_train,
    warnings_as_lines,
)
from jazzgen.synthetic import write_corpus, write_seeds


def run(args: argparse.Namespace) -> None:
    # the remaining argparse destinations are the CLI's parameter names
    dirs = {"corpus": args.work / "corpus", "seeds": args.work / "seeds", "out": args.work / "out"}
    config = resolve_config(None, {**vars(args), **dirs})
    if not config.corpus_dir.is_dir():
        write_corpus(config.corpus_dir, seed=config.global_seed)
        print(f"synthesized corpus in {config.corpus_dir}")
    if not config.seeds_dir.is_dir():
        write_seeds(config.seeds_dir, seed=config.global_seed)
        print(f"synthesized seeds in {config.seeds_dir}")
    with output_lock(config.out_dir):
        run_ingest(config)
        run_train(config)
        run_generate(config, MODEL_NAMES, ())
        run_evaluate(config)
    print(f"done; report in {config.out_dir / 'report'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, default=Path("runs/pipeline"), help="work directory")
    for setting in SETTINGS:
        if setting.name in ("seed_rng", "order", "hidden", "epochs"):
            parser.add_argument(setting.flag, type=setting.type, help=setting.help)
    try:
        with warnings_as_lines():
            run(parser.parse_args())
    except click.ClickException as err:
        err.show()
        sys.exit(err.exit_code)


if __name__ == "__main__":
    main()
