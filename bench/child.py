"""One repetition of one workload, in a fresh process.

    python3 bench/child.py --workload desk --seed 0 --trace 0 \
        --work DIR --result FILE --spawned-at T [--smoke]

Writes the workload's MIDI inputs under DIR from the seed, runs the set-up
stages, then the timed stages through the public `jazzgen.cli.run_*`
functions, one after the other. The stage outputs stay under DIR/out for
the parent to check; timings, peak memory and (with --trace 1) per-layer
metrics go to FILE as JSON. `jazzgen` is imported from the checkout's
`src/`, never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from spans import SKIPPED_BATCH_WARNING, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
EXIT_NO_PROGRAM = 3

# Sizes are cut from the README defaults (30 epochs, 250 RNN and 200 Markov
# tokens) but keep each workload's shape, which stages dominate, while letting
# a repetition finish in a few seconds on two cores, so a run holds several.
WORKLOADS = {
    # README quick start: B=64 training dominates, then B=1 sampling.
    "desk": {"corpus": "synthetic", "seeds": 8, "epochs": 3, "rnn_steps": 30,
             "markov_notes": 200, "setup": (), "timed": ("ingest", "train", "generate", "evaluate")},
    # long continuations from 16 seeds; training happens in set-up only.
    "sample": {"corpus": "synthetic", "seeds": 16, "epochs": 2, "rnn_steps": 50,
               "markov_notes": 500, "setup": ("ingest", "train"), "timed": ("generate", "evaluate")},
    # chromatic walks: about five times the desk vocabulary.
    "chromatic": {"corpus": "chromatic", "seeds": 8, "epochs": 2, "rnn_steps": 60,
                  "markov_notes": 200, "setup": (), "timed": ("ingest", "train", "generate", "evaluate")},
}
SMOKE_SIZES = {"seeds": 2, "epochs": 1, "rnn_steps": 4, "markov_notes": 6}

CHROMATIC_FILES = 20
CHROMATIC_EVENTS = 100
CHROMATIC_LOW, CHROMATIC_HIGH = 36, 96
CHROMATIC_DURATIONS = tuple(Fraction(d) for d in (
    "1/6", "1/4", "1/3", "3/8", "1/2", "2/3", "3/4", "1", "4/3", "3/2", "2", "3"))
CHROMATIC_STEPS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
CHROMATIC_REST_PROBABILITY = 0.1
SEED_NOTES = 16


def workload_spec(name: str, smoke: bool) -> dict:
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE_SIZES)
    return spec


def chromatic_walk(rng: random.Random, n_events: int, rests: bool) -> list:
    from jazzgen.midi_io import NoteEvent

    pitch = rng.randint(CHROMATIC_LOW, CHROMATIC_HIGH)
    events = []
    onset = Fraction(0)
    was_rest = False
    for _ in range(n_events):
        duration = rng.choice(CHROMATIC_DURATIONS)
        # adjacent rests would merge on the MIDI round trip
        if rests and not was_rest and rng.random() < CHROMATIC_REST_PROBABILITY:
            events.append(NoteEvent.rest(duration, onset))
            was_rest = True
        else:
            events.append(NoteEvent(pitch, duration, onset))
            was_rest = False
            step = rng.choice(CHROMATIC_STEPS)
            if not CHROMATIC_LOW <= pitch + step <= CHROMATIC_HIGH:
                step = -step
            pitch += step
        onset += duration
    return events


def write_chromatic(directory: Path, seed: int, n_files: int, n_events: int, rests: bool, name: str) -> None:
    """Write n_files chromatic walks named by `name` (a format string over the 1-based index)."""
    from jazzgen import midi_io

    directory.mkdir(parents=True, exist_ok=True)
    for i in range(1, n_files + 1):
        events = chromatic_walk(random.Random(f"{seed}:chromatic:{name}:{i}"), n_events, rests)
        doc = midi_io.MidiDocument(midi_io.lcm_time_division(events), 240, tuple(events))
        (directory / name.format(i)).write_bytes(midi_io.write_midi(doc))


def write_inputs(spec: dict, seed: int, corpus: Path, seeds: Path) -> None:
    if spec["corpus"] == "synthetic":
        from jazzgen import synthetic

        synthetic.write_corpus(corpus, seed=seed)
        synthetic.write_seeds(seeds, seed=seed, n_files=spec["seeds"])
    else:
        write_chromatic(corpus, seed, CHROMATIC_FILES, CHROMATIC_EVENTS, True, "corpus_{:02d}.mid")
        write_chromatic(seeds, seed, spec["seeds"], SEED_NOTES, False, "seed_{}.mid")


def blas_info() -> dict:
    """BLAS name and version from numpy's build, live thread count from the library."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import jazzgen.cli as cli
    except ImportError as err:
        print(f"cannot import jazzgen from {src}: {err}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"jazzgen resolved to {cli.__file__}, outside {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    spec = workload_spec(args.workload, args.smoke)
    corpus, seeds, out = args.work / "corpus", args.work / "seeds", args.work / "out"
    write_inputs(spec, args.seed, corpus, seeds)
    config = cli.ExperimentConfig(
        corpus_dir=corpus,
        seeds_dir=seeds,
        out_dir=out,
        global_seed=args.seed,
        markov_notes=spec["markov_notes"],
        rnn_steps=spec["rnn_steps"],
        rnn=cli.RnnSettings(epochs=spec["epochs"]),
    )
    stages = {
        "ingest": lambda: cli.run_ingest(config),
        "train": lambda: cli.run_train(config),
        "generate": lambda: cli.run_generate(config, cli.MODEL_NAMES, ()),
        "evaluate": lambda: cli.run_evaluate(config),
    }
    stage_s: dict[str, float] = {}
    errors: dict[str, str] = {}

    def run_stage(name: str) -> None:
        start = time.perf_counter()
        try:
            stages[name]()
        except Exception as err:  # noqa: BLE001 - a failed stage is counted, later stages still run
            errors[name] = f"{type(err).__name__}: {err}"
        stage_s[name] = time.perf_counter() - start

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name in spec["setup"]:
            run_stage(name)
        setup_s = time.monotonic() - args.spawned_at
        first = time.perf_counter()
        for name in spec["timed"]:
            run_stage(name)
        pipeline_s = time.perf_counter() - first
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)

    result = {
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "stage_s": stage_s,
        "errors": errors,
        "stages": list(spec["setup"]) + list(spec["timed"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spec": spec,
    }
    if tracer is not None:
        tracer.uninstall()
        skipped = sum(SKIPPED_BATCH_WARNING in str(w.message) for w in caught)
        result["layers"], result["absent_metrics"] = layer_metrics(tracer, skipped)
        result["found"], result["absent"] = tracer.found, tracer.absent
    import numpy as np

    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
