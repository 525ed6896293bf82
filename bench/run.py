"""End-to-end benchmark of the jazzgen pipeline.

    python3 bench/run.py --workload desk --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # every workload, in turn
    python3 bench/run.py --write-spec              # rewrite BENCHMARK.json

Each repetition runs in a fresh child process (bench/child.py) with one
BLAS thread: one client, stages called one after another (a closed loop).
Repetitions continue until --seconds is spent, at least MIN_REPS of them;
the reported figures are medians over repetitions. After every repetition
this process checks the outputs left under the child's --out tree and
digests it; all repetitions of one workload at one seed must agree byte for
byte, the traced ones included.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the runs alternate untraced and traced repetitions and the line
carries the per-layer metrics from the traced ones. The full record, with
the environment and the sample count behind every median, is written to
bench/results/. The exit status is 0 when every operation succeeded, 1 when
some failed, and 2 without a result line when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS, workload_spec
from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 170
MIN_REPS = 2
SEED_TOKENS = 16
RNN_WINDOW = 16
DEFAULT_SEED = 0

WHY = {
    "desk": "README quick start on the synthetic corpus: B=64 training kernels dominate, B=1 sampling follows",
    "sample": "16 seeds with long continuations after set-up training: the forward-only B=1 sampling path and evaluate",
    "chromatic": "benchmark-written chromatic corpus with about 5x the desk vocabulary: V-sized tensors, softmax and Markov states",
}

# name, unit, better, bound (share of the parent's median it may worsen). Timings
# on a shared two-core VM moved by up to a fifth between runs, hence 0.25.
# passed_frac is 1 - failed_frac: a clean run reads 1, where failed_frac would
# read 0 and no relative bound could judge it; failed_frac is printed alongside.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("train_windows_per_s", "1/s", "higher", 0.25),
    ("generate_tokens_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("final_loss", "nats", "lower", 0.05),
    ("passed_frac", "ratio", "higher", 0.01),
)
TRACE_OVERHEAD = {"name": "trace_overhead_frac", "unit": "ratio", "better": "lower"}
RUN_SECONDS = 35

# sha256 of each generated/<seed>_markov.tokens per workload, at DEFAULT_SEED and
# full size. Markov generation is exact pure Python: no performance change may move it.
MARKOV_PINS: dict[str, dict[str, str]] = json.loads((BENCH / "markov_pins.json").read_text())


def spec_document() -> dict:
    per_layer = [{key: m[key] for key in ("name", "unit", "better")} for m in LAYER_METRICS]
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": per_layer + [TRACE_OVERHEAD],
    }


def tree_digest(*roots: Path) -> str:
    """sha256 over every file's relative path and content, in sorted order."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(f"{root.name}/{path.relative_to(root).as_posix()}\0".encode())
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def read_tokens(path: Path) -> list[str]:
    return path.read_text().split()


def check_outputs(out: Path, spec: dict, workload: str, seed: int, smoke: bool) -> list[tuple[str, bool]]:
    """(check name, passed) for every output check on one repetition's --out tree."""
    checks = []
    seed_files = sorted((out / "ingest" / "seeds").glob("*.tokens"))
    checks.append(("seeds ingested", len(seed_files) == spec["seeds"]))
    lengths = {"markov": spec["markov_notes"], "rnn": spec["rnn_steps"]}
    for seed_file in seed_files:
        seed_tokens = read_tokens(seed_file)
        for model, n in lengths.items():
            path = out / "generated" / f"{seed_file.stem}_{model}.tokens"
            ok = path.is_file()
            if ok:
                tokens = read_tokens(path)
                ok = tokens[:SEED_TOKENS] == seed_tokens[:SEED_TOKENS] and len(tokens) == SEED_TOKENS + n
            checks.append((f"{path.name} continues its seed", ok))
    csv = out / "report" / "comparison.csv"
    rows = len(csv.read_text().splitlines()) - 1 if csv.is_file() else -1
    checks.append(("comparison.csv has one row per seed", rows == len(seed_files) > 0))
    checks.append(("final_loss is finite", math.isfinite(final_loss(out))))
    pins = MARKOV_PINS.get(workload, {}) if seed == DEFAULT_SEED and not smoke else {}
    for seed_id, expected in sorted(pins.items()):
        path = out / "generated" / f"{seed_id}_markov.tokens"
        actual = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
        checks.append((f"{path.name} matches its pinned sha256", actual == expected))
    return checks


def final_loss(out: Path) -> float:
    try:
        return float(json.loads((out / "models" / "training_log.json").read_text())["best_loss"])
    except (OSError, ValueError, KeyError):
        return math.nan


def continuation_tokens(out: Path) -> int:
    return sum(len(read_tokens(p)) - SEED_TOKENS for p in (out / "generated").glob("*.tokens"))


def training_windows(out: Path) -> int:
    """Stride-1 windows of the default RNN window length over the ingested corpus."""
    return sum(max(0, len(read_tokens(p)) - RNN_WINDOW) for p in (out / "ingest" / "tokens").glob("*.tokens"))


class NoResult(RuntimeError):
    """A repetition ended without a result, e.g. jazzgen is not importable from the checkout."""


def run_child(workload: str, seed: int, trace: int, work: Path, smoke: bool) -> dict:
    """One repetition in a fresh process; returns its result plus derived figures.

    Throughputs divide by the wall time of the stage itself, including a
    `train` that ran in set-up.
    """
    work.mkdir(parents=True)
    result_file = work / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--work", str(work), "--result", str(result_file)]
    if smoke:
        cmd.append("--smoke")
    with open(work / "child.log", "w") as log:
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            status = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                    timeout=CHILD_TIMEOUT_S, check=False).returncode
        except subprocess.TimeoutExpired:
            status = f"killed after {CHILD_TIMEOUT_S} s"
    if status != 0 or not result_file.is_file():
        tail = (work / "child.log").read_text()[-2000:]
        raise NoResult(f"child exited {status} without a result:\n{tail}")
    result = json.loads(result_file.read_text())
    out = work / "out"
    result["inputs_digest"] = tree_digest(work / "corpus", work / "seeds")
    result["out_digest"] = tree_digest(out)
    result["checks"] = check_outputs(out, workload_spec(workload, smoke), workload, seed, smoke)
    result["final_loss"] = final_loss(out)
    epochs = result["spec"]["epochs"]
    train_s = result["stage_s"].get("train")
    generate_s = result["stage_s"].get("generate")
    result["train_windows_per_s"] = training_windows(out) * epochs / train_s if train_s else math.nan
    result["generate_tokens_per_s"] = continuation_tokens(out) / generate_s if generate_s else math.nan
    return result


def finite_or_zero(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool, scratch: Path) -> dict:
    """All repetitions of one workload; returns metrics, operation counts and the record."""
    deadline = time.monotonic() + seconds
    kinds = ("untraced", "traced") if trace else ("untraced",)
    reps: list[tuple[str, dict]] = []
    rounds: list[float] = []
    # a round is one repetition of each kind; start another only if a typical one still fits
    while len(reps) < MIN_REPS or time.monotonic() + statistics.median(rounds) <= deadline:
        start = time.monotonic()
        for kind in kinds:
            work = scratch / f"{workload}-{len(reps)}"
            reps.append((kind, run_child(workload, seed, int(kind == "traced"), work, smoke)))
            shutil.rmtree(work)
        rounds.append(time.monotonic() - start)
    untraced = [rep for kind, rep in reps if kind == "untraced"]
    traced = [rep for kind, rep in reps if kind == "traced"]

    attempted = failed = 0
    failures: list[str] = []

    def count(name: str, ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(name)

    reference = untraced[0]
    for i, (kind, rep) in enumerate(reps):
        label = f"{kind} rep {i}"
        for stage in rep["stages"]:
            count(f"{label}: stage {stage} ({rep['errors'].get(stage, 'ok')})", stage not in rep["errors"])
        for name, ok in rep["checks"]:
            count(f"{label}: {name}", ok)
        if i:
            same = (rep["out_digest"], rep["inputs_digest"]) == (reference["out_digest"], reference["inputs_digest"])
            count(f"{label}: --out and input digests equal the first untraced rep's", same)

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "spec": reference["spec"],
        "inputs_digest": reference["inputs_digest"],
        "out_digest": reference["out_digest"],
        "env": dict(reference["env"], nproc=len(os.sched_getaffinity(0)), cpu=cpu_model()),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
    }
    if trace:
        layers = {spec["name"]: summarize([rep["layers"][spec["name"]] for rep in traced]) for spec in LAYER_METRICS}
        overhead = (statistics.median(r["pipeline_s"] for r in traced)
                    / statistics.median(r["pipeline_s"] for r in untraced) - 1)
        layers[TRACE_OVERHEAD["name"]] = {"median": overhead, "n": min(len(traced), len(untraced))}
        units = {spec["name"]: spec["unit"] for spec in [*LAYER_METRICS, TRACE_OVERHEAD]}
        record.update(summary=layers, found=traced[0]["found"], absent=traced[0]["absent"],
                      absent_metrics=traced[0]["absent_metrics"])
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        summary = {name: summarize([rep[name] for rep in untraced])
                   for name in units if name != "passed_frac"}
        summary["passed_frac"] = {"median": 1 - failed / attempted, "n": attempted}
        record["summary"] = summary
    # a figure that could not be computed (a failed stage) reads 0, keeping the line valid JSON;
    # the failure itself is already counted
    record["metrics"] = {name: {"value": finite_or_zero(record["summary"][name]["median"]), "unit": unit}
                         for name, unit in units.items()}
    return record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def print_record(record: dict) -> None:
    print(f"== {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} operations, {record['failed']} failed "
          f"(failed_frac {record['failed_frac']:.4f})")
    for name, metric in record["metrics"].items():
        stats = record["summary"][name]
        spread = f", min {stats['min']:.6g}, max {stats['max']:.6g}" if "min" in stats else ""
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']} (median of {stats['n']}{spread})")
    if record["trace"]:
        print(f"  wrapped: {len(record['found'])} found, absent: {', '.join(record['absent']) or 'none'}; "
              f"metrics read as 0 for lack of them: {', '.join(record['absent_metrics']) or 'none'}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    env = record["env"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']['name']} "
          f"{env['blas']['version']} with {env['blas']['threads']} thread(s), nproc {env['nproc']}, "
          f"cpu {env['cpu']}; inputs sha256 {record['inputs_digest'][:16]}, --out sha256 {record['out_digest'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark itself")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec_document(), indent=2) + "\n")
        return 0

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = BENCH / ".work" / str(os.getpid())
    records = []
    try:
        for workload in workloads:
            records.append(run_workload(workload, args.seed, args.seconds, args.trace, args.smoke, scratch))
    except NoResult as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    for record in records:
        print_record(record)
        name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}{'-smoke' if args.smoke else ''}.json"
        (results / name).write_text(json.dumps(record, indent=1) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
