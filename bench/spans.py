"""Spans around the program's public functions, recorded from outside.

A traced run replaces each function in TARGETS where it is looked up (the
module attribute or class attribute the program resolves at call time) with
a wrapper that records one span per call: name, start, end, parent and the
caller (`train` or `generate`) whose subtree it ran in. Spans stay in memory
until the run ends; `layer_metrics` then reduces them to the per-layer
metrics named in LAYER_METRICS.

A name that no longer exists (a later refactor may remove `Network.one_hot`,
for instance) is listed as absent and its metrics read 0 instead of failing
the run; so are work metrics whose arguments no longer have the expected
shape.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _lstm_flop(args, result):
    xs, u = args[0], args[2]
    batch, length, inputs = xs.shape
    hidden = u.shape[1]
    return 2 * batch * length * 4 * hidden * (inputs + hidden)


def _result_nbytes(args, result):
    return result.nbytes


def _first_arg_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def _markov_states(args, result):
    return len(result.counts)


def _markov_tokens(args, result):
    return len(result) - len(args[1])


# (module, attribute path, span name, work measured from (args, result))
TARGETS = (
    ("jazzgen.cli", "run_ingest", "cli.ingest", None),
    ("jazzgen.cli", "run_train", "cli.train", None),
    ("jazzgen.cli", "run_generate", "cli.generate", None),
    ("jazzgen.cli", "run_evaluate", "cli.evaluate", None),
    ("jazzgen.cli", "read_midi", "midi_io.read_midi", _first_arg_len),
    ("jazzgen.cli", "write_midi", "midi_io.write_midi", _result_len),
    ("jazzgen.cli", "tokenize", "tokenizer.tokenize", None),
    ("jazzgen.cli", "detokenize", "tokenizer.detokenize", None),
    ("jazzgen.cli", "build_vocabulary", "tokenizer.build_vocabulary", _result_len),
    ("jazzgen.cli", "build_transition_table", "markov.build", _markov_states),
    ("jazzgen.cli", "generate_markov", "markov.generate", _markov_tokens),
    ("jazzgen.cli", "save_transition_table", "markov.save", None),
    ("jazzgen.cli", "load_transition_table", "markov.load", None),
    ("jazzgen.cli", "train", "rnn.train", None),
    ("jazzgen.cli", "generate_rnn", "rnn.generate_rnn", None),
    ("jazzgen.cli", "save_checkpoint", "rnn.save_checkpoint", None),
    ("jazzgen.cli", "load_checkpoint", "rnn.load_checkpoint", None),
    ("jazzgen.cli", "evaluate_events", "metrics.evaluate_events", None),
    ("jazzgen.cli", "write_comparison_csv", "report.write_comparison_csv", None),
    ("jazzgen.cli", "rows_as_dicts", "report.rows_as_dicts", None),
    ("jazzgen.cli", "win_fractions", "report.win_fractions", None),
    ("jazzgen.cli", "summary_line", "report.summary_line", None),
    ("jazzgen.cli", "line_chart_svg", "report.line_chart_svg", None),
    ("jazzgen.cli", "bar_chart_svg", "report.bar_chart_svg", None),
    ("jazzgen.rnn", "Network.forward", "rnn.forward", None),
    ("jazzgen.rnn", "Network.backward", "rnn.backward", None),
    ("jazzgen.rnn", "Network.one_hot", "rnn.one_hot", _result_nbytes),
    ("jazzgen.rnn", "select_index", "rnn.select_index", None),
    ("jazzgen.rnn", "lstm_forward", "neural.lstm_forward", _lstm_flop),
    ("jazzgen.rnn", "lstm_backward", "neural.lstm_backward", None),
    ("jazzgen.rnn", "dense_forward", "neural.dense_forward", None),
    ("jazzgen.rnn", "dense_backward", "neural.dense_backward", None),
    ("jazzgen.rnn", "batchnorm_forward", "neural.batchnorm_forward", None),
    ("jazzgen.rnn", "batchnorm_backward", "neural.batchnorm_backward", None),
    ("jazzgen.rnn", "dropout_forward", "neural.dropout_forward", None),
    ("jazzgen.rnn", "dropout_backward", "neural.dropout_backward", None),
    ("jazzgen.rnn", "softmax_cross_entropy", "neural.softmax_cross_entropy", None),
    ("jazzgen.rnn", "adam_step", "neural.adam_step", None),
)

# spans whose subtree is attributed to a caller, for kernels both paths use
CALLER_ROOTS = {"rnn.train": "train", "rnn.generate_rnn": "generate"}
CALLERS = ("train", "generate")
SKIPPED_BATCH_WARNING = "skipping size-1 batch"


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.callers: list[str | None] = []
        self.work: list[float] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.found: list[str] = []
        self.absent: list[str] = []
        self.unmeasured: set[str] = set()

    def install(self) -> None:
        for module_name, path, span, measure in TARGETS:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            self.found.append(label)
            self._restore.append((owner, attr, original))
            # a method's measure sees the call's arguments without self
            skip = 1 if isinstance(owner, type) else 0
            setattr(owner, attr, self._wrap(original, span, measure, skip))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, span: str, measure, skip: int):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.names)
            parent = self._stack[-1] if self._stack else -1
            caller = CALLER_ROOTS.get(span, self.callers[parent] if parent >= 0 else None)
            self.names.append(span)
            self.parents.append(parent)
            self.callers.append(caller)
            self.work.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                try:
                    self.work[index] = float(measure(args[skip:], result))
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.unmeasured.add(span)
            return result

        return wrapper

    def totals(self) -> dict:
        """Per (span name, caller): calls, total and self seconds, work sum and max."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        totals: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "work": 0.0, "max_work": 0.0})
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            for key in {(name, None), (name, self.callers[i])}:
                entry = totals[key]
                entry["calls"] += 1
                entry["total_s"] += duration
                entry["self_s"] += duration - child_time[i]
                entry["work"] += self.work[i]
                entry["max_work"] = max(entry["max_work"], self.work[i])
        return totals


def _m(name, unit, span, quantity, caller=None, scale=1.0, better=None):
    if better is None:
        better = "lower" if unit in ("s", "B") or quantity == "calls" else "higher"
    return {"name": name, "unit": unit, "better": better, "span": span, "quantity": quantity,
            "caller": caller, "scale": scale}


def _layer_metric_table() -> list[dict]:
    table = [_m(f"cli.{stage}_s", "s", f"cli.{stage}", "total_s")
             for stage in ("ingest", "train", "generate", "evaluate")]
    table.append(_m("cli.self_s", "s", "cli.*", "self_s"))
    for kernel in ("lstm_forward", "dense_forward", "batchnorm_forward", "dropout_forward"):
        for caller in CALLERS:
            base = f"neural.{kernel}.{caller}"
            table.append(_m(f"{base}.calls", "count", f"neural.{kernel}", "calls", caller))
            table.append(_m(f"{base}.self_s", "s", f"neural.{kernel}", "self_s", caller))
            if kernel == "lstm_forward":
                table.append(_m(f"{base}.gflop", "GFLOP", "neural.lstm_forward", "work", caller, 1e-9))
                table.append(_m(f"{base}.gflop_per_s", "GFLOP/s", "neural.lstm_forward", "work_per_s", caller, 1e-9))
    for kernel in ("lstm_backward", "dense_backward", "batchnorm_backward", "dropout_backward",
                   "softmax_cross_entropy", "adam_step"):
        table.append(_m(f"neural.{kernel}.calls", "count", f"neural.{kernel}", "calls"))
        table.append(_m(f"neural.{kernel}.self_s", "s", f"neural.{kernel}", "self_s"))
    for caller in CALLERS:
        table.append(_m(f"rnn.forward.{caller}.self_s", "s", "rnn.forward", "self_s", caller))
    table += [
        _m("rnn.backward.self_s", "s", "rnn.backward", "self_s"),
        _m("rnn.one_hot.calls", "count", "rnn.one_hot", "calls"),
        _m("rnn.one_hot.self_s", "s", "rnn.one_hot", "self_s"),
        _m("rnn.one_hot.bytes", "B", "rnn.one_hot", "work"),
        _m("rnn.one_hot.max_bytes", "B", "rnn.one_hot", "max_work"),
        _m("rnn.generate_rnn.self_s", "s", "rnn.generate_rnn", "self_s"),
        _m("rnn.select_index.self_s", "s", "rnn.select_index", "self_s"),
        _m("rnn.train.self_s", "s", "rnn.train", "self_s"),
        _m("rnn.save_checkpoint.self_s", "s", "rnn.save_checkpoint", "self_s"),
        _m("rnn.load_checkpoint.self_s", "s", "rnn.load_checkpoint", "self_s"),
        _m("rnn.batches_used", "count", "rnn.backward", "calls", "train", better="higher"),
        _m("rnn.batches_attempted", "count", "rnn.backward", "calls_plus_skipped", "train"),
    ]
    for op in ("build", "generate", "save", "load"):
        table.append(_m(f"markov.{op}.self_s", "s", f"markov.{op}", "self_s"))
    table += [
        _m("markov.states", "count", "markov.build", "max_work"),
        _m("markov.generate.tokens", "count", "markov.generate", "work"),
    ]
    for fn in ("read_midi", "write_midi"):
        table.append(_m(f"midi_io.{fn}.calls", "count", f"midi_io.{fn}", "calls"))
        table.append(_m(f"midi_io.{fn}.self_s", "s", f"midi_io.{fn}", "self_s"))
    table += [
        _m("midi_io.bytes_read", "B", "midi_io.read_midi", "work"),
        _m("midi_io.bytes_written", "B", "midi_io.write_midi", "work"),
        _m("tokenizer.tokenize.self_s", "s", "tokenizer.tokenize", "self_s"),
        _m("tokenizer.detokenize.self_s", "s", "tokenizer.detokenize", "self_s"),
        _m("tokenizer.vocab_size", "count", "tokenizer.build_vocabulary", "max_work"),
        _m("metrics.evaluate_events.calls", "count", "metrics.evaluate_events", "calls"),
        _m("metrics.evaluate_events.self_s", "s", "metrics.evaluate_events", "self_s"),
        _m("report.self_s", "s", "report.*", "self_s"),
    ]
    return table


LAYER_METRICS = _layer_metric_table()


def layer_metrics(tracer: Tracer, skipped_batches: int) -> tuple[dict, list[str]]:
    """Reduce the spans to {metric: value}; also return the absent metric names."""
    totals = tracer.totals()
    present_spans = {span for module, path, span, _ in TARGETS
                     if f"{module}.{path}" in tracer.found}
    values: dict[str, float] = {}
    absent: list[str] = []
    for spec in LAYER_METRICS:
        span, quantity = spec["span"], spec["quantity"]
        if span.endswith(".*"):
            prefix = span[:-1]
            spans = [s for s in present_spans if s.startswith(prefix)]
        else:
            spans = [span] if span in present_spans else []
        if quantity in ("work", "max_work", "work_per_s"):
            spans = [s for s in spans if s not in tracer.unmeasured]
        if not spans:
            values[spec["name"]] = 0.0
            absent.append(spec["name"])
            continue
        entries = [totals[(s, spec["caller"])] for s in spans if (s, spec["caller"]) in totals]
        if quantity == "calls_plus_skipped":
            value = sum(e["calls"] for e in entries) + skipped_batches
        elif quantity == "work_per_s":
            seconds = sum(e["total_s"] for e in entries)
            value = sum(e["work"] for e in entries) / seconds if seconds else 0.0
        elif quantity == "max_work":
            value = max((e["max_work"] for e in entries), default=0.0)
        else:
            value = sum(e[quantity] for e in entries)
        values[spec["name"]] = value * spec["scale"]
    return values, absent
