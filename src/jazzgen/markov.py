"""Order-k Markov chain over token strings with greedy backoff generation.

Counts are kept for every state length 1..k so generation can fall back to
shorter contexts when a full-length state was never observed.  Probabilities
are exact rationals; generation is deterministic argmax with ties broken
toward the lexicographically smallest symbol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .files import atomic_open
from .tokenizer import parse_token

State = tuple[str, ...]

# states per json.dumps call in save_transition_table
SAVE_BATCH = 256


class EmptyTableError(ValueError):
    """No transitions could be counted from the training sequences."""


class TableError(ValueError):
    """A saved table is unreadable: malformed JSON or the wrong payload shape."""


@dataclass
class TransitionTable:
    order: int
    counts: dict[State, dict[str, int]] = field(default_factory=dict)
    unigram: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")


def build_transition_table(sequences: Iterable[Sequence[str]], order: int) -> TransitionTable:
    """Count successors for every state of length 1..order.

    Adjacency never crosses a sequence boundary, so separate files
    contribute no artificial transitions between their edges.
    """
    table = TransitionTable(order=order)
    for sequence in sequences:
        symbols = list(sequence)
        for i, symbol in enumerate(symbols):
            table.unigram[symbol] = table.unigram.get(symbol, 0) + 1
            for length in range(1, min(order, i) + 1):
                state = tuple(symbols[i - length : i])
                successors = table.counts.setdefault(state, {})
                successors[symbol] = successors.get(symbol, 0) + 1
    if not table.unigram:
        raise EmptyTableError("training sequences contain no symbols")
    return table


def transition_probabilities(table: TransitionTable, state: Sequence[str]) -> dict[str, Fraction]:
    """Exact successor distribution for one state; empty if never observed."""
    successors = table.counts.get(tuple(state))
    if not successors:
        return {}
    total = sum(successors.values())
    return {symbol: Fraction(count, total) for symbol, count in sorted(successors.items())}


def _argmax(distribution: Mapping[str, int]) -> str:
    return min(distribution, key=lambda symbol: (-distribution[symbol], symbol))


def generate_markov(table: TransitionTable, seed: Sequence[str], n: int) -> list[str]:
    """The seed followed by exactly ``n`` greedily chosen symbols.

    Each step tries the longest available context first (up to the table
    order), backing off one symbol at a time; with no matching state at any
    length the unigram argmax is emitted.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not table.unigram:
        raise EmptyTableError("transition table is empty")
    history = list(seed)
    for _ in range(n):
        choice = None
        for length in range(min(table.order, len(history)), 0, -1):
            successors = table.counts.get(tuple(history[-length:]))
            if successors:
                choice = _argmax(successors)
                break
        if choice is None:
            choice = _argmax(table.unigram)
        history.append(choice)
    return history


def save_transition_table(table: TransitionTable, path) -> None:
    """Write the table byte for byte as json.dumps(payload, sort_keys=True)
    would, payload being {"counts": [{"next", "state"}, ...], "order",
    "unigram"} with counts sorted by state."""
    entries = [
        {"state": list(state), "next": successors}
        for state, successors in sorted(table.counts.items())
    ]
    with atomic_open(path) as handle:
        # json.dumps without indent runs the C encoder, several times faster
        # than json.dump's pure-Python one, but holds every output piece until
        # it joins them; SAVE_BATCH states per call keep those pieces few
        handle.write('{"counts": [')
        for start in range(0, len(entries), SAVE_BATCH):
            handle.write(", " if start else "")
            handle.write(json.dumps(entries[start : start + SAVE_BATCH], sort_keys=True)[1:-1])
        unigram = json.dumps(table.unigram, sort_keys=True)
        handle.write(f'], "order": {table.order}, "unigram": {unigram}}}\n')


def _positive_int(what: str, value) -> int:
    # JSON true decodes to a bool, which is an int subclass but no count
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} {value!r} is not an integer >= 1")
    return value


def load_transition_table(path) -> TransitionTable:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        payload = json.loads(data)
        order = _positive_int("order", payload["order"])
        counts = {}
        for entry in payload["counts"]:
            state = tuple(entry["state"])
            if not 1 <= len(state) <= order:
                raise ValueError(f"state {list(state)} is not 1 to {order} symbols long")
            counts[state] = {k: _positive_int("count", v) for k, v in entry["next"].items()}
        unigram = {k: _positive_int("count", v) for k, v in payload["unigram"].items()}
        table = TransitionTable(order=order, counts=counts, unigram=unigram)
        # generate writes every symbol out as a token, so each must parse
        for symbol in sorted(set(unigram).union(*counts, *counts.values())):
            parse_token(symbol)
    except (ValueError, LookupError, TypeError, AttributeError) as err:
        # JSON and Unicode decoding errors are ValueErrors, and so are a
        # symbol that is no token, a count or order that is no positive
        # integer and a state of the wrong length; a wrong shape fails on a
        # missing key or a non-container
        raise TableError(f"{type(err).__name__}: {err}") from None
    if not table.unigram:
        raise TableError("table holds no symbols")
    return table
