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

State = tuple[str, ...]


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
    payload = {
        "order": table.order,
        "unigram": dict(sorted(table.unigram.items())),
        "counts": [
            {"state": list(state), "next": dict(sorted(successors.items()))}
            for state, successors in sorted(table.counts.items())
        ],
    }
    with atomic_open(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def load_transition_table(path) -> TransitionTable:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        payload = json.loads(data)
        counts = {
            tuple(entry["state"]): {k: int(v) for k, v in entry["next"].items()}
            for entry in payload["counts"]
        }
        unigram = {k: int(v) for k, v in payload["unigram"].items()}
        table = TransitionTable(order=int(payload["order"]), counts=counts, unigram=unigram)
    except (ValueError, LookupError, TypeError, AttributeError) as err:
        # JSON and Unicode decoding errors are ValueErrors; a wrong shape
        # fails on a missing key, a non-container or a non-integer count
        raise TableError(f"{type(err).__name__}: {err}") from None
    if not table.unigram:
        raise TableError("table holds no symbols")
    return table
