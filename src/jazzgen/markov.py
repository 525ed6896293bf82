"""Order-k Markov chain over token strings with greedy backoff generation.

Counts are kept for every state length 1..k so generation can fall back to
shorter contexts when a full-length state was never observed.  Probabilities
are exact rationals; generation is deterministic argmax with ties broken
toward the lexicographically smallest symbol, so each context's choice is
worked out once per table and then looked up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .tokenizer import parse_token

State = tuple[str, ...]

# states per json.dumps call in encode_transition_table
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
    # context (the last `order` symbols, fewer at the start) -> greedy choice,
    # filled by generate_markov; clear it after changing counts or unigram
    greedy: dict[State, str] = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _greedy_choice(table: TransitionTable, context: State) -> str:
    for length in range(len(context), 0, -1):
        successors = table.counts.get(context[-length:])
        if successors:
            return _argmax(successors)
    return _argmax(table.unigram)


def generate_markov(table: TransitionTable, seed: Sequence[str], n: int) -> list[str]:
    """The seed followed by exactly ``n`` greedily chosen symbols.

    Each step tries the longest available context first (up to the table
    order), backing off one symbol at a time; with no matching state at any
    length the unigram argmax is emitted. The choice depends on the context
    alone, so the table keeps it for later steps and calls.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not table.unigram:
        raise EmptyTableError("transition table is empty")
    history = list(seed)
    greedy, order = table.greedy, table.order
    for _ in range(n):
        context = tuple(history[-order:])
        choice = greedy.get(context)
        if choice is None:
            choice = greedy[context] = _greedy_choice(table, context)
        history.append(choice)
    return history


def encode_transition_table(table: TransitionTable) -> bytes:
    """The table byte for byte as json.dumps(payload, sort_keys=True) + "\n"
    would be, payload being {"counts": [{"next", "state"}, ...], "order",
    "unigram"} with counts sorted by state."""
    entries = [
        {"state": list(state), "next": successors}
        for state, successors in sorted(table.counts.items())
    ]
    # json.dumps without indent runs the C encoder, several times faster than
    # json.dump's pure-Python one, but holds every output piece until it joins
    # them; SAVE_BATCH states per call keep those pieces few
    counts = ", ".join(
        json.dumps(entries[start : start + SAVE_BATCH], sort_keys=True)[1:-1]
        for start in range(0, len(entries), SAVE_BATCH)
    )
    unigram = json.dumps(table.unigram, sort_keys=True)
    return f'{{"counts": [{counts}], "order": {table.order}, "unigram": {unigram}}}\n'.encode()


def _positive_int(what: str, value) -> int:
    # JSON true decodes to a bool, which is an int subclass but no count
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} {value!r} is not an integer >= 1")
    return value


def _check_counts(successors: dict) -> None:
    """_positive_int("count", ...) on each count in order, without a call per
    count. A non-object fails on .items() with an AttributeError."""
    for _, count in successors.items():
        if type(count) is not int or count < 1:
            raise ValueError(f"count {count!r} is not an integer >= 1")


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
            successors = entry["next"]
            _check_counts(successors)
            counts[state] = successors
        unigram = payload["unigram"]
        _check_counts(unigram)
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
