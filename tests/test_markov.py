import json
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jazzgen.markov import (
    SAVE_BATCH,
    EmptyTableError,
    TransitionTable,
    build_transition_table,
    encode_transition_table,
    generate_markov,
    load_transition_table,
    transition_probabilities,
)


def ngram_distribution(sequences, state):
    """Independent successor count: scan raw windows with a Counter."""
    m = len(state)
    hits = Counter()
    for seq in sequences:
        seq = list(seq)
        for i in range(m, len(seq)):
            if tuple(seq[i - m : i]) == tuple(state):
                hits[seq[i]] += 1
    total = sum(hits.values())
    return {s: Fraction(c, total) for s, c in hits.items()}


def test_single_successor_trigram_has_probability_one():
    seq = ["D5_1.0", "C5_0.5", "D5_0.5", "C5_0.5", "A4_1.0"]
    table = build_transition_table([seq], order=3)
    dist = transition_probabilities(table, ("D5_1.0", "C5_0.5", "D5_0.5"))
    assert dist == {"C5_0.5": Fraction(1)}


def test_order_one_counts_hand_checked():
    table = build_transition_table([["X", "Y", "X", "Z", "X", "Y", "X", "W"]], order=1)
    dist = transition_probabilities(table, ("X",))
    assert dist == {"Y": Fraction(1, 2), "Z": Fraction(1, 4), "W": Fraction(1, 4)}
    assert sum(dist.values()) == 1


def test_unseen_state_yields_empty_distribution():
    table = build_transition_table([["A", "B"]], order=2)
    assert transition_probabilities(table, ("Q",)) == {}


def test_adjacency_does_not_cross_sequence_boundary():
    table = build_transition_table([["A", "B"], ["B", "C"]], order=1)
    assert transition_probabilities(table, ("B",)) == {"C": Fraction(1)}
    assert "A" not in transition_probabilities(table, ("B",))


def test_all_orders_match_brute_force():
    sequences = [
        ["A", "B", "A", "C", "A", "B", "B", "A"],
        ["C", "A", "B", "A", "A", "C"],
    ]
    table = build_transition_table(sequences, order=3)
    for state in list(table.counts):
        assert transition_probabilities(table, state) == ngram_distribution(sequences, state)
    assert table.unigram == dict(Counter(s for seq in sequences for s in seq))


def test_tie_breaks_to_lexicographically_smallest():
    table = build_transition_table([["X", "A", "X", "B"]], order=1)
    assert generate_markov(table, ["X"], 1) == ["X", "A"]


def test_repeated_symbol_generates_itself():
    table = build_transition_table([["A", "A", "A", "A"]], order=2)
    assert generate_markov(table, ["A"], 5) == ["A"] * 6


def test_backoff_shortens_context():
    table = build_transition_table([["A", "B", "C"]], order=2)
    # ('Z', 'A') unseen at order 2, ('A',) seen at order 1
    assert generate_markov(table, ["Z", "A"], 1) == ["Z", "A", "B"]


def test_backoff_bottoms_out_at_unigram():
    table = build_transition_table([["A", "B", "C"]], order=2)
    # no context matches at any length; unigram counts are all 1, tie -> "A"
    assert generate_markov(table, ["Q", "Q"], 1) == ["Q", "Q", "A"]


def test_generate_zero_and_negative():
    table = build_transition_table([["A", "B"]], order=1)
    # n=0 returns the seed unchanged
    assert generate_markov(table, ["A"], 0) == ["A"]
    with pytest.raises(ValueError):
        generate_markov(table, ["A"], -1)


def test_empty_training_raises():
    with pytest.raises(EmptyTableError):
        build_transition_table([], order=1)
    with pytest.raises(EmptyTableError):
        build_transition_table([[], []], order=2)


def test_order_below_one_rejected():
    with pytest.raises(ValueError):
        TransitionTable(order=0)


def test_generation_is_deterministic():
    sequences = [["A", "B", "C", "A", "B", "D", "A"]]
    table = build_transition_table(sequences, order=2)
    first = generate_markov(table, ["A", "B"], 20)
    second = generate_markov(build_transition_table(sequences, order=2), ["A", "B"], 20)
    assert first == second


def test_save_load_round_trip(tmp_path):
    table = build_transition_table(
        [["C4_1.0", "D4_0.5", "C4_1.0", "R_0.5"], ["D4_0.5", "C4_1.0"]], order=3
    )
    path = tmp_path / "table.json"
    path.write_bytes(encode_transition_table(table))
    loaded = load_transition_table(path)
    assert loaded.order == table.order
    assert loaded.counts == table.counts
    assert loaded.unigram == table.unigram
    assert generate_markov(loaded, ["C4_1.0"], 10) == generate_markov(table, ["C4_1.0"], 10)


def test_save_is_byte_deterministic(tmp_path):
    seqs = [["B", "A", "C", "A", "B"]]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_bytes(encode_transition_table(build_transition_table(seqs, order=2)))
    p2.write_bytes(encode_transition_table(build_transition_table(list(reversed(seqs[0])) and seqs, order=2)))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("n_states", [0, 1, SAVE_BATCH, SAVE_BATCH + 1, 2 * SAVE_BATCH + 3])
def test_save_writes_one_sorted_compact_json_document(tmp_path, n_states):
    tokens = [f"{name}{octave}_0.5" for name in "CDEFGAB" for octave in range(1, 8)]
    counts = {
        (tokens[i % len(tokens)], tokens[i // len(tokens)]): {"E4_1.0": i + 1, "C4_1.0": 2}
        for i in range(n_states)
    }
    table = TransitionTable(order=2, counts=counts, unigram={"E4_1.0": 3, "C4_1.0": 5})
    path = tmp_path / "table.json"
    path.write_bytes(encode_transition_table(table))
    payload = {
        "order": 2,
        "unigram": table.unigram,
        "counts": [{"state": list(state), "next": nxt} for state, nxt in sorted(counts.items())],
    }
    assert path.read_text() == json.dumps(payload, sort_keys=True) + "\n"
    loaded = load_transition_table(path)
    assert (loaded.order, loaded.counts, loaded.unigram) == (table.order, table.counts, table.unigram)


symbols = st.sampled_from(["A", "B", "C", "D"])
sequences_strategy = st.lists(st.lists(symbols, min_size=1, max_size=20), min_size=1, max_size=4)


@given(sequences_strategy, st.integers(1, 4))
def test_distributions_are_normalized(seqs, order):
    table = build_transition_table(seqs, order=order)
    for state in table.counts:
        dist = transition_probabilities(table, state)
        assert sum(dist.values()) == 1
        assert all(p > 0 for p in dist.values())
        assert 1 <= len(state) <= order


@given(sequences_strategy, st.integers(1, 3), st.integers(0, 15))
def test_generation_emits_known_symbols(seqs, order, n):
    table = build_transition_table(seqs, order=order)
    seed = [seqs[0][0]]
    out = generate_markov(table, seed, n)
    assert len(out) == len(seed) + n
    assert out[: len(seed)] == seed
    assert all(symbol in table.unigram for symbol in out[len(seed):])


def reference_greedy(table, seed, n):
    """Backoff argmax written out: the successors of the longest seen context
    (the unigram if none), most counted first, then the smallest symbol."""
    history = list(seed)
    for _ in range(n):
        successors = table.unigram
        for length in range(min(table.order, len(history)), 0, -1):
            if tuple(history[-length:]) in table.counts:
                successors = table.counts[tuple(history[-length:])]
                break
        most = max(successors.values())
        history.append(min(symbol for symbol, count in successors.items() if count == most))
    return history


# symbols are tokens, so tables save and load; the last two never occur in
# training, so contexts holding them back off, down to the unigram
trained_tokens = st.sampled_from(["C4_1.0", "D4_0.5", "E4_1.0", "R_0.5"])
seed_tokens = st.sampled_from(["C4_1.0", "D4_0.5", "E4_1.0", "R_0.5", "G4_1.0", "A4_1/3"])


@given(
    st.lists(st.lists(trained_tokens, min_size=1, max_size=20), min_size=1, max_size=4),
    st.integers(1, 4),
    st.lists(st.lists(seed_tokens, max_size=6), min_size=2, max_size=4),
    st.integers(0, 15),
)
def test_shared_table_decodes_as_fresh_tables_and_reference(seqs, order, seeds, n):
    shared = build_transition_table(seqs, order=order)
    outputs = [generate_markov(shared, seed, n) for seed in seeds]
    assert outputs == [generate_markov(build_transition_table(seqs, order=order), seed, n) for seed in seeds]
    assert outputs == [reference_greedy(shared, seed, n) for seed in seeds]
    with tempfile.TemporaryDirectory() as directory:
        used, fresh = Path(directory, "used.json"), Path(directory, "fresh.json")
        used.write_bytes(encode_transition_table(shared))
        fresh.write_bytes(encode_transition_table(build_transition_table(seqs, order=order)))
        assert used.read_bytes() == fresh.read_bytes()
        loaded = load_transition_table(used)
        assert loaded == shared
        assert [generate_markov(loaded, seed, n) for seed in seeds] == outputs
        used.write_bytes(encode_transition_table(loaded))
        assert used.read_bytes() == fresh.read_bytes()
    assert "greedy" not in repr(shared)
