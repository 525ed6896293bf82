"""Jazz melody generation toolkit: an order-k Markov chain and a from-scratch
LSTM network trained on the same tokenized MIDI corpus, compared with groove
pattern similarity and pitch class histogram entropy."""

from jazzgen.markov import (
    TransitionTable,
    build_transition_table,
    generate_markov,
    transition_probabilities,
)
from jazzgen.metrics import (
    MetricReport,
    groove_similarity,
    histogram_entropy,
    mean_groove_similarity,
    pitch_class_histogram,
)
from jazzgen.midi_io import MidiDocument, NoteEvent, read_midi, write_midi
from jazzgen.rnn import Checkpoint, RnnConfig, generate_rnn, load_checkpoint, save_checkpoint, train
from jazzgen.tokenizer import Vocabulary, build_vocabulary, detokenize, tokenize

__all__ = [
    "Checkpoint",
    "MetricReport",
    "MidiDocument",
    "NoteEvent",
    "RnnConfig",
    "TransitionTable",
    "Vocabulary",
    "build_transition_table",
    "build_vocabulary",
    "detokenize",
    "generate_markov",
    "generate_rnn",
    "groove_similarity",
    "histogram_entropy",
    "load_checkpoint",
    "mean_groove_similarity",
    "pitch_class_histogram",
    "read_midi",
    "save_checkpoint",
    "tokenize",
    "train",
    "transition_probabilities",
    "write_midi",
]
