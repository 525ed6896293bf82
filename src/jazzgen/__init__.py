"""Jazz melody generation toolkit: an order-k Markov chain and a from-scratch
LSTM network trained on the same tokenized MIDI corpus, compared with groove
pattern similarity and pitch class histogram entropy."""

from jazzgen.markov import (
    TransitionTable,
    build_transition_table,
    generate_markov,
    transition_probabilities,
)
from jazzgen.metrics import MetricReport, histogram_entropy
from jazzgen.rnn import Checkpoint, RnnConfig, encode_checkpoint, generate_rnn, load_checkpoint, train
from jazzgen.tokenizer import Vocabulary, build_vocabulary

__all__ = [
    "Checkpoint",
    "MetricReport",
    "RnnConfig",
    "TransitionTable",
    "Vocabulary",
    "build_transition_table",
    "build_vocabulary",
    "encode_checkpoint",
    "generate_markov",
    "generate_rnn",
    "histogram_entropy",
    "load_checkpoint",
    "train",
    "transition_probabilities",
]
