"""Jazz melody generation toolkit: an order-k Markov chain and a from-scratch
LSTM network trained on the same tokenized MIDI corpus, compared with groove
pattern similarity and pitch class histogram entropy."""
