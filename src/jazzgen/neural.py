"""Hand-written neural network kernels on numpy arrays.

Everything here is explicit forward/backward arithmetic: LSTM cells unrolled
through time, dense layers, batch normalization, inverted dropout, a
temperature-scaled softmax cross-entropy, and Adam.  numpy supplies array
storage and elementwise/matrix arithmetic only; no autograd or layer library
is involved.

Conventions
-----------
Batch-first shapes: sequences are (B, L, D) floats or (B, L) token indices,
activations (B, H).
LSTM gate order along the stacked axis is i, f, g, o; the forget gate bias
starts at 1.0.  All kernels preserve the dtype of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.99
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NumericalFault(ArithmeticError):
    """A tensor went non-finite (overflow or NaN) during training."""


def ensure_finite(name: str, *arrays: np.ndarray) -> None:
    for array in arrays:
        if not np.all(np.isfinite(array)):
            raise NumericalFault(f"{name} contains non-finite values")


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp only ever sees non-positive arguments, so it cannot overflow.  The
    # numerator is 1 for x >= 0 and e below (e <= 1); maximum picks it without
    # np.where, whose data-dependent select is several times slower here.
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int, dtype=np.float64) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_lstm(rng: np.random.Generator, input_dim: int, hidden_dim: int, dtype=np.float64) -> dict[str, np.ndarray]:
    """Fresh LSTM parameters: w (4H, D), u (4H, H), b (4H,) with forget bias 1."""
    w = glorot_uniform(rng, (4 * hidden_dim, input_dim), input_dim, hidden_dim, dtype)
    u = glorot_uniform(rng, (4 * hidden_dim, hidden_dim), hidden_dim, hidden_dim, dtype)
    b = np.zeros(4 * hidden_dim, dtype=dtype)
    b[hidden_dim : 2 * hidden_dim] = 1.0
    return {"w": w, "u": u, "b": b}


def init_dense(rng: np.random.Generator, input_dim: int, output_dim: int, dtype=np.float64) -> dict[str, np.ndarray]:
    w = glorot_uniform(rng, (output_dim, input_dim), input_dim, output_dim, dtype)
    return {"w": w, "b": np.zeros(output_dim, dtype=dtype)}


@dataclass
class LstmCache:
    """What lstm_backward needs from one lstm_forward call, time-major.

    inputs is the (L*B, D) float input matrix or the (L*B,) index vector;
    hs and cs are (L+1, B, H) with step t's predecessor state at [t];
    gates holds the activated i, f, g, o blocks as (L, B, 4H) and tanh_cs
    is tanh(cs[1:]).
    """

    inputs: np.ndarray
    hs: np.ndarray
    cs: np.ndarray
    gates: np.ndarray
    tanh_cs: np.ndarray


def lstm_forward(xs, w, u, b):
    """Run a whole sequence from zero state.  Returns hs (B, L, H) plus cache.

    xs is either float (B, L, D) inputs or integer (B, L) token indices; an
    index stands for the one-hot row it selects, so its input projection is
    the column gather w.T[idx].  The input projection for every step is
    computed before the time loop; only the h @ u.T term is recurrent.
    """
    batch, length = xs.shape[:2]
    hidden = u.shape[1]
    if np.issubdtype(xs.dtype, np.integer):
        inputs = xs.T.reshape(-1)
        xw = w.T[inputs]
    else:
        inputs = xs.swapaxes(0, 1).reshape(length * batch, -1)
        xw = inputs @ w.T
    xw = xw.reshape(length, batch, 4 * hidden)
    dtype = xw.dtype
    hs = np.zeros((length + 1, batch, hidden), dtype=dtype)
    cs = np.zeros((length + 1, batch, hidden), dtype=dtype)
    gates = np.empty((length, batch, 4 * hidden), dtype=dtype)
    tanh_cs = np.empty((length, batch, hidden), dtype=dtype)
    u_t = np.ascontiguousarray(u.T)
    for t in range(length):
        z = xw[t] + hs[t] @ u_t + b
        gate = sigmoid(z, out=gates[t])
        gate[:, 2 * hidden : 3 * hidden] = np.tanh(z[:, 2 * hidden : 3 * hidden])
        i, f, g, o = (gate[:, k * hidden : (k + 1) * hidden] for k in range(4))
        c = cs[t + 1]
        c[...] = f * cs[t] + i * g
        np.tanh(c, out=tanh_cs[t])
        np.multiply(o, tanh_cs[t], out=hs[t + 1])
    ensure_finite("lstm output", hs, cs)
    return hs[1:].swapaxes(0, 1), LstmCache(inputs, hs, cs, gates, tanh_cs)


def lstm_backward(dhs, cache: LstmCache, w, u):
    """Backpropagate through time.

    dhs (B, L, H) carries the upstream gradient for every timestep's hidden
    output (zero-filled where a caller only consumes the final step).
    Returns (dxs, dw, du, db); dxs is None when the forward pass was fed
    token indices, which have no gradient.
    """
    batch, length, hidden = dhs.shape
    dz = np.empty((length, batch, 4 * hidden), dtype=dhs.dtype)
    dh_next = np.zeros((batch, hidden), dtype=dhs.dtype)
    dc_next = np.zeros((batch, hidden), dtype=dhs.dtype)
    for t in range(length - 1, -1, -1):
        gate, tanh_c = cache.gates[t], cache.tanh_cs[t]
        i, f, g, o = (gate[:, k * hidden : (k + 1) * hidden] for k in range(4))
        dh = dhs[:, t, :] + dh_next
        do = dh * tanh_c
        dc_total = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc_total * g
        df = dc_total * cache.cs[t]
        dg = dc_total * i
        dc_next = dc_total * f
        dz_t = dz[t]
        dz_t[:, :hidden] = di * i * (1.0 - i)
        dz_t[:, hidden : 2 * hidden] = df * f * (1.0 - f)
        dz_t[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g * g)
        dz_t[:, 3 * hidden :] = do * o * (1.0 - o)
        dh_next = dz_t @ u
    dz = dz.reshape(length * batch, 4 * hidden)
    du = dz.T @ cache.hs[:-1].reshape(length * batch, hidden)
    db = dz.sum(axis=0)
    if cache.inputs.ndim == 1:
        dxs = None
        dw = np.zeros_like(w)
        # group the rows of dz by token with a stable sort, then sum each group
        order = np.argsort(cache.inputs, kind="stable")
        tokens = cache.inputs[order]
        starts = np.flatnonzero(np.r_[True, tokens[1:] != tokens[:-1]])
        dw[:, tokens[starts]] = np.add.reduceat(dz[order], starts, axis=0).T
        ensure_finite("lstm gradients", dw, du, db)
    else:
        dw = dz.T @ cache.inputs
        dxs = (dz @ w).reshape(length, batch, -1).swapaxes(0, 1)
        ensure_finite("lstm gradients", dxs, dw, du, db)
    return dxs, dw, du, db


def dense_forward(x, w, b, activation=None):
    """y = act(x @ w.T + b) with w (out, in).  activation None or 'relu'."""
    pre = x @ w.T + b
    if activation is None:
        return pre, (x, pre, None)
    if activation == "relu":
        return np.maximum(pre, 0.0), (x, pre, "relu")
    raise ValueError(f"unknown activation {activation!r}")


def dense_backward(dy, cache, w):
    x, pre, activation = cache
    if activation == "relu":
        dy = dy * (pre > 0)
    dw = dy.T @ x
    db = dy.sum(axis=0)
    dx = dy @ w
    return dx, dw, db


@dataclass
class BatchNormState:
    """Running statistics carried across batches for inference."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = BN_MOMENTUM

    @classmethod
    def fresh(cls, dim: int, momentum: float = BN_MOMENTUM, dtype=np.float64) -> "BatchNormState":
        return cls(np.zeros(dim, dtype=dtype), np.ones(dim, dtype=dtype), momentum)


def batchnorm_forward(x, gamma, beta, state: BatchNormState, training: bool):
    """Normalize features over the batch axis (biased variance, eps 1e-5)."""
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch normalization needs batch size >= 2 in training mode")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        state.mean = (state.momentum * state.mean + (1.0 - state.momentum) * mean).astype(x.dtype)
        state.var = (state.momentum * state.var + (1.0 - state.momentum) * var).astype(x.dtype)
    else:
        mean = state.mean
        var = state.var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (x - mean) * inv_std
    y = gamma * x_hat + beta
    return y, (x_hat, inv_std, gamma)


def batchnorm_backward(dy, cache):
    x_hat, inv_std, gamma = cache
    batch = dy.shape[0]
    dgamma = (dy * x_hat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx_hat = dy * gamma
    dx = (inv_std / batch) * (
        batch * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0)
    )
    return dx, dgamma, dbeta


def dropout_forward(x, rate: float, rng: np.random.Generator, training: bool):
    """Inverted dropout: surviving units are scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(dy, mask):
    if mask is None:
        return dy
    return dy * mask


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = logits / temperature
    z = scaled - scaled.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, targets, temperature: float = 1.0):
    """Mean cross-entropy of softmax(logits / temperature) against int targets.

    Accepts a single (V,) row with a scalar target or a (B, V) batch with a
    (B,) target vector.  Returns (loss, probabilities, dlogits) where dlogits
    already folds in the 1/temperature and 1/B factors.
    """
    squeeze = logits.ndim == 1
    if squeeze:
        logits = logits[None, :]
        targets = np.asarray([targets])
    else:
        targets = np.asarray(targets)
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    batch = logits.shape[0]
    scaled = logits / temperature
    z = scaled - scaled.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = float(-log_probs[np.arange(batch), targets].mean())
    ensure_finite("cross-entropy loss", np.asarray(loss))
    probs = np.exp(log_probs).astype(logits.dtype)
    dlogits = probs.copy()
    dlogits[np.arange(batch), targets] -= 1.0
    dlogits /= temperature * batch
    dlogits = dlogits.astype(logits.dtype)
    if squeeze:
        probs = probs[0]
        dlogits = dlogits[0]
    return loss, probs, dlogits


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float = 1e-3,
              beta1: float = ADAM_BETA1, beta2: float = ADAM_BETA2, eps: float = ADAM_EPS) -> None:
    """One Adam update, in place, with bias correction."""
    state.step += 1
    t = state.step
    for name, grad in grads.items():
        param = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(param)
            state.v[name] = np.zeros_like(param)
        m = state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * grad
        v = state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def gradient_check(loss_fn, params: dict, grads: dict, *, eps: float = 1e-6,
                   max_coords: int = 500, rng: np.random.Generator | None = None,
                   zero_tol: float = 1e-12) -> float:
    """Largest relative error between analytic and central-difference grads.

    loss_fn() must recompute the scalar loss from the live arrays in params;
    coordinates are perturbed in place and restored.  At most max_coords
    coordinates are sampled across all parameters.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    coords = []
    for name in sorted(params):
        for flat_index in range(params[name].size):
            coords.append((name, flat_index))
    if len(coords) > max_coords:
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picks]
    worst = 0.0
    for name, flat_index in coords:
        flat = params[name].reshape(-1)
        original = flat[flat_index]
        flat[flat_index] = original + eps
        loss_plus = loss_fn()
        flat[flat_index] = original - eps
        loss_minus = loss_fn()
        flat[flat_index] = original
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        analytic = float(grads[name].reshape(-1)[flat_index])
        denom = max(abs(analytic), abs(numeric))
        if denom > zero_tol:
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
