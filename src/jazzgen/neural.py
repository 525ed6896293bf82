"""Hand-written neural network kernels on numpy arrays.

Everything here is explicit forward/backward arithmetic: LSTM cells unrolled
through time, dense layers, batch normalization, inverted dropout, softmax
cross-entropy, and Adam.  numpy supplies array storage and elementwise/matrix
arithmetic only; no autograd or layer library is involved.

Conventions
-----------
Batch-first shapes: sequences are (B, L, D) floats or (B, L) token indices,
activations (B, H).
LSTM gate order along the stacked axis is i, f, g, o; the forget gate bias
starts at 1.0.  All kernels preserve the dtype of their inputs.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.99
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CHECK_EPS = 1e-6
GRAD_CHECK_ZERO_TOL = 1e-12


class NumericalFault(ArithmeticError):
    """A tensor went non-finite (overflow or NaN) during training."""


def ensure_finite(name: str, *arrays: np.ndarray) -> None:
    for array in arrays:
        if not np.all(np.isfinite(array)):
            raise NumericalFault(f"{name} contains non-finite values")


@functools.cache
def _openblas_threads(numpy_dir: Path):
    """(get, set) for the thread count of the OpenBLAS bundled with the numpy
    package in numpy_dir, or None, with one warning, when there is none."""
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".dylibs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib))
            get, set_ = handle.scipy_openblas_get_num_threads64_, handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
        return get, set_
    warnings.warn("cannot pin numpy's BLAS to one thread; results may depend on its thread count")
    return None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's BLAS on one thread, then restore its count.

    A threaded GEMM may split a long reduction, so some shapes round
    differently at 2 threads than at 1; one thread makes every result
    independent of the count the process started with.
    """
    threads = _openblas_threads(Path(np.__file__).parent)
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp only ever sees non-positive arguments, so it cannot overflow.  The
    # numerator is 1 for x >= 0 and e below (e <= 1); maximum picks it without
    # np.where, whose data-dependent select is several times slower here.
    # Every step after the first writes into e or out, so besides the
    # boolean mask e is the only temporary; out may be x itself.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    positive = x >= 0
    out = np.add(e, 1.0, out=out)
    np.maximum(e, positive, out=e)
    return np.divide(e, out, out=out)


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


def lstm_cell(xw, h, c, u_t, b, gate, c_out, tanh_c, h_out) -> None:
    """One LSTM step from state (h, c) and input projection xw, written into
    the caller's buffers: the activated gates into gate, tanh of the new cell
    state into tanh_c, and the new state into c_out and h_out.

    u_t is u.T as a contiguous (H, 4H) array. h, c, c_out, tanh_c and h_out
    share one shape (..., H); gate is a C-contiguous (..., 4H) buffer. xw
    broadcasts against gate, so rows that read the same token may share one
    projection. c_out and h_out may be c and h themselves: both are read
    before either is written. Training and sampling both step through this
    function, so they compute a row's state with the same arithmetic.
    """
    hidden = u_t.shape[0]
    if not gate.flags.c_contiguous:
        raise ValueError("lstm_cell needs a C-contiguous gate buffer")
    # z = xw + h @ u_t + b is built in gate (addition commutes bit for bit),
    # the product as one GEMM over all leading axes. A (rows, 4H) temporary
    # of 128 KiB or more would come from freshly mapped pages on every step.
    np.matmul(h.reshape(-1, hidden), u_t, out=gate.reshape(-1, 4 * hidden))
    gate += xw
    gate += b
    g = np.tanh(gate[..., 2 * hidden : 3 * hidden])
    sigmoid(gate, out=gate)
    gate[..., 2 * hidden : 3 * hidden] = g
    i, f, g, o = (gate[..., k * hidden : (k + 1) * hidden] for k in range(4))
    c_out[...] = f * c + i * g
    np.tanh(c_out, out=tanh_c)
    np.multiply(o, tanh_c, out=h_out)


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
        lstm_cell(xw[t], hs[t], cs[t], u_t, b, gates[t], cs[t + 1], tanh_cs[t], hs[t + 1])
    ensure_finite("lstm output", hs, cs)
    return hs[1:].swapaxes(0, 1), LstmCache(inputs, hs, cs, gates, tanh_cs)


def lstm_backward_step(dh, dh_next, dc_next, cache: LstmCache, t: int, u, dz_t):
    """Step t of backpropagation through time.

    dh (B, H) is the upstream gradient of step t's hidden output, and
    (dh_next, dc_next) what step t + 1 passes back to its state. Writes the
    gradient of step t's gate pre-activations into dz_t (B, 4H) and returns
    (dh, dc) for step t - 1: dz_t @ u and the cell state's share. Every
    training step and lstm_backward run this one function.
    """
    hidden = u.shape[1]
    gate, tanh_c = cache.gates[t], cache.tanh_cs[t]
    i, f, g, o = (gate[:, k * hidden : (k + 1) * hidden] for k in range(4))
    dh = dh + dh_next
    do = dh * tanh_c
    dc_total = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
    di = dc_total * g
    df = dc_total * cache.cs[t]
    dg = dc_total * i
    dz_t[:, :hidden] = di * i * (1.0 - i)
    dz_t[:, hidden : 2 * hidden] = df * f * (1.0 - f)
    dz_t[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g * g)
    dz_t[:, 3 * hidden :] = do * o * (1.0 - o)
    return dz_t @ u, dc_total * f


def lstm_weight_gradients(dz, cache: LstmCache, w):
    """(dw, du, db) from the gate pre-activation gradients dz, (L, B, 4H) in
    the time-major order of cache. For index input, column v of dw sums the
    dz rows of token v's occurrences one at a time, in time-major order
    (step, then batch row), starting from the first (_index_gradient)."""
    length, batch, gates = dz.shape
    dz = dz.reshape(length * batch, gates)
    du = dz.T @ cache.hs[:-1].reshape(length * batch, -1)
    db = dz.sum(axis=0)
    dw = _index_gradient(dz, cache.inputs, w) if cache.inputs.ndim == 1 else dz.T @ cache.inputs
    return dw, du, db


def lstm_backward(dhs, cache: LstmCache, w, u):
    """Backpropagate through time.

    dhs (B, L, H) carries the upstream gradient for every timestep's hidden
    output (zero-filled where a caller only consumes the final step).
    Returns (dxs, dw, du, db); dxs is None when the forward pass was fed
    token indices, which have no gradient. Each step's input gradient is
    its own product dz_t @ w, as in training.
    """
    batch, length, hidden = dhs.shape
    dz = np.empty((length, batch, 4 * hidden), dtype=dhs.dtype)
    dh_next = np.zeros((batch, hidden), dtype=dhs.dtype)
    dc_next = np.zeros((batch, hidden), dtype=dhs.dtype)
    dxs = None if cache.inputs.ndim == 1 else np.empty((length, batch, w.shape[1]), dtype=dhs.dtype)
    for t in range(length - 1, -1, -1):
        dh_next, dc_next = lstm_backward_step(dhs[:, t, :], dh_next, dc_next, cache, t, u, dz[t])
        if dxs is not None:
            np.matmul(dz[t], w, out=dxs[t])
    dw, du, db = lstm_weight_gradients(dz, cache, w)
    ensure_finite("lstm gradients", dw, du, db)
    if dxs is None:
        return None, dw, du, db
    ensure_finite("lstm gradients", dxs)
    return dxs.swapaxes(0, 1), dw, du, db


def _index_gradient(dz, inputs, w):
    """dw for one-hot inputs given as indices: column v sums the dz rows where
    inputs == v, added one at a time in the order they occur in inputs.

    Rows are regrouped by occurrence rank: every token's first row, then every
    second row, and so on, with the tokens that occur most often first.  The
    k-th rows of all tokens that have one are then contiguous, and the groups
    still summing are a prefix, so each rank is a single slice addition.
    Columns of tokens that never occur stay exactly zero.
    """
    order = np.argsort(inputs, kind="stable")
    tokens = inputs[order]
    starts = np.flatnonzero(np.r_[True, tokens[1:] != tokens[:-1]])
    counts = np.diff(np.r_[starts, tokens.size])
    groups = starts.size
    by_count = np.argsort(-counts, kind="stable")
    slot = np.empty_like(by_count)
    slot[by_count] = np.arange(groups)
    # above[k] tokens occur more than k times; rank k's rows start at first[k]
    above = groups - np.cumsum(np.bincount(counts))[:-1]
    first = np.r_[0, np.cumsum(above)]
    rank = np.arange(tokens.size) - np.repeat(starts, counts)
    rows = np.empty_like(order)
    rows[first[rank] + np.repeat(slot, counts)] = order
    ranked = dz[rows]
    sums = ranked[:groups]
    for start, size in zip(first[1:-1].tolist(), above[1:].tolist()):
        sums[:size] += ranked[start : start + size]
    dw = np.zeros_like(w)
    dw[:, tokens[starts[by_count]]] = sums.T
    return dw


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


def batchnorm_forward(x, gamma, beta, mean, var, training: bool):
    """Normalize features over the batch axis (biased variance, eps 1e-5).

    Inference uses the running statistics mean and var; training uses the
    batch's own and folds them into mean and var in place (BN_MOMENTUM).
    """
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch normalization needs batch size >= 2 in training mode")
        batch_mean = x.mean(axis=0)
        batch_var = x.var(axis=0)
        mean[...] = BN_MOMENTUM * mean + (1.0 - BN_MOMENTUM) * batch_mean
        var[...] = BN_MOMENTUM * var + (1.0 - BN_MOMENTUM) * batch_var
        mean, var = batch_mean, batch_var
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


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy of softmax over (B, V) logits against (B,) int targets.

    Returns (loss, dlogits), dlogits in the dtype of logits with the 1/B
    factor already folded in.
    """
    batch = logits.shape[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = float(-log_probs[np.arange(batch), targets].mean())
    ensure_finite("cross-entropy loss", np.asarray(loss))
    dlogits = np.exp(log_probs)
    dlogits[np.arange(batch), targets] -= 1.0
    dlogits /= batch
    return loss, dlogits


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict.

    scratch is one pair of flat buffers, shared by every tensor and as long
    as the largest one, that adam_step writes its temporaries into: the
    first holds the update lr * m_hat, the second sqrt(v_hat) + eps.
    """

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    scratch: tuple = ()


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, of the params named in grads;
    other entries, such as batch-norm running statistics, get no moments.

    The moments and parameters are updated in place, with the operations of
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    param -= lr * (m/c1) / (sqrt(v/c2) + eps) in that order, so the result is
    bit for bit that of the allocating expressions.  Each grad has its
    parameter's dtype.
    """
    state.step += 1
    m_scale = 1.0 - ADAM_BETA1**state.step
    v_scale = 1.0 - ADAM_BETA2**state.step
    for name, grad in grads.items():
        param = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(param)
            state.v[name] = np.zeros_like(param)
        m, v = state.m[name], state.v[name]
        if not state.scratch or state.scratch[0].size < param.size or state.scratch[0].dtype != param.dtype:
            state.scratch = (np.empty(param.size, param.dtype), np.empty(param.size, param.dtype))
        update, denom = (buffer[: param.size].reshape(param.shape) for buffer in state.scratch)
        np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
        m *= ADAM_BETA1
        m += update
        np.multiply(grad, 1.0 - ADAM_BETA2, out=denom)
        denom *= grad
        v *= ADAM_BETA2
        v += denom
        np.divide(m, m_scale, out=update)
        np.divide(v, v_scale, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update *= lr
        update /= denom
        param -= update


def gradient_check(loss_fn, params: dict, grads: dict) -> float:
    """Largest relative error between analytic and central-difference grads.

    loss_fn() must recompute the scalar loss from the live arrays in params;
    every coordinate is perturbed by +-GRAD_CHECK_EPS in place and restored.
    """
    worst = 0.0
    for name in sorted(params):
        flat = params[name].reshape(-1)
        for flat_index in range(flat.size):
            original = flat[flat_index]
            flat[flat_index] = original + GRAD_CHECK_EPS
            loss_plus = loss_fn()
            flat[flat_index] = original - GRAD_CHECK_EPS
            loss_minus = loss_fn()
            flat[flat_index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * GRAD_CHECK_EPS)
            analytic = float(grads[name].reshape(-1)[flat_index])
            denom = max(abs(analytic), abs(numeric))
            if denom > GRAD_CHECK_ZERO_TOL:
                worst = max(worst, abs(analytic - numeric) / denom)
    return worst
