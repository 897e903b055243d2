"""Functional numpy kernels shared by the autograd layers, the compiled
training step and the inference engine.

This module is the *ops core* of the ``repro.nn`` stack: every forward
kernel is pure numpy — no :class:`~repro.nn.tensor.Tensor`, no tape — and
returns ``(output, cache)`` where ``cache`` holds exactly the intermediates
its matching ``*_backward`` kernel needs. Three consumers sit on top:

- the layer classes (:mod:`repro.nn.layers`, :mod:`repro.nn.gru`,
  :mod:`repro.nn.lstm`, :mod:`repro.nn.attention`) call a forward kernel
  once and register the matching backward kernel as a single tape node via
  :func:`repro.nn.tensor.apply_op` — differentiable training math;
- compiled training steps (:func:`repro.nn.training.register_train_step`)
  call the same forward/backward pairs with no tape, drawing their arrays
  from a reusable :class:`Workspace` — the same bits, fewer allocations;
- the tape-free engine (:mod:`repro.nn.inference`) calls the forward
  kernels (and the fused sequence runners at the bottom of this module)
  directly and throws the caches away — lean serving math.

Keeping every path on one set of kernels is what makes the training
step's bitwise contract and the engine's ``assert_close`` parity
guarantee cheap to maintain: there is one implementation of the math,
exercised by the finite-difference gradient checks in ``tests/nn/``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "Workspace",
    "activation_into",
    "activation_inplace",
    "activation_delta_into",
    "dense_forward",
    "dense_backward",
    "embedding_forward",
    "embedding_backward",
    "dropout_forward",
    "dropout_backward",
    "mse_forward_backward",
    "segment_sum",
    "gru_sequence_forward",
    "gru_sequence_backward",
    "lstm_sequence_forward",
    "lstm_sequence_backward",
    "attention_forward",
    "attention_pool",
    "attention_backward",
    "hadamard_head",
    "hadamard_head_backward",
    "bilinear_head",
    "bilinear_head_backward",
    "fuse_gru_weights",
    "gru_sequence",
    "fuse_lstm_weights",
    "lstm_sequence",
    "ACTIVATION_NAMES",
]

ACTIVATION_NAMES = ("linear", "relu", "sigmoid", "tanh")


try:  # scipy's expit is a single C ufunc (no temporaries for exp/add/divide)
    from scipy.special import expit as _expit
except ImportError:  # pragma: no cover - scipy is a declared dependency
    _expit = None


def _sigmoid(x: np.ndarray) -> np.ndarray:
    if _expit is not None:
        return _expit(x)
    return 1.0 / (1.0 + np.exp(-x))  # pragma: no cover - scipy is declared


if _expit is not None:

    def _sigmoid64_inplace(x: np.ndarray) -> np.ndarray:
        """In-place float64 sigmoid with the dtype dispatch pre-resolved.

        The exact sequence runners know their buffers are float64, so
        they skip :func:`_sigmoid_inplace`'s per-call dtype check and go
        straight to the ``expit`` ufunc (same bits, one call).
        """
        return _expit(x, x)

    def _sigmoid64_into(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """``dst = sigmoid(src)`` for float64, same ufunc as :func:`_sigmoid`."""
        return _expit(src, dst)

else:  # pragma: no cover - scipy is a declared dependency
    def _sigmoid64_inplace(x: np.ndarray) -> np.ndarray:
        return _sigmoid_inplace(x)

    def _sigmoid64_into(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        np.copyto(dst, src)
        return _sigmoid_inplace(dst)


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """In-place sigmoid for the inference hot loops.

    ``float64`` stays on scipy's ``expit`` — the exact ufunc the training
    kernels use, which is what keeps compiled float64 outputs bitwise
    identical to the autograd math. ``float32`` composes numpy's
    SIMD-vectorized ``exp`` instead (``1 / (1 + exp(-x))``): on this
    path expit has no fast single-precision loop, and the composed form
    is several times faster; the difference is absorbed by the float32
    parity bound (:data:`repro.nn.inference.FLOAT32_ATOL`).
    """
    if _expit is not None and x.dtype == np.float64:
        return _expit(x, out=x)
    np.negative(x, out=x)
    # exp may overflow to inf for saturated gates; 1/(1+inf) is the
    # correct 0.0 tail, so the spurious warning is suppressed (expit
    # handles the same saturation silently).
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def activation_into(name: str, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``dst = act(src)`` for a named activation, leaving ``src`` intact.

    The training kernels keep each pre-activation for the backward pass,
    so the activation goes to a second array; float64 sigmoid is scipy's
    ``expit`` ufunc (the bits the compiled inference engine reproduces).
    """
    if name == "relu":
        return np.maximum(src, 0.0, out=dst)
    if name == "sigmoid":
        return _sigmoid64_into(src, dst)
    if name == "tanh":
        return np.tanh(src, out=dst)
    if name == "linear":
        np.copyto(dst, src)
        return dst
    raise ValueError(f"unknown activation {name!r}; choose from {ACTIVATION_NAMES}")


def activation_delta_into(
    name: str, grad: np.ndarray, pre: np.ndarray, out: np.ndarray,
    dst: np.ndarray, scratch: np.ndarray, mask: np.ndarray,
) -> np.ndarray:
    """Gradient w.r.t. ``pre`` given the gradient w.r.t. ``out = act(pre)``.

    Written into ``dst`` (``scratch`` and the boolean ``mask`` are work
    space); ``linear`` returns ``grad`` itself. Each formula is evaluated
    left to right: ``grad * (pre > 0)``, ``grad * out * (1 - out)``,
    ``grad * (1 - out * out)``.
    """
    if name == "relu":
        return np.multiply(grad, np.greater(pre, 0, out=mask), out=dst)
    if name == "sigmoid":
        np.multiply(grad, out, out=dst)
        np.subtract(1.0, out, out=scratch)
        dst *= scratch
        return dst
    if name == "tanh":
        np.multiply(out, out, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        return np.multiply(grad, scratch, out=dst)
    if name == "linear":
        return grad
    raise ValueError(f"unknown activation {name!r}; choose from {ACTIVATION_NAMES}")


def activation_inplace(name: str, x: np.ndarray) -> np.ndarray:
    """Apply a named activation *in place* (inference paths only).

    The autograd kernels must keep their pre-activation arrays intact for
    the backward pass, so they use :func:`activation_into`; the compiled
    engine's buffers are throwaway, so it overwrites them instead of
    allocating. Elementwise results are bitwise identical to
    :func:`activation_into` for float64 (sigmoid routes through the same
    ``expit`` ufunc); float32 sigmoid takes the fast composed-``exp``
    path covered by the float32 parity bound.
    """
    if name == "linear":
        return x
    if name == "relu":
        return np.maximum(x, 0.0, out=x)
    if name == "sigmoid":
        return _sigmoid_inplace(x)
    if name == "tanh":
        return np.tanh(x, out=x)
    raise ValueError(f"unknown activation {name!r}; choose from {ACTIVATION_NAMES}")


#: Hoisted in-place activation callables for the sequence runners: one
#: dict lookup per *call* instead of a string-compare chain per
#: *timestep*. ``linear`` maps to ``None`` (the loop skips the call).
#: float64 bits match :func:`activation_inplace` exactly — same ufuncs.
_INPLACE_ACT = {
    "linear": None,
    "relu": lambda x: np.maximum(x, 0.0, out=x),
    "sigmoid": _sigmoid_inplace,
    "tanh": lambda x: np.tanh(x, x),
}


def _resolve_act(act: str):
    try:
        return _INPLACE_ACT[act]
    except KeyError:
        raise ValueError(
            f"unknown activation {act!r}; choose from {ACTIVATION_NAMES}"
        ) from None


def _sigmoid_into(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``dst = sigmoid(src)`` without touching ``src`` (low-precision path).

    Same composed-``exp`` form as :func:`_sigmoid_inplace`, but the first
    pass reads straight from ``src`` — one fewer pass than copy-then-
    activate when the source must stay intact. ``src`` and ``dst`` must
    not alias.
    """
    np.negative(src, out=dst)
    with np.errstate(over="ignore"):  # saturated gates: inf -> 0.0 tail
        np.exp(dst, out=dst)
    dst += 1.0
    return np.reciprocal(dst, out=dst)


def _activation_into(name: str, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``dst = activation(src)`` without touching ``src`` (low-precision path)."""
    if name == "linear":
        return np.copyto(dst, src) or dst
    if name == "relu":
        return np.maximum(src, 0.0, out=dst)
    if name == "sigmoid":
        return _sigmoid_into(src, dst)
    if name == "tanh":
        return np.tanh(src, out=dst)
    raise ValueError(f"unknown activation {name!r}; choose from {ACTIVATION_NAMES}")


# ---------------------------------------------------------------------------
# Reusable training workspaces
# ---------------------------------------------------------------------------
class Workspace:
    """Scratch and cache arrays a caller reuses from one call to the next.

    A training step allocates several megabytes of activations, caches and
    gradient temporaries per batch; fresh arrays each step make the heap
    grow and shrink every batch, and the page faults cost as much as a
    third of the step. A kernel given a workspace takes every array it
    would allocate from it instead, keyed by ``(name, shape, dtype)``, so a
    fit's steady state reuses one set per batch shape (a ragged last batch
    adds a second). Whatever a kernel returns then lives in the workspace
    until the same kernel runs again with it: one workspace per call site,
    and no result kept across calls. :meth:`child` hands out a named
    sub-workspace for each layer of a model.
    """

    def __init__(self) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}
        self._children: dict[str, "Workspace"] = {}

    def empty(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key = (name, shape, dtype)
        array = self._arrays.get(key)
        if array is None:
            array = self._arrays[key] = np.empty(shape, dtype=dtype)
        return array

    def child(self, name: str) -> "Workspace":
        child = self._children.get(name)
        if child is None:
            child = self._children[name] = Workspace()
        return child


def _allocator(workspace: Workspace | None):
    """``empty(name, shape, dtype)``: from ``workspace``, else a fresh array."""
    if workspace is not None:
        return workspace.empty
    return lambda name, shape, dtype=np.float64: np.empty(shape, dtype=dtype)


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------
def dense_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    act: str = "linear",
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, dict]:
    """``activation(x @ weight + bias)`` for 1-d or 2-d ``x``."""
    empty = _allocator(workspace)
    pre = np.matmul(x, weight, out=empty("pre", x.shape[:-1] + weight.shape[1:]))
    pre += bias
    out = pre if act == "linear" else activation_into(act, pre, empty("out", pre.shape))
    cache = {"x": x, "weight": weight, "pre": pre, "out": out, "act": act, "workspace": workspace}
    return out, cache


def dense_backward(
    grad: np.ndarray, cache: dict, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Returns ``(d_x, d_weight, d_bias)``; ``d_x`` is ``None`` without ``input_grad``."""
    x, weight = cache["x"], cache["weight"]
    empty = _allocator(cache["workspace"])
    delta = activation_delta_into(
        cache["act"], grad, cache["pre"], cache["out"], empty("delta", grad.shape),
        empty("scratch", grad.shape), empty("mask", grad.shape, np.bool_),
    )
    d_x = np.matmul(delta, weight.T, out=empty("d_x", x.shape)) if input_grad else None
    if x.ndim == 1:
        return d_x, np.outer(x, delta), delta
    d_weight = np.matmul(x.T, delta, out=empty("d_weight", weight.shape))
    return d_x, d_weight, np.add.reduce(delta, axis=0, out=empty("d_bias", weight.shape[1:]))


# ---------------------------------------------------------------------------
# Embedding gather
# ---------------------------------------------------------------------------
def embedding_forward(table: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, dict]:
    """Row gather ``out[i] = table[ids[i]]``."""
    ids = np.asarray(ids, dtype=np.int64)
    return table[ids], {"shape": table.shape, "ids": ids}


def segment_sum(values: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    """``out[k] = sum(values[i] for i where ids[i] == k)``, in row order.

    The embedding gradient's scatter-add, as one ``np.bincount`` over
    flattened ``(row, column)`` bins instead of ``np.add.at``'s per-index
    loop. Each bin starts from ``0.0`` and adds its rows in the order they
    appear, exactly as ``np.add.at`` into a zero table does, so the two
    agree bitwise (``-0.0`` rows included: ``0.0 + -0.0`` is ``0.0`` in
    both). ``ids`` must lie in ``[0, num_segments)``.
    """
    values = np.asarray(values, dtype=np.float64)
    width = math.prod(values.shape[1:])
    bins = np.asarray(ids, dtype=np.int64)[:, None] * width + np.arange(width)
    out = np.bincount(bins.ravel(), weights=values.ravel(), minlength=num_segments * width)
    return out.reshape((num_segments,) + values.shape[1:])


def embedding_backward(grad: np.ndarray, cache: dict) -> tuple[np.ndarray]:
    """Scatter-add the output gradient back into a dense table gradient."""
    return (segment_sum(grad, cache["ids"], cache["shape"][0]),)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------
def dropout_forward(
    x: np.ndarray, rate: float, rng: np.random.Generator, workspace: Workspace | None = None
) -> tuple[np.ndarray, dict]:
    """Inverted dropout; the inference engine simply never calls this."""
    if not 0.0 < rate < 1.0:
        raise ValueError("dropout rate must be in (0, 1)")
    empty = _allocator(workspace)
    draws = rng.random(x.shape, out=empty("draws", x.shape))
    keep = np.greater_equal(draws, rate, out=empty("keep", x.shape, np.bool_))
    mask = np.divide(keep, 1.0 - rate, out=draws)  # 0 or 1 / (1 - rate)
    out = np.multiply(x, mask, out=empty("out", x.shape))
    return out, {"mask": mask, "workspace": workspace}


def dropout_backward(grad: np.ndarray, cache: dict) -> tuple[np.ndarray]:
    empty = _allocator(cache["workspace"])
    return (np.multiply(grad, cache["mask"], out=empty("d_x", grad.shape)),)


# ---------------------------------------------------------------------------
# Mean squared error
# ---------------------------------------------------------------------------
def mse_forward_backward(predicted: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """``(mean((p - t)^2), d loss / d p)`` with :func:`repro.nn.mse_loss`'s bits.

    The autograd loss is ``sum(d * d) * (1/n)``; its backward hands each
    factor of ``d * d`` the gradient ``(1/n) * d`` and sums the two, so the
    prediction gradient is ``k * d + k * d`` rather than ``2 * k * d``.
    """
    diff = predicted - target
    scale = 1.0 / diff.size
    half = scale * diff
    return float((diff * diff).sum() * scale), half + half


# ---------------------------------------------------------------------------
# Recurrent training kernels: whole-sequence forward + reverse-time BPTT
# ---------------------------------------------------------------------------
# One call runs a GRU/LSTM layer over every timestep and keeps each gate's
# activations in a ``(timesteps, batch, hidden)`` cache, so the tape records
# one node per layer and the compiled training step (``repro.nn.training``)
# calls the very same pair. Per timestep the scalar operation order is the
# Appendix A formula read left to right, and every parameter's per-timestep
# gradients are summed from ``t = T-1`` down to ``0`` — the order a tape of
# per-timestep nodes accumulates them in — so float64 results do not depend
# on which caller runs the math. Caches and scratch come from the caller's
# :class:`Workspace` when one is given (a compiled training step reuses its
# own from batch to batch), else they are allocated per call — never from
# the per-thread runner scratch, since two layers of one shape may both be
# mid-flight before either backward runs. Either way they are taken before
# the timestep loop, which only writes into them via ``out=``.
def _project_inputs(sequence: np.ndarray, pairs) -> None:
    """``out[t] = sequence[:, t, :] @ w`` for every ``(w, out)`` pair and timestep.

    With one input feature (the RU-history window) each product is a
    single multiply, so one broadcast multiply per gate covers every
    timestep — the K=1 matmul's value, without a BLAS call per step.
    """
    if sequence.shape[2] == 1:
        by_time = sequence.transpose(1, 0, 2)
        for w, out in pairs:
            np.multiply(by_time, w, out=out)
        return
    for t in range(sequence.shape[1]):
        for w, out in pairs:
            np.matmul(sequence[:, t, :], w, out=out[t])


def _add_recurrent(out: np.ndarray, h: np.ndarray, u, b, scratch: np.ndarray) -> np.ndarray:
    """``out = out + h @ u + b`` with ``out`` holding the input projection."""
    np.matmul(h, u, out=scratch)
    out += scratch
    out += b
    return out


def _sigmoid_delta(d: np.ndarray, s: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``d = d * s * (1 - s)`` in place: back through a sigmoid gate."""
    d *= s
    np.subtract(1.0, s, out=scratch)
    d *= scratch
    return d


def _sum_matmul(a, b, acc: np.ndarray, scratch: np.ndarray, first: bool) -> None:
    """``acc (+)= a @ b``: the first timestep visited writes, later ones add."""
    if first:
        np.matmul(a, b, out=acc)
    else:
        np.matmul(a, b, out=scratch)
        acc += scratch


def _sum_rows(d: np.ndarray, acc: np.ndarray, scratch: np.ndarray, first: bool) -> None:
    """``acc (+)= d.sum(axis=0)``, first-writes like :func:`_sum_matmul`."""
    if first:
        np.add.reduce(d, axis=0, out=acc)
    else:
        np.add.reduce(d, axis=0, out=scratch)
        acc += scratch


def _sum_gate(x, h_prev, d, acc: list, part: list, first: bool) -> None:
    """Accumulate one gate's ``(W, U, b)`` gradients for one timestep."""
    _sum_matmul(x.T, d, acc[0], part[0], first)
    _sum_matmul(h_prev.T, d, acc[1], part[1], first)
    _sum_rows(d, acc[2], part[2], first)


def _gate_grad_buffers(weights: tuple, out, empty) -> tuple[list, list]:
    """Per-parameter gradient accumulators (``out`` if given) plus scratch."""
    shapes = [w.shape for w in weights]
    acc = [empty(f"acc{k}", shape) for k, shape in enumerate(shapes)] if out is None else list(out)
    return acc, [empty(f"part{k}", shape) for k, shape in enumerate(shapes)]


def gru_sequence_forward(
    sequence: np.ndarray,
    h0: np.ndarray | None,
    w_z: np.ndarray, u_z: np.ndarray, b_z: np.ndarray,
    w_r: np.ndarray, u_r: np.ndarray, b_r: np.ndarray,
    w_h: np.ndarray, u_h: np.ndarray, b_h: np.ndarray,
    act: str = "relu",
    return_sequences: bool = False,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the Appendix A GRU over ``(batch, timesteps, input)``, caching for BPTT.

    Per timestep ``z = sigmoid(y W_z + h U_z + b_z)``, ``r`` likewise,
    ``h' = act(y W_h + r ⊙ (h U_h) + b_h)`` and
    ``h = (1 - z) ⊙ h' + z ⊙ h``. ``h0=None`` starts from the zero state.
    Returns the last state, or the ``(batch, timesteps, hidden)`` states
    under ``return_sequences``; zero timesteps return the initial state
    (or an empty sequence).
    """
    _resolve_act(act)
    batch, timesteps, _ = sequence.shape
    hidden = u_h.shape[0]
    empty = _allocator(workspace)
    states = empty("states", (timesteps + 1, batch, hidden))
    states[0] = 0.0 if h0 is None else h0
    z, r, hu, pre, cand = (
        empty(name, (timesteps, batch, hidden)) for name in ("z", "r", "hu", "pre", "cand")
    )
    tmp = empty("tmp", (batch, hidden))
    _project_inputs(sequence, ((w_z, z), (w_r, r), (w_h, pre)))
    for t in range(timesteps):
        h, h_next = states[t], states[t + 1]
        _sigmoid64_inplace(_add_recurrent(z[t], h, u_z, b_z, tmp))
        _sigmoid64_inplace(_add_recurrent(r[t], h, u_r, b_r, tmp))
        np.matmul(h, u_h, out=hu[t])
        # h' = act(y @ w_h + r * hu + b_h)
        np.multiply(r[t], hu[t], out=tmp)
        pre[t] += tmp
        pre[t] += b_h
        activation_into(act, pre[t], cand[t])
        # h = (1 - z) * h' + z * h
        np.subtract(1.0, z[t], out=h_next)
        h_next *= cand[t]
        np.multiply(z[t], h, out=tmp)
        h_next += tmp
    if return_sequences:
        out = np.ascontiguousarray(states[1:].transpose(1, 0, 2))
    else:
        out = states[timesteps]
    cache = {
        "sequence": sequence, "states": states, "z": z, "r": r, "hu": hu,
        "pre": pre, "cand": cand, "act": act, "return_sequences": return_sequences,
        "weights": (w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h), "workspace": workspace,
    }
    return out, cache


def gru_sequence_backward(
    grad: np.ndarray,
    cache: dict,
    input_grad: bool = True,
    state_grad: bool = True,
    out: list[np.ndarray] | None = None,
) -> tuple[np.ndarray | None, ...]:
    """Reverse-time BPTT for :func:`gru_sequence_forward`.

    Returns gradients aligned with ``(sequence, h0, w_z, u_z, b_z, w_r,
    u_r, b_r, w_h, u_h, b_h)``; the sequence and initial-state entries are
    ``None`` unless ``input_grad`` / ``state_grad`` ask for them. ``out``
    optionally supplies the nine parameter-gradient arrays to overwrite.
    """
    sequence, states = cache["sequence"], cache["states"]
    z, r, hu, pre, cand = cache["z"], cache["r"], cache["hu"], cache["pre"], cache["cand"]
    act, return_sequences = cache["act"], cache["return_sequences"]
    w_z, u_z, _, w_r, u_r, _, w_h, u_h, _ = weights = cache["weights"]
    batch, timesteps, input_size = sequence.shape
    hidden = u_h.shape[0]
    empty = _allocator(cache["workspace"])
    acc, part = _gate_grad_buffers(weights, out, empty)
    d_seq = np.zeros(sequence.shape) if input_grad else None
    d_h0 = None
    if timesteps == 0:
        for array in acc:
            array[...] = 0.0
        if state_grad:
            d_h0 = np.zeros((batch, hidden)) if return_sequences else grad.copy()
        return (d_seq, d_h0, *acc)
    d_z, d_r, d_cand, d_pre, d_hu, scratch, g_seq, ping, pong = (
        empty(name, (batch, hidden))
        for name in ("d_z", "d_r", "d_cand", "d_pre", "d_hu", "scratch", "g_seq", "ping", "pong")
    )
    mask = empty("mask", (batch, hidden), np.bool_)
    d_y, y_part = empty("d_y", (batch, input_size)), empty("y_part", (batch, input_size))
    g = grad[:, timesteps - 1, :] if return_sequences else grad  # dL/dh_t
    for t in range(timesteps - 1, -1, -1):
        y, h_prev = sequence[:, t, :], states[t]
        first = t == timesteps - 1
        np.subtract(h_prev, cand[t], out=d_z)  # d_z = g * (h_prev - h')
        d_z *= g
        np.subtract(1.0, z[t], out=d_cand)  # d_h' = g * (1 - z)
        d_cand *= g
        delta = activation_delta_into(act, d_cand, pre[t], cand[t], d_pre, scratch, mask)
        np.multiply(delta, hu[t], out=d_r)
        np.multiply(delta, r[t], out=d_hu)
        _sigmoid_delta(d_z, z[t], scratch)
        _sigmoid_delta(d_r, r[t], scratch)
        _sum_gate(y, h_prev, d_z, acc[0:3], part[0:3], first)
        _sum_gate(y, h_prev, d_r, acc[3:6], part[3:6], first)
        _sum_matmul(y.T, delta, acc[6], part[6], first)
        _sum_matmul(h_prev.T, d_hu, acc[7], part[7], first)
        _sum_rows(delta, acc[8], part[8], first)
        if input_grad:
            # d_y = delta @ w_h.T + d_z @ w_z.T + d_r @ w_r.T
            np.matmul(delta, w_h.T, out=d_y)
            np.matmul(d_z, w_z.T, out=y_part)
            d_y += y_part
            np.matmul(d_r, w_r.T, out=y_part)
            d_y += y_part
            d_seq[:, t, :] += d_y
        if t == 0 and not state_grad:
            break
        # d_h_prev = g * z + d_hu @ u_h.T + d_z @ u_z.T + d_r @ u_r.T
        g_next = pong if t % 2 else ping
        np.multiply(g, z[t], out=g_next)
        np.matmul(d_hu, u_h.T, out=scratch)
        g_next += scratch
        np.matmul(d_z, u_z.T, out=scratch)
        g_next += scratch
        np.matmul(d_r, u_r.T, out=scratch)
        g_next += scratch
        if t == 0:
            d_h0 = g_next
        elif return_sequences:
            g = np.add(grad[:, t - 1, :], g_next, out=g_seq)
        else:
            g = g_next
    return (d_seq, d_h0, *acc)


def lstm_sequence_forward(
    sequence: np.ndarray,
    h0: np.ndarray | None,
    c0: np.ndarray | None,
    w_i: np.ndarray, u_i: np.ndarray, b_i: np.ndarray,
    w_f: np.ndarray, u_f: np.ndarray, b_f: np.ndarray,
    w_o: np.ndarray, u_o: np.ndarray, b_o: np.ndarray,
    w_g: np.ndarray, u_g: np.ndarray, b_g: np.ndarray,
    return_sequences: bool = False,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the classic LSTM over ``(batch, timesteps, input)``, caching for BPTT.

    Per timestep the i/f/o gates are ``sigmoid(x W + h U + b)``, the
    candidate ``g`` is its ``tanh`` twin, ``c = f ⊙ c + i ⊙ g`` and
    ``h = o ⊙ tanh(c)``. ``h0``/``c0`` of ``None`` start from zeros.
    Returns ``(out, c_last, cache)`` where ``out`` is the last hidden state
    or, under ``return_sequences``, the hidden-state sequence.
    """
    batch, timesteps, _ = sequence.shape
    hidden = u_i.shape[0]
    empty = _allocator(workspace)
    states = empty("states", (timesteps + 1, batch, hidden))
    cells = empty("cells", (timesteps + 1, batch, hidden))
    states[0] = 0.0 if h0 is None else h0
    cells[0] = 0.0 if c0 is None else c0
    i, f, o, g, tc = (
        empty(name, (timesteps, batch, hidden)) for name in ("i", "f", "o", "g", "tc")
    )
    tmp = empty("tmp", (batch, hidden))
    _project_inputs(sequence, ((w_i, i), (w_f, f), (w_o, o), (w_g, g)))
    for t in range(timesteps):
        h = states[t]
        _sigmoid64_inplace(_add_recurrent(i[t], h, u_i, b_i, tmp))
        _sigmoid64_inplace(_add_recurrent(f[t], h, u_f, b_f, tmp))
        _sigmoid64_inplace(_add_recurrent(o[t], h, u_o, b_o, tmp))
        np.tanh(_add_recurrent(g[t], h, u_g, b_g, tmp), out=g[t])
        # c = f * c + i * g; h = o * tanh(c)
        np.multiply(f[t], cells[t], out=cells[t + 1])
        np.multiply(i[t], g[t], out=tmp)
        cells[t + 1] += tmp
        np.tanh(cells[t + 1], out=tc[t])
        np.multiply(o[t], tc[t], out=states[t + 1])
    if return_sequences:
        out = np.ascontiguousarray(states[1:].transpose(1, 0, 2))
    else:
        out = states[timesteps]
    cache = {
        "sequence": sequence, "states": states, "cells": cells,
        "i": i, "f": f, "o": o, "g": g, "tc": tc, "return_sequences": return_sequences,
        "weights": (w_i, u_i, b_i, w_f, u_f, b_f, w_o, u_o, b_o, w_g, u_g, b_g),
        "workspace": workspace,
    }
    return out, cells[timesteps], cache


def lstm_sequence_backward(
    grad: np.ndarray,
    cache: dict,
    grad_c: np.ndarray | None = None,
    input_grad: bool = True,
    state_grad: bool = True,
    out: list[np.ndarray] | None = None,
) -> tuple[np.ndarray | None, ...]:
    """Reverse-time BPTT for :func:`lstm_sequence_forward`.

    ``grad`` is the gradient of the returned hidden output, ``grad_c`` the
    optional gradient of the last cell state. Returns gradients aligned
    with ``(sequence, h0, c0, w_i, u_i, b_i, w_f, u_f, b_f, w_o, u_o, b_o,
    w_g, u_g, b_g)``; the sequence and initial-state entries are ``None``
    unless ``input_grad`` / ``state_grad`` ask for them; ``out`` optionally
    supplies the twelve parameter-gradient arrays to overwrite. Per
    timestep the output gate is back-propagated first, then the cell
    update — each hidden state's gradient sums the two in that order.
    """
    sequence, states, cells = cache["sequence"], cache["states"], cache["cells"]
    i, f, o, g, tc = cache["i"], cache["f"], cache["o"], cache["g"], cache["tc"]
    return_sequences = cache["return_sequences"]
    w_i, u_i, _, w_f, u_f, _, w_o, u_o, _, w_g, u_g, _ = weights = cache["weights"]
    batch, timesteps, input_size = sequence.shape
    hidden = u_i.shape[0]
    empty = _allocator(cache["workspace"])
    acc, part = _gate_grad_buffers(weights, out, empty)
    d_seq = np.zeros(sequence.shape) if input_grad else None
    d_h0 = d_c0 = None
    if timesteps == 0:
        for array in acc:
            array[...] = 0.0
        if state_grad:
            d_h0 = np.zeros((batch, hidden)) if return_sequences else grad.copy()
            d_c0 = np.zeros((batch, hidden)) if grad_c is None else grad_c.copy()
        return (d_seq, d_h0, d_c0, *acc)
    d_o, d_c, d_i, d_f, d_g, scratch, from_o, from_c, carry = (
        empty(name, (batch, hidden))
        for name in ("d_o", "d_c", "d_i", "d_f", "d_g", "scratch", "from_o", "from_c", "carry")
    )
    d_x, x_part = empty("d_x", (batch, input_size)), empty("x_part", (batch, input_size))
    carried = grad_c  # dL/dc_t from later timesteps (or the caller)
    gh = grad[:, timesteps - 1, :] if return_sequences else grad  # dL/dh_t
    for t in range(timesteps - 1, -1, -1):
        x, h_prev, c_prev = sequence[:, t, :], states[t], cells[t]
        first = t == timesteps - 1
        # h = o * tanh(c): d_o = gh * tc, d_c = gh * o * (1 - tc * tc)
        np.multiply(gh, tc[t], out=d_o)
        np.multiply(gh, o[t], out=d_c)
        np.multiply(tc[t], tc[t], out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        d_c *= scratch
        _sigmoid_delta(d_o, o[t], scratch)
        _sum_gate(x, h_prev, d_o, acc[6:9], part[6:9], first)
        # c = f * c_prev + i * g, with dL/dc summed over both consumers
        if carried is not None:
            d_c += carried
        np.multiply(d_c, g[t], out=d_i)
        _sigmoid_delta(d_i, i[t], scratch)
        np.multiply(d_c, c_prev, out=d_f)
        _sigmoid_delta(d_f, f[t], scratch)
        np.multiply(d_c, i[t], out=d_g)
        np.multiply(g[t], g[t], out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        d_g *= scratch
        _sum_gate(x, h_prev, d_i, acc[0:3], part[0:3], first)
        _sum_gate(x, h_prev, d_f, acc[3:6], part[3:6], first)
        _sum_gate(x, h_prev, d_g, acc[9:12], part[9:12], first)
        if input_grad:
            # (d_o @ w_o.T) + (d_i @ w_i.T + d_f @ w_f.T + d_g @ w_g.T)
            np.matmul(d_i, w_i.T, out=d_x)
            np.matmul(d_f, w_f.T, out=x_part)
            d_x += x_part
            np.matmul(d_g, w_g.T, out=x_part)
            d_x += x_part
            np.matmul(d_o, w_o.T, out=x_part)
            d_x += x_part
            d_seq[:, t, :] += d_x
        if t == 0 and not state_grad:
            break
        carried = np.multiply(d_c, f[t], out=carry)
        # dL/dh_prev = (d_o @ u_o.T) + (d_i @ u_i.T + d_f @ u_f.T + d_g @ u_g.T)
        np.matmul(d_o, u_o.T, out=from_o)
        np.matmul(d_i, u_i.T, out=from_c)
        np.matmul(d_f, u_f.T, out=scratch)
        from_c += scratch
        np.matmul(d_g, u_g.T, out=scratch)
        from_c += scratch
        if t == 0:
            d_h0, d_c0 = from_o + from_c, carried
        elif return_sequences:
            gh = np.add(grad[:, t - 1, :], from_o, out=from_o)
            gh += from_c
        else:
            gh = np.add(from_o, from_c, out=from_o)
    return (d_seq, d_h0, d_c0, *acc)


# ---------------------------------------------------------------------------
# Additive attention pooling
# ---------------------------------------------------------------------------
def attention_forward(
    sequence: np.ndarray, projection: np.ndarray, context: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Bahdanau-style pooling of ``(batch, timesteps, hidden)`` to ``(batch, hidden)``.

    The cache exposes ``weights`` — the softmax attention distribution —
    for analysis (:attr:`repro.nn.attention.AdditiveAttention.last_weights`).
    """
    batch, timesteps, hidden = sequence.shape
    flat = sequence.reshape(batch * timesteps, hidden)
    proj = np.tanh(flat @ projection)
    scores = (proj @ context).reshape(batch, timesteps)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    weights = exp / exp.sum(axis=1, keepdims=True)
    out = np.einsum("bt,bth->bh", weights, sequence)
    cache = {
        "sequence": sequence, "projection": projection, "context": context,
        "flat": flat, "proj": proj, "weights": weights,
    }
    return out, cache


def attention_pool(
    sequence: np.ndarray, projection: np.ndarray, context: np.ndarray
) -> np.ndarray:
    """:func:`attention_forward` without the training cache.

    The inference compilers pool with this variant: same arithmetic, same
    bitwise output, but no cache dict holding the full flattened sequence
    and projection alive past the call.
    """
    batch, timesteps, hidden = sequence.shape
    flat = sequence.reshape(batch * timesteps, hidden)
    proj = np.tanh(flat @ projection)
    scores = (proj @ context).reshape(batch, timesteps)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    weights = exp / exp.sum(axis=1, keepdims=True)
    return np.einsum("bt,bth->bh", weights, sequence)


def attention_backward(grad: np.ndarray, cache: dict) -> tuple[np.ndarray, ...]:
    """Gradients aligned with ``(sequence, projection, context)``."""
    sequence, weights, proj = cache["sequence"], cache["weights"], cache["proj"]
    batch, timesteps, hidden = sequence.shape

    d_weights = np.einsum("bh,bth->bt", grad, sequence)
    d_sequence = weights[:, :, None] * grad[:, None, :]
    # Softmax backward over the time axis.
    d_scores = weights * (d_weights - (d_weights * weights).sum(axis=1, keepdims=True))
    d_scores_flat = d_scores.reshape(batch * timesteps, 1)
    d_context = proj.T @ d_scores_flat
    d_proj_pre = (d_scores_flat @ cache["context"].T) * (1.0 - proj * proj)
    d_projection = cache["flat"].T @ d_proj_pre
    d_sequence = d_sequence + (d_proj_pre @ cache["projection"].T).reshape(
        batch, timesteps, hidden
    )
    return (d_sequence, d_projection, d_context)


# ---------------------------------------------------------------------------
# Prediction heads (paper §3.2)
# ---------------------------------------------------------------------------
def hadamard_head(v_d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``y' = Σ v_d ⊙ C`` (eq. 2) — row-wise dot product."""
    return np.einsum("ij,ij->i", v_d, c)


def hadamard_head_backward(grad: np.ndarray, v_d: np.ndarray, c: np.ndarray):
    return grad[:, None] * c, grad[:, None] * v_d


def bilinear_head(v_d: np.ndarray, r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``y' = v_d · R · C``; also returns the intermediate ``v_d @ R``."""
    projected = v_d @ r
    return np.einsum("ij,ij->i", projected, c), projected


def bilinear_head_backward(
    grad: np.ndarray, v_d: np.ndarray, r: np.ndarray, c: np.ndarray, projected: np.ndarray
):
    d_projected = grad[:, None] * c
    return d_projected @ r.T, v_d.T @ d_projected, grad[:, None] * projected


# ---------------------------------------------------------------------------
# Fused sequence runners (inference engine fast path)
# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# Per-thread scratch workspaces for the fused sequence runners
# ---------------------------------------------------------------------------
# At batch size 1 the runners are dispatch-bound: allocating and slicing
# the gate/state buffers costs as much as several timesteps of math. The
# buffers carry no state between calls (every element is written before
# it is read), so they are cached per *thread*, keyed by shape and dtype.
# Thread-locality is what keeps a compiled engine shareable: two worker
# threads driving one engine never see each other's scratch. The one
# aliasing rule this imposes: anything a runner *returns* must be a fresh
# array (``states`` is allocated per call; final states are ``.copy()``d)
# — otherwise a caller running two sequences back to back (e.g. the
# bidirectional encoder) would watch its first result mutate.
_SCRATCH = threading.local()


def _workspace(key: tuple, builder):
    spaces = getattr(_SCRATCH, "spaces", None)
    if spaces is None:
        spaces = _SCRATCH.spaces = {}
    ws = spaces.get(key)
    if ws is None:
        ws = spaces[key] = builder()
    return ws


def _gru_buffers(batch: int, hidden: int, dtype) -> tuple:
    """Gate/state scratch for one GRU shape, loop-invariant views included."""
    hu = np.empty((batch, 3 * hidden), dtype=dtype)
    zr = np.empty((batch, 2 * hidden), dtype=dtype)
    return (
        hu,
        np.empty((batch, hidden), dtype=dtype),  # tmp
        np.empty((batch, hidden), dtype=dtype),  # h
        np.empty((batch, hidden), dtype=dtype),  # h_next
        zr,
        np.empty((batch, hidden), dtype=dtype),  # cand
        zr[:, :hidden],  # z view
        zr[:, hidden:],  # r view
        hu[:, : 2 * hidden],  # hu_zr view
        hu[:, 2 * hidden :],  # hu_h view
    )


def _lstm_buffers(batch: int, hidden: int, dtype) -> tuple:
    """Gate/state scratch for one LSTM shape (fused ``gates`` layout)."""
    hu = np.empty((batch, 4 * hidden), dtype=dtype)
    gates = np.empty((batch, 4 * hidden), dtype=dtype)
    return (
        hu,
        np.empty((batch, hidden), dtype=dtype),  # tmp
        np.empty((batch, hidden), dtype=dtype),  # c
        np.empty((batch, hidden), dtype=dtype),  # c_next
        np.empty((batch, hidden), dtype=dtype),  # h
        np.empty((batch, hidden), dtype=dtype),  # h_next
        gates,
        gates[:, : 3 * hidden],  # ifo view
        gates[:, 3 * hidden :],  # g view
        gates[:, :hidden],  # i view
        gates[:, hidden : 2 * hidden],  # f view
        gates[:, 2 * hidden : 3 * hidden],  # o view
    )


def _lstm_lowp_buffers(batch: int, hidden: int, dtype) -> tuple:
    """LSTM scratch with *contiguous* ``ifo``/``g`` (low-precision path)."""
    hu = np.empty((batch, 4 * hidden), dtype=dtype)
    ifo = np.empty((batch, 3 * hidden), dtype=dtype)
    return (
        hu,
        np.empty((batch, hidden), dtype=dtype),  # tmp
        np.empty((batch, hidden), dtype=dtype),  # c
        np.empty((batch, hidden), dtype=dtype),  # c_next
        np.empty((batch, hidden), dtype=dtype),  # h
        np.empty((batch, hidden), dtype=dtype),  # h_next
        ifo,
        np.empty((batch, hidden), dtype=dtype),  # g
        ifo[:, :hidden],  # i view
        ifo[:, hidden : 2 * hidden],  # f view
        ifo[:, 2 * hidden :],  # o view
        hu[:, : 3 * hidden],  # hu_ifo view
        hu[:, 3 * hidden :],  # hu_g view
    )


def _projection_buffers(timesteps: int, batch: int, wide: int, narrow: int, dtype) -> tuple:
    """GEMM output scratch for the split affine projections: 2-D matmul
    targets plus their pre-sliced ``(timesteps, batch, ...)`` views."""
    a = np.empty((timesteps * batch, wide), dtype=dtype)
    b = np.empty((timesteps * batch, narrow), dtype=dtype)
    return (
        a, a.reshape(timesteps, batch, wide),
        b, b.reshape(timesteps, batch, narrow),
    )


def fuse_gru_weights(
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h, dtype=np.float64
) -> dict[str, np.ndarray]:
    """Pack per-gate GRU kernels into three fused, contiguous matrices.

    The update and reset gates share one input matmul and one recurrent
    matmul (``[W_z | W_r]``, ``[U_z | U_r]``); the candidate keeps its own
    recurrent kernel because of the reset-gate Hadamard. Per timestep this
    is 3 matmuls instead of 6 — the dominant cost at batch size 1.
    """
    hidden = u_h.shape[0]
    w = np.ascontiguousarray(np.hstack([w_z, w_r, w_h]), dtype=dtype)
    b = np.ascontiguousarray(np.concatenate([b_z, b_r, b_h]), dtype=dtype)
    # Affine-projection matrices for the low-precision batch path: with a
    # ones column appended to the input, ``[x | 1] @ [[W], [b]]`` computes
    # ``x @ W + b`` in a single GEMM (see _augmented_input).
    wb = np.vstack([w, b[None, :]])
    return {
        "w": w,
        # One recurrent matmul per step: [U_z | U_r | U_h]. Each output
        # column is the same length-``hidden`` dot product as in separate
        # per-gate matmuls, so fusing changes no bits.
        "u": np.ascontiguousarray(np.hstack([u_z, u_r, u_h]), dtype=dtype),
        "b_zr": np.ascontiguousarray(np.concatenate([b_z, b_r]), dtype=dtype),
        "b_h": np.ascontiguousarray(b_h, dtype=dtype),
        "b": b,
        "wb_zr": np.ascontiguousarray(wb[:, : 2 * hidden]),
        "wb_h": np.ascontiguousarray(wb[:, 2 * hidden :]),
        "hidden": hidden,
    }


def _input_projection(
    sequence: np.ndarray, w: np.ndarray, timesteps: int, batch: int, width: int
) -> np.ndarray:
    """All-timesteps input GEMM, ``(timesteps, batch, gates)`` layout.

    With one input feature (the RU-history hot path) the GEMM degenerates
    to K=1 — a scalar-row outer product that BLAS handles far slower than
    a broadcast multiply, and the multiply broadcasts straight off the
    transposed *view* (no contiguous copy, no reshapes). Each output
    element is the same single product either way, so both layouts are
    bitwise identical to the GEMM.
    """
    if sequence.shape[2] == 1:
        return sequence.transpose(1, 0, 2) * w[0]
    flat = np.ascontiguousarray(sequence.transpose(1, 0, 2)).reshape(timesteps * batch, -1)
    return (flat @ w).reshape(timesteps, batch, width)


def _augmented_input(
    sequence: np.ndarray, timesteps: int, batch: int, dtype: np.dtype
) -> np.ndarray:
    """``[x | 1]`` input matrix for single-GEMM affine projections.

    With a ones column appended, ``A @ [[W], [b]]`` computes
    ``x @ W + b`` in one BLAS call. This sidesteps numpy's broadcast
    machinery for the bias (and for the K=1 degenerate GEMM), whose
    short 48-element inner loops over thousands of rows cost several
    times the GEMM itself. Low-precision paths only: BLAS may fuse the
    multiply-adds (FMA), which is not bitwise identical to
    multiply-then-add — well within the float32 parity bound.
    """
    k = sequence.shape[2]
    n = timesteps * batch

    def build():
        fresh = np.empty((n, k + 1), dtype=dtype)
        fresh[:, k] = 1.0  # the ones column survives reuse untouched
        return fresh

    a = _workspace(("aug", n, k, dtype), build)
    a[:, :k] = np.ascontiguousarray(sequence.transpose(1, 0, 2)).reshape(n, k)
    return a


def _gru_sequence_lowp(
    sequence: np.ndarray, fused: dict[str, np.ndarray], act: str, return_sequences: bool
) -> np.ndarray:
    """Low-precision :func:`gru_sequence` batch path.

    Same recurrence, restructured for throughput rather than bitwise
    stability (float64 must never come through here): the input
    projection and bias land in one GEMM per gate block via
    :func:`_augmented_input` — split into contiguous ``zr``/``h`` arrays
    so no per-step operand is strided — t=0 activations read straight
    from the projection, and the state update uses the 3-op form
    ``cand + z * (h - cand)``. Everything lands within the float32
    parity bound (:data:`repro.nn.inference.FLOAT32_ATOL`).
    """
    batch, timesteps, _ = sequence.shape
    hidden = fused["hidden"]
    u = fused["u"]
    dtype = u.dtype
    act_fn = _resolve_act(act)
    a = _augmented_input(sequence, timesteps, batch, dtype)
    xw_zr_2d, xw_zr, xw_h_2d, xw_h = _workspace(
        ("gru_xw", timesteps, batch, hidden, dtype),
        lambda: _projection_buffers(timesteps, batch, 2 * hidden, hidden, dtype),
    )
    np.matmul(a, fused["wb_zr"], out=xw_zr_2d)
    np.matmul(a, fused["wb_h"], out=xw_h_2d)
    states = np.empty((batch, timesteps, hidden), dtype=dtype) if return_sequences else None
    hu, tmp, h, h_next, zr, cand, z_view, r_view, hu_zr, hu_h = _workspace(
        ("gru", batch, hidden, dtype), lambda: _gru_buffers(batch, hidden, dtype)
    )

    # t = 0: zero initial state — the recurrent matmul vanishes.
    _sigmoid_into(xw_zr[0], zr)
    _activation_into(act, xw_h[0], cand)
    np.multiply(z_view, cand, out=h)
    np.subtract(cand, h, out=h)  # h = (1 - z) * cand
    if return_sequences:
        states[:, 0, :] = h
    for t in range(1, timesteps):
        np.matmul(h, u, out=hu)
        np.add(xw_zr[t], hu_zr, out=zr)
        _sigmoid_inplace(zr)
        np.multiply(r_view, hu_h, out=tmp)
        np.add(xw_h[t], tmp, out=cand)
        if act_fn is not None:
            act_fn(cand)
        # h = cand + z * (h - cand)
        np.subtract(h, cand, out=tmp)
        np.multiply(z_view, tmp, out=tmp)
        np.add(cand, tmp, out=h_next)
        h, h_next = h_next, h
        if return_sequences:
            states[:, t, :] = h
    return states if return_sequences else h.copy()


def gru_sequence(
    sequence: np.ndarray, fused: dict[str, np.ndarray], act: str, return_sequences: bool = False
) -> np.ndarray:
    """Run a fused GRU over ``(batch, timesteps, input)`` without a tape.

    Batch-path structure (see DESIGN.md §6): one precombined input GEMM
    for *all* timesteps, laid out ``(timesteps, batch, 3*hidden)`` so each
    per-step slice is contiguous, then an allocation-free recurrent loop —
    gate/state buffers come from the per-thread :func:`_workspace` (every
    element is written before read, so reuse carries no state; returned
    arrays are always fresh) and every matmul/ufunc in the loop writes
    into them via ``out=``. The scalar operation order matches the naive
    form exactly, so float64 outputs are bitwise identical to the
    pre-restructure runner.

    Zero timesteps returns the zero initial state (what the autograd GRU
    yields when its loop never runs): ``(batch, hidden)`` zeros, or the
    empty ``(batch, 0, hidden)`` state sequence under
    ``return_sequences``.
    """
    batch, timesteps, _ = sequence.shape
    hidden = fused["hidden"]
    if timesteps == 0:
        shape = (batch, 0, hidden) if return_sequences else (batch, hidden)
        return np.zeros(shape, dtype=fused["w"].dtype)
    # Short-circuit the common float64 case before paying np.result_type
    # (~1us); a float64 sequence always promotes the pair to float64.
    if sequence.dtype != np.float64 and (
        np.result_type(sequence.dtype, fused["w"].dtype) != np.float64
    ):
        return _gru_sequence_lowp(sequence, fused, act, return_sequences)
    act_fn = _resolve_act(act)
    u, b_zr, b_h = fused["u"], fused["b_zr"], fused["b_h"]
    xw = _input_projection(sequence, fused["w"], timesteps, batch, 3 * hidden)
    states = np.empty((batch, timesteps, hidden), dtype=xw.dtype) if return_sequences else None
    hu, tmp, h, h_next, zr, cand, z_view, r_view, hu_zr, hu_h = _workspace(
        ("gru", batch, hidden, xw.dtype), lambda: _gru_buffers(batch, hidden, xw.dtype)
    )
    xw_zr, xw_h = xw[:, :, : 2 * hidden], xw[:, :, 2 * hidden :]

    # t = 0: zero initial state — the recurrent matmul vanishes.
    np.add(xw_zr[0], b_zr, out=zr)
    _sigmoid64_inplace(zr)
    np.add(xw_h[0], b_h, out=cand)
    if act_fn is not None:
        act_fn(cand)
    np.subtract(1.0, z_view, out=h)
    h *= cand
    if return_sequences:
        states[:, 0, :] = h
    for t in range(1, timesteps):
        # zr = sigmoid(xw_zr + h @ u_zr + b_zr)
        np.matmul(h, u, out=hu)
        np.add(xw_zr[t], hu_zr, out=zr)
        zr += b_zr
        _sigmoid64_inplace(zr)
        # cand = act(xw_h + r * (h @ u_h) + b_h)
        np.multiply(r_view, hu_h, out=tmp)
        np.add(xw_h[t], tmp, out=cand)
        cand += b_h
        if act_fn is not None:
            act_fn(cand)
        # h = (1 - z) * cand + z * h  (ping-pong into the spare state buffer)
        np.subtract(1.0, z_view, out=tmp)
        np.multiply(tmp, cand, out=tmp)
        np.multiply(z_view, h, out=h_next)
        np.add(tmp, h_next, out=h_next)
        h, h_next = h_next, h
        if return_sequences:
            states[:, t, :] = h
    return states if return_sequences else h.copy()


def fuse_lstm_weights(
    w_i, u_i, b_i, w_f, u_f, b_f, w_o, u_o, b_o, w_g, u_g, b_g, dtype=np.float64
) -> dict[str, np.ndarray]:
    """Pack per-gate LSTM kernels into one input and one recurrent matrix."""
    hidden = u_i.shape[0]
    w = np.ascontiguousarray(np.hstack([w_i, w_f, w_o, w_g]), dtype=dtype)
    b = np.ascontiguousarray(np.concatenate([b_i, b_f, b_o, b_g]), dtype=dtype)
    wb = np.vstack([w, b[None, :]])  # affine projection, see fuse_gru_weights
    return {
        "w": w,
        "u": np.ascontiguousarray(np.hstack([u_i, u_f, u_o, u_g]), dtype=dtype),
        "b": b,
        "wb_ifo": np.ascontiguousarray(wb[:, : 3 * hidden]),
        "wb_g": np.ascontiguousarray(wb[:, 3 * hidden :]),
        "hidden": hidden,
    }


def _lstm_sequence_lowp(
    sequence: np.ndarray, fused: dict[str, np.ndarray], return_sequences: bool
) -> np.ndarray:
    """Low-precision :func:`lstm_sequence` batch path.

    Mirrors :func:`_gru_sequence_lowp`: single-GEMM affine projection
    split into contiguous ``ifo``/``g`` arrays, t=0 activations straight
    from the projection, no strided per-step operands. float64 must
    never come through here — its outputs are contractually bitwise
    stable and take the exact-order loop in :func:`lstm_sequence`.
    """
    batch, timesteps, _ = sequence.shape
    hidden = fused["hidden"]
    u = fused["u"]
    dtype = u.dtype
    a = _augmented_input(sequence, timesteps, batch, dtype)
    xw_ifo_2d, xw_ifo, xw_g_2d, xw_g = _workspace(
        ("lstm_xw", timesteps, batch, hidden, dtype),
        lambda: _projection_buffers(timesteps, batch, 3 * hidden, hidden, dtype),
    )
    np.matmul(a, fused["wb_ifo"], out=xw_ifo_2d)
    np.matmul(a, fused["wb_g"], out=xw_g_2d)
    states = np.empty((batch, timesteps, hidden), dtype=dtype) if return_sequences else None
    hu, tmp, c, c_next, h, h_next, ifo, g, i_view, f_view, o_view, hu_ifo, hu_g = _workspace(
        ("lstm_lowp", batch, hidden, dtype), lambda: _lstm_lowp_buffers(batch, hidden, dtype)
    )

    # t = 0: zero initial state — the recurrent matmul and f*c vanish.
    _sigmoid_into(xw_ifo[0], ifo)
    np.tanh(xw_g[0], out=g)
    np.multiply(i_view, g, out=c)  # c = i * g
    np.tanh(c, out=tmp)
    np.multiply(o_view, tmp, out=h)  # h = o * tanh(c)
    if return_sequences:
        states[:, 0, :] = h
    for t in range(1, timesteps):
        np.matmul(h, u, out=hu)
        np.add(xw_ifo[t], hu_ifo, out=ifo)
        np.add(xw_g[t], hu_g, out=g)
        _sigmoid_inplace(ifo)
        np.tanh(g, out=g)
        # c = f * c + i * g  (ping-pong into the spare cell buffer)
        np.multiply(f_view, c, out=c_next)
        np.multiply(i_view, g, out=tmp)
        c_next += tmp
        c, c_next = c_next, c
        # h = o * tanh(c)
        np.tanh(c, out=tmp)
        np.multiply(o_view, tmp, out=h_next)
        h, h_next = h_next, h
        if return_sequences:
            states[:, t, :] = h
    return states if return_sequences else h.copy()


def lstm_sequence(
    sequence: np.ndarray, fused: dict[str, np.ndarray], return_sequences: bool = False
) -> np.ndarray:
    """Run a fused LSTM over ``(batch, timesteps, input)`` without a tape.

    Same batch-path structure as :func:`gru_sequence`: one input GEMM in
    ``(timesteps, batch, 4*hidden)`` layout, then an allocation-free loop
    over per-thread ping-pong gate/state buffers with the naive runner's
    exact scalar operation order (float64 outputs stay bitwise
    identical). Zero timesteps returns the zero initial state.
    """
    batch, timesteps, _ = sequence.shape
    hidden = fused["hidden"]
    if timesteps == 0:
        shape = (batch, 0, hidden) if return_sequences else (batch, hidden)
        return np.zeros(shape, dtype=fused["w"].dtype)
    # Same float64 short-circuit as gru_sequence (np.result_type ~1us).
    if sequence.dtype != np.float64 and (
        np.result_type(sequence.dtype, fused["w"].dtype) != np.float64
    ):
        return _lstm_sequence_lowp(sequence, fused, return_sequences)
    u, b = fused["u"], fused["b"]
    xw = _input_projection(sequence, fused["w"], timesteps, batch, 4 * hidden)
    states = np.empty((batch, timesteps, hidden), dtype=xw.dtype) if return_sequences else None
    hu, tmp, c, c_next, h, h_next, gates, ifo, g, i_view, f_view, o_view = _workspace(
        ("lstm", batch, hidden, xw.dtype), lambda: _lstm_buffers(batch, hidden, xw.dtype)
    )

    # t = 0: zero initial state — the recurrent matmul and f*c vanish.
    np.add(xw[0], b, out=gates)
    _sigmoid64_inplace(ifo)
    np.tanh(g, out=g)
    np.multiply(i_view, g, out=c)  # c = i * g
    np.tanh(c, out=tmp)
    np.multiply(o_view, tmp, out=h)  # h = o * tanh(c)
    if return_sequences:
        states[:, 0, :] = h
    for t in range(1, timesteps):
        # gates = xw + h @ u + b
        np.matmul(h, u, out=hu)
        np.add(xw[t], hu, out=gates)
        gates += b
        _sigmoid64_inplace(ifo)
        np.tanh(g, out=g)
        # c = f * c + i * g  (ping-pong into the spare cell buffer)
        np.multiply(f_view, c, out=c_next)
        np.multiply(i_view, g, out=tmp)
        c_next += tmp
        c, c_next = c_next, c
        # h = o * tanh(c)
        np.tanh(c, out=tmp)
        np.multiply(o_view, tmp, out=h_next)
        h, h_next = h_next, h
        if return_sequences:
            states[:, t, :] = h
    return states if return_sequences else h.copy()
