"""Feed-forward classifier networks with flat parameter vectors.

Parameters live in a single 1-D float64 array ordered layer by layer:
first the (n_out, n_in) weight matrix in row-major order, then the n_out
biases.  Every parameter feeding a neuron with n_in inputs has fan-in
k = n_in + 1 (the bias counts).  The fan-in sets both the standard
initialisation range [-1/sqrt(k), 1/sqrt(k)] and the uniform prior box,
whose full width per coordinate is 2 * width_factor / sqrt(k).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .files import replacing

LINEAR_SOFTMAX = "linear-softmax"
LOGISTIC_SOFTMAX = "logistic-softmax"


@dataclass(frozen=True)
class NetworkArch:
    """Architecture of a fully-connected classifier.

    layer_sizes runs from the input size to the output size, e.g.
    (256, 40, 40, 40, 10).  The hidden activation is always logistic.
    The head is either a linear layer followed by softmax, or a logistic
    layer followed by softmax (which caps the attainable likelihood).
    """

    layer_sizes: tuple[int, ...]
    head: str = LINEAR_SOFTMAX
    prior_width_factor: float = 50.0

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ShapeMismatch("need at least one hidden layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ShapeMismatch(f"bad layer sizes {self.layer_sizes}")
        if self.head not in (LINEAR_SOFTMAX, LOGISTIC_SOFTMAX):
            raise ShapeMismatch(f"unknown head {self.head!r}")
        if self.prior_width_factor <= 0:
            raise ShapeMismatch("prior width factor must be positive")
        # The layout is on the hot path of every energy call, so it is built
        # once.  Plain attributes, not fields: equality and hashing still see
        # only the three fields above.
        out = []
        offset = 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w_sl = slice(offset, offset + n_in * n_out)
            b_sl = slice(w_sl.stop, w_sl.stop + n_out)
            out.append((w_sl, b_sl, n_in, n_out))
            offset = b_sl.stop
        object.__setattr__(self, "_layout", tuple(out))
        object.__setattr__(self, "n_params", offset)

    def layout(self):
        """Per-layer (weight_slice, bias_slice, n_in, n_out) tuples."""
        return self._layout

    def fan_in(self) -> np.ndarray:
        """Fan-in k (bias included) of the target neuron for every parameter."""
        k = np.empty(self.n_params)
        for w_sl, b_sl, n_in, _ in self.layout():
            k[w_sl] = n_in + 1
            k[b_sl] = n_in + 1
        return k


# The standard model ids used throughout the experiments: a deep 3-hidden-layer
# net with linear-softmax head, its logistic-head variant (1000x wider prior),
# and a single-hidden-layer net.
STANDARD_ARCHS = {
    "M1": NetworkArch((256, 40, 10)),
    "M3": NetworkArch((256, 40, 40, 40, 10)),
    "M3star": NetworkArch((256, 40, 40, 40, 10), head=LOGISTIC_SOFTMAX,
                          prior_width_factor=1000.0),
}


def get_arch(model_id: str) -> NetworkArch:
    try:
        return STANDARD_ARCHS[model_id]
    except KeyError:
        raise ShapeMismatch(f"unknown model id {model_id!r}; choose from {sorted(STANDARD_ARCHS)}")


@dataclass(frozen=True)
class PriorBox:
    """Uniform prior support: |w_i| < sigma_i / 2 (strict)."""

    sigma: np.ndarray
    log_volume: float = field(init=False)   # sum of log sigma_i

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "log_volume", float(np.sum(np.log(self.sigma))))


def prior_box(arch: NetworkArch) -> PriorBox:
    """Fan-in-scaled uniform prior.

    The full coordinate width is sigma_i = 2 * width_factor / sqrt(k_i), so a
    width factor of 50 gives sigma_i = 100 / sqrt(k_i).
    """
    sigma = 2.0 * arch.prior_width_factor / np.sqrt(arch.fan_in())
    return PriorBox(sigma)


def in_support(w: np.ndarray, box: PriorBox) -> bool:
    if w.shape != box.sigma.shape:
        raise ShapeMismatch("parameter vector and prior box lengths differ")
    return bool(np.all(np.abs(w) < 0.5 * box.sigma))


def init_standard(arch: NetworkArch, rng) -> np.ndarray:
    """Uniform draw from [-1/sqrt(k_i), 1/sqrt(k_i)] per coordinate."""
    rng = np.random.default_rng(rng)
    half = 1.0 / np.sqrt(arch.fan_in())
    return rng.uniform(-half, half)


def _sigmoid(a):
    # exp(-|a|) stays finite deep inside a very wide prior box.  Branch-free,
    # yet bit for bit 1 / (1 + exp(-a)) for a >= 0 and exp(a) / (1 + exp(a))
    # below, so no sampler's accept decision moves.
    e = np.exp(-np.abs(a))
    out = np.where(a >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def _check_shapes(arch, w, x):
    if w.ndim != 1 or w.shape[0] != arch.n_params:
        raise ShapeMismatch(
            f"parameter vector length {w.shape} does not match architecture ({arch.n_params})"
        )
    if x.shape[-1] != arch.layer_sizes[0]:
        raise ShapeMismatch(f"input width {x.shape[-1]} != {arch.layer_sizes[0]}")


def _forward_pass(arch, w, x):
    """All layer activations; returns (hidden activations, pre-softmax scores)."""
    layout = arch.layout()
    h = x
    hiddens = [h]
    for i, (w_sl, b_sl, n_in, n_out) in enumerate(layout):
        a = h @ w[w_sl].reshape(n_out, n_in).T + w[b_sl]
        if i < len(layout) - 1:
            h = _sigmoid(a)
            hiddens.append(h)
        else:
            scores = _sigmoid(a) if arch.head == LOGISTIC_SOFTMAX else a
    return hiddens, scores


def _log_softmax(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def forward(arch: NetworkArch, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one input (shape (256,)) or a batch (n, 256)."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    _check_shapes(arch, w, x)
    _, scores = _forward_pass(arch, w, x)
    probs = np.exp(_log_softmax(scores))
    return probs[0] if single else probs


def energy(arch: NetworkArch, w: np.ndarray, inputs: np.ndarray,
           labels: np.ndarray) -> float:
    """Total cross-entropy of the dataset in nats (negative log-likelihood)."""
    w = np.asarray(w, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    _check_shapes(arch, w, inputs)
    _, scores = _forward_pass(arch, w, inputs)
    logp = _log_softmax(scores)
    return -float(np.sum(logp[np.arange(len(labels)), labels]))


def energy_gradient(arch: NetworkArch, w: np.ndarray, inputs: np.ndarray,
                    labels: np.ndarray):
    """Energy and its exact reverse-accumulation gradient.

    Returns (value, gradient) with gradient.shape == w.shape.
    """
    w = np.asarray(w, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    _check_shapes(arch, w, inputs)
    layout = arch.layout()
    hiddens, scores = _forward_pass(arch, w, inputs)
    logp = _log_softmax(scores)
    rows = np.arange(len(labels))
    value = -float(np.sum(logp[rows, labels]))

    delta = np.exp(logp)
    delta[rows, labels] -= 1.0
    if arch.head == LOGISTIC_SOFTMAX:
        delta = delta * scores * (1.0 - scores)

    grad = np.empty_like(w)
    for i in range(len(layout) - 1, -1, -1):
        w_sl, b_sl, n_in, n_out = layout[i]
        h_prev = hiddens[i]
        grad[w_sl] = (delta.T @ h_prev).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if i > 0:
            back = delta @ w[w_sl].reshape(n_out, n_in)
            delta = back * h_prev * (1.0 - h_prev)
    return value, grad


def dataset_energy_fns(arch: NetworkArch, inputs: np.ndarray, labels: np.ndarray):
    """Closures (energy_fn, value_grad) over a fixed dataset.

    energy_fn(w) is the value alone, for observables; value_grad(w) returns
    (value, gradient) from one pass and is the potential the samplers and
    the minimiser take.
    """
    inputs = np.ascontiguousarray(inputs, dtype=float)
    labels = np.asarray(labels)

    def energy_fn(w):
        return energy(arch, w, inputs, labels)

    def value_grad(w):
        return energy_gradient(arch, w, inputs, labels)

    return energy_fn, value_grad


def save_params(path, arch: NetworkArch, w: np.ndarray) -> None:
    """Flat binary checkpoint: one JSON header line, then float64 LE values."""
    w = np.asarray(w, dtype="<f8")
    if w.shape != (arch.n_params,):
        raise ShapeMismatch("parameter vector does not match architecture")
    header = {
        "format": "temperhmc-params",
        "version": 1,
        "layer_sizes": list(arch.layer_sizes),
        "head": arch.head,
        "prior_width_factor": arch.prior_width_factor,
        "n_params": arch.n_params,
    }
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(w.tobytes())


def load_params(path):
    """Inverse of save_params; returns (arch, w)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    if header.get("format") != "temperhmc-params":
        raise ShapeMismatch(f"{path} is not a parameter checkpoint")
    arch = NetworkArch(tuple(header["layer_sizes"]), head=header["head"],
                       prior_width_factor=header["prior_width_factor"])
    w = np.frombuffer(payload, dtype="<f8").copy()
    if w.shape[0] != arch.n_params:
        raise ShapeMismatch("checkpoint payload length does not match header")
    return arch, w
