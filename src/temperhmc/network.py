"""Feed-forward classifier networks with flat parameter vectors.

Parameters live in a single 1-D float64 array ordered layer by layer:
first the (n_out, n_in) weight matrix in row-major order, then the n_out
biases.  Every parameter feeding a neuron with n_in inputs has fan-in
k = n_in + 1 (the bias counts).  The fan-in sets both the standard
initialisation range [-1/sqrt(k), 1/sqrt(k)] and the uniform prior box,
whose full width per coordinate is 2 * width_factor / sqrt(k).

The energy and its gradient are the samplers' hot path.  Each pair of
dataset_energy_fns closures shares one Workspace, which lives as long as
the closures do; the first energy and the first gradient call each
allocate the blocks their path needs (rows x widest layer floats: two
for the energy; one per layer plus two for the gradient).  After that a
call allocates only what it returns, the gradient, besides the transient
buffers numpy takes to broadcast or cast (at most 64 KiB).  energy and
energy_gradient called without a workspace build a throwaway one, so
both routes run the same code and give the same bits.

value_grad.kick(w), the gradient the samplers' inner Verlet steps kick
with, is a float32 kernel of its own, whose KickWorkspace the closure
builds on the first kick.  It lays activations out features-major (layer
width x rows), lets each bias ride in its layer's product through a row
of ones, reduces the softmax over the class axis and takes the layer-1
weight gradient against a row-major float32 copy of the inputs.  At 500
rows it costs about half a float64 value and gradient call and at 50 rows
about three quarters (demos/kernel_timing.py); its relative error against
the float64 gradient is about 1e-7 at a standard start and up to about
1e-5 in the prior box, on bench-shaped data.  It returns a float64
gradient and keeps no state from one call to the next, so it is a fixed
function of w, as hmc.py's exactness argument needs.
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
    half_width: np.ndarray = field(init=False, repr=False)  # sigma_i / 2

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "log_volume", float(np.sum(np.log(self.sigma))))
        object.__setattr__(self, "half_width", 0.5 * self.sigma)

    def inside(self, w: np.ndarray) -> np.ndarray:
        """Per-coordinate mask of w strictly inside the box; NaN and inf are outside."""
        if w.shape != self.sigma.shape:
            raise ShapeMismatch("parameter vector and prior box lengths differ")
        return np.abs(w) < self.half_width


def prior_box(arch: NetworkArch) -> PriorBox:
    """Fan-in-scaled uniform prior.

    The full coordinate width is sigma_i = 2 * width_factor / sqrt(k_i), so a
    width factor of 50 gives sigma_i = 100 / sqrt(k_i).
    """
    sigma = 2.0 * arch.prior_width_factor / np.sqrt(arch.fan_in())
    return PriorBox(sigma)


def init_standard(arch: NetworkArch, rng) -> np.ndarray:
    """Uniform draw from [-1/sqrt(k_i), 1/sqrt(k_i)] per coordinate."""
    rng = np.random.default_rng(rng)
    half = 1.0 / np.sqrt(arch.fan_in())
    return rng.uniform(-half, half)


def _sigmoid(a, out=None, e=None):
    """Logistic function of a, written into out (which may be a itself).

    exp(-|a|) stays finite deep inside a very wide prior box.  Branch-free,
    yet bit for bit 1 / (1 + exp(-a)) for a >= 0 and exp(a) / (1 + exp(a))
    below, so no sampler's accept decision moves: 0 <= e <= 1, so
    max(e, [a >= 0]) is exactly 1.0 for a >= 0 and e below, and NaN stays
    NaN.  e is scratch of a's shape; both are allocated when absent.
    """
    out = np.empty_like(a) if out is None else out
    e = np.empty_like(a) if e is None else e
    np.exp(np.negative(np.abs(a, out=e), out=e), out=e)
    np.maximum(e, np.greater_equal(a, 0.0, out=out), out=out)
    e += 1.0
    out /= e
    return out


def _sigmoid32(a):
    """Logistic function of a float32 block, in place, as (1 + tanh(a/2)) / 2.

    Half the passes of _sigmoid, and no tiny values: 1 + tanh(a/2) is 0 or
    at least 2^-24, so the result and its complement are 0 or at least
    2^-25, and no product of the backward pass starts from a subnormal.
    The price is an absolute error of about 3e-8 where the exact value is
    smaller, as at a < -17.
    """
    np.multiply(a, 0.5, out=a)
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5
    return a


# The float32 kernel keeps subnormals out of its arithmetic: on x86 each
# one costs about a hundred cycles, and left in they made a kick at w ~
# N(0, 5^2) several times slower than at the start.  It floors the exponent
# of every exponential at FLOOR32 (float32's smallest normal, TINY32, is
# exp(-87.34)), and zeroes the output delta's entries below FLUSH32 times
# its largest, which would go subnormal in the products below.
TINY32 = np.finfo(np.float32).tiny
FLOOR32 = np.float32(-87.0)
FLUSH32 = 2.0 ** -40


def _rows(arch, inputs):
    """The row count of a (rows, input width) block of inputs."""
    if inputs.ndim != 2 or inputs.shape[1] != arch.layer_sizes[0]:
        raise ShapeMismatch(f"inputs of shape {inputs.shape} for input width "
                            f"{arch.layer_sizes[0]}")
    return inputs.shape[0]


def _labels(arch, rows, labels):
    """labels as an array, checked: one class index per row."""
    n_classes = arch.layer_sizes[-1]
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ShapeMismatch(f"{labels.shape} labels for {rows} rows")
    if rows and not 0 <= labels.min() <= labels.max() < n_classes:
        raise ShapeMismatch(f"labels outside 0..{n_classes - 1}")
    return labels


class Workspace:
    """Scratch blocks for float64 energy and gradient calls on one fixed dataset.

    Built for one (inputs, labels) pair, which it checks once; it also
    holds the flat index of each row's label in the (rows, classes) scores.
    Each block holds rows x widest-layer float64s and is allocated the
    first time a call asks for it, so a closure that only evaluates
    energies never holds the gradient's blocks.  A call reuses the blocks
    of the calls before it and returns nothing that points into them.
    """

    def __init__(self, arch: NetworkArch, inputs: np.ndarray, labels=None):
        self.rows = rows = _rows(arch, inputs)
        self._width = max(arch.layer_sizes[1:])
        self._blocks = {}
        self._views = {}
        self.row = np.empty((rows, 1))   # a per-row max, then a per-row sum
        if labels is not None:
            labels = _labels(arch, rows, labels)
            self.picks = np.arange(rows) * arch.layer_sizes[-1] + labels
            self.picked = np.empty(rows)

    def block(self, key, cols: int) -> np.ndarray:
        """A (rows, cols) view of block key; views of one key share memory."""
        view = self._views.get((key, cols))
        if view is None:
            buf = self._blocks.get(key)
            if buf is None:
                buf = self._blocks[key] = np.empty(self.rows * self._width)
            view = buf[:self.rows * cols].reshape(self.rows, cols)
            self._views[(key, cols)] = view
        return view


class KickWorkspace:
    """The float32 kick kernel's buffers for one fixed dataset.

    Activations lie features-major, one (width, rows) block per layer, so
    the softmax reduces over the class axis, across contiguous rows.  The
    input block and each hidden block end in a row of ones that no call
    writes: each layer's bias rides in its product as the last column of
    an (n_out, n_in + 1) weight block, and the backward product against
    the same block yields the bias gradient as the last column of the
    weight gradient.  The layer-1 gradient runs against inputs_rows, a
    row-major copy of the inputs and their ones, where the product is about
    a third cheaper than against the transposed block.  A call writes every
    buffer it reads, the ones aside, so no state survives a call.
    """

    def __init__(self, arch: NetworkArch, inputs: np.ndarray, labels):
        rows = _rows(arch, inputs)
        n_in, *hidden, n_classes = arch.layer_sizes
        self.picks = _labels(arch, rows, labels) * rows + np.arange(rows)
        self.inputs_rows = np.ones((rows, n_in + 1), np.float32)
        self.inputs_rows[:, :n_in] = inputs
        self.layers = [np.ascontiguousarray(self.inputs_rows.T)]
        self.layers += [np.ones((n + 1, rows), np.float32) for n in hidden]
        self.layers.append(np.empty((n_classes, rows), np.float32))
        self.weights = [np.empty((n_out, n_in + 1), np.float32)
                        for _, _, n_in, n_out in arch.layout()]
        self.grad = np.empty(max(b.size for b in self.weights), np.float32)
        width = max(arch.layer_sizes[1:])
        self.blocks = [np.empty(width * rows, np.float32) for _ in range(2)]
        self.col = np.empty(rows, np.float32)   # each row's max, then its sum

    def block(self, key: int, width: int) -> np.ndarray:
        """A (width, rows) view of block key."""
        return self.blocks[key][:width * self.col.size].reshape(width, -1)


def _params(arch, w):
    w = np.asarray(w, dtype=float)
    if w.shape != (arch.n_params,):
        raise ShapeMismatch(
            f"parameter vector length {w.shape} does not match architecture ({arch.n_params})"
        )
    return w


def _forward_pass(arch, w, x, work, keep):
    """Every layer's activations, written into work's blocks.

    With keep, layer i has block i to itself, as the gradient needs, and
    block "a" is the sigmoid's scratch.  Otherwise the layers alternate
    between blocks 0 and 1, and the sigmoid's scratch is the other one,
    whose activations the layer's product has consumed.  Returns the layer
    blocks, pre-softmax scores last.
    """
    layout = arch.layout()
    last = len(layout) - 1
    h, layers = x, []
    for i, (w_sl, b_sl, n_in, n_out) in enumerate(layout):
        a = work.block(i if keep else i % 2, n_out)
        np.matmul(h, w[w_sl].reshape(n_out, n_in).T, out=a)
        a += w[b_sl]
        if i < last or arch.head == LOGISTIC_SOFTMAX:
            _sigmoid(a, a, work.block("a" if keep else (i + 1) % 2, n_out))
        layers.append(a)
        h = a
    return layers


def _log_softmax(scores, work, key, scratch):
    """Row-wise log-softmax of scores, written into block key.

    Block scratch takes the exponentials; it may be the scores' own block.
    """
    cols = scores.shape[1]
    # The row maxima, a column at a time: numpy reduces a short row slowly.
    # A maximum is exact in any order, up to the sign of a tie between 0.0
    # and -0.0, which can only flip the sign of an exactly zero log-probability.
    top = work.row[:, 0]
    top[:] = scores[:, 0]
    for j in range(1, cols):
        np.maximum(top, scores[:, j], out=top)
    shifted = np.subtract(scores, work.row, out=work.block(key, cols))
    exps = work.block(scratch, cols)
    np.exp(shifted, out=exps)
    np.log(np.add.reduce(exps, axis=-1, keepdims=True, out=work.row), out=work.row)
    shifted -= work.row
    return shifted


def _scores_logp(arch, w, x, work):
    """log-softmax of the scores, in the two alternating layer blocks alone."""
    depth = len(arch.layout())
    scores = _forward_pass(arch, w, x, work, keep=False)[-1]
    return _log_softmax(scores, work, depth % 2, (depth - 1) % 2)


def _total(logp, work):
    """Cross-entropy of the labelled rows: minus their summed log-probabilities."""
    logp.take(work.picks, out=work.picked, mode="clip")
    return -float(np.add.reduce(work.picked))


def forward(arch: NetworkArch, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one input (shape (256,)) or a batch (n, 256)."""
    w = _params(arch, w)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    probs = np.exp(_scores_logp(arch, w, x, Workspace(arch, x)))
    return probs[0] if single else probs


def energy(arch: NetworkArch, w: np.ndarray, inputs: np.ndarray,
           labels: np.ndarray, work: Workspace | None = None) -> float:
    """Total cross-entropy of the dataset in nats (negative log-likelihood).

    work, when given, is a Workspace built for these inputs and labels;
    without it the call builds a throwaway one.
    """
    if work is None:
        inputs = np.asarray(inputs, dtype=float)
        work = Workspace(arch, inputs, labels)
    return _total(_scores_logp(arch, _params(arch, w), inputs, work), work)


def energy_gradient(arch: NetworkArch, w: np.ndarray, inputs: np.ndarray,
                    labels: np.ndarray, work: Workspace | None = None):
    """Energy and its exact reverse-accumulation gradient.

    Returns (value, gradient) with gradient.shape == w.shape; the gradient
    is a new array on every call.  work is as for energy.
    """
    if work is None:
        inputs = np.asarray(inputs, dtype=float)
        work = Workspace(arch, inputs, labels)
    return _value_grad(arch, _params(arch, w), inputs, work)


def kick(arch: NetworkArch, w: np.ndarray, inputs: np.ndarray,
         labels: np.ndarray, work: KickWorkspace | None = None) -> np.ndarray:
    """The energy's gradient at w computed in float32, returned as float64.

    The samplers' inner Verlet kicks (hmc.velocity_verlet).  work, when
    given, is a KickWorkspace built for these inputs and labels; without it
    the call builds a throwaway one.  The gradient is a new array.
    """
    if work is None:
        work = KickWorkspace(arch, np.asarray(inputs), labels)
    return _kick(arch, _params(arch, w), work)


def _flush(x, scratch):
    """Zero the entries of x below FLUSH32 times its largest, in place.

    The cut is at least TINY32, so no subnormal stays.  NaN and inf keep x
    non-finite.  scratch is a block of x's shape.
    """
    np.abs(x, out=scratch)
    cut = max(float(scratch.max(initial=0.0)) * FLUSH32, TINY32)
    np.greater_equal(scratch, cut, out=scratch)
    x *= scratch


def _kick(arch, w, work):
    """The float32 gradient at float64 w, in work's buffers; see KickWorkspace.

    It differs from _value_grad in more than precision and layout: the
    sigmoid is _sigmoid32; the exponents are floored at FLOOR32; the
    labelled entry of the output delta is minus the other classes' sum
    rather than p_y - 1, which rounds to 0 in float32 once the others' mass
    falls below 6e-8; and the output delta is flushed.
    """
    layout = arch.layout()
    last = len(layout) - 1
    for i, (w_sl, b_sl, n_in, n_out) in enumerate(layout):
        weights = work.weights[i]
        weights[:, :n_in] = w[w_sl].reshape(n_out, n_in)
        weights[:, n_in] = w[b_sl]
        a = np.matmul(weights, work.layers[i], out=work.layers[i + 1][:n_out])
        if i < last or arch.head == LOGISTIC_SOFTMAX:
            _sigmoid32(a)

    # the output delta softmax - onehot, from floored log-probabilities;
    # blocks 0 and 1 then alternate between the delta and the scratch of
    # the layer below
    scores = work.layers[-1]
    classes = scores.shape[0]
    delta, free = work.block(0, classes), 1
    scratch = work.block(free, classes)
    top = np.maximum.reduce(scores, axis=0, out=work.col)
    np.subtract(scores, top, out=delta)
    np.exp(np.maximum(delta, FLOOR32, out=scratch), out=scratch)
    np.log(np.add.reduce(scratch, axis=0, out=work.col), out=work.col)
    delta -= work.col
    np.exp(np.maximum(delta, FLOOR32, out=delta), out=delta)
    flat = delta.reshape(-1)
    flat.put(work.picks, 0.0)
    others = np.add.reduce(delta, axis=0, out=work.col)
    flat.put(work.picks, np.negative(others, out=others))
    if arch.head == LOGISTIC_SOFTMAX:
        delta *= scores
        delta *= np.subtract(1.0, scores, out=scratch)
    _flush(delta, scratch)

    grad = np.empty_like(w)
    for i in range(last, -1, -1):
        w_sl, b_sl, n_in, n_out = layout[i]
        below = work.layers[i].T if i else work.inputs_rows
        g = np.matmul(delta, below,
                      out=work.grad[:n_out * (n_in + 1)].reshape(n_out, n_in + 1))
        grad[w_sl].reshape(n_out, n_in)[...] = g[:, :n_in]
        grad[b_sl] = g[:, n_in]
        if i > 0:
            back = np.matmul(work.weights[i][:, :n_in].T, delta,
                             out=work.block(free, n_in))
            free = 1 - free                         # delta's block is spent
            h = work.layers[i][:n_in]
            back *= h
            back *= np.subtract(1.0, h, out=work.block(free, n_in))
            delta = back
    return grad


def _value_grad(arch, w, inputs, work):
    """(energy, gradient) in float64."""
    layout = arch.layout()
    layers = _forward_pass(arch, w, inputs, work, keep=True)
    scores = layers[-1]
    classes = scores.shape[1]
    logp = _log_softmax(scores, work, "a", "b")
    value = _total(logp, work)

    # the output delta softmax - onehot; blocks "a" and "b" then alternate
    # between the delta and the scratch of the layer below
    delta = work.block("b", classes)
    flat = delta.reshape(-1)
    np.exp(logp, out=delta)
    flat.take(work.picks, out=work.picked, mode="clip")
    work.picked -= 1.0
    flat.put(work.picks, work.picked, mode="clip")
    free = "a"
    if arch.head == LOGISTIC_SOFTMAX:
        delta *= scores
        delta *= np.subtract(1.0, scores, out=work.block(free, classes))

    grad = np.empty_like(w)
    for i in range(len(layout) - 1, -1, -1):
        w_sl, b_sl, n_in, n_out = layout[i]
        h_prev = layers[i - 1] if i else inputs
        np.matmul(delta.T, h_prev, out=grad[w_sl].reshape(n_out, n_in))
        np.add.reduce(delta, axis=0, out=grad[b_sl])
        if i > 0:
            back = np.matmul(delta, w[w_sl].reshape(n_out, n_in),
                             out=work.block(free, n_in))
            free = "b" if free == "a" else "a"      # delta's block is spent
            back *= h_prev
            back *= np.subtract(1.0, h_prev, out=work.block(free, n_in))
            delta = back
    return value, grad


def dataset_energy_fns(arch: NetworkArch, inputs: np.ndarray, labels: np.ndarray):
    """Closures (energy_fn, value_grad) over a fixed dataset.

    energy_fn(w) is the value alone, for observables; value_grad(w) returns
    (value, gradient) from one pass and is the potential the samplers and
    the minimiser take.  value_grad.kick(w) is the float32 gradient alone
    (kick), for the samplers' inner Verlet steps; its KickWorkspace is
    built on the first kick.  energy_fn and value_grad share one Workspace,
    so the closures must not run at the same time from two threads.
    """
    inputs = np.ascontiguousarray(inputs, dtype=float)
    labels = np.asarray(labels)
    work = Workspace(arch, inputs, labels)
    kick_work = []      # the KickWorkspace, once built

    def energy_fn(w):
        return energy(arch, w, inputs, labels, work)

    def value_grad(w):
        return energy_gradient(arch, w, inputs, labels, work)

    def kick_fn(w):
        if not kick_work:
            kick_work.append(KickWorkspace(arch, inputs, labels))
        return kick(arch, w, inputs, labels, kick_work[0])

    value_grad.kick = kick_fn
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
