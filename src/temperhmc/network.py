"""Feed-forward classifier networks with flat parameter vectors.

Parameters live in a single 1-D float64 array ordered layer by layer:
first the (n_out, n_in) weight matrix in row-major order, then the n_out
biases.  Every parameter feeding a neuron with n_in inputs has fan-in
k = n_in + 1 (the bias counts).  The fan-in sets both the standard
initialisation range [-1/sqrt(k), 1/sqrt(k)] and the uniform prior box,
whose full width per coordinate is 2 * width_factor / sqrt(k).

The energy and its gradient are the samplers' hot path.  One kernel, a
forward loop and a backward loop, serves both precisions on a Workspace
built for one dataset in one dtype.  Activations lie features-major, a
(layer width, rows) block per layer, so the softmax reduces over the
class axis, across contiguous rows.  Each hidden block ends in a row of
ones: the next layer's bias rides in its product as the last column of
an (n_out, n_in + 1) weight block, and the backward product against the
same block yields the bias gradient as the last column.  Both dtypes
take the logistic function as (1 + tanh(a/2)) / 2, which yields no
subnormal.  Only the input block differs between the dtypes.  A float64
workspace reads the caller's rows through their transpose, with no copy:
layer 1 adds its bias after the product, and its bias gradient is a row
sum.  A float32 workspace holds a cast copy that ends in a row of ones,
and its row-major twin, against which the layer-1 gradient is a third
cheaper.

Every call uses the workspace's two scratch blocks (rows x (widest layer
+ 1) floats), between which an energy call alternates its layers and a
gradient call its deltas.  A gradient call is a forward pass that keeps
every layer's block (_forward with keep) and a backward pass over them
(_backward) into a packed weight-gradient block; the first gradient call
allocates these, so a closure that only evaluates energies never holds
them.  After that a call allocates only what it returns, the gradient,
besides the transient buffers numpy takes to broadcast or cast (at most
64 KiB).  A call writes every buffer it reads, the inputs aside, so no
state survives it.  energy, energy_gradient and kick called without a
workspace build a throwaway one, so every route runs the same code and
gives the same bits.  value_grad.staged runs the two passes of one
gradient call apart, so a caller that rejects a point on its energy
skips the backward pass.

value_grad.kick(w), the gradient of the samplers' inner Verlet steps,
runs the same loops on a float32 workspace, built on the first kick.  At
500 rows it costs about half a float64 value and gradient call and at 50
rows about three quarters (demos/kernel_timing.py).  On bench-shaped
data its relative error against the float64 gradient is about 1e-7 at a
standard start and up to about 2e-5 in the 50x prior box of M1 and M3,
but at M3star's 1000x box it reaches 1e-3 to 1e-1 at 500 rows.  It
returns a float64 gradient and is a fixed function of w, which is all
hmc.py's exactness argument needs; a worse kick costs acceptance, not
exactness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

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


def _sigmoid(a):
    """Logistic function of a block, in place, as (1 + tanh(a/2)) / 2.

    One form for both dtypes.  exp is never taken, so a deep inside a very
    wide prior box is no trouble, and there are no tiny values: 1 +
    tanh(a/2) is 0 or at least the gap below 1 (2^-24 in float32, 2^-53
    in float64), so the result and its complement are 0 or at least half
    that, and no product of the forward or backward pass starts from a
    subnormal, which costs about a hundred cycles on x86.  The price is
    an absolute error of up to 2^-25 or 2^-54 where the exact value is
    smaller, as at a < -17 in float32 and a < -37 in float64.
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
    """One dtype's buffers for network calls on one fixed dataset.

    Built for one (inputs, labels) pair, which it checks once; picks holds
    the flat index of each row's label in the (classes, rows) scores.
    blocks are the two scratch blocks, kept and grad a gradient call's (see
    the module docstring).  weights[i] takes layer i's packed weights, but
    a float64 layer 1 reads w as it lies, and weights[0] is None.
    """

    def __init__(self, arch: NetworkArch, inputs: np.ndarray, labels=None,
                 dtype=np.float64):
        inputs = np.asarray(inputs, dtype=float)
        self.rows = rows = _rows(arch, inputs)
        self.dtype = np.dtype(dtype)
        self.f32 = self.dtype == np.float32
        n_in, *hidden, n_classes = arch.layer_sizes
        if self.f32:
            self.inputs_rows = np.ones((rows, n_in + 1), np.float32)
            self.inputs_rows[:, :n_in] = inputs
            self.inputs = np.ascontiguousarray(self.inputs_rows.T)
        else:
            self.inputs_rows, self.inputs = inputs, inputs.T
        self.heights = [n + 1 for n in hidden] + [n_classes]   # layer blocks' rows
        self.weights = [np.empty((n_out, n_in + 1), dtype) if i or self.f32 else None
                        for i, (_, _, n_in, n_out) in enumerate(arch.layout())]
        width = max(arch.layer_sizes[1:]) + 1
        self.blocks = [np.zeros(width * rows, dtype) for _ in range(2)]
        self.col = np.empty(rows, dtype)    # a per-row max, sum or pick
        self.kept = self.grad = None
        self.picks = (None if labels is None
                      else _labels(arch, rows, labels) * rows + np.arange(rows))

    def block(self, key: int, height: int) -> np.ndarray:
        """A (height, rows) view of scratch block key."""
        return self.blocks[key][:height * self.rows].reshape(height, -1)

    def layer(self, i: int, keep: bool) -> np.ndarray:
        """The block that layer i writes: its own with keep, else a scratch one."""
        if not keep:
            return self.block(i % 2, self.heights[i])
        if self.kept is None:
            self.kept = [np.empty((n, self.rows), self.dtype) for n in self.heights]
            self.grad = np.empty(max(b.size for b in self.weights if b is not None),
                                 self.dtype)
        return self.kept[i]


def _params(arch, w):
    w = np.asarray(w, dtype=float)
    if w.shape != (arch.n_params,):
        raise ShapeMismatch(f"parameter vector length {w.shape} does not match "
                            f"architecture ({arch.n_params})")
    return w


def _exp(x, out, work):
    """exp(x) into out; a float32 workspace floors the exponent at FLOOR32."""
    if work.f32:
        x = np.maximum(x, FLOOR32, out=out)
    return np.exp(x, out=out)


def _forward(arch, w, work, keep):
    """(energy, log-softmax of the scores) at w, in work's buffers.

    The energy is None in float32 or without labels.  With keep, every
    layer has a block of its own, as _backward needs.  Otherwise the layers
    alternate between the scratch blocks.  The log-softmax lands in the
    block the scores do not hold, the exponentials in the other (blocks 0
    and 1 with keep).
    """
    layout = arch.layout()
    last = len(layout) - 1
    h = work.inputs
    for i, (w_sl, b_sl, n_in, n_out) in enumerate(layout):
        out = work.layer(i, keep)
        a = out[:n_out]
        weights = work.weights[i]
        if weights is None:
            np.matmul(w[w_sl].reshape(n_out, n_in), h, out=a)
            a += w[b_sl][:, None]
        else:
            weights[:, :n_in] = w[w_sl].reshape(n_out, n_in)
            weights[:, n_in] = w[b_sl]
            np.matmul(weights, h, out=a)
        out[n_out:] = 1.0               # a hidden block's ones; the scores have none
        if i < last or arch.head == LOGISTIC_SOFTMAX:
            _sigmoid(a)
        h = out

    exps_block = 1 if keep else last % 2
    classes = h.shape[0]
    logp = work.block(1 - exps_block, classes)
    top = np.maximum.reduce(h, axis=0, out=work.col)
    np.subtract(h, top, out=logp)
    exps = _exp(logp, work.block(exps_block, classes), work)
    np.log(np.add.reduce(exps, axis=0, out=work.col), out=work.col)
    logp -= work.col
    value = None
    if work.picks is not None and not work.f32:
        value = -float(np.add.reduce(logp.take(work.picks, out=work.col, mode="clip")))
    return value, logp


def _flush(x, scratch):
    """Zero the entries of x below FLUSH32 times its largest, in place.

    The cut is at least TINY32, so no subnormal stays.  NaN and inf keep x
    non-finite.  scratch is a block of x's shape.
    """
    np.abs(x, out=scratch)
    cut = max(float(scratch.max(initial=0.0)) * FLUSH32, TINY32)
    np.greater_equal(scratch, cut, out=scratch)
    x *= scratch


def _backward(arch, work, delta):
    """The gradient from the blocks _forward(keep=True) left in work.

    delta is the log-softmax that call returned; the pass turns it into
    the output delta in place.  Float32 differs in more than precision:
    the exponents are floored at FLOOR32, the output delta is flushed, and
    its labelled entry is minus the other classes' sum, not p_y - 1, which
    rounds to 0 in float32 once the others' mass falls below 6e-8.
    """
    layout = arch.layout()
    flat = delta.reshape(-1)
    if work.f32:
        _exp(delta, delta, work)
        flat.put(work.picks, 0.0)
        others = np.add.reduce(delta, axis=0, out=work.col)
        flat.put(work.picks, np.negative(others, out=others))
    else:
        np.exp(delta, out=delta)
        picked = flat.take(work.picks, out=work.col, mode="clip")
        picked -= 1.0
        flat.put(work.picks, picked, mode="clip")
    # the output delta softmax - onehot lies in scratch block 0; blocks 0
    # and 1 then alternate between the delta and the layer below's scratch
    free = 1
    scratch = work.block(free, delta.shape[0])
    if arch.head == LOGISTIC_SOFTMAX:
        delta *= work.kept[-1]
        delta *= np.subtract(1.0, work.kept[-1], out=scratch)
    if work.f32:
        _flush(delta, scratch)

    grad = np.empty(arch.n_params)
    for i in range(len(layout) - 1, -1, -1):
        w_sl, b_sl, n_in, n_out = layout[i]
        if work.weights[i] is None:
            np.matmul(delta, work.inputs_rows, out=grad[w_sl].reshape(n_out, n_in))
            np.add.reduce(delta, axis=1, out=grad[b_sl])
        else:
            below = work.kept[i - 1].T if i else work.inputs_rows
            g = np.matmul(delta, below,
                          out=work.grad[:n_out * (n_in + 1)].reshape(n_out, n_in + 1))
            grad[w_sl].reshape(n_out, n_in)[...] = g[:, :n_in]
            grad[b_sl] = g[:, n_in]
        if i > 0:
            back = np.matmul(work.weights[i][:, :n_in].T, delta,
                             out=work.block(free, n_in))
            free = 1 - free                         # delta's block is spent
            h = work.kept[i - 1][:n_in]
            back *= h
            back *= np.subtract(1.0, h, out=work.block(free, n_in))
            delta = back
    return grad


def _staged(arch, w, work):
    """(energy, finish): the forward pass now, finish() -> its gradient.

    finish is valid until the next call on work.
    """
    value, logp = _forward(arch, _params(arch, w), work, keep=True)
    return value, partial(_backward, arch, work, logp)


def forward(arch: NetworkArch, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one input (shape (256,)) or a batch (n, 256)."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    logp = _forward(arch, _params(arch, w), Workspace(arch, rows), keep=False)[1]
    probs = np.exp(logp.T)
    return probs[0] if x.ndim == 1 else probs


def energy(arch: NetworkArch, w: np.ndarray, inputs: np.ndarray,
           labels: np.ndarray, work: Workspace | None = None) -> float:
    """Total cross-entropy of the dataset in nats (negative log-likelihood).

    work, when given, is a float64 Workspace built for these inputs and
    labels; without it the call builds a throwaway one.
    """
    if work is None:
        work = Workspace(arch, inputs, labels)
    return _forward(arch, _params(arch, w), work, keep=False)[0]


def energy_gradient(arch: NetworkArch, w: np.ndarray, inputs: np.ndarray,
                    labels: np.ndarray, work: Workspace | None = None):
    """Energy and its exact reverse-accumulation gradient.

    Returns (value, gradient) with gradient.shape == w.shape; the gradient
    is a new array on every call.  work is as for energy.
    """
    if work is None:
        work = Workspace(arch, inputs, labels)
    value, finish = _staged(arch, w, work)
    return value, finish()


def kick(arch: NetworkArch, w: np.ndarray, inputs: np.ndarray,
         labels: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """The energy's gradient at w computed in float32, returned as float64.

    The samplers' inner Verlet kicks (hmc.velocity_verlet), with the
    guards _backward lists.  work, when given, is a float32 Workspace built
    for these inputs and labels; without it the call builds a throwaway
    one.  The gradient is a new array.
    """
    if work is None:
        work = Workspace(arch, inputs, labels, np.float32)
    return _staged(arch, w, work)[1]()


def dataset_energy_fns(arch: NetworkArch, inputs: np.ndarray, labels: np.ndarray):
    """Closures (energy_fn, value_grad) over a fixed dataset.

    energy_fn(w) is the value alone, for observables; value_grad(w) returns
    (value, gradient) from one pass and is the potential the samplers and
    the minimiser take.  Both share one float64 Workspace, which reads the
    inputs in place; energy_fn alone never allocates the gradient's blocks.
    value_grad.staged(w) -> (value, finish) is value_grad in two halves:
    the forward pass now, and finish() -> gradient, the backward pass from
    the blocks the forward pass kept, only if the caller wants it.
    value_grad runs the same halves back to back, so both give the same
    bits; finish is valid until the next call on either closure.
    value_grad.kick(w) is the float32 gradient alone (kick), for the inner
    Verlet steps, on a float32 Workspace built on the first kick.  The
    closures must not run at the same time from two threads.
    """
    inputs = np.ascontiguousarray(inputs, dtype=float)
    labels = np.asarray(labels)
    work = Workspace(arch, inputs, labels)
    kick_work = []      # the float32 Workspace, once built

    def energy_fn(w):
        return energy(arch, w, inputs, labels, work)

    def value_grad(w):
        return energy_gradient(arch, w, inputs, labels, work)

    def staged(w):
        return _staged(arch, w, work)

    def kick_fn(w):
        if not kick_work:
            kick_work.append(Workspace(arch, inputs, labels, np.float32))
        return kick(arch, w, inputs, labels, kick_work[0])

    value_grad.staged = staged
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
