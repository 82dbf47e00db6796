"""One-hidden-layer denoising autoencoder trained with Adam.

Inputs are corrupted with masking noise (independent zeroing of components)
and the network reconstructs the clean input through a sigmoid hidden and
output layer, minimizing sigmoid cross-entropy against inputs in [0, 1].
Training rejects data outside [0, 1] with a DataError instead of rescaling
it: the model stores no input scale, so ``encode`` could not apply a rescale
and would disagree with training. The pipeline's inputs are L2-normalized,
non-negative tf-idf rows, which always lie in range.

Reproducibility contract: all randomness flows through one generator seeded
from the config, consumed in a fixed order -- (1) hidden-weight init
``uniform(-lim, lim, (h, d))``, (2) output-weight init
``uniform(-lim, lim, (d, h))`` with the same ``lim = sqrt(6 / (d + h))``,
then per epoch one permutation of the sample indices, then per minibatch one
uniform draw of the batch's shape for the masking noise. Adam applies
parameter updates in the order W, b, W_out, b_out with a single shared
timestep incremented per minibatch. The updates run in place, in blocks of
``_ADAM_BLOCK`` elements, with the same per-element operation order as the
textbook expressions (``m = b1*m + (1-b1)*g``,
``v = b2*v + ((1-b2)*g)*g``, ``p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``), so
every parameter and loss is bit-identical to an allocating update and the
contract above is unchanged. Each minibatch's gradients are written into
one set of buffers allocated once per ``train`` call, by the same products
and sums that would allocate them, so they are bit-identical too and
training holds one gradient set, not two.

Row blocks: every walk over a matrix's rows in blocks -- ``encode`` here,
the dense batched scores in ``similarity``, and the candidate scoring and
random-key draws of the subset search in ``selection`` -- takes its blocks
from ``_row_blocks``, about ``_BLOCK_ROWS`` rows each. A block bounds memory
and changes no output: every score is computed per row and the key draws
continue one generator stream. Only ``encode``'s BLAS products can see the
block size, and at the default hidden size they do not (see ``encode``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericalError

# Elements per Adam block. 16384 float64s are 128 KB per operand, so one
# block of p, m, v, g and the two scratch buffers (768 KB) stays in a 2 MB
# L2 cache across the dozen passes of an update, while a block is still long
# enough to amortize the per-call ufunc overhead. One step on a 1000x1260
# parameter (2-vCPU Xeon, 2 MB L2 per core) took 34-39 ms with whole-array
# temporaries, and in blocks of 4096: 17 ms, 8192: 15 ms, 16384: 13-14 ms,
# 32768: 13-14 ms, 131072: 14-17 ms. 16384 is the smaller end of the plateau.
_ADAM_BLOCK = 16384

# Adam's moment decays and denominator floor, the defaults of Kingma & Ba
# (ICLR 2015); no caller of the pipeline tunes them.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# Rows per block of every ``_row_blocks`` walk. 256 of the pipeline's widest
# rows (about 1,280 tf-idf columns) densify to 2.6 MB and their codes (h=1000)
# take 2 MB, so a block's temporaries stay cache-sized. Encoding the
# 8,400 x 1,260 graded seed-0 pool traced a peak above the 67 MB of codes of
# 236 MB whole and 5 MB in these blocks; scoring its 8,400 x 1,000 codes, a
# 33 MB peak in 4096-row blocks and 2.2 MB in these. A block of 256 subset
# candidates (term distributions, s=20) holds about 60k nonzeros, so each JS
# temporary (about 0.5 MB) stays in cache; at 2048 they were about 4 MB each
# and a third of the subset search went to system time allocating them, and
# 128, 512 and 1,024 were slower.
_BLOCK_ROWS = 256


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, stable for large |z|: 1/(1+e^-z) for z >= 0 and
    e^z/(1+e^z) below, both from ``e = exp(-|z|)``. Always returns an ndarray.

    ``out`` (float64, the shape of ``z``) receives the result and may be ``z``
    itself; by default a new array is allocated.
    """
    z = np.asarray(z, dtype=np.float64)
    pos = z >= 0  # taken before ``out`` is written, which may overwrite z
    if out is None:
        out = np.empty_like(z)
    np.abs(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    den = out + 1.0
    np.divide(out, den, out=out, where=~pos)
    np.divide(1.0, den, out=out, where=pos)
    return out


@dataclass
class AEModel:
    """Parameters of the autoencoder: hidden map (W, b), output map (W_out, b_out)."""

    W: np.ndarray       # (h, d)
    b: np.ndarray       # (h,)
    W_out: np.ndarray   # (d, h)
    b_out: np.ndarray   # (d,)

    def __post_init__(self):
        h, d = self.W.shape
        if self.b.shape != (h,) or self.W_out.shape != (d, h) or self.b_out.shape != (d,):
            raise DataError("inconsistent autoencoder parameter shapes")
        for arr in (self.W, self.b, self.W_out, self.b_out):
            if not np.isfinite(arr).all():
                raise DataError("autoencoder parameters must be finite")

    @property
    def hidden_dim(self) -> int:
        return self.W.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b, "W_out": self.W_out, "b_out": self.b_out}


@dataclass(frozen=True)
class AETrainConfig:
    """The training settings, ``epochs``, ``hidden_dim`` and ``seed``. The
    masking probability, Adam learning rate and minibatch size are fixed
    class constants, read as ``config.batch_size`` and so on."""

    masking_prob: ClassVar[float] = 0.8
    learning_rate: ClassVar[float] = 1e-3
    batch_size: ClassVar[int] = 64
    epochs: int = 50
    seed: int = 0
    hidden_dim: int = 1000

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # negated so that NaN fails it too
        if not self.hidden_dim >= 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")


def corrupt(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero each component independently with probability ``masking_prob``."""
    keep = rng.random(np.shape(x)) >= AETrainConfig.masking_prob
    return np.asarray(x, dtype=np.float64) * keep


def _cross_entropy_from_logits(z: np.ndarray, target: np.ndarray) -> float:
    # stable elementwise max(z,0) - z*t + log(1 + exp(-|z|)), summed
    return float(np.sum(np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))))


def loss_and_gradients(
    model: AEModel,
    x_in: np.ndarray,
    target: np.ndarray,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Reconstruction loss and analytic gradients for a batch.

    ``x_in`` is the (possibly corrupted) input and ``target`` the clean
    reconstruction target in [0, 1]; both are (n, d) or (d,). The loss is the
    per-sample component sum of sigmoid cross-entropy, averaged over samples.

    ``out`` (a dict of float64 arrays keyed and shaped like
    ``model.parameters()``) receives the four gradients and is the dict
    returned; by default new arrays are allocated. The same products and
    sums run either way, so the gradients are bit-identical.
    """
    x_in = np.atleast_2d(np.asarray(x_in, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if out is None:
        out = {k: np.empty(v.shape) for k, v in model.parameters().items()}
    n = x_in.shape[0]
    a = x_in @ model.W.T + model.b
    h = sigmoid(a)
    z = h @ model.W_out.T + model.b_out
    loss = _cross_entropy_from_logits(z, target) / n
    dz = (sigmoid(z) - target) / n
    np.matmul(dz.T, h, out=out["W_out"])
    dz.sum(axis=0, out=out["b_out"])
    dh = (dz @ model.W_out) * h * (1.0 - h)
    np.matmul(dh.T, x_in, out=out["W"])
    dh.sum(axis=0, out=out["b"])
    return loss, out


def _adam_step(
    p: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    t: int,
    config: AETrainConfig,
    buf1: np.ndarray,
    buf2: np.ndarray,
) -> None:
    """One Adam update of ``p``, ``m`` and ``v`` in place, block by block.

    ``p``, ``m`` and ``v`` must be C-contiguous (their flat views are written
    through); ``buf1`` and ``buf2`` are float64 scratch of at least
    ``min(_ADAM_BLOCK, p.size)`` elements. Each element sees the operations
    of the allocating update in the same order, so the result is bit-identical.
    """
    b1, b2, eps = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS
    lr = config.learning_rate
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    pf, mf, vf, gf = p.reshape(-1), m.reshape(-1), v.reshape(-1), g.reshape(-1)
    for start in range(0, pf.size, _ADAM_BLOCK):
        stop = min(start + _ADAM_BLOCK, pf.size)
        pb, mb, vb, gb = pf[start:stop], mf[start:stop], vf[start:stop], gf[start:stop]
        s1, s2 = buf1[: stop - start], buf2[: stop - start]
        # m = b1*m + (1-b1)*g
        np.multiply(mb, b1, out=mb)
        np.multiply(gb, 1.0 - b1, out=s1)
        np.add(mb, s1, out=mb)
        # v = b2*v + ((1-b2)*g)*g
        np.multiply(vb, b2, out=vb)
        np.multiply(gb, 1.0 - b2, out=s1)
        np.multiply(s1, gb, out=s1)
        np.add(vb, s1, out=vb)
        # p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
        np.divide(mb, c1, out=s1)
        np.multiply(s1, lr, out=s1)
        np.divide(vb, c2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, eps, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(pb, s1, out=pb)


def train(data: sp.spmatrix | np.ndarray, config: AETrainConfig) -> tuple[AEModel, list[float]]:
    """Run minibatch Adam on the denoising reconstruction objective.

    ``data`` is read as float64 CSR, converted once (a 1-D input is one row),
    and each minibatch is a row gather densified on its own. A dense input
    densifies to the same batches, so it trains the same model bit for bit.
    Returns the trained model and the mean per-sample training loss of every
    epoch. Training is bit-reproducible for a fixed seed and data order.
    """
    data = sp.csr_matrix(data, dtype=np.float64)
    n, d = data.shape
    if n == 0 or d == 0:
        raise DataError("training data must be non-empty")
    lo, hi = float(data.min()), float(data.max())
    if not (0.0 <= lo and hi <= 1.0):
        raise DataError(f"training data must lie in [0, 1], got values in [{lo}, {hi}]")
    h = config.hidden_dim
    rng = np.random.default_rng(config.seed)
    lim = np.sqrt(6.0 / (d + h))
    model = AEModel(
        W=rng.uniform(-lim, lim, size=(h, d)),
        b=np.zeros(h),
        W_out=rng.uniform(-lim, lim, size=(d, h)),
        b_out=np.zeros(d),
    )
    adam_m = {k: np.zeros_like(v) for k, v in model.parameters().items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.parameters().items()}
    grads = {k: np.empty(v.shape) for k, v in model.parameters().items()}
    block = min(_ADAM_BLOCK, max(p.size for p in model.parameters().values()))
    buf1, buf2 = np.empty(block), np.empty(block)
    t = 0
    losses: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            batch = data[idx].toarray()
            corrupted = corrupt(batch, rng)
            loss, grads = loss_and_gradients(model, corrupted, batch, out=grads)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}; "
                    "the learning rate is likely too high"
                )
            epoch_loss += loss * len(idx)
            t += 1
            params = model.parameters()
            for key in ("W", "b", "W_out", "b_out"):
                _adam_step(
                    params[key], adam_m[key], adam_v[key], grads[key], t, config, buf1, buf2
                )
        losses.append(epoch_loss / n)
    return model, losses


def _row_blocks(n: int):
    """Yield ``(start, stop)`` of ``ceil(n / _BLOCK_ROWS)`` contiguous row
    blocks whose sizes differ by at most one, but never a block of fewer than
    2 rows when ``n >= 2`` (a 1-row product goes to BLAS gemv, which sums in
    another order than gemm). ``n <= _BLOCK_ROWS`` gives the single block
    ``(0, n)``.
    """
    count = max(1, min(-(-n // _BLOCK_ROWS), n // 2))
    base, extra = divmod(n, count)
    start = 0
    for i in range(count):
        stop = start + base + (i < extra)
        yield start, stop
        start = stop


def encode(model: AEModel, x: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Hidden activation sigma(Wx + b) of the uncorrupted input, one row of
    codes per input row.

    ``x`` is read as float64 CSR like ``train``'s input (a 1-D input is one
    row and gives a ``(1, h)`` result). It is encoded in row blocks of
    ``_row_blocks`` into one preallocated ``(n, h)`` array, each block
    densified on its own, so memory above the codes stays a few blocks'
    worth however large ``n`` is.

    The ``n`` rows are split evenly into ``ceil(n / _BLOCK_ROWS)`` blocks.
    With ``n <= _BLOCK_ROWS`` that is one block, the whole-matrix
    computation exactly. Otherwise every block has more than half the block
    size, so no block is a 1-row product: numpy sends those to gemv, whose
    sums differ in the last bits from the gemm rows of a larger product. With
    OpenBLAS (SkylakeX kernels), blocks of 2 rows or more gave codes
    ``np.array_equal`` to the whole-matrix product at the default hidden size
    (h=1000) over inputs 1,260-1,281 wide. At h = 300-900, 1100 and 1500 a
    few of the last hidden units differed in the last bits, because the BLAS
    edge kernel sums them in an order that depends on the row count. The
    codes are deterministic either way.
    """
    x = sp.csr_matrix(x, dtype=np.float64)
    n, d = x.shape
    if d != model.input_dim:
        raise DataError(f"input has dimension {d}, model expects {model.input_dim}")
    codes = np.empty((n, model.hidden_dim))
    for start, stop in _row_blocks(n):
        out = codes[start:stop]
        np.matmul(x[start:stop].toarray(), model.W.T, out=out)
        out += model.b
        sigmoid(out, out=out)
    return codes
