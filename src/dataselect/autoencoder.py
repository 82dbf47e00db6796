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
uniform draw of the batch's shape for the masking noise (no draw when
``masking_prob`` is 0). Adam applies
parameter updates in the order W, b, W_out, b_out with a single shared
timestep incremented per minibatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericalError

CHECKPOINT_VERSION = 1


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
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
    epochs: int = 50
    masking_prob: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 64
    seed: int = 0
    hidden_dim: int = 1000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.masking_prob < 1.0:
            raise ConfigError(f"masking_prob must be in [0, 1), got {self.masking_prob}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def corrupt(x: np.ndarray, masking_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each component independently with probability ``masking_prob``."""
    if not 0.0 <= masking_prob < 1.0:
        raise ConfigError(f"masking_prob must be in [0, 1), got {masking_prob}")
    if masking_prob == 0.0:
        return np.array(x, dtype=np.float64, copy=True)
    keep = rng.random(np.shape(x)) >= masking_prob
    return np.asarray(x, dtype=np.float64) * keep


def _cross_entropy_from_logits(z: np.ndarray, target: np.ndarray) -> float:
    # stable elementwise max(z,0) - z*t + log(1 + exp(-|z|)), summed
    return float(np.sum(np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))))


def loss_and_gradients(
    model: AEModel, x_in: np.ndarray, target: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Reconstruction loss and analytic gradients for a batch.

    ``x_in`` is the (possibly corrupted) input and ``target`` the clean
    reconstruction target in [0, 1]; both are (n, d) or (d,). The loss is the
    per-sample component sum of sigmoid cross-entropy, averaged over samples.
    """
    x_in = np.atleast_2d(np.asarray(x_in, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    n = x_in.shape[0]
    a = x_in @ model.W.T + model.b
    h = sigmoid(a)
    z = h @ model.W_out.T + model.b_out
    loss = _cross_entropy_from_logits(z, target) / n
    dz = (sigmoid(z) - target) / n
    grad_W_out = dz.T @ h
    grad_b_out = dz.sum(axis=0)
    dh = (dz @ model.W_out) * h * (1.0 - h)
    grad_W = dh.T @ x_in
    grad_b = dh.sum(axis=0)
    return loss, {"W": grad_W, "b": grad_b, "W_out": grad_W_out, "b_out": grad_b_out}


def train(
    data: np.ndarray | sp.spmatrix, config: AETrainConfig
) -> tuple[AEModel, list[float]]:
    """Run minibatch Adam on the denoising reconstruction objective.

    Returns the trained model and the mean per-sample training loss of every
    epoch. Training is bit-reproducible for a fixed seed and data order.
    """
    if sp.issparse(data):
        n, d = data.shape
    else:
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
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
    t = 0
    losses: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            batch = data[idx]
            if sp.issparse(batch):
                batch = batch.toarray()
            corrupted = corrupt(batch, config.masking_prob, rng)
            loss, grads = loss_and_gradients(model, corrupted, batch)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}; "
                    "the learning rate is likely too high"
                )
            epoch_loss += loss * len(idx)
            t += 1
            params = model.parameters()
            for key in ("W", "b", "W_out", "b_out"):
                g = grads[key]
                adam_m[key] = config.beta1 * adam_m[key] + (1.0 - config.beta1) * g
                adam_v[key] = config.beta2 * adam_v[key] + (1.0 - config.beta2) * g * g
                m_hat = adam_m[key] / (1.0 - config.beta1**t)
                v_hat = adam_v[key] / (1.0 - config.beta2**t)
                params[key] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
        losses.append(epoch_loss / n)
    return model, losses


def encode(model: AEModel, x: np.ndarray | sp.spmatrix) -> np.ndarray:
    """Hidden activation sigma(Wx + b) of the uncorrupted input.

    Accepts one vector (d,) or a batch (n, d); the result matches the input's
    arrangement.
    """
    if sp.issparse(x):
        x = x.toarray()
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != model.input_dim:
        raise DataError(
            f"input has dimension {x2.shape[1]}, model expects {model.input_dim}"
        )
    codes = sigmoid(x2 @ model.W.T + model.b)
    return codes[0] if single else codes


def gradient_check(model: AEModel, x: np.ndarray, h_step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The loss is the clean-input reconstruction objective at ``x``. Intended
    for tiny models; cost is two forward passes per parameter.
    """
    if not 1e-7 <= h_step <= 1e-3:
        raise ConfigError(f"h_step must be in [1e-7, 1e-3], got {h_step}")
    x = np.asarray(x, dtype=np.float64)
    _, grads = loss_and_gradients(model, x, x)
    worst = 0.0
    for key, param in model.parameters().items():
        flat = param.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h_step
            plus, _ = loss_and_gradients(model, x, x)
            flat[i] = orig - h_step
            minus, _ = loss_and_gradients(model, x, x)
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * h_step)
            analytic = grads[key].reshape(-1)[i]
            denom = max(abs(analytic) + abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def save_model(model: AEModel, path: str | Path) -> None:
    """Write a versioned checkpoint (npz with dims and row-major parameters)."""
    np.savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        dims=np.array([model.input_dim, model.hidden_dim], dtype=np.int64),
        W=model.W,
        b=model.b,
        W_out=model.W_out,
        b_out=model.b_out,
    )


def load_model(path: str | Path) -> AEModel:
    """Load a checkpoint, validating version and dimension consistency."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    with np.load(path) as blob:
        try:
            version = int(blob["version"])
            d, h = (int(v) for v in blob["dims"])
            model = AEModel(
                W=blob["W"], b=blob["b"], W_out=blob["W_out"], b_out=blob["b_out"]
            )
        except KeyError as exc:
            raise DataError(f"checkpoint missing field {exc}") from None
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    if (model.input_dim, model.hidden_dim) != (d, h):
        raise DataError("checkpoint dims header disagrees with parameter shapes")
    return model
