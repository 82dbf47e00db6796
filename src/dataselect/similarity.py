"""Domain-similarity metrics.

Jensen-Shannon divergence operates on term distributions (natural log, so
the range is [0, ln 2]), cosine similarity on dense vectors, and the proxy
distance scores come from a logistic-regression domain discriminator trained
to separate source from target examples.

Each metric has a scalar form (``js_divergence``, ``cosine``) and a batched
form used during selection (``js_to_target``, ``cosine_to_target``). The
scalar forms and the dense batched paths share one row kernel per metric, so
they agree bit for bit. Sparse JS rows are scored on their support only; that
sum runs in another order, so it agrees with the dense kernel to within
1e-12 rather than exactly. The sparse kernel takes ``ln q`` once per call and
gathers it per nonzero, so each nonzero costs two logs (``ln p`` and
``ln m``); where ``q`` is zero the gathered term is +0.0, as ``m = p/2`` makes
``ln m`` negative. Every batched path gives a row the same score however the
rows are chunked or ordered.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .autoencoder import sigmoid
from .errors import ConfigError, DataError
from .representations import TermDistribution

JENSEN_SHANNON = "jensen_shannon"
COSINE = "cosine"
PROXY_A = "proxy_a"

HIGHER = "higher_is_more_similar"
LOWER = "lower_is_more_similar"

METRIC_ORIENTATION = {JENSEN_SHANNON: LOWER, COSINE: HIGHER, PROXY_A: HIGHER}

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class SimilarityScore:
    value: float
    metric: str
    orientation: str
    empty: bool = False


@dataclass(frozen=True)
class DomainDiscriminator:
    """Logistic-regression separator between source (0) and target (1) examples."""

    weights: np.ndarray
    bias: float
    representation_kind: str
    seed: int

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Predicted probability of belonging to the target domain."""
        return sigmoid(np.asarray(X, dtype=np.float64) @ self.weights + self.bias)


def _is_empty(dist) -> bool:
    return isinstance(dist, TermDistribution) and dist.empty


def _as_vector(rep: TermDistribution | np.ndarray) -> np.ndarray:
    if isinstance(rep, TermDistribution):
        return rep.probs
    return np.asarray(rep, dtype=np.float64)


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------

def _js_rows_from_probs(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise JS divergence between probability rows of P and q.

    All-zero rows (empty distributions) come back as NaN.
    """
    M = 0.5 * (P + q)
    logM = np.log(np.where(M > 0, M, 1.0))
    left = np.where(P > 0, P * (np.log(np.where(P > 0, P, 1.0)) - logM), 0.0).sum(axis=1)
    right = np.where(q > 0, q * (np.log(np.where(q > 0, q, 1.0)) - logM), 0.0).sum(axis=1)
    js = 0.5 * (left + right)
    js[P.sum(axis=1) == 0] = np.nan
    return js


def js_divergence(P: TermDistribution | np.ndarray, Q: TermDistribution | np.ndarray) -> SimilarityScore:
    """Jensen-Shannon divergence in nats: symmetric, bounded by ln 2.

    Empty-flagged inputs yield an empty sentinel score the caller must
    exclude.
    """
    if _is_empty(P) or _is_empty(Q):
        return SimilarityScore(float("nan"), JENSEN_SHANNON, LOWER, empty=True)
    p, q = _as_vector(P), _as_vector(Q)
    if p.shape != q.shape:
        raise DataError(f"distributions differ in length: {p.shape} vs {q.shape}")
    value = float(_js_rows_from_probs(p[None, :], q)[0])
    return SimilarityScore(value, JENSEN_SHANNON, LOWER)


def js_to_target(rows: sp.spmatrix | np.ndarray, target: TermDistribution) -> np.ndarray:
    """JS divergence of each (count or probability) row against the target.

    Count rows are normalized first; empty rows come back as NaN. This is the
    batched path used by instance- and subset-level selection. Sparse inputs
    are scored on their support only, which is exact because columns outside
    a row's support contribute ``0.5 * ln2 * q_i`` each; a row's result
    depends only on its own entries, so scores are stable across batching.
    """
    if _is_empty(target):
        raise DataError("target distribution is empty")
    if sp.issparse(rows):
        return _js_csr_to_target(rows.tocsr(), target.probs)
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    block_size = 4096
    for start in range(0, n, block_size):
        block = rows[start : start + block_size]
        sums = block.sum(axis=1, keepdims=True)
        P = np.divide(block, sums, out=np.zeros_like(block), where=sums > 0)
        out[start : start + block.shape[0]] = _js_rows_from_probs(P, target.probs)
    return out


def _js_csr_to_target(rows: sp.csr_matrix, q: np.ndarray) -> np.ndarray:
    # On the row's support: p*ln(p/m) + q*ln(q/m); off-support the q-side
    # telescopes to ln2 * (1 - covered q mass). Each non-empty row's segment
    # is reduced left-to-right (np.add.reduceat over the starts of the
    # non-empty rows only), independent of neighboring rows.
    #
    # ln q is taken once per call over the vocabulary (with ln 1 = 0 where
    # q == 0) and gathered, so each nonzero costs two logs: ln p and ln m.
    # Where q == 0 the gathered term q*(0 - ln m) is +0.0, because
    # m = p/2 <= 1/2 makes ln m negative, so no mask is needed.
    indptr, cols, data = rows.indptr, rows.indices, rows.data
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths)
    out = np.full(rows.shape[0], np.nan)
    if len(nonempty) == 0:
        return out
    starts = indptr[nonempty]
    log_q = np.log(np.where(q > 0, q, 1.0))
    p = data / np.repeat(np.add.reduceat(data, starts), lengths[nonempty])
    qv = q[cols]
    mv = 0.5 * (p + qv)
    log_mv = np.log(mv)  # mv > 0 since p > 0 on the support
    terms = p * (np.log(p) - log_mv) + qv * (log_q[cols] - log_mv)
    term_sums = np.add.reduceat(terms, starts)
    q_covered = np.add.reduceat(qv, starts)
    out[nonempty] = 0.5 * (term_sums + LN2 * (1.0 - q_covered))
    return out


# ---------------------------------------------------------------------------
# Cosine
# ---------------------------------------------------------------------------

def cosine(a: TermDistribution | np.ndarray, b: TermDistribution | np.ndarray) -> SimilarityScore:
    """Cosine similarity; either vector having zero norm yields 0."""
    va, vb = _as_vector(a), _as_vector(b)
    if va.shape != vb.shape:
        raise DataError(f"vectors differ in dimension: {va.shape} vs {vb.shape}")
    value = float(cosine_to_target(va[None, :], vb)[0])
    return SimilarityScore(value, COSINE, HIGHER)


def cosine_to_target(rows: sp.spmatrix | np.ndarray, target: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row against the target vector (batched path).

    Elementwise ops instead of BLAS keep each row's result bit-identical no
    matter how the rows are batched.
    """
    target = _as_vector(target)
    target_norm = np.sqrt(float((target * target).sum()))
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    block_size = 4096
    for start in range(0, n, block_size):
        block = rows[start : start + block_size]
        if sp.issparse(block):
            block = block.toarray()
        block = np.asarray(block, dtype=np.float64)
        dots = (block * target).sum(axis=1)
        denom = np.sqrt((block * block).sum(axis=1)) * target_norm
        out[start : start + block.shape[0]] = np.divide(
            dots, denom, out=np.zeros_like(dots), where=denom > 0
        )
    return out


# ---------------------------------------------------------------------------
# Logistic-regression discriminator and proxy distance
# ---------------------------------------------------------------------------

def fit_logistic_regression(
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> tuple[np.ndarray, float, list[float]]:
    """Full-batch gradient descent with Armijo backtracking on the L2-regularized
    logistic loss (bias unregularized). Deterministic; the objective trace is
    returned and is non-increasing.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    s = np.where(y > 0, 1.0, -1.0)
    w = np.zeros(X.shape[1])
    b = 0.0

    def objective(w, b):
        margins = s * (X @ w + b)
        return float(np.sum(np.logaddexp(0.0, -margins)) + 0.5 * l2 * np.dot(w, w))

    def gradient(w, b):
        margins = s * (X @ w + b)
        gz = -s * sigmoid(-margins)
        return X.T @ gz + l2 * w, float(gz.sum())

    obj = objective(w, b)
    trace = [obj]
    for _ in range(max_iter):
        gw, gb = gradient(w, b)
        gnorm_sq = float(np.dot(gw, gw) + gb * gb)
        if np.sqrt(gnorm_sq) < tol:
            break
        step = 1.0
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            obj_new = objective(w_new, b_new)
            if obj_new <= obj - 1e-4 * step * gnorm_sq or step < 1e-20:
                break
            step *= 0.5
        w, b, obj = w_new, b_new, obj_new
        trace.append(obj)
    return w, b, trace


def _rep_matrix(reps: sp.spmatrix | np.ndarray) -> np.ndarray:
    X = np.asarray(reps.toarray() if sp.issparse(reps) else reps, dtype=np.float64)
    if not np.isfinite(X).all():
        raise DataError("representations contain non-finite values")
    return X


def train_domain_discriminator(
    source_reps,
    target_reps,
    seed: int = 0,
    l2: float = 1.0,
    representation_kind: str = "unknown",
) -> DomainDiscriminator:
    """Balance the two sides by subsampling source examples down to the target
    count, then fit the logistic separator (source = 0, target = 1).
    """
    Xs, Xt = _rep_matrix(source_reps), _rep_matrix(target_reps)
    Xs_bal = _balance_source(Xs, Xt.shape[0], np.random.default_rng(seed))
    if min(Xs_bal.shape[0], Xt.shape[0]) < 2:
        raise DataError("need at least 2 examples per class to train the discriminator")
    X = np.vstack([Xs_bal, Xt])
    y = np.concatenate([np.zeros(Xs_bal.shape[0]), np.ones(Xt.shape[0])])
    w, b, _ = fit_logistic_regression(X, y, l2=l2)
    return DomainDiscriminator(
        weights=w, bias=b, representation_kind=representation_kind, seed=seed
    )


def _balance_source(Xs: np.ndarray, n_target: int, rng: np.random.Generator) -> np.ndarray:
    if Xs.shape[0] > n_target:
        keep = rng.choice(Xs.shape[0], size=n_target, replace=False)
        return Xs[keep]
    if Xs.shape[0] < n_target:
        warnings.warn(
            "fewer source than target examples; using all source examples unsampled"
        )
    return Xs


def proxy_a_scores(
    source_reps,
    target_reps,
    seed: int = 0,
    l2: float = 1.0,
    representation_kind: str = "unknown",
) -> np.ndarray:
    """Per-source-example probability of belonging to the target domain.

    The discriminator is trained on a class-balanced subsample, but every
    source example is scored, sampled or not.
    """
    discriminator = train_domain_discriminator(
        source_reps, target_reps, seed=seed, l2=l2, representation_kind=representation_kind
    )
    return discriminator.scores(_rep_matrix(source_reps))


def proxy_a_distance(
    source_reps,
    target_reps,
    heldout_fraction: float = 0.25,
    seed: int = 0,
    l2: float = 1.0,
) -> float:
    """Empirical domain distance 2 * (1 - 2 * heldout_error), clamped to [0, 2].

    The balanced binary set is split per class; the discriminator trains on
    the remainder and the error is measured on the held-out part.
    """
    if not 0.0 < heldout_fraction < 1.0:
        raise ConfigError(f"heldout_fraction must be in (0, 1), got {heldout_fraction}")
    Xs, Xt = _rep_matrix(source_reps), _rep_matrix(target_reps)
    rng = np.random.default_rng(seed)
    Xs_bal = _balance_source(Xs, Xt.shape[0], rng)

    def split(X):
        n = X.shape[0]
        if n < 2:
            raise DataError("need at least 2 examples per class to hold one out")
        n_held = min(n - 1, max(1, round(heldout_fraction * n)))
        perm = rng.permutation(n)
        return X[perm[n_held:]], X[perm[:n_held]]

    s_train, s_held = split(Xs_bal)
    t_train, t_held = split(Xt)
    X = np.vstack([s_train, t_train])
    y = np.concatenate([np.zeros(s_train.shape[0]), np.ones(t_train.shape[0])])
    w, b, _ = fit_logistic_regression(X, y, l2=l2)
    held = np.vstack([s_held, t_held])
    truth = np.concatenate([np.zeros(s_held.shape[0]), np.ones(t_held.shape[0])])
    predicted = (held @ w + b >= 0).astype(np.float64)
    error = float(np.mean(predicted != truth))
    return float(np.clip(2.0 * (1.0 - 2.0 * error), 0.0, 2.0))
