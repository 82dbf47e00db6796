"""Domain-similarity metrics.

Jensen-Shannon divergence operates on term distributions (natural log, so
the range is [0, ln 2]), cosine similarity on dense vectors, and proxy-A
scores are a logistic-regression domain discriminator's probability that a
source example belongs to the target domain.

Each metric has a scalar form (``js_divergence``, ``cosine``) and a batched
form used during selection (``js_to_target``, ``cosine_to_target``). A scalar
form returns a ``SimilarityScore``, whose only field is the value: the metric
and its orientation (``METRIC_ORIENTATION``) are those of the function called.
One rule holds for empty rows under both metrics: a row with no mass (an
all-zero count row or vector, such as a document with no in-vocabulary
token) scores NaN, an empty score that every selection scope drops.

JS has one batched kernel, the CSR one (``_js_csr_to_target``); it scores
pool rows, subset candidates and pooled domains, and ``js_to_target`` reads a
dense argument as CSR. It scores each row on its support only. The dense
kernel (``_js_rows_from_probs``) is the scalar ``js_divergence``'s and the
reference the batched one is tested against: it sums every column, in
another order, so the two agree to within 1e-12 rather than exactly. The CSR
kernel takes ``ln q`` once per call and gathers it per nonzero, so each
nonzero costs two logs (``ln p`` and ``ln m``); where ``q`` is zero the
gathered term is +0.0, as ``m = p/2`` makes ``ln m`` negative. Both gathers
(``q`` and ``ln q``) are ``take`` calls with the row's column indices
converted to ``intp`` once, since fancy-indexing with a CSR's int32 indices
casts them again for every gather; the gathered values, and so the scores, are
the same whatever the index dtype. Every batched path gives a row the same
score however the rows are chunked or ordered.

Cosine's scalar and batched forms share one row kernel, so they agree bit for
bit. ``cosine_to_target`` walks its rows in ``autoencoder._row_blocks``,
densifying sparse input one block at a time; each row is scored by
elementwise operations and a reduction along that row alone.

The proxy-A discriminator fits and scores sparse rows as float64 CSR, so its
memory grows with the nonzeros, not with rows x columns. Dense rows run the
same solver on the dense matrix. The sparse matrix-vector products sum in
another order than the dense ones, so sparse and dense inputs agree to the
solver's tolerance rather than bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .autoencoder import _row_blocks, sigmoid
from .errors import DataError
from .representations import TermDistribution

JENSEN_SHANNON = "jensen_shannon"
COSINE = "cosine"
PROXY_A = "proxy_a"

HIGHER = "higher_is_more_similar"
LOWER = "lower_is_more_similar"

METRIC_ORIENTATION = {JENSEN_SHANNON: LOWER, COSINE: HIGHER, PROXY_A: HIGHER}

LN2 = float(np.log(2.0))

# the logistic fit stops once its gradient norm falls below this
_TOL = 1e-8
# the logistic fit's L2 weight (the bias is not regularized)
_L2 = 1.0


@dataclass(frozen=True)
class SimilarityScore:
    """A scalar metric's value; NaN is the empty score the caller must exclude."""

    value: float


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

    An array is checked as a ``TermDistribution`` is, so one that is not a
    distribution (a negative or non-finite entry, or mass other than 1) is a
    ``DataError``, not a score outside [0, ln 2], and so are two inputs of
    different lengths. Otherwise an empty input distribution yields an empty
    (NaN) score the caller must exclude.
    """
    P, Q = (d if isinstance(d, TermDistribution) else TermDistribution(_as_vector(d))
            for d in (P, Q))
    p, q = P.probs, Q.probs
    if p.shape != q.shape:
        raise DataError(f"distributions differ in length: {p.shape} vs {q.shape}")
    if P.empty or Q.empty:
        return SimilarityScore(float("nan"))
    value = float(_js_rows_from_probs(p[None, :], q)[0])
    return SimilarityScore(value)


def js_to_target(rows: sp.spmatrix | np.ndarray, target: TermDistribution) -> np.ndarray:
    """JS divergence of each (count or probability) row against the target.

    Count rows are normalized first; empty rows come back as NaN. This is the
    batched path used by every selection scope. Rows are read as CSR, a
    dense argument included, and scored on their support only, which is
    exact because columns outside a row's support contribute ``0.5 * ln2 *
    q_i`` each; a row's result depends only on its own entries, so scores are
    stable across batching.
    """
    if target.empty:
        raise DataError("target distribution is empty")
    return _js_csr_to_target(sp.csr_matrix(rows, dtype=np.float64), target.probs)


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
    #
    # The column indices are converted to intp once for both ``take`` gathers.
    indptr, cols, data = rows.indptr, rows.indices.astype(np.intp, copy=False), rows.data
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths)
    out = np.full(rows.shape[0], np.nan)
    if len(nonempty) == 0:
        return out
    starts = indptr[nonempty]
    log_q = np.log(np.where(q > 0, q, 1.0))
    p = data / np.repeat(np.add.reduceat(data, starts), lengths[nonempty])
    qv = q.take(cols)
    mv = 0.5 * (p + qv)
    log_mv = np.log(mv)  # mv > 0 since p > 0 on the support
    terms = p * (np.log(p) - log_mv) + qv * (log_q.take(cols) - log_mv)
    term_sums = np.add.reduceat(terms, starts)
    q_covered = np.add.reduceat(qv, starts)
    out[nonempty] = 0.5 * (term_sums + LN2 * (1.0 - q_covered))
    return out


# ---------------------------------------------------------------------------
# Cosine
# ---------------------------------------------------------------------------

def cosine(a: TermDistribution | np.ndarray, b: TermDistribution | np.ndarray) -> SimilarityScore:
    """Cosine similarity; either vector having zero norm yields an empty (NaN)
    score. A vector whose squared norm ``_squared_norms`` refuses is a
    ``DataError``."""
    va, vb = _as_vector(a), _as_vector(b)
    if va.shape != vb.shape:
        raise DataError(f"vectors differ in dimension: {va.shape} vs {vb.shape}")
    value = float(cosine_to_target(va[None, :], vb)[0])
    return SimilarityScore(value)


def cosine_to_target(rows: sp.spmatrix | np.ndarray, target: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row against the target vector (batched path).

    Elementwise ops instead of BLAS keep each row's result bit-identical no
    matter how the rows are batched. Sparse rows are converted to CSR once and
    densified one block at a time. An all-zero row, or an all-zero target,
    scores NaN. A target or row whose squared norm ``_squared_norms`` refuses
    is a ``DataError``.
    """
    target = _as_vector(target)
    target_norm = np.sqrt(float(_squared_norms(target, "target vector")))
    if sp.issparse(rows):
        rows = rows.tocsr()  # row slices; COO has none
    out = np.empty(rows.shape[0], dtype=np.float64)
    for start, stop in _row_blocks(rows.shape[0]):
        block = rows[start:stop]
        if sp.issparse(block):
            block = block.toarray()
        block = np.asarray(block, dtype=np.float64)
        denom = np.sqrt(_squared_norms(block, "a row")) * target_norm
        dots = (block * target).sum(axis=1)
        out[start:stop] = np.divide(dots, denom, out=np.full_like(dots, np.nan), where=denom > 0)
    return out


def _squared_norms(vectors: np.ndarray, what: str) -> np.ndarray:
    """Sums of squares along the last axis, or a ``DataError`` naming
    ``what`` when one is not finite (a non-finite entry, or squares that
    overflow) or is below float64's smallest normal number for a vector with
    a nonzero entry (squares that underflow: to 0 they would score it as an
    empty row, and to a subnormal they keep too few bits for its cosine),
    with no ``RuntimeWarning``."""
    with np.errstate(over="ignore"):
        squares = (vectors * vectors).sum(axis=-1)
    if not np.isfinite(squares).all():
        raise DataError(f"{what} has a squared norm that is not finite; cosine cannot score it")
    if vectors[squares < np.finfo(np.float64).tiny].any():
        raise DataError(f"{what} has nonzero entries whose squares underflow; "
                        "cosine cannot score it")
    return squares


# ---------------------------------------------------------------------------
# Logistic-regression discriminator and proxy-A scores
# ---------------------------------------------------------------------------

def _float_rows(X: sp.spmatrix | np.ndarray) -> sp.csr_matrix | np.ndarray:
    """Sparse input as float64 CSR (no copy when it already is), dense as a
    float64 array."""
    if sp.issparse(X):
        return X.tocsr().astype(np.float64, copy=False)
    return np.asarray(X, dtype=np.float64)


def fit_logistic_regression(
    X: sp.spmatrix | np.ndarray,
    y: np.ndarray,
    max_iter: int = 500,
) -> tuple[np.ndarray, float, list[float]]:
    """Full-batch gradient descent with Armijo backtracking on the logistic
    loss with L2 weight ``_L2`` (bias unregularized). Deterministic; the
    objective trace is returned and is non-increasing.

    ``X`` may be dense or sparse; sparse input is fitted as CSR, never
    densified. Its products sum in another order than the dense ones, so a
    CSR fit and a dense fit of the same rows agree to within ``_TOL`` rather
    than bit for bit (and may stop at different iterations).
    """
    X = _float_rows(X)
    y = np.asarray(y)
    s = np.where(y > 0, 1.0, -1.0)
    w = np.zeros(X.shape[1])
    b = 0.0

    def objective(w, b):
        # the margins are returned too: the gradient at an accepted point
        # reuses them instead of repeating the matvec
        margins = s * (X @ w + b)
        obj = float(np.sum(np.logaddexp(0.0, -margins)) + 0.5 * _L2 * np.dot(w, w))
        return obj, margins

    def gradient(w, margins):
        gz = -s * sigmoid(-margins)
        return X.T @ gz + _L2 * w, float(gz.sum())

    obj, margins = objective(w, b)
    trace = [obj]
    for _ in range(max_iter):
        gw, gb = gradient(w, margins)
        gnorm_sq = float(np.dot(gw, gw) + gb * gb)
        if np.sqrt(gnorm_sq) < _TOL:
            break
        step = 1.0
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            obj_new, margins_new = objective(w_new, b_new)
            if obj_new <= obj - 1e-4 * step * gnorm_sq or step < 1e-20:
                break
            step *= 0.5
        w, b, obj, margins = w_new, b_new, obj_new, margins_new
        trace.append(obj)
    return w, b, trace


def _rep_matrix(reps: sp.spmatrix | np.ndarray) -> sp.csr_matrix | np.ndarray:
    X = _float_rows(reps)
    if not np.isfinite(X.data if sp.issparse(X) else X).all():
        raise DataError("representations contain non-finite values")
    return X


def proxy_a_scores(
    source_reps,
    target_reps,
    seed: int = 0,
) -> np.ndarray:
    """Per-source-example probability of belonging to the target domain.

    Source examples are subsampled down to the target count (seeded), a
    logistic separator is fit (source = 0, target = 1), and every source
    example is scored, sampled or not.
    """
    # The source pool is converted and checked once, for fitting and scoring.
    # Sparse rows stay CSR throughout: only the balanced rows are copied to
    # fit on, and the pool is scored by a sparse matrix-vector product.
    Xs, Xt = _rep_matrix(source_reps), _rep_matrix(target_reps)
    n_target = Xt.shape[0]
    Xs_bal = Xs
    if Xs.shape[0] > n_target:
        Xs_bal = Xs[np.random.default_rng(seed).choice(Xs.shape[0], size=n_target, replace=False)]
    elif Xs.shape[0] < n_target:
        warnings.warn("fewer source than target examples; using all source examples unsampled")
    if min(Xs_bal.shape[0], n_target) < 2:
        raise DataError("need at least 2 examples per class to train the discriminator")
    if sp.issparse(Xs_bal) or sp.issparse(Xt):
        X = sp.vstack([Xs_bal, Xt], format="csr")
    else:
        X = np.vstack([Xs_bal, Xt])
    y = np.concatenate([np.zeros(Xs_bal.shape[0]), np.ones(n_target)])
    w, b, _ = fit_logistic_regression(X, y)
    return sigmoid(Xs @ w + b)

