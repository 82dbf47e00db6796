"""Training-data selection strategies.

Five ways to draw ``n`` training examples from a pool of source-domain
documents: uniform random, per-domain balanced, whole-domain (sample only
from the most target-similar domain), instance ranking, and iterative
subset selection (repeatedly keep the most target-similar of ``m`` random
size-``s`` groups, removing winners from the pool between rounds).

All strategies are deterministic for a fixed seed, never select
target-domain documents (the pool excludes them by construction), and
return at most ``min(n, pool size)`` unique ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import Document
from .errors import ConfigError, DataError
from .representations import (
    AUTOENCODER,
    EMBEDDING,
    REPRESENTATION_KINDS,
    TERM_DIST,
    TermDistribution,
)
from .similarity import (
    COSINE,
    JENSEN_SHANNON,
    LOWER,
    METRIC_ORIENTATION,
    PROXY_A,
    _as_vector,
    cosine,
    cosine_to_target,
    js_divergence,
    js_to_target,
    proxy_a_scores,
)

STRATEGIES = ("random", "balanced", "domain", "instance", "subset")

_DEFAULT_METRIC = {TERM_DIST: JENSEN_SHANNON, EMBEDDING: COSINE, AUTOENCODER: COSINE}

# Candidates scored per batch. At 256 a batch of term-distribution aggregates
# (s=20) holds about 60k nonzeros, so each temporary of the JS kernel (about
# 0.5 MB) stays in cache; at 2048 they were about 4 MB each and a third of
# the subset search went to system time allocating them. 128 and 512 were
# slower. Every candidate is scored on its own, so the value changes no score.
_SCORE_CHUNK = 256


@dataclass(frozen=True)
class SelectionConfig:
    """Selection parameters; ``metric=None`` picks the customary metric for the
    representation (term_dist -> jensen_shannon, dense kinds -> cosine)."""

    n: int
    strategy: str
    representation: str = TERM_DIST
    metric: str | None = None
    s: int = 20
    m: int = 20000
    seed: int = 0
    allow_proxy_a_subsets: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.representation not in REPRESENTATION_KINDS:
            raise ConfigError(f"unknown representation {self.representation!r}")
        if self.metric is not None and self.metric not in METRIC_ORIENTATION:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.strategy == "subset" and (self.s < 1 or self.m < 1):
            raise ConfigError("subset selection requires s >= 1 and m >= 1")

    @property
    def resolved_metric(self) -> str:
        return self.metric if self.metric is not None else _DEFAULT_METRIC[self.representation]

    def echo(self) -> dict:
        return {
            "n": self.n,
            "strategy": self.strategy,
            "representation": self.representation,
            "metric": self.resolved_metric,
            "s": self.s,
            "m": self.m,
            "seed": self.seed,
            "allow_proxy_a_subsets": self.allow_proxy_a_subsets,
        }


@dataclass
class SelectionResult:
    """Chosen document ids with scores and provenance."""

    chosen: list[str]
    strategy: str
    config: dict
    seed: int | None
    shortfall: int = 0
    item_scores: dict[str, float] | None = None
    subset_scores: list[float] | None = None
    iteration_members: list[list[str]] | None = None

    def to_dict(self) -> dict:
        return {
            "chosen": self.chosen,
            "strategy": self.strategy,
            "config": self.config,
            "seed": self.seed,
            "shortfall": self.shortfall,
            "item_scores": self.item_scores,
            "subset_scores": self.subset_scores,
            "iteration_members": self.iteration_members,
        }


# ---------------------------------------------------------------------------
# Representation plumbing
# ---------------------------------------------------------------------------

def _score_rows(
    rows,
    target_repr,
    metric: str,
    *,
    seed: int | None = None,
    target_rows=None,
) -> np.ndarray:
    """Score representation rows against the target; NaN marks unusable rows."""
    if metric == JENSEN_SHANNON:
        if not isinstance(target_repr, TermDistribution):
            raise ConfigError("jensen_shannon requires term-distribution representations")
        return js_to_target(rows, target_repr)
    if metric == COSINE:
        return cosine_to_target(rows, _as_vector(target_repr))
    if metric == PROXY_A:
        if target_rows is None:
            raise ConfigError(
                "proxy_a scoring needs per-example target representations"
            )
        return proxy_a_scores(rows, target_rows, seed=seed if seed is not None else 0)
    raise ConfigError(f"unknown metric {metric!r}")


def _orientation_key(scores: np.ndarray, orientation: str) -> np.ndarray:
    return scores if orientation == LOWER else -scores


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def select_random(pool: Sequence[Document], n: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement from the whole source pool."""
    if not pool:
        raise DataError("selection pool is empty")
    rng = np.random.default_rng(seed)
    take = min(n, len(pool))
    picked = rng.choice(len(pool), size=take, replace=False)
    return SelectionResult(
        chosen=[pool[i].id for i in picked],
        strategy="random",
        config={"n": n},
        seed=seed,
        shortfall=n - take,
    )


def select_balanced(pool: Sequence[Document], n: int, seed: int) -> SelectionResult:
    """Stratified sample: an equal quota per source domain.

    The remainder of ``n / K`` goes one extra to the lexicographically first
    domains; domains too small to fill their quota contribute everything and
    the leftover budget is redistributed by the same rule.
    """
    if not pool:
        raise DataError("selection pool is empty")
    by_domain: dict[str, list[int]] = {}
    for i, doc in enumerate(pool):
        by_domain.setdefault(doc.domain, []).append(i)
    alloc = _quota_allocation({d: len(v) for d, v in by_domain.items()}, n)
    rng = np.random.default_rng(seed)
    chosen: list[str] = []
    for domain in sorted(by_domain):
        quota = alloc[domain]
        members = by_domain[domain]
        if quota >= len(members):
            picked = members
        else:
            picked = [members[j] for j in rng.choice(len(members), size=quota, replace=False)]
        chosen.extend(pool[i].id for i in picked)
    return SelectionResult(
        chosen=chosen,
        strategy="balanced",
        config={"n": n},
        seed=seed,
        shortfall=n - len(chosen),
    )


def _quota_allocation(available: dict[str, int], n: int) -> dict[str, int]:
    alloc: dict[str, int] = {}
    active = sorted(available)
    remaining = n
    while active and remaining > 0:
        quota, extra = divmod(remaining, len(active))
        targets = {d: quota + (1 if rank < extra else 0) for rank, d in enumerate(active)}
        capped = [d for d in active if available[d] <= targets[d]]
        if not capped:
            alloc.update(targets)
            return alloc
        for d in capped:
            alloc[d] = available[d]
            remaining -= available[d]
        active = [d for d in active if d not in capped]
    for d in active:
        alloc[d] = 0
    return alloc


# ---------------------------------------------------------------------------
# Similarity-guided strategies
# ---------------------------------------------------------------------------

def select_domain_level(
    pool: Sequence[Document],
    target_repr,
    per_domain_reprs: dict,
    metric: str,
    n: int,
    seed: int,
) -> SelectionResult:
    """Sample ``n`` examples from the single most target-similar source domain.

    Ties rank lexicographically; a too-small winner is NOT topped up from the
    runner-up (the shortfall is recorded instead).
    """
    if not pool:
        raise DataError("selection pool is empty")
    if metric == PROXY_A:
        raise ConfigError("proxy_a is only defined per example; use the instance level")
    orientation = METRIC_ORIENTATION[metric]
    scored: list[tuple[float, str]] = []
    domain_scores: dict[str, float] = {}
    for domain in sorted(per_domain_reprs):
        rep = per_domain_reprs[domain]
        if metric == JENSEN_SHANNON:
            score = js_divergence(rep, target_repr)
            if score.empty:
                continue
            value = score.value
        else:
            value = cosine(rep, target_repr).value
        domain_scores[domain] = value
        scored.append((value if orientation == LOWER else -value, domain))
    if not scored:
        raise DataError("no source domain has a usable representation")
    best = min(scored)[1]
    members = [i for i, doc in enumerate(pool) if doc.domain == best]
    if not members:
        raise DataError(f"most similar domain {best!r} has no documents in the pool")
    rng = np.random.default_rng(seed)
    take = min(n, len(members))
    picked = [members[j] for j in rng.choice(len(members), size=take, replace=False)]
    return SelectionResult(
        chosen=[pool[i].id for i in picked],
        strategy="domain",
        config={"n": n, "metric": metric, "chosen_domain": best, "domain_scores": domain_scores},
        seed=seed,
        shortfall=n - take,
    )


def select_instance_level(
    pool: Sequence[Document],
    target_repr,
    per_instance_reprs,
    metric: str,
    n: int,
    *,
    seed: int | None = None,
    target_instance_reprs=None,
    scores: np.ndarray | None = None,
) -> SelectionResult:
    """Rank individual examples by target similarity and take the top ``n``.

    Empty-flagged instances are excluded; ties break on document id. The
    proxy metric additionally needs per-example target representations and a
    seed for the discriminator's balancing subsample. Pass ``scores`` to
    reuse already-computed per-instance scores.
    """
    if not pool:
        raise DataError("selection pool is empty")
    rows = per_instance_reprs
    rows = rows.tocsr() if sp.issparse(rows) else np.asarray(rows, dtype=np.float64)
    if rows.shape[0] != len(pool):
        raise DataError(
            f"{rows.shape[0]} representations for {len(pool)} pool documents"
        )
    if scores is None:
        scores = _score_rows(
            rows, target_repr, metric, seed=seed, target_rows=target_instance_reprs
        )
    elif len(scores) != len(pool):
        raise DataError(f"{len(scores)} scores for {len(pool)} pool documents")
    orientation = METRIC_ORIENTATION[metric]
    key = _orientation_key(scores, orientation)
    order = sorted(
        (i for i in range(len(pool)) if not math.isnan(scores[i])),
        key=lambda i: (key[i], pool[i].id),
    )
    picked = order[:n]
    return SelectionResult(
        chosen=[pool[i].id for i in picked],
        strategy="instance",
        config={"n": n, "metric": metric},
        seed=seed,
        shortfall=max(0, n - len(picked)),
        item_scores={pool[i].id: float(scores[i]) for i in picked},
    )


def subset_select(
    s: int,
    n: int,
    m: int,
    pool: Sequence[Document],
    target_repr,
    per_instance_reprs,
    metric: str,
    seed: int,
    *,
    allow_proxy_a: bool = False,
    target_instance_reprs=None,
) -> SelectionResult:
    """Iterative subset selection.

    Each round draws ``m`` random subsets of size ``min(s, remaining pool)``
    (without replacement within a subset, independently across subsets),
    scores each subset's pooled representation against the target, keeps the
    best one, and removes its members from the pool. Rounds repeat until ``n``
    examples are gathered; the final round's winner is truncated to exactly
    ``n`` by per-item score, best first.

    With ``s=1`` and ``m`` at least the remaining pool size, the candidate
    set is enumerated exhaustively (one singleton per remaining document, in
    id order), which makes the procedure equal to instance-level ranking.

    Term-distribution subsets pool raw counts before normalizing; dense
    subsets average member vectors.
    """
    if s < 1 or m < 1 or n < 1:
        raise ConfigError("subset selection requires s >= 1, m >= 1, n >= 1")
    if not pool:
        raise DataError("selection pool is empty")
    if metric == PROXY_A and not allow_proxy_a:
        raise ConfigError(
            "proxy_a subset scoring is non-standard; pass allow_proxy_a=True to enable it"
        )
    rows = per_instance_reprs
    rows = rows.tocsr() if sp.issparse(rows) else np.asarray(rows, dtype=np.float64)
    if rows.shape[0] != len(pool):
        raise DataError(
            f"{rows.shape[0]} representations for {len(pool)} pool documents"
        )
    orientation = METRIC_ORIENTATION[metric]
    rng = np.random.default_rng(seed)

    item_scores: np.ndarray | None = None
    if metric == PROXY_A:
        # one discriminator scores every example; a subset scores as the mean
        item_scores = _score_rows(
            rows, target_repr, metric, seed=seed, target_rows=target_instance_reprs
        )

    available = np.arange(len(pool))
    chosen: list[int] = []
    iteration_members: list[list[str]] = []
    subset_scores: list[float] = []

    while len(chosen) < n and len(available):
        size = min(s, len(available))
        exhaustive = s == 1 and m >= len(available)
        if exhaustive:
            in_avail = np.array(
                sorted(range(len(available)), key=lambda j: pool[available[j]].id)
            ).reshape(-1, 1)
        else:
            in_avail = _draw_subsets(rng, len(available), size, m)
        candidates = available[in_avail]
        scores = _candidate_scores(
            rows, candidates, target_repr, metric, item_scores=item_scores
        )
        key = _orientation_key(scores, orientation)
        key = np.where(np.isnan(key), np.inf, key)
        best = int(np.argmin(key))
        if not np.isfinite(key[best]):
            break  # every candidate aggregate was empty; nothing usable remains
        members = candidates[best]
        room = n - len(chosen)
        if len(members) > room:
            members = _truncate_by_item_score(
                members, rows, pool, target_repr, metric, orientation, room,
                item_scores=item_scores, seed=seed,
            )
        chosen.extend(int(i) for i in members)
        iteration_members.append([pool[int(i)].id for i in members])
        subset_scores.append(float(scores[best]))
        keep = ~np.isin(available, members)
        available = available[keep]

    return SelectionResult(
        chosen=[pool[i].id for i in chosen],
        strategy="subset",
        config={"n": n, "s": s, "m": m, "metric": metric},
        seed=seed,
        shortfall=max(0, n - len(chosen)),
        subset_scores=subset_scores,
        iteration_members=iteration_members,
    )


def _draw_subsets(rng: np.random.Generator, n_avail: int, size: int, m: int) -> np.ndarray:
    """Draw ``m`` uniform subsets of ``size`` indices out of ``n_avail``.

    Without replacement within a subset, independent across subsets. When the
    subset is small relative to the pool, rows are drawn with replacement and
    rows containing duplicates are redrawn (rejection sampling); once the
    pool shrinks near the subset size, random-key sorting takes over. Both
    paths are deterministic for a fixed generator state.
    """
    if size >= n_avail:
        return np.tile(np.arange(n_avail), (m, 1))
    if size * size > n_avail:
        # Keys are drawn in row blocks to bound memory; the generator
        # continues one stream, so the draw equals a one-shot (m, n_avail) one.
        out = np.empty((m, size), dtype=np.intp)
        for start in range(0, m, _SCORE_CHUNK):
            stop = min(start + _SCORE_CHUNK, m)
            keys = rng.random((stop - start, n_avail))
            out[start:stop] = np.argsort(keys, axis=1)[:, :size]
        return out
    cand = rng.integers(0, n_avail, size=(m, size))
    while True:
        srt = np.sort(cand, axis=1)
        bad = (np.diff(srt, axis=1) == 0).any(axis=1)
        if not bad.any():
            return cand
        cand[bad] = rng.integers(0, n_avail, size=(int(bad.sum()), size))


def _candidate_scores(
    rows, candidates: np.ndarray, target_repr, metric: str, *, item_scores=None
) -> np.ndarray:
    """Score each candidate subset's aggregate representation, in batches.

    Sparse and dense rows share one aggregation path: a 0/1 ``picker`` CSR
    with one row per candidate gives ``agg = picker @ rows``, the member sum
    accumulated in member order. Term-distribution sums are scored as counts;
    dense sums are divided by ``size``, which is the member mean bit for bit
    (``rows[block].mean(axis=1)`` sums in the same order and divides by the
    same count). Every candidate is scored on its own, so the batch size does
    not change any score.
    """
    if item_scores is not None:
        return item_scores[candidates].mean(axis=1)
    n_cand, size = candidates.shape
    out = np.empty(n_cand, dtype=np.float64)
    dense_rows = not sp.issparse(rows)
    for start in range(0, n_cand, _SCORE_CHUNK):
        block = candidates[start : start + _SCORE_CHUNK]
        picker = sp.csr_matrix(
            (np.ones(block.size), block.ravel(), np.arange(0, block.size + 1, size)),
            shape=(block.shape[0], rows.shape[0]),
        )
        agg = picker @ rows
        if dense_rows:
            agg /= size
        out[start : start + block.shape[0]] = _score_rows(agg, target_repr, metric)
    return out


def _truncate_by_item_score(
    members: np.ndarray,
    rows,
    pool: Sequence[Document],
    target_repr,
    metric: str,
    orientation: str,
    room: int,
    *,
    item_scores=None,
    seed: int | None = None,
) -> np.ndarray:
    if item_scores is not None:
        scores = item_scores[members]
    else:
        scores = _score_rows(rows[members], target_repr, metric, seed=seed)
    key = _orientation_key(scores, orientation)
    key = np.where(np.isnan(key), np.inf, key)
    ranked = sorted(range(len(members)), key=lambda j: (key[j], pool[int(members[j])].id))
    return members[ranked[:room]]
