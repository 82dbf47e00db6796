"""Training-data selection strategies.

Five ways to draw ``n`` training examples from a pool of source-domain
documents: uniform random, per-domain balanced, whole-domain (sample only
from the most target-similar domain), instance ranking, and iterative
subset selection (repeatedly keep the most target-similar of ``m`` random
size-``s`` groups, removing winners from the pool between rounds).

The similarity-guided strategies rank scores they are given; they call no
metric themselves. ``evaluation.ExperimentContext`` computes the scores of
every scope through ``_score_rows``: one per pool document (item scores) and
one per source domain, pooled by ``representations.pool_groups``. Only the
subset search scores the candidate groups it draws, each pooled by the same
primitive straight from the representation matrix: pool document i is row
``pool_index[i]`` of the matrix, its corpus row, and no pool rows are copied
out. A singleton's score is its member's item score, and a proxy-A subset
scores as its members' mean. ``_rank`` is the one ranking rule: best
oriented score first, NaN last, ties by name. Instance ranking drops NaN
(empty) items and the domain choice drops NaN domains; truncating the final
subset round keeps NaN members, ranked last.

Which metric may score which representation and strategy is decided once,
by ``SelectionConfig``. All strategies are deterministic for a fixed seed,
never select target-domain documents (the pool excludes them by
construction), and return at most ``min(n, pool size)`` unique ids.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .corpus import Document
from .errors import ConfigError, DataError
from .representations import (
    AUTOENCODER,
    EMBEDDING,
    REPRESENTATION_KINDS,
    TERM_DIST,
    pool_groups,
)
from .similarity import (
    COSINE,
    JENSEN_SHANNON,
    LOWER,
    METRIC_ORIENTATION,
    PROXY_A,
    _as_vector,
    cosine_to_target,
    js_to_target,
    proxy_a_scores,
)

STRATEGIES = ("random", "balanced", "domain", "instance", "subset")

_DEFAULT_METRIC = {TERM_DIST: JENSEN_SHANNON, EMBEDDING: COSINE, AUTOENCODER: COSINE}

# Candidates scored per batch. At 256 a batch of term-distribution aggregates
# (s=20) holds about 60k nonzeros, so each temporary of the JS kernel (about
# 0.5 MB) stays in cache; at 2048 they were about 4 MB each and a third of
# the subset search went to system time allocating them. 128, 512 and 1,024
# were slower, with pooling by scipy's product kernels called directly too.
# Every candidate is scored on its own, so the value changes no score.
_SCORE_CHUNK = 256


@dataclass(frozen=True)
class SelectionConfig:
    """Selection parameters; ``metric=None`` picks the customary metric for the
    representation (term_dist -> jensen_shannon, dense kinds -> cosine).

    The metric's pairing rules live here alone: jensen_shannon needs term
    distributions, proxy_a scores examples and not domains, and a proxy_a
    subset search needs ``allow_proxy_a_subsets``.
    """

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
        metric = self.resolved_metric
        if metric == JENSEN_SHANNON and self.representation != TERM_DIST:
            raise ConfigError(
                f"jensen_shannon needs the term_dist representation, not {self.representation}"
            )
        if metric == PROXY_A and self.strategy == "domain":
            raise ConfigError("proxy_a is only defined per example; use the instance level")
        if metric == PROXY_A and self.strategy == "subset" and not self.allow_proxy_a_subsets:
            raise ConfigError(
                "proxy_a subset scoring is non-standard; set allow_proxy_a_subsets to enable it"
            )

    @property
    def resolved_metric(self) -> str:
        return self.metric if self.metric is not None else _DEFAULT_METRIC[self.representation]

    def echo(self) -> dict:
        return {**asdict(self), "metric": self.resolved_metric}


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


# ---------------------------------------------------------------------------
# Scoring and ranking
# ---------------------------------------------------------------------------

def _score_rows(rows, target_repr, metric: str, *, seed: int = 0, target_rows=None) -> np.ndarray:
    """Score representation rows against the target; NaN marks unusable rows.

    Proxy-A fits a discriminator of these rows against ``target_rows``,
    balanced by a ``seed``-drawn subsample.
    """
    if metric == JENSEN_SHANNON:
        return js_to_target(rows, target_repr)
    if metric == COSINE:
        return cosine_to_target(rows, _as_vector(target_repr))
    if metric == PROXY_A:
        return proxy_a_scores(rows, target_rows, seed=seed)
    raise ConfigError(f"unknown metric {metric!r}")


def _sort_key(scores: np.ndarray, orientation: str) -> np.ndarray:
    """Ascending key: the more similar, the lower; NaN as +inf."""
    key = scores if orientation == LOWER else -scores
    return np.where(np.isnan(key), np.inf, key)


def _rank(scores: np.ndarray, orientation: str, names: Sequence[str]) -> list[int]:
    """Positions of ``scores``, most similar first; NaN last, ties by name."""
    key = _sort_key(scores, orientation).tolist()
    return sorted(range(len(key)), key=lambda j: (key[j], names[j]))


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
    domain_scores: dict[str, float],
    metric: str,
    n: int,
    seed: int,
) -> SelectionResult:
    """Sample ``n`` examples from the single most target-similar source domain.

    ``domain_scores`` holds each source domain's score; a NaN score (a domain
    with no usable representation) is skipped. Ties rank lexicographically; a
    too-small winner is NOT topped up from the runner-up (the shortfall is
    recorded instead).
    """
    if not pool:
        raise DataError("selection pool is empty")
    usable = {d: v for d, v in sorted(domain_scores.items()) if not math.isnan(v)}
    if not usable:
        raise DataError("no source domain has a usable representation")
    names = list(usable)
    best = names[_rank(np.array(list(usable.values())), METRIC_ORIENTATION[metric], names)[0]]
    members = [i for i, doc in enumerate(pool) if doc.domain == best]
    if not members:
        raise DataError(f"most similar domain {best!r} has no documents in the pool")
    rng = np.random.default_rng(seed)
    take = min(n, len(members))
    picked = [members[j] for j in rng.choice(len(members), size=take, replace=False)]
    return SelectionResult(
        chosen=[pool[i].id for i in picked],
        strategy="domain",
        config={"n": n, "metric": metric, "chosen_domain": best, "domain_scores": usable},
        seed=seed,
        shortfall=n - take,
    )


def select_instance_level(
    pool: Sequence[Document], scores: np.ndarray, metric: str, n: int
) -> SelectionResult:
    """Rank individual examples by their scores and take the top ``n``.

    ``scores`` holds one score per pool document; NaN (empty) instances are
    excluded, and ties break on document id.
    """
    if not pool:
        raise DataError("selection pool is empty")
    if len(scores) != len(pool):
        raise DataError(f"{len(scores)} scores for {len(pool)} pool documents")
    ids = [doc.id for doc in pool]
    ranked = _rank(scores, METRIC_ORIENTATION[metric], ids)
    picked = [i for i in ranked if not math.isnan(scores[i])][:n]
    return SelectionResult(
        chosen=[ids[i] for i in picked],
        strategy="instance",
        config={"n": n, "metric": metric},
        seed=None,
        shortfall=max(0, n - len(picked)),
        item_scores={ids[i]: float(scores[i]) for i in picked},
    )


def subset_select(
    s: int,
    n: int,
    m: int,
    pool: Sequence[Document],
    target_repr,
    matrix,
    pool_index: np.ndarray,
    item_scores: np.ndarray,
    metric: str,
    seed: int,
) -> SelectionResult:
    """Iterative subset selection.

    Each round draws ``m`` random subsets of size ``min(s, remaining pool)``
    (without replacement within a subset, independently across subsets),
    scores each subset's pooled representation against the target, keeps the
    best one, and removes its members from the pool. Rounds repeat until ``n``
    examples are gathered; the final round's winner is truncated to exactly
    ``n`` by ``item_scores`` (one per pool document), best first.

    ``matrix`` is the representation matrix of the whole corpus and
    ``pool_index`` holds each pool document's corpus row, so ``pool[i]`` is
    represented by ``matrix[pool_index[i]]``. Candidates are pooled straight
    from those rows; ``pool_groups`` converts the matrix as it needs.

    With ``s=1`` and ``m`` at least the remaining pool size, the candidate
    set is enumerated exhaustively (one singleton per remaining document,
    ranked by ``_rank``), which makes the procedure equal to instance-level
    ranking.

    Term-distribution subsets pool raw counts before normalizing; dense
    subsets average member vectors.
    """
    if s < 1 or m < 1 or n < 1:
        raise ConfigError("subset selection requires s >= 1, m >= 1, n >= 1")
    if not pool:
        raise DataError("selection pool is empty")
    if len(pool_index) != len(pool) or len(item_scores) != len(pool):
        raise DataError(
            f"{len(pool_index)} rows and {len(item_scores)} scores "
            f"for {len(pool)} pool documents"
        )
    orientation = METRIC_ORIENTATION[metric]
    rng = np.random.default_rng(seed)

    available = np.arange(len(pool))
    chosen: list[int] = []
    iteration_members: list[list[str]] = []
    subset_scores: list[float] = []

    while len(chosen) < n and len(available):
        if s == 1 and m >= len(available):
            ids = [pool[i].id for i in available]
            in_avail = np.array(_rank(item_scores[available], orientation, ids))[:, None]
        else:
            in_avail = _draw_subsets(rng, len(available), min(s, len(available)), m)
        candidates = available[in_avail]
        scores = _candidate_scores(
            matrix, pool_index, item_scores, candidates, target_repr, metric
        )
        key = _sort_key(scores, orientation)
        best = int(np.argmin(key))
        if not np.isfinite(key[best]):
            break  # every candidate aggregate was empty; nothing usable remains
        members = candidates[best]
        room = n - len(chosen)
        if len(members) > room:
            ids = [pool[i].id for i in members]
            members = members[_rank(item_scores[members], orientation, ids)[:room]]
        chosen.extend(int(i) for i in members)
        iteration_members.append([pool[int(i)].id for i in members])
        subset_scores.append(float(scores[best]))
        available = available[~np.isin(available, members)]

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
    # A row without duplicates is never redrawn, so each pass re-checks only
    # the rows it just redrew; they are refilled in ascending order with one
    # draw per pass, as a whole-array check would.
    cand = rng.integers(0, n_avail, size=(m, size))
    redo = np.arange(m)
    while True:
        srt = cand[redo]
        srt.sort(axis=1)
        redo = redo[(np.diff(srt, axis=1) == 0).any(axis=1)]
        if redo.size == 0:
            return cand
        cand[redo] = rng.integers(0, n_avail, size=(redo.size, size))


def _candidate_scores(
    matrix, pool_index: np.ndarray, item_scores: np.ndarray, candidates: np.ndarray,
    target_repr, metric: str,
) -> np.ndarray:
    """Score each candidate subset, a row of pool positions, in batches.

    Each batch pools its members' rows of ``matrix`` (pool position i is row
    ``pool_index[i]``) by ``pool_groups`` and is scored by ``_score_rows``:
    term-distribution sums are scored as counts, dense rows as member means.
    Every candidate is scored on its own, so the batch size does not change
    any score. A proxy-A subset scores as the mean of its members'
    ``item_scores``, and so does a singleton (``s=1``) under any metric: the
    mean of one score is that score, so a singleton ranks exactly as its
    member does in instance ranking (the sparse product emits a row's columns
    in reverse order, and JS summed in that order can break a tie the other
    way).
    """
    if metric == PROXY_A or candidates.shape[1] == 1:
        return item_scores[candidates].mean(axis=1)
    out = np.empty(len(candidates), dtype=np.float64)
    for start in range(0, len(candidates), _SCORE_CHUNK):
        block = candidates[start : start + _SCORE_CHUNK]
        indptr = np.arange(0, block.size + 1, block.shape[1])
        pooled = pool_groups(matrix, pool_index[block.ravel()], indptr)
        out[start : start + len(block)] = _score_rows(pooled, target_repr, metric)
    return out
