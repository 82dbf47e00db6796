"""Training-data selection strategies.

Five ways to draw ``n`` training examples from a pool of source-domain
documents: uniform random, per-domain balanced, whole-domain (sample only
from the most target-similar domain), instance ranking, and iterative
subset selection (repeatedly keep the most target-similar of ``m`` random
size-``s`` groups, removing winners from the pool between rounds).

The similarity-guided strategies rank scores they are given; they call no
metric themselves. ``evaluation.ExperimentContext`` computes the scores of
every scope: one per pool document (item scores) and one per source domain,
pooled by ``representations.pool_groups``. JS and cosine go through
``_score_rows``; proxy-A item scores come from ``proxy_a_scores``, which the
context calls through this module. Only the subset search scores the
candidate groups it draws, each pooled by the same primitive straight from
the representation matrix: pool document i is row ``pool_index[i]`` of the
matrix, its corpus row, and no pool rows are copied out. A singleton's
score is its member's item score, and a proxy-A subset scores as its
members' mean. ``_rank`` is the one ranking rule: best oriented score first,
NaN last, ties by name. Instance ranking drops NaN (empty) items and the
domain choice drops NaN domains; truncating the final subset round keeps NaN
members, ranked last.

A subset search draws each round's candidates on one helper thread while
the calling thread scores the round before (``subset_select``). Bounds,
scoring and the choice of the winner run on the calling thread, where
``_candidate_scores`` scores candidates in row blocks, one after another;
every candidate's score depends on its own row alone, so the block size
changes no bit.

A round needs only its best candidate, so a JS round and a dense cosine round
(s >= 2) first bound every candidate from a few numbers per document, without
pooling it, and score only the candidates that may win (``_round_scores``).
Each search builds its bound once, as a function of a round's candidates
(``_js_bound``, ``_cosine_bound``). JS is convex in P, so its tangent plane
at P0, the pooled distribution of the whole pool, lies below it in every
round. At the pool's rare columns that a candidate misses, JS takes its exact
value, above the plane's, so each candidate keeps the larger of the plane and
this support-aware bound. A dense cosine is at most ``A / sqrt(A^2 +
|B|^2)``, where A is the candidate mean's projection on the unit target and B
its projections on a few orthonormal directions orthogonal to it
(``_cosine_upper_bounds``). A candidate is skipped only when its bound is
worse than an already-scored candidate's key by more than ``_PRUNE_SLACK``,
far above the bounds' rounding, so every candidate that could win or tie is
scored with the bits an exhaustive round gives it, and the winners, recorded
scores and ids are unchanged. Sparse cosine, proxy-A
and singleton rounds score every candidate.

Which metric may score which representation and strategy is decided once,
by ``SelectionConfig``. All strategies are deterministic for a fixed seed,
never select target-domain documents (the pool excludes them by
construction), and return at most ``min(n, pool size)`` unique ids.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import autoencoder
from .autoencoder import _row_blocks
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
    LN2,
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

# A subset search's bound: a round's candidates to a lower bound on each ``_sort_key``.
_Bound = Callable[[np.ndarray], np.ndarray]

# A candidate stays unscored only when its key bound is worse than the
# round's incumbent by more than this. The bounds hold in real arithmetic;
# the slack absorbs their rounding, a few units in the last place of keys no
# larger than 1 (JS <= ln 2, |cosine| <= 1). In in-process searches (s=20,
# m=20,000, n=1,600) on the seed-0 and seed-10 pools, no candidate of the first
# five rounds came closer to its bound than 0.021 nats (JS, graded and blended)
# or 6.2e-4 (cosine, blended SIF rows), and no scored candidate of any round
# closer than 0.051 nats or 0.10, so the slack costs no pruning there. With a
# slack of -1e-3 the bounded search picks other winners than the exhaustive
# one in the tests.
_PRUNE_SLACK = 1e-9

# Directions orthogonal to the target on which the dense cosine bound measures
# each candidate mean's norm. More directions tighten the bound, but each
# adds a column to the round's bound pooling. In-process ``subset_select`` on
# blended SIF rows (100-d, s=20, m=20,000, 80 rounds) with exact top
# eigenvectors as directions, share of candidates scored and seconds, 2-vCPU
# host: 8 directions 62% 1.4-1.9 s, 16 25% 0.98-1.0 s, 24 9% 0.92-1.15 s,
# 32 3.7% 1.16-1.19 s, 48 2.6% 1.45 s (seed 0); 16 against 32 on seeds 1, 2
# and 10: 0.85-1.32 s against 1.09-1.50 s, 15-22% against 2.8-3.4% scored.
_COSINE_DIRECTIONS = 16

# Subspace-iteration steps that find those directions (``_cosine_projections``),
# each one pass over the pool rows against 2 * 16 columns. Share of candidates
# scored by in-process ``subset_select`` (seed 0) after 1, 2, 4 and 8 steps,
# against exact top eigenvectors: blended SIF rows (100-d) 29.5, 23.4, 20.1,
# 18.9% (exact 18.8%); graded AE codes (1,000-d, one epoch) 16.8, 14.7, 14.2,
# 14.1% (14.0%); blended AE codes 49.1, 43.6, 42.7, 42.5% (42.4%). Four steps
# took 0.02 s on the SIF rows and 0.21-0.27 s on the graded AE codes, against
# 0.01 s and 0.32-0.45 s for the exact d x d scatter and its eigh.
_POWER_STEPS = 4


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

def check_cosine_target(target_repr) -> np.ndarray:
    """The target as a vector, or a ``DataError`` when no entry is nonzero: such
    a target has no direction, and cosine would score every row 0."""
    target = _as_vector(target_repr)
    if not target.any():
        raise DataError("target vector is all zeros; cosine cannot rank against it")
    return target


def _score_rows(rows, target_repr, metric: str) -> np.ndarray:
    """Score representation rows against the target; NaN marks unusable rows.

    A target vector with no nonzero entry is a ``DataError`` under cosine
    (``check_cosine_target``), as an empty target distribution is under JS.
    Proxy-A is not scored here: it fits a discriminator against the target's
    own rows, which ``ExperimentContext.item_scores`` passes to
    ``proxy_a_scores`` itself.
    """
    if metric == JENSEN_SHANNON:
        return js_to_target(rows, target_repr)
    if metric == COSINE:
        return cosine_to_target(rows, check_cosine_target(target_repr))
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

    The draws run on one helper thread, one round ahead: a round's winner
    leaves ``len(available) - size`` documents whichever candidate it is, so
    the next round's draw starts as soon as this round's candidates are
    mapped (the first one before the bound is built), and only when another
    round will draw. The generator is read by one thread at a time, in the
    serial order, so every draw is the one a serial search makes. A draw
    left unused after a round of all-empty candidates is discarded, and the
    helper ends before the call returns or raises.

    A JS round and a dense cosine round with subsets of two or more skip the
    candidates that provably cannot win (``_round_scores``), through a bound
    the search builds once, before its first round. Each candidate's JS is
    bounded from below by the larger of two bounds: the tangent plane of
    ``JS(., q)`` at the pooled distribution of the whole pool, and the plane
    with the exact JS term at each column of R the candidate misses, R being
    the columns whose pool document frequency times ``s`` is below the pool
    size (any R keeps it valid; ``_js_bound``). Each dense cosine is bounded
    from above through the candidate mean's projections on the unit target
    and on ``_COSINE_DIRECTIONS`` orthonormal directions orthogonal to it,
    taken from the pool rows' scatter (``_cosine_bound``). A candidate whose
    bound is worse than the best key among the first-scored candidates by
    more than ``_PRUNE_SLACK`` is not scored. No candidate that could win or
    tie is skipped, and the scored ones get the bits an exhaustive round
    gives them, so the result is that of scoring every candidate.
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
    helper = ThreadPoolExecutor(max_workers=1)

    def draw(n_avail: int):
        """Start the draw of a round over ``n_avail`` documents on the helper
        thread; None for the exhaustive ``s=1`` round, which draws nothing."""
        if s == 1 and m >= n_avail:
            return None
        return helper.submit(_draw_subsets, rng, n_avail, min(s, n_avail), m)

    available = np.arange(len(pool))
    chosen: list[int] = []
    iteration_members: list[list[str]] = []
    subset_scores: list[float] = []
    try:
        pending = draw(len(available))
        bound = None
        if s > 1 and metric == JENSEN_SHANNON:
            bound = _js_bound(matrix, pool_index, s, target_repr)
        elif s > 1 and metric == COSINE and not sp.issparse(matrix):
            bound = _cosine_bound(matrix, pool_index, target_repr)

        while len(chosen) < n and len(available):
            # candidates hold pool positions; the draw's positions within
            # ``available`` are dropped at once, not kept alive through scoring
            if pending is None:
                ids = [pool[i].id for i in available]
                candidates = available[_rank(item_scores[available], orientation, ids)][:, None]
            else:
                candidates = available[pending.result()]
            # the winner leaves this many documents, whichever candidate it is
            n_next = len(available) - candidates.shape[1]
            pending = None
            if len(chosen) + candidates.shape[1] < n and n_next > 0:
                pending = draw(n_next)
            scores = _round_scores(
                matrix, pool_index, item_scores, candidates, target_repr, metric, bound
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
    finally:
        # a draw left pending (after the break, or when scoring raised) is
        # discarded; no thread outlives the call
        helper.shutdown(wait=True, cancel_futures=True)

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
    paths are deterministic for a fixed generator state. A subset of the
    whole pool is the only one there is, so it is returned once, not ``m``
    times; that draw consumes nothing from the generator.

    ``subset_select`` calls this on its helper thread while the calling
    thread scores the previous round, so each rejection pass sorts and
    compares its rows in ``_row_blocks``, which keeps the temporaries
    block-sized next to the scoring's. One 20,000 x 20 draw from 6,800
    documents took 4.6-4.8 ms (medians of 30) with a tracemalloc peak of
    3.3 MiB, against 6.3-6.8 ms and 9.5 MiB when each pass checked its rows
    as one array.
    """
    if size >= n_avail:
        return np.arange(n_avail)[None, :]
    if size * size > n_avail:
        # Keys are drawn in row blocks to bound memory; the generator
        # continues one stream, so the draw equals a one-shot (m, n_avail) one.
        out = np.empty((m, size), dtype=np.intp)
        for start, stop in _row_blocks(m):
            keys = rng.random((stop - start, n_avail))
            out[start:stop] = np.argsort(keys, axis=1)[:, :size]
        return out
    # A row without duplicates is never redrawn, so each pass re-checks only
    # the rows it just redrew, block by block; they are refilled in ascending
    # order with one draw per pass, as a whole-array check would.
    cand = rng.integers(0, n_avail, size=(m, size))
    redo = np.arange(m)
    while True:
        dup = np.empty(len(redo), dtype=bool)
        for start, stop in _row_blocks(len(redo)):
            srt = np.sort(cand[redo[start:stop]], axis=1)
            dup[start:stop] = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        redo = redo[dup]
        if redo.size == 0:
            return cand
        cand[redo] = rng.integers(0, n_avail, size=(redo.size, size))


def _candidate_scores(
    matrix, pool_index: np.ndarray, item_scores: np.ndarray, candidates: np.ndarray,
    target_repr, metric: str,
) -> np.ndarray:
    """Score each candidate subset, a row of pool positions, in row blocks.

    Each block pools its members' rows of ``matrix`` (pool position i is row
    ``pool_index[i]``) by ``pool_groups`` and is scored by ``_score_rows``:
    term-distribution sums are scored as counts, dense rows as member means.
    A proxy-A subset scores as the mean of its members' ``item_scores``, and
    so does a singleton (``s=1``) under any metric: the mean of one score is
    that score, so a singleton ranks exactly as its member does in instance
    ranking (the sparse product emits a row's columns in reverse order, and
    JS summed in that order can break a tie the other way).

    The blocks are scored one after another on the calling thread. With the
    search's bounds leaving 5-25% of a round's candidates to score, splitting
    the blocks over both CPUs of a 2-vCPU host was no faster and raised the
    benchmark's peak RSS by about 10 MB.
    """
    if metric == PROXY_A or candidates.shape[1] == 1:
        return item_scores[candidates].mean(axis=1)
    out = np.empty(len(candidates), dtype=np.float64)
    for start, stop in _row_blocks(len(candidates)):
        pooled = _pool_candidates(matrix, pool_index[candidates[start:stop]])
        out[start:stop] = _score_rows(pooled, target_repr, metric)
    return out


def _round_scores(
    matrix, pool_index: np.ndarray, item_scores: np.ndarray, candidates: np.ndarray,
    target_repr, metric: str, bound: _Bound | None,
) -> np.ndarray:
    """Scores of one round's candidates; NaN for those that provably cannot win.

    ``bound`` is the search's bound (``_js_bound``, ``_cosine_bound``) or
    None: a function from a round's candidates to a lower bound on each one's
    ``_sort_key``, found without pooling it. Given it, a round of subsets of
    two or more scores one block (``autoencoder._BLOCK_ROWS``) of best-bounded
    candidates first; their best key is the incumbent. Every other candidate
    whose bound exceeds the incumbent by more than ``_PRUNE_SLACK`` is left
    unscored (NaN), and the rest, NaN bounds included, are scored. Each score
    is ``_candidate_scores``'s for that candidate alone, so a scored candidate
    gets the same bits as in an exhaustive round, and every candidate whose
    key could reach the round's best, ties included, is scored. Other rounds
    score every candidate.
    """
    if bound is None or candidates.shape[1] == 1:
        return _candidate_scores(matrix, pool_index, item_scores, candidates, target_repr, metric)

    def score(which):
        out[which] = _candidate_scores(
            matrix, pool_index, item_scores, candidates[which], target_repr, metric
        )

    bounds = bound(candidates)
    out = np.full(len(candidates), np.nan)
    first = min(len(candidates), autoencoder._BLOCK_ROWS)
    best_bounded = np.argpartition(bounds, first - 1)[:first]
    score(best_bounded)
    incumbent = _sort_key(out[best_bounded], METRIC_ORIENTATION[metric]).min()
    rest = ~(bounds > incumbent + _PRUNE_SLACK)  # NaN bounds stay
    rest[best_bounded] = False
    if rest.any():
        score(np.flatnonzero(rest))
    return out


def _js_bound(matrix, pool_index: np.ndarray, s: int, target) -> _Bound | None:
    """A function from a round's candidates to a lower bound on each one's JS
    divergence to ``target``, built once per search; None when every pool
    document is empty.

    Write ``JS(P, q) = sum_i phi_i(P_i)`` with ``phi_i(p) = p/2 ln(2p/(p+q_i))
    + q_i/2 ln(2q_i/(p+q_i))``, each ``phi_i`` convex and ``phi_i(0) = q_i
    ln2/2``. P0 is the pooled distribution of the whole pool, whose support
    holds every candidate's in every round, and ``g_i = 0.5 ln(2 P0_i / (P0_i
    + q_i))`` is the gradient there, set to 0 where P0 is 0.

    - The tangent plane at P0 lies below JS: ``JS(P) >= sum_i a_i + g.P``,
      with the intercept ``a_i = phi_i(0) + d_i`` and ``d_i = -q_i/2 ln(1 +
      P0_i/q_i) <= 0`` (0 where q is 0).
    - At a column of R that P misses, JS takes the exact ``phi_i(0)``, above
      the plane's ``a_i``; at one it covers, the plane's ``phi_i(0) + d_i +
      g_i P_i`` stays. P's support is the union of its members', and
      every ``d_i`` is at most 0, so ``sum_{i in R, P_i > 0} d_i`` is at least
      the sum over members of ``D_j``, the ``d_i`` of R's columns that member
      j holds. This gives ``JS(P) >= sum_{i not in R} a_i + sum_{i in R}
      phi_i(0) + g.P + sum_j D_j``. R is any set of columns; here it holds
      those whose pool document frequency times ``s`` is below the pool size,
      the columns a size-``s`` candidate most likely misses.

    Each candidate gets the larger of the two. A candidate pooling count rows
    ``c_j`` with token totals ``T_j`` has ``g.P = sum(g.c_j) / sum(T_j)``, so
    the three numbers ``[g.c_j, T_j, D_j]`` per pool document, taken here
    from the pool rows, give both bounds; the function pools them for every
    candidate of a round in one call. ``pool_groups`` averages dense rows,
    which leaves the ratio as it is but makes the pooled D the members' mean,
    so it is multiplied by the subset size. (In row blocks, a 20,000-candidate
    round took 2.5 ms against 1.3 ms whole, and the search's traced allocation
    peak was the same either way.) An empty candidate (every ``T_j`` 0, a NaN
    score) gets a NaN bound.
    """
    rows = matrix.tocsr()[pool_index] if sp.issparse(matrix) else sp.csr_matrix(matrix[pool_index])
    p0 = np.asarray(rows.sum(axis=0), dtype=np.float64).ravel()
    total = p0.sum()
    if not total > 0:
        return None
    p0 /= total
    q = target.probs
    g = np.zeros_like(p0)
    support = p0 > 0
    g[support] = 0.5 * np.log(2.0 * p0[support] / (p0[support] + q[support]))
    d = np.zeros_like(p0)
    held = q > 0
    d[held] = -0.5 * q[held] * np.log1p(p0[held] / q[held])
    plane = 0.5 * LN2 * q.sum() + d.sum()
    rare = np.flatnonzero(np.bincount(rows.indices, minlength=rows.shape[1]) * s < rows.shape[0])
    per_doc = np.column_stack([
        rows @ g,
        np.asarray(rows.sum(axis=1), dtype=np.float64).ravel(),
        (rows[:, rare] != 0).astype(np.float64) @ d[rare],
    ])
    missed = plane - d[rare].sum()

    def bound(candidates: np.ndarray) -> np.ndarray:
        means = _pool_candidates(per_doc, candidates)
        out = np.full(len(candidates), np.nan)
        np.divide(means[:, 0], means[:, 1], out=out, where=means[:, 1] > 0)
        return out + np.maximum(plane, missed + candidates.shape[1] * means[:, 2])

    return bound


def _cosine_bound(matrix: np.ndarray, pool_index: np.ndarray, target) -> _Bound | None:
    """A function from a round's candidates to minus ``_cosine_upper_bounds``,
    a lower bound on each one's ``_sort_key``, from the pool rows'
    ``_cosine_projections`` taken once per search; None when those are."""
    projections = _cosine_projections(matrix, pool_index, target)
    if projections is None:
        return None
    return lambda candidates: -_cosine_upper_bounds(projections, candidates)


def _cosine_projections(matrix: np.ndarray, pool_index: np.ndarray, target) -> np.ndarray | None:
    """Each pool row's projections on the unit target and on up to
    ``_COSINE_DIRECTIONS`` orthonormal directions orthogonal to it, or None
    when the target has no finite direction (the round then goes unbounded,
    and ``_score_rows`` rejects an all-zero target).

    The directions approximate the top eigenvectors of the scatter of the
    pool rows with their target component removed, the directions in which
    candidate means spread most. They are found once per search by
    ``_POWER_STEPS`` steps of subspace iteration on twice as many columns,
    then the best of them by Rayleigh-Ritz, each step one pass over the pool
    rows in row blocks, so no d x d array is formed; they are then
    QR-orthonormalized against the target. Any orthonormal directions keep the
    bound valid; better ones only tighten it.
    """
    unit = _as_vector(target)
    norm = np.sqrt(unit @ unit)
    if not 0.0 < norm < np.inf:
        return None
    unit = unit / norm
    k = min(_COSINE_DIRECTIONS, len(unit) - 1)
    span = np.random.default_rng(0).standard_normal((len(unit), min(2 * k, len(unit) - 1)))
    for _ in range(_POWER_STEPS):
        span = _scatter_times(matrix, pool_index, unit, _orthonormal_to(unit, span))
    span = _orthonormal_to(unit, span)
    rayleigh = span.T @ _scatter_times(matrix, pool_index, unit, span)
    if not np.isfinite(rayleigh).all():
        return None
    top = span @ np.linalg.eigh(rayleigh)[1][:, ::-1][:, :k]
    basis = np.column_stack([unit, _orthonormal_to(unit, top)])
    out = np.empty((len(pool_index), k + 1))
    for start, stop in _row_blocks(len(pool_index)):
        out[start:stop] = matrix[pool_index[start:stop]] @ basis
    return out


def _orthonormal_to(unit: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """An orthonormal basis of ``columns``' span with ``unit`` projected out:
    the QR of ``[unit, columns]`` without its first column."""
    return np.linalg.qr(np.column_stack([unit, columns]))[0][:, 1:]


def _scatter_times(
    matrix: np.ndarray, pool_index: np.ndarray, unit: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """``R.T @ (R @ columns)`` for R the pool rows with their ``unit``
    component removed and ``columns`` orthogonal to ``unit``, in row blocks.
    Then ``R @ columns`` is ``rows @ columns``, so R itself is never formed."""
    out = np.zeros_like(columns)
    along = np.zeros(columns.shape[1])
    for start, stop in _row_blocks(len(pool_index)):
        rows = matrix[pool_index[start:stop]]
        product = rows @ columns
        out += rows.T @ product
        along += (rows @ unit) @ product
    return out - np.outer(unit, along)


def _cosine_upper_bounds(projections: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """An upper bound on each candidate's cosine to the target.

    A candidate's mean row has projection A on the unit target and B on the
    orthonormal directions of ``projections``, so its norm is at least
    ``sqrt(A^2 + |B|^2)`` and its cosine ``A / norm`` at most
    ``A / sqrt(A^2 + |B|^2)`` when A > 0, and at most 0 otherwise. The
    projections are pooled in row blocks, which kept a 20,000-candidate
    round's bounds at 7-11 ms against 11-12 ms whole.
    """
    out = np.zeros(len(candidates))
    for start, stop in _row_blocks(len(candidates)):
        means = _pool_candidates(projections, candidates[start:stop])
        along = means[:, 0]
        norm = np.sqrt(along * along + (means[:, 1:] ** 2).sum(axis=1))
        np.divide(along, norm, out=out[start:stop], where=along > 0)
    return out


def _pool_candidates(rows, members: np.ndarray):
    """``pool_groups`` of each row of ``members``, a candidates x size array of
    row numbers of ``rows``, into one pooled row per candidate."""
    indptr = np.arange(0, members.size + 1, members.shape[1])
    return pool_groups(rows, members.ravel(), indptr)
