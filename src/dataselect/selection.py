"""Training-data selection strategies.

Five ways to draw ``n`` training examples from a pool of source-domain
documents: uniform random, per-domain balanced, whole-domain (sample only
from the most target-similar domain), instance ranking, and iterative
subset selection (repeatedly keep the most target-similar of ``m`` random
size-``s`` groups, removing winners from the pool between rounds).

Every strategy reads pool-aligned sequences, entry i describing pool
document i: its id (``ids``), which breaks ties and is what a result
reports; its domain (``domains``, read by the balanced and domain-level
strategies); its score (instance and subset levels); and, for the subset
search alone, its corpus row (``pool_index``). Strategies work on pool
positions, and ids are formed where a ``SelectionResult`` is built.

The similarity-guided strategies rank scores they are given; they call no
metric themselves. ``evaluation.ExperimentContext`` computes the scores of
every scope: one per pool document (item scores) and one per source domain,
pooled by ``representations.pool_groups``. JS and cosine go through
``row_scorer``; proxy-A item scores come from ``proxy_a_scores``, which the
context calls through this module. Only the subset search scores the
candidate groups it draws, each pooled by the same primitive straight from
the representation matrix: pool document i is row ``pool_index[i]`` of the
matrix, its corpus row, and no pool rows are copied out. A singleton's
score is its member's item score. Proxy-A scores examples, so it ranks
instances only, never domains or subsets. ``_rank`` is the one ranking
rule: best oriented score first, NaN last, ties by name. A NaN item (an
empty document, under either metric) is never chosen: instance ranking drops
it and the subset search never draws it, and the domain choice drops NaN
domains.

A subset search draws each round's candidates on one helper thread while
the calling thread scores the round before (``subset_select``). Each search
builds one round function, once (``_round_scorer``): it checks the target,
picks the metric's kernel and, for subsets of two or more, builds the
search's bound. Bounds, scoring and the choice of the winner run on the
calling thread, and all three pool candidates through one loop, ``_pooled``,
a slice at a time; every candidate's value depends on its own members alone,
so the slice size changes no bit.

A round needs only its best candidate, so a JS round and a cosine round
(s >= 2) first bound every candidate from a few numbers per document, without
pooling it, and score only the candidates that may win (``_round_scores``):
the branch-and-bound rule (Land and Doig, Econometrica 1960), under which any
valid lower bound keeps the search exact. The bound is a function of a
round's candidates (``_js_bound``, ``_cosine_bound``). JS is a sum of convex
terms, one per column, so a tangent of each at any point lies below it in
every round: here the tangents at a point that moves the pool's rare columns
to the counts a candidate holds there. At the rare columns that a candidate
misses, JS takes its exact value, above the tangent's, and the bound takes
it there too. A cosine is at most ``A / sqrt(A^2 + |B|^2)``, where A is the
candidate mean's projection on the unit target and B its projections on a
few orthonormal directions orthogonal to it (``_cosine_bound``): the top of
the second moment of a size-``s`` candidate's mean, in which the pool mean
weighs about ``s`` times more than in the rows' own scatter. A candidate is
skipped only when its bound is worse than an already-scored candidate's key
by more than ``_PRUNE_SLACK``, far above the bounds' rounding, so every
candidate that could win or tie is scored with the bits an exhaustive round
gives it, and the winners, recorded scores and ids are unchanged. Singleton rounds score every candidate; an
exhaustive one (s = 1, m at least the pool left) has one, the best-ranked
document left, as the pool left is ranked once and winners leave in rank
order.

Which metric may score which representation and strategy is decided once,
by ``SelectionConfig``. All strategies are deterministic for a fixed seed,
never select target-domain documents (the pool excludes them by
construction), and return at most ``min(n, pool size)`` unique ids.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import autoencoder
from .autoencoder import _row_blocks
from .errors import ConfigError, DataError
from .representations import (
    AUTOENCODER,
    EMBEDDING,
    REPRESENTATION_KINDS,
    TERM_DIST,
    TermDistribution,
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
    _squared_norms,
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
# five rounds came closer to its bound than 1.1e-3 nats (JS, graded and
# blended; 0.020 before the bound's tangent points) or 1.7e-4 (cosine, blended
# SIF rows; 6.2e-4 at seed 0), and no scored candidate of any round closer
# than 9.0e-3 nats or 0.076, so the slack costs no pruning there. With a
# slack of -1e-3 the bounded search picks other winners than the exhaustive
# one in the tests.
_PRUNE_SLACK = 1e-9

# Directions orthogonal to the target on which the cosine bound measures
# each candidate mean's norm. More directions tighten the bound, but each
# adds a column to the round's bound pooling. In-process ``subset_select`` on
# blended SIF rows (100-d, s=20, m=20,000, 80 rounds), share of candidates
# scored and seconds (medians of 3 in two alternating batches, shared 2-vCPU
# host): 16 directions 19.5% 1.7-2.3 s, 20 12.2% 1.5-1.8 s, 24 7.8% 1.3-1.5
# s, 28 4.8% 1.3-1.7 s, 32 3.1% 1.3-1.8 s (seed 0); 18.9, 11.9, 7.4, 4.5 and
# 2.8% at seed 10. 20 to 32 were within the host's noise. Directions from the
# rows' own scatter, not a candidate mean's second moment, left 25% at 16.
_COSINE_DIRECTIONS = 24

# Subspace-iteration steps that find those directions (``_cosine_projections``),
# each one pass over the pool rows against 2 * 24 columns. Share of candidates
# scored by in-process ``subset_select`` (seed 0) after 1, 2, 4 and 8 steps,
# against exact top eigenvectors: blended SIF rows (100-d) 10.2, 8.6, 7.8,
# 7.6% (exact 7.6%); graded AE codes (1,000-d, one epoch) 13.9, 12.6, 12.2,
# 12.0% (12.0%); blended AE codes 41.3, 38.5, 37.6, 37.4% (37.4%). Four steps
# took 0.03 s on the SIF rows and 0.28-0.39 s on the graded AE codes, against
# 0.01 s and 0.30-0.54 s for the exact d x d matrix and its eigh.
_POWER_STEPS = 4

# Rows per slice of the draw's duplicate check (``_duplicate_rows``) and of
# the cosine bound's pooling; see ``_draw_subsets`` and ``_cosine_bound`` for
# the timings that chose it.
_SLICE_ROWS = 2048


@dataclass(frozen=True)
class SelectionConfig:
    """Selection parameters; ``metric=None`` picks the customary metric for the
    representation (term_dist -> jensen_shannon, dense kinds -> cosine).

    The metric's pairing rules live here alone: jensen_shannon needs term
    distributions, and proxy_a scores examples, not domains or subsets.
    """

    n: int
    strategy: str
    representation: str = TERM_DIST
    metric: str | None = None
    s: int = 20
    m: int = 20000

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
        if metric == PROXY_A and self.strategy in ("domain", "subset"):
            raise ConfigError("proxy_a is only defined per example; use the instance level")

    @property
    def resolved_metric(self) -> str:
        return self.metric if self.metric is not None else _DEFAULT_METRIC[self.representation]


@dataclass
class SelectionResult:
    """Chosen document ids and what the selection found on the way; the
    settings that produced it are the caller's to record. A field a strategy
    does not fill stays None."""

    chosen: list[str]
    seed: int | None = None
    metric: str | None = None
    chosen_domain: str | None = None
    domain_scores: dict[str, float] | None = None
    item_scores: dict[str, float] | None = None
    subset_scores: list[float] | None = None
    iteration_members: list[list[str]] | None = None


# ---------------------------------------------------------------------------
# Scoring and ranking
# ---------------------------------------------------------------------------

def row_scorer(target_repr, metric: str) -> Callable[[np.ndarray], np.ndarray]:
    """A function from representation rows to their ``metric`` scores against
    the target, NaN marking unusable rows. The target is checked here, and
    only here; one that cannot rank is a ``DataError``: an empty
    distribution under JS, and under cosine a vector with no nonzero entry,
    which has no direction (cosine would score every row NaN), or one whose
    squared norm ``_squared_norms`` refuses. The kernel (``js_to_target``,
    ``cosine_to_target``) is looked up in this module at each call.

    Proxy-A has no target aggregate, so it is an unknown metric here: it fits
    a discriminator against the target's own rows, which
    ``ExperimentContext.item_scores`` passes to ``proxy_a_scores`` itself.
    """
    if metric == JENSEN_SHANNON:
        if target_repr.empty:
            raise DataError("target distribution is empty")
        return lambda rows: js_to_target(rows, target_repr)
    if metric != COSINE:
        raise ConfigError(f"unknown metric {metric!r}")
    target = _as_vector(target_repr)
    if not target.any():
        raise DataError("target vector is all zeros; cosine cannot rank against it")
    _squared_norms(target, "target vector")
    return lambda rows: cosine_to_target(rows, target)


def _check_pool(ids: Sequence[str], **aligned: Sequence) -> None:
    """A ``DataError`` when the pool is empty or a sequence in ``aligned``
    does not hold one entry per pool document."""
    if not len(ids):
        raise DataError("selection pool is empty")
    for name, values in aligned.items():
        if len(values) != len(ids):
            raise DataError(f"{len(values)} {name} for {len(ids)} pool documents")


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

def select_random(ids: Sequence[str], n: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement from the whole source pool."""
    _check_pool(ids)
    picked = np.random.default_rng(seed).choice(len(ids), size=min(n, len(ids)), replace=False)
    return SelectionResult(chosen=[ids[i] for i in picked], seed=seed)


def select_balanced(
    ids: Sequence[str], domains: Sequence[str], n: int, seed: int
) -> SelectionResult:
    """Stratified sample: an equal quota per source domain.

    The remainder of ``n / K`` goes one extra to the lexicographically first
    domains; domains too small to fill their quota contribute everything and
    the leftover budget is redistributed by the same rule.
    """
    _check_pool(ids, domains=domains)
    by_domain: dict[str, list[int]] = {}
    for i, domain in enumerate(domains):
        by_domain.setdefault(domain, []).append(i)
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
        chosen.extend(ids[i] for i in picked)
    return SelectionResult(chosen=chosen, seed=seed)


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
    ids: Sequence[str],
    domains: Sequence[str],
    domain_scores: dict[str, float],
    metric: str,
    n: int,
    seed: int,
) -> SelectionResult:
    """Sample ``n`` examples from the single most target-similar source domain
    that has documents in the pool.

    ``domain_scores`` holds each source domain's score; a NaN score (a domain
    with no usable representation) is skipped, as is a domain with no pool
    documents (say, one whose documents are all unlabeled), whose text still
    informs the scores. Ties rank lexicographically; a too-small winner is
    NOT topped up from the runner-up (the result falls short of ``n``).
    """
    _check_pool(ids, domains=domains)
    usable = {d: v for d, v in sorted(domain_scores.items()) if not math.isnan(v)}
    names = sorted(usable.keys() & set(domains))
    if not names:
        raise DataError("no source domain with pool documents has a usable representation")
    best = names[_rank(np.array([usable[d] for d in names]), METRIC_ORIENTATION[metric], names)[0]]
    members = [i for i, domain in enumerate(domains) if domain == best]
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(members), size=min(n, len(members)), replace=False)
    return SelectionResult(
        chosen=[ids[members[j]] for j in picked],
        seed=seed,
        metric=metric,
        chosen_domain=best,
        domain_scores=usable,
    )


def select_instance_level(
    ids: Sequence[str], scores: np.ndarray, metric: str, n: int
) -> SelectionResult:
    """Rank individual examples by their scores and take the top ``n``.

    ``scores`` holds one score per pool document; NaN (empty) instances are
    excluded, and ties break on document id.
    """
    _check_pool(ids, scores=scores)
    ranked = _rank(scores, METRIC_ORIENTATION[metric], ids)
    picked = [i for i in ranked if not math.isnan(scores[i])][:n]
    return SelectionResult(
        chosen=[ids[i] for i in picked],
        metric=metric,
        item_scores={ids[i]: float(scores[i]) for i in picked},
    )


def subset_select(
    s: int,
    n: int,
    m: int,
    ids: Sequence[str],
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
    examples are gathered or the pool is spent; the final round's winner is
    truncated to exactly ``n`` by ``item_scores`` (one per pool document),
    best first. The pool holds the documents whose item score is not NaN, as
    instance ranking keeps them, so every candidate has a score; a pool with
    none returns an empty result and builds nothing.

    ``matrix`` is the representation matrix of the whole corpus and
    ``pool_index`` holds each pool document's corpus row, so the document
    ``ids[i]`` is represented by ``matrix[pool_index[i]]``. Candidates are
    pooled straight from those rows; ``pool_groups`` converts the matrix as it
    needs. The settings are checked by ``SelectionConfig``, so a metric the
    subset level refuses (proxy_a) fails the same way at every ``s``, before
    any draw.

    With ``s=1`` and ``m`` at least the remaining pool size, a round is
    exhaustive and the search equals instance-level ranking: the pool left is
    ranked by ``_rank`` once, and winners leave in rank order, so each such
    round's one candidate is the best-ranked document still available.

    Term-distribution subsets pool raw counts before normalizing; dense
    subsets average member vectors.

    The draws run on one helper thread, one round ahead: a round's winner
    leaves ``len(available) - size`` documents whichever candidate it is, so
    the next round's draw starts as soon as this round's candidates are
    mapped (the first one before the round function is built), and only when
    another round will draw. The generator is read by one thread at a time,
    in the serial order, so every draw is the one a serial search makes. The
    helper ends before the call returns or raises.

    Every round is scored by one function that the search builds once,
    before its first round (``_round_scorer``). With subsets of two or more
    it skips the candidates that provably cannot win (``_round_scores``): a
    candidate whose bound is worse than the best key among the first-scored
    candidates by more than ``_PRUNE_SLACK`` is not scored. No candidate that
    could win or tie is skipped, and the scored ones get the bits an
    exhaustive round gives them, so the result is that of scoring every
    candidate.
    """
    SelectionConfig(n=n, strategy="subset", metric=metric, s=s, m=m)
    _check_pool(ids, rows=pool_index, scores=item_scores)
    available = np.flatnonzero(~np.isnan(item_scores))
    if not len(available):  # no scorable document: no round, so no scorer is built
        return SelectionResult(
            chosen=[], seed=seed, metric=metric, subset_scores=[], iteration_members=[]
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

    ranked = None  # the remaining pool in rank order, once s=1 rounds turn exhaustive
    chosen: list[int] = []
    iteration_members: list[list[str]] = []
    subset_scores: list[float] = []
    try:
        pending = draw(len(available))
        round_scores = _round_scorer(matrix, pool_index, item_scores, target_repr, metric, s)

        while len(chosen) < n and len(available):
            # candidates hold pool positions; the draw's positions within
            # ``available`` are dropped at once, not kept alive through scoring
            if pending is None:
                if ranked is None:
                    names = [ids[i] for i in available]
                    ranked = iter(available[_rank(item_scores[available], orientation, names)])
                candidates = np.array([[next(ranked)]])
            else:
                candidates = available[pending.result()]
            # the winner leaves this many documents, whichever candidate it is
            n_next = len(available) - candidates.shape[1]
            pending = None
            if len(chosen) + candidates.shape[1] < n and n_next > 0:
                pending = draw(n_next)
            scores = round_scores(candidates)
            best = int(np.argmin(_sort_key(scores, orientation)))
            members = candidates[best]
            room = n - len(chosen)
            if len(members) > room:
                names = [ids[i] for i in members]
                members = members[_rank(item_scores[members], orientation, names)[:room]]
            chosen.extend(int(i) for i in members)
            iteration_members.append([ids[i] for i in members])
            subset_scores.append(float(scores[best]))
            available = available[~np.isin(available, members)]
    finally:
        # a draw left pending when scoring raised is discarded; no thread
        # outlives the call
        helper.shutdown(wait=True, cancel_futures=True)

    return SelectionResult(
        chosen=[ids[i] for i in chosen],
        seed=seed,
        metric=metric,
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
    thread bounds and scores the previous round. Once the JS bound leaves
    256 candidates a round to score, the draws of a graded search (0.34-0.43
    s over 80 rounds) take about as long as the bounds and scoring together
    (0.30-0.57 s), so each rejection pass checks its rows as int32 keys in
    ``_SLICE_ROWS``-row slices, the first pass as slices of the draw
    itself, not a gathered copy. One 20,000 x 20 draw from 6,800 documents
    took 3.3-3.7 ms (medians of 30) with a tracemalloc peak of 3.4 MiB,
    against 4.9-6.3 ms in 256-row blocks of gathered int64 rows. 256-row
    slices took 4.0-4.7 ms, and the whole array 3.5-3.8 ms with a 5.0 MiB
    peak.
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
    # the rows it just redrew; they are refilled in ascending order with one
    # draw per pass, as a whole-array check would.
    key = np.int32 if n_avail <= np.iinfo(np.int32).max else np.intp
    cand = rng.integers(0, n_avail, size=(m, size))
    redo = np.flatnonzero(_duplicate_rows(cand, key))
    while redo.size:
        cand[redo] = rng.integers(0, n_avail, size=(redo.size, size))
        redo = redo[_duplicate_rows(cand[redo], key)]
    return cand


def _duplicate_rows(rows: np.ndarray, key: type) -> np.ndarray:
    """Whether each row of ``rows`` holds a value twice, from sorted ``key``
    copies of ``_SLICE_ROWS``-row slices."""
    out = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), _SLICE_ROWS):
        block = rows[start:start + _SLICE_ROWS].astype(key)
        block.sort(axis=1)
        np.any(block[:, 1:] == block[:, :-1], axis=1, out=out[start:start + len(block)])
    return out


def _round_scorer(
    matrix, pool_index: np.ndarray, item_scores: np.ndarray, target_repr, metric: str, s: int,
) -> Callable[[np.ndarray], np.ndarray]:
    """The search's one round function, built once: a round's candidates, each
    a row of pool positions, to their scores, NaN for those left unscored.

    The target is checked once (``row_scorer``). A candidate of one
    document scores as its member's ``item_scores`` entry, so it ranks exactly
    as its member does in instance ranking (the sparse product emits a row's
    columns in reverse order, and JS summed in that order can break a tie the
    other way); this goes by the candidate's width, not by ``s``, since the
    last round of a search with s >= 2 can hold one document. A wider
    candidate pools its members' rows of ``matrix`` (pool position i is row
    ``pool_index[i]``) through ``_pooled``, in blocks of
    ``autoencoder._BLOCK_ROWS`` candidates, and is scored by ``js_to_target``
    or ``cosine_to_target``, looked up at each call: term-distribution sums
    are scored as counts, dense rows as member means. With s = 1 every
    candidate is scored. With s >= 2 the search's bound (``_js_bound``,
    ``_cosine_bound``) is built here, and ``_round_scores`` leaves the
    candidates that cannot win unscored.

    The blocks are scored one after another on the calling thread. With the
    search's bounds leaving 5-25% of a round's candidates to score, splitting
    the blocks over both CPUs of a 2-vCPU host was no faster and raised the
    benchmark's peak RSS by about 10 MB. Blocks of ``_SLICE_ROWS`` took the
    graded term_dist cosine search from 4.45 s to 5.1-5.3 s and its peak RSS
    from 95.4 to 102.6 MB.
    """
    kernel = row_scorer(target_repr, metric)

    def score(candidates: np.ndarray) -> np.ndarray:
        if candidates.shape[1] == 1:
            return item_scores[candidates[:, 0]]
        return _pooled(matrix, candidates, kernel, autoencoder._BLOCK_ROWS, pool_index)

    if s == 1:
        return score
    bound = (_js_bound if metric == JENSEN_SHANNON else _cosine_bound)(
        matrix, pool_index, s, target_repr
    )
    orientation = METRIC_ORIENTATION[metric]
    return lambda candidates: _round_scores(candidates, score, bound, orientation)


def _round_scores(
    candidates: np.ndarray, score: Callable[[np.ndarray], np.ndarray], bound: _Bound,
    orientation: str,
) -> np.ndarray:
    """``score`` of one round's candidates; NaN for those that provably cannot win.

    ``bound`` is the search's bound (``_js_bound``, ``_cosine_bound``): a
    function from a round's candidates to a lower bound on each one's
    ``_sort_key``, found without pooling it. The round scores one block
    (``autoencoder._BLOCK_ROWS``) of best-bounded candidates first; their best
    key is the incumbent. Every other candidate whose bound exceeds the
    incumbent by more than ``_PRUNE_SLACK`` is left unscored (NaN), and the
    rest, NaN bounds included, are scored. ``score`` gives each candidate a
    value that depends on its own members alone, so a scored candidate gets
    the same bits as in an exhaustive round, and every candidate whose key
    could reach the round's best, ties included, is scored.
    """
    bounds = bound(candidates)
    out = np.full(len(candidates), np.nan)
    first = min(len(candidates), autoencoder._BLOCK_ROWS)
    best_bounded = np.argpartition(bounds, first - 1)[:first]
    out[best_bounded] = score(candidates[best_bounded])
    incumbent = _sort_key(out[best_bounded], orientation).min()
    rest = ~(bounds > incumbent + _PRUNE_SLACK)  # NaN bounds stay
    rest[best_bounded] = False
    if rest.any():
        out[rest] = score(candidates[rest])
    return out


def _js_bound(matrix, pool_index: np.ndarray, s: int, target: TermDistribution) -> _Bound:
    """A function from a round's candidates to a lower bound on each one's JS
    divergence to ``target``, built once per search from a pool that holds a
    document with tokens.

    Write ``JS(P, q) = sum_i phi_i(P_i)`` with ``phi_i(p) = p/2 ln(2p/(p+q_i))
    + q_i/2 ln(2q_i/(p+q_i))``, each ``phi_i`` convex and ``phi_i(0) = q_i
    ln2/2``. The tangent of ``phi_i`` at any ``x_i > 0`` lies below it:
    ``phi_i(p) >= phi_i(0) + d_i + g_i p`` with the gradient ``g_i = 0.5 ln(2
    x_i / (x_i + q_i))`` and ``d_i = -q_i/2 ln(1 + x_i/q_i) <= 0`` (0 where q
    is 0). Where ``x_i`` is 0, g and d are 0 too, which is exact at a column
    no pool document holds. So the plane ``sum_i (phi_i(0) + d_i) + g.P``
    lies below JS for any x.

    The bound is support-aware. At a column of R that P misses, JS takes the
    exact ``phi_i(0)``, above the tangent's ``phi_i(0) + d_i``; at one it
    covers, the tangent stays. P's support is the union of its members', and
    every ``d_i`` is at most 0, so ``sum_{i in R, P_i > 0} d_i`` is at least
    the sum over members of ``D_j``, the ``d_i`` of R's columns that member j
    holds. This gives ``JS(P) >= missed + sum_j D_j + g.P`` with ``missed =
    sum_i phi_i(0) + sum_{i not in R} d_i``. R is any set of columns; here it
    holds those whose pool document frequency df times ``s`` is below the pool
    size, the columns a size-``s`` candidate most likely misses. Off R, x is
    P0, the pooled distribution of the whole pool. On R, a covered column
    mostly holds one member's counts, far above the smooth P0_i; so ``x_i =
    (colsum_i / df_i) / (s total / n_pool)``, the column's mean count where it
    is held over a typical candidate's token total.

    Each candidate gets ``missed + sum_j D_j + g.P``. A candidate pooling
    count rows ``c_j`` with token totals ``T_j`` has ``g.P = sum(g.c_j) /
    sum(T_j)``, so the three numbers ``[g.c_j, T_j, D_j]`` per pool document,
    taken here from the pool rows, give every term; the function pools them
    for every candidate of a round through ``_pooled`` in one slice.
    ``pool_groups`` averages dense rows, which leaves the ratio as it is but
    makes the pooled D the members' mean, so it is multiplied by the subset
    size. An empty candidate (every ``T_j`` 0, a NaN score) gets a NaN bound.

    The bound reaches the search's floor: in in-process searches (s=20,
    m=20,000, n=1,600, run seed 7) on the graded and blended pools at
    generator seeds 0 and 10 and on the scale corpus, every round scored its
    first block of 256 candidates alone, 20,480 over 80 rounds. In
    ``_SLICE_ROWS``-row slices the in-process graded search took 0.75-0.79 s
    against 0.65 s whole, slower in 11 of 12 interleaved runs.
    """
    rows = sp.csr_matrix(matrix[pool_index])  # term distributions are CSR
    n_pool = rows.shape[0]
    colsum = np.asarray(rows.sum(axis=0), dtype=np.float64).ravel()
    total = colsum.sum()
    q = target.probs
    df = np.bincount(rows.indices, minlength=rows.shape[1])
    rare = np.flatnonzero(df * s < n_pool)
    x = colsum / total
    held_rare = rare[df[rare] > 0]
    x[held_rare] = colsum[held_rare] / df[held_rare] / (s * total / n_pool)
    # each column's tangent at x: the gradient g and the intercept's
    # d = phi(x) - g x - phi(0), both 0 where x is
    g, d = np.zeros_like(x), np.zeros_like(x)
    on = x > 0
    g[on] = 0.5 * np.log(2.0 * x[on] / (x[on] + q[on]))
    held = on & (q > 0)
    d[held] = -0.5 * q[held] * np.log1p(x[held] / q[held])
    missed = 0.5 * LN2 * q.sum() + d.sum() - d[rare].sum()
    per_doc = np.column_stack([
        rows @ g,
        np.asarray(rows.sum(axis=1), dtype=np.float64).ravel(),
        (rows[:, rare] != 0).astype(np.float64) @ d[rare],
    ])

    def bound(candidates: np.ndarray) -> np.ndarray:
        def finish(means):
            tokens = means[:, 1]
            along = np.divide(
                means[:, 0], tokens, out=np.full(len(means), np.nan), where=tokens > 0
            )
            return missed + candidates.shape[1] * means[:, 2] + along

        return _pooled(per_doc, candidates, finish, len(candidates))

    return bound


def _cosine_bound(
    matrix: sp.csr_matrix | np.ndarray, pool_index: np.ndarray, s: int, target
) -> _Bound:
    """A function from a round's candidates to minus an upper bound on each
    one's cosine to ``target``, a lower bound on its ``_sort_key``, built once
    per search from the pool rows' ``_cosine_projections`` for subsets of
    ``s``.

    A candidate's mean row has projection A on the unit target and B on the
    orthonormal directions of the projections, so its norm is at least
    ``sqrt(A^2 + |B|^2)`` and its cosine ``A / norm`` at most
    ``A / sqrt(A^2 + |B|^2)`` when A > 0, and at most 0 otherwise. A
    term-distribution candidate is scored on the sum of its count rows, not
    their mean, which scales A, B and the norm alike and leaves the cosine as
    it is. The function pools the projections of a round's candidates
    through ``_pooled`` in ``_SLICE_ROWS``-row slices. Bounding a first round
    of the seed-0 blended SIF search (20,000 x 20 candidates, 25 columns)
    took 5.8 ms in these slices, with a tracemalloc peak of 0.97 MiB, against
    6.7-7.2 ms in 256-row slices (0.26 MiB) and 5.5-5.6 ms whole (4.5 MiB),
    medians of 21 in two runs.
    """
    projections = _cosine_projections(matrix, pool_index, target, s)

    def finish(means):
        along = means[:, 0]
        norm = np.sqrt(np.einsum("ij,ij->i", means, means))  # sqrt(A^2 + |B|^2)
        return np.divide(along, norm, out=np.zeros_like(along), where=along > 0)

    return lambda candidates: -_pooled(projections, candidates, finish, _SLICE_ROWS)


def _cosine_projections(
    matrix: sp.csr_matrix | np.ndarray, pool_index: np.ndarray, target, s: int
) -> np.ndarray:
    """Each pool row's projections on the unit target, which ``row_scorer``
    has accepted, and on up to ``_COSINE_DIRECTIONS`` orthonormal directions
    orthogonal to it.

    The directions approximate the top eigenvectors of the second moment of
    a size-``s`` candidate's mean, the directions in which candidate means
    spread most. With R the N pool rows with their target component removed
    and mu its column mean, the mean of ``s`` rows drawn without replacement
    has second moment ``mu mu^T + Sigma (N - s) / (s (N - 1))``, Sigma being
    the rows' covariance ``R^T R / N - mu mu^T`` (Cochran, Sampling
    Techniques, 1977): times ``N s``, and with ``(N - s) / (N - 1)`` taken
    as 1, ``R^T R + N (s - 1) mu mu^T``. The pool mean weighs about ``s``
    times more there than in the rows' own scatter ``R^T R`` (``s = 1``).
    The directions are found once per search by ``_POWER_STEPS`` steps of
    subspace iteration on that matrix with twice as many columns, then the
    best of them by Rayleigh-Ritz. mu takes one pass over the pool rows and
    each step another, in row blocks, so no d x d array is formed; the
    directions are then QR-orthonormalized against the target. Any
    orthonormal directions keep the bound valid; better ones only tighten it.
    Rows whose squares are finite can still overflow that matrix (rows near
    2^509); then there are no directions, and the unit alone bounds every
    cosine by 1 where A > 0 and by 0 elsewhere.
    """
    unit = _as_vector(target)
    unit = unit / np.sqrt(unit @ unit)
    k = min(_COSINE_DIRECTIONS, len(unit) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.zeros(len(unit))
        for start, stop in _row_blocks(len(pool_index)):
            total += matrix[pool_index[start:stop]].T @ np.ones(stop - start)
        mean = total / len(pool_index)
        # R^T R + N (s - 1) mu mu^T is the scatter of R with one more row, this one
        lift = math.sqrt(len(pool_index) * (s - 1)) * (mean - (mean @ unit) * unit)
        span = np.random.default_rng(0).standard_normal((len(unit), min(2 * k, len(unit) - 1)))
        for _ in range(_POWER_STEPS):
            span = _scatter_times(matrix, pool_index, unit, lift, _orthonormal_to(unit, span))
        span = _orthonormal_to(unit, span)
        rayleigh = span.T @ _scatter_times(matrix, pool_index, unit, lift, span)
    basis = unit[:, None]
    if np.isfinite(rayleigh).all():
        top = span @ np.linalg.eigh(rayleigh)[1][:, ::-1][:, :k]
        basis = np.column_stack([unit, _orthonormal_to(unit, top)])
    out = np.empty((len(pool_index), basis.shape[1]))
    for start, stop in _row_blocks(len(pool_index)):
        out[start:stop] = matrix[pool_index[start:stop]] @ basis
    return out


def _orthonormal_to(unit: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """An orthonormal basis of ``columns``' span with ``unit`` projected out:
    the QR of ``[unit, columns]`` without its first column."""
    return np.linalg.qr(np.column_stack([unit, columns]))[0][:, 1:]


def _scatter_times(
    matrix: sp.csr_matrix | np.ndarray, pool_index: np.ndarray, unit: np.ndarray,
    lift: np.ndarray, columns: np.ndarray,
) -> np.ndarray:
    """``(R.T @ R + lift lift.T) @ columns`` for R the pool rows with their
    ``unit`` component removed, and ``lift`` and ``columns`` orthogonal to
    ``unit``, in row blocks. Then ``R @ columns`` is ``rows @ columns``, so R
    itself is never formed."""
    out = np.outer(lift, lift @ columns)
    along = np.zeros(columns.shape[1])
    for start, stop in _row_blocks(len(pool_index)):
        rows = matrix[pool_index[start:stop]]
        product = rows @ columns
        out += rows.T @ product
        along += (rows @ unit) @ product
    return out - np.outer(unit, along)


def _pooled(
    rows, members: np.ndarray, finish: Callable[[np.ndarray], np.ndarray], step: int,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """One value per row of ``members``: ``finish`` of its members' rows of
    ``rows`` pooled by ``pool_groups``, ``step`` rows of ``members`` at a
    time. Member i is row i of ``rows``, or row ``index[i]`` given ``index``,
    looked up a slice at a time."""
    size = members.shape[1]
    indptr = np.arange(0, min(step, len(members)) * size + 1, size)
    out = np.empty(len(members))
    for start in range(0, len(members), step):
        block = members[start:start + step]
        if index is not None:
            block = index[block]
        pooled = pool_groups(rows, block.ravel(), indptr[:len(block) + 1])
        out[start:start + len(block)] = finish(pooled)
    return out
