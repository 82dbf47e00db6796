"""Pre-trained word-vector ingestion.

The expected file format is plain text: one token followed by a fixed number
of floats per line, whitespace-separated, no header. Dimensionality is
inferred from the first line and enforced on every subsequent one.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .errors import DataError, ParseError


class EmbeddingTable:
    """Immutable token -> vector map with a fixed dimensionality."""

    def __init__(self, entries: dict[str, np.ndarray], dim: int):
        if dim < 1:
            raise DataError(f"embedding dimensionality must be >= 1, got {dim}")
        for token, vec in entries.items():
            if vec.shape != (dim,):
                raise DataError(
                    f"vector for {token!r} has length {vec.shape[0]}, expected {dim}"
                )
        self.entries = entries
        self.dim = dim

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self.entries


def load_embeddings(
    path: str | Path, restrict_to: Vocabulary | None = None
) -> EmbeddingTable:
    """Parse an embedding file, optionally keeping only in-vocabulary rows.

    Restriction controls memory and time on large vector files; it never
    changes the vectors themselves. Every line's component count is checked,
    but only kept lines are parsed as floats, so a non-numeric component on a
    line the restriction drops is not reported.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"embedding file not found: {path}")
    entries: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                if not values:
                    raise ParseError("no vector components", line=lineno)
                dim = len(values)
            elif len(values) != dim:
                raise ParseError(
                    f"expected {dim} vector components, found {len(values)}", line=lineno
                )
            if restrict_to is not None and token not in restrict_to:
                continue
            try:
                entries[token] = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise ParseError("non-numeric vector component", line=lineno) from None
    if dim is None:
        raise DataError(f"embedding file is empty: {path}")
    return EmbeddingTable(entries, dim)

