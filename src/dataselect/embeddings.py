"""Pre-trained word-vector ingestion.

The expected file format is plain text: one token followed by a fixed number
of floats per line, whitespace-separated, no header. Dimensionality is
inferred from the first line and enforced on every subsequent one.

A vector file (GloVe, word2vec) holds far more lines than a corpus
vocabulary, and a restricted load drops most of them, so the loader splits
no dropped line. It reads the file as text, as ``corpus._text_lines`` does
(UTF-8, byte-order mark dropped, universal newlines), in chunks of whole
lines of about ``_CHUNK_CHARS`` characters. Each chunk's code points are
scanned once as a numpy array, one byte each in an ASCII chunk and four
(UTF-32) in any other, so that index i is the chunk's character i: a field
starts at a character that is not whitespace and follows whitespace (or the
chunk's start) and ends at the next whitespace, so a line's fields are the
field starts between its start and the next line's (one ``searchsorted`` of
the line starts), and its token is its first field. A dropped line then
costs a slice of its token and a set lookup. Only three kinds of line are
split in Python: the first non-blank line, which fixes ``dim``; the first
line whose count is wrong, which is the error; and each kept line, which is
parsed by ``float`` as before.

**Why the scan is exact.** The reference meaning of a line's fields is
``line.split()``, over the lines a text-mode file yields, which end at ``\\n``
alone once universal newlines have turned ``\\r\\n`` and ``\\r`` into it.
``str.split`` splits on the characters ``str.isspace`` accepts, and the
scan's whitespace is exactly those: a code point at or below 0x20 is
looked up in ``_ASCII_SPACE`` (space, ``\\t`` to ``\\r`` and ``\\x1c`` to
``\\x1f``, but not ``\\x00`` or ``\\x1b``), one from 0x21 to 0x7F is not
whitespace, and one above 0x7F is whitespace when it is in
``_UNICODE_SPACES`` (NBSP, U+2028, U+3000 and the rest). A chunk ends with a
newline or the file, so its lines are the file's, and the scan's fields are
``str.split``'s. Tokens are slices of the chunk, so a token matches the
restriction exactly when the strings are equal.

**Chunk size.** 64 Ki characters is about 70 lines of a 100-d file. On
perfbench's seed-0 blended vector file (44 MB, 51,224 lines, 1,224 kept), on
a shared 2-vCPU host, an in-process load took 0.30-0.49 s line by line and
0.13-0.17 s in 64 Ki chunks; 128 and 256 Ki chunks gained under 0.03 s more.
Loading a 50,000-line 100-d file kept to 1,000 tokens peaks, under
tracemalloc, 0.61 MB above its table at 64 Ki, 1.12 MB at 128 Ki and 2.16 MB
at 256 Ki. A chunk is ``_CHUNK_CHARS`` characters and the rest of the line
they end in, so a line longer than a chunk is read whole, once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Collection, Iterator

import numpy as np

from .corpus import _text_file
from .errors import DataError, ParseError

# characters of text read per chunk, before the chunk is completed to the end
# of its last line
_CHUNK_CHARS = 1 << 16

# whether ``str.split`` splits on each ASCII character, and every other
# character it splits on: the non-ASCII code points ``str.isspace`` accepts,
# none of them above U+3000
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(0x80)])
_UNICODE_SPACES = np.array([c for c in range(0x80, 0x3001) if chr(c).isspace()], dtype=np.uint32)


class EmbeddingTable:
    """Immutable token -> vector map with a fixed dimensionality; every vector
    is finite, so a bad vector fails here and not when cosine scores a row."""

    def __init__(self, entries: dict[str, np.ndarray], dim: int):
        if dim < 1:
            raise DataError(f"embedding dimensionality must be >= 1, got {dim}")
        for token, vec in entries.items():
            shape = np.shape(vec)
            if shape != (dim,):
                raise DataError(f"vector for {token!r} has shape {shape}, expected ({dim},)")
            if not np.isfinite(vec).all():
                raise DataError(f"vector for {token!r} has a non-finite component")
        self.entries = entries
        self.dim = dim

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self.entries


def load_embeddings(
    path: str | Path, restrict_to: Collection[str] | None = None
) -> EmbeddingTable:
    """Parse an embedding file, optionally keeping only ``restrict_to``'s rows.

    Restriction controls memory and time on large vector files; it never
    changes the vectors themselves. Every line's component count is checked,
    but only kept lines are parsed as floats, so a non-numeric component on a
    line the restriction drops is not reported. A kept line with a non-finite
    component (``nan``, ``inf`` or an overflowing literal such as ``1e999``,
    all of which Python's ``float`` accepts) is a ParseError naming its line,
    not a cosine error once the SIF rows are NaN. So is a kept token's
    second line: the file would give one token two vectors.
    A token seen twice only on dropped lines is not reported.
    The first error in file order is the one raised, except that a chunk
    that is not UTF-8 fails as a whole, before any of its lines is checked.
    """
    path = Path(path)
    # a set, since membership in a tuple vocabulary would cost O(|V|) a line
    keep = None if restrict_to is None else frozenset(restrict_to)
    entries: dict[str, np.ndarray] = {}
    dim: int | None = None
    done = 0  # lines of the chunks before this one
    for chunk in _chunks(path):
        counts, tokens, fields = _scan(chunk)
        if dim is None:
            nonblank = np.flatnonzero(counts)
            if not nonblank.size:
                done += len(counts)
                continue
            i = int(nonblank[0])
            first = done + i + 1, fields(i)
            if len(first[1]) == 1:
                raise ParseError("no vector components", path, first[0])
            dim = len(first[1]) - 1
        wrong = np.flatnonzero((counts != dim + 1) & (counts != 0))
        stop = int(wrong[0]) if wrong.size else len(counts)
        rows = np.flatnonzero(counts[:stop])
        if keep is not None:
            rows = rows[np.fromiter(map(keep.__contains__, tokens(rows)), bool, len(rows))]
        for i in rows.tolist():
            lineno = done + i + 1
            token, *values = fields(i)
            if token in entries:
                raise ParseError(f"duplicate token {token!r}", path, lineno)
            try:
                vector = np.fromiter(map(float, values), np.float64, len(values))
            except ValueError:
                raise ParseError("non-numeric vector component", path, lineno) from None
            if not np.isfinite(vector).all():
                raise ParseError("non-finite vector component", path, lineno)
            entries[token] = vector
        if wrong.size:
            lineno = done + stop + 1
            message = f"expected {dim} vector components, found {counts[stop] - 1}"
            if lineno == first[0] + 1 and _looks_like_header(first[1]):
                message += (
                    f"; line {first[0]} looks like a word2vec 'count dim' header; remove it"
                )
            raise ParseError(message, path, lineno)
        done += len(counts)
        # so that the next chunk is read and scanned with this one's arrays freed
        del chunk, tokens, fields
    if dim is None:
        raise DataError(f"embedding file is empty: {path}")
    return EmbeddingTable(entries, dim)


def _chunks(path: Path) -> Iterator[str]:
    """The text of the UTF-8 file ``path``, read as ``corpus._text_lines``
    reads it, in chunks of whole lines of about ``_CHUNK_CHARS`` characters;
    a DataError when it is not a regular file or not UTF-8."""
    with _text_file(path, "embedding file") as fh:
        while chunk := fh.read(_CHUNK_CHARS):
            yield chunk + fh.readline()


def _scan(
    chunk: str,
) -> tuple[np.ndarray, Callable[[np.ndarray], list[str]], Callable[[int], list[str]]]:
    """``chunk``'s lines as ``str.split`` sees them: each line's field count,
    a function from non-blank line indices to their tokens, and a function
    from a line index to its fields."""
    if chunk.isascii():
        points = np.frombuffer(chunk.encode("ascii"), dtype=np.uint8)
    else:
        points = np.frombuffer(chunk.encode("utf-32-le"), dtype=np.uint32)
    # whitespace, padded on both sides: a change of state starts or ends a
    # field, so the changes alternate field start, field end
    space = np.empty(len(points) + 2, dtype=bool)
    space[0] = space[-1] = True
    inner = space[1:-1]
    np.less_equal(points, 0x20, out=inner)
    controls = np.flatnonzero(points < 0x20)
    inner[controls] = _ASCII_SPACE[points[controls]]
    if points.itemsize > 1:
        wide = np.flatnonzero(points > 0x7F)
        inner[wide] = np.isin(points[wide], _UNICODE_SPACES)
    edges = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = edges[0::2], edges[1::2]
    # line k is chunk[bounds[k]:bounds[k + 1]], its newline included
    bounds = np.concatenate(([0], controls[points[controls] == 10] + 1))
    if points[-1] != 10:  # the file's last line, without a newline
        bounds = np.append(bounds, len(points))
    # each line's first field; the chunk's field count last
    first = np.searchsorted(starts, bounds)

    def tokens(rows: np.ndarray) -> list[str]:
        fields = first[rows]
        return [chunk[a:b] for a, b in zip(starts[fields].tolist(), ends[fields].tolist())]

    return (
        first[1:] - first[:-1],
        tokens,
        lambda i: chunk[bounds[i]:bounds[i + 1]].split(),
    )


def _looks_like_header(fields: list[str]) -> bool:
    """Whether a line's fields are a word2vec text header: two integers."""
    return len(fields) == 2 and all(f.isascii() and f.isdigit() for f in fields)
