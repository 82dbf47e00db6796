"""Pre-trained word-vector ingestion.

The expected file format is plain text: one token followed by a fixed number
of floats per line, whitespace-separated, no header. Dimensionality is
inferred from the first line and enforced on every subsequent one.

A vector file (GloVe, word2vec) holds far more lines than a corpus
vocabulary, and a restricted load drops most of them, so the loader splits
no dropped line. It reads the file as text, as ``corpus._text_lines`` does
(UTF-8, byte-order mark dropped, universal newlines), in chunks of whole
lines of about ``_CHUNK_CHARS`` characters. Each chunk's UTF-8 bytes are
scanned once as a numpy array: a field starts at a byte above 0x20 that
follows a byte at or below 0x20 (or the chunk's start) and ends at the next
byte at or below 0x20, so a line's fields are the field starts between its
start and the next line's (one ``searchsorted`` of the line starts), and its
token is its first field. A dropped line then costs a slice of its token and
a set lookup. Only three kinds of line are split in Python: the first
non-blank line, which fixes ``dim``; the first line whose count is wrong,
which is the error; and each kept line, which is parsed by ``float`` as
before.

**Why the scan is exact.** The reference meaning of a line's fields is
``line.split()``, over the lines a text-mode file yields, which end at ``\\n``
alone once universal newlines have turned ``\\r\\n`` and ``\\r`` into it. The
scan runs only on a chunk whose only bytes below 0x20 are ``\\n`` and which
holds no non-ASCII character that ``str.isspace`` accepts (NBSP, U+2028 and
the like). In such a chunk the bytes at or below 0x20 are space and ``\\n``,
exactly the whitespace ``str.split`` sees there; every other byte, the
continuation bytes of a multi-byte character included (all of them are
0x80 or above), belongs to a field. A chunk is cut after a newline, so its
lines are the file's, and the scan's fields are ``str.split``'s. A token is
matched as its UTF-8 bytes against the restriction's, and UTF-8 gives equal
bytes to equal strings and to no others. Any other chunk (tabs, ``\\x0b``,
``\\x1c``, a non-whitespace control byte such as ``\\x01``, a Unicode space)
counts each line with ``len(line.split())`` itself. Non-ASCII tokens stay on
the scan.

**Chunk size.** 64 Ki characters is about 70 lines of a 100-d file. On
perfbench's seed-0 blended vector file (44 MB, 51,224 lines, 1,224 kept), on
a shared 2-vCPU host, an in-process load took 0.30-0.49 s line by line and
0.13-0.17 s in 64 Ki chunks; 128 and 256 Ki chunks gained under 0.03 s more.
Loading a 50,000-line 100-d file kept to 1,000 tokens peaks, under
tracemalloc, 0.61 MB above its table at 64 Ki, 1.12 MB at 128 Ki and 2.16 MB
at 256 Ki. A line longer than a chunk is gathered in pieces and joined once.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Collection, Iterator

import numpy as np

from .errors import DataError, ParseError

# characters of text read per chunk, before the chunk is cut at its last
# newline
_CHUNK_CHARS = 1 << 16

# a non-ASCII character ``str.split()`` splits on: ``\s`` in a str pattern is
# ``str.isspace``
_UNICODE_SPACE = re.compile(r"[^\S\x00-\x7f]")


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
    # tokens as the UTF-8 bytes the scan slices out; a set, since membership
    # in a tuple vocabulary would cost O(|V|) a line. A lone surrogate (a
    # JSON corpus can hold one) encodes to bytes no UTF-8 file holds.
    keep = (
        None
        if restrict_to is None
        else frozenset(t.encode("utf-8", "surrogatepass") for t in restrict_to)
    )
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
    a DataError when it is not a regular file or not UTF-8.

    A line longer than a chunk is gathered in pieces and joined once, so its
    length costs linear, not quadratic, copying.
    """
    if not path.is_file():
        raise DataError(f"embedding file not found or not a regular file: {path}")
    try:
        with path.open(encoding="utf-8-sig") as fh:
            pending: list[str] = []  # a line's start, read but not yet ended
            while piece := fh.read(_CHUNK_CHARS):
                cut = piece.rfind("\n") + 1
                if not cut:
                    pending.append(piece)
                    continue
                pending.append(piece[:cut])
                # the whole lines, and no longer the piece they end in
                pending, piece = [piece[cut:]], "".join(pending)
                yield piece
            if tail := "".join(pending):  # the last line, without a newline
                yield tail
    except UnicodeDecodeError:
        raise DataError(f"embedding file is not UTF-8 text: {path}") from None


def _scan(
    chunk: str,
) -> tuple[np.ndarray, Callable[[np.ndarray], list[bytes]], Callable[[int], list[str]]]:
    """``chunk``'s lines as ``str.split`` sees them: each line's field count,
    a function from non-blank line indices to their tokens as UTF-8 bytes,
    and a function from a line index to its fields."""
    data = chunk.encode()
    raw = np.frombuffer(data, dtype=np.uint8)
    controls = np.flatnonzero(raw < 0x20)
    if not (raw[controls] == 10).all() or (
        not chunk.isascii() and _UNICODE_SPACE.search(chunk)
    ):
        lines = chunk.split("\n")
        if not lines[-1]:  # the chunk ends with a newline
            lines.pop()
        parts = [line.split() for line in lines]
        return (
            np.array([len(p) for p in parts], dtype=np.intp),
            lambda rows: [parts[i][0].encode() for i in rows.tolist()],
            parts.__getitem__,
        )
    # space and newline, padded on both sides: a change of state starts or
    # ends a field, so the changes alternate field start, field end
    space = np.empty(len(raw) + 2, dtype=bool)
    space[0] = space[-1] = True
    np.less_equal(raw, 0x20, out=space[1:-1])
    edges = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = edges[0::2], edges[1::2]
    # line k is data[bounds[k]:bounds[k + 1]], its newline included
    bounds = np.concatenate(([0], controls + 1))
    if data[-1] != 10:  # the file's last line, without a newline
        bounds = np.append(bounds, len(raw))
    # each line's first field; the chunk's field count last
    first = np.searchsorted(starts, bounds)

    def tokens(rows: np.ndarray) -> list[bytes]:
        fields = first[rows]
        return [data[a:b] for a, b in zip(starts[fields].tolist(), ends[fields].tolist())]

    return (
        first[1:] - first[:-1],
        tokens,
        lambda i: data[bounds[i]:bounds[i + 1]].decode().split(),
    )


def _looks_like_header(fields: list[str]) -> bool:
    """Whether a line's fields are a word2vec text header: two integers."""
    return len(fields) == 2 and all(f.isascii() and f.isdigit() for f in fields)
