import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataselect import embeddings
from dataselect.corpus import _text_lines
from dataselect.embeddings import EmbeddingTable, _looks_like_header, load_embeddings
from dataselect.errors import DataError, ParseError

from conftest import vocabulary


def write_vectors(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_two_line_file(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b 0 1"])
        table = load_embeddings(path)
        assert table.dim == 2
        assert len(table) == 2
        assert np.array_equal(table.entries["a"], [1.0, 0.0])

    def test_vocabulary_restriction(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b 0 1"])
        vocab = vocabulary(["a"])
        table = load_embeddings(path, restrict_to=vocab)
        assert len(table) == 1
        assert "b" not in table

    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"\xef\xbb\xbfgood 1 0\nbad 0 1\n")
        table = load_embeddings(path, restrict_to=vocabulary(["good"]))
        assert list(table.entries) == ["good"]
        assert np.array_equal(table.entries["good"], [1.0, 0.0])

    def test_restriction_preserves_vectors(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 0.25 -1.5", "b 3 4"])
        full = load_embeddings(path)
        vocab = vocabulary(["a"])
        restricted = load_embeddings(path, restrict_to=vocab)
        assert np.array_equal(full.entries["a"], restricted.entries["a"])

    def test_inconsistent_dim_reports_line(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b 1 2 3"])
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(path)

    def test_non_numeric_field(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 zero"])
        with pytest.raises(ParseError, match="non-numeric"):
            load_embeddings(path)

    def test_filtered_line_is_not_parsed(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b 1 zero"])
        vocab = vocabulary(["a"])
        table = load_embeddings(path, restrict_to=vocab)
        assert len(table) == 1
        assert np.array_equal(table.entries["a"], [1.0, 0.0])

    def test_malformed_kept_line_still_raises(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["b 1 0", "a 1 zero"])
        vocab = vocabulary(["a"])
        with pytest.raises(ParseError, match="line 2: non-numeric"):
            load_embeddings(path, restrict_to=vocab)

    @pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_kept_component_reports_line(self, tmp_path, bad):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", f"b 0.5 {bad}"])
        with pytest.raises(ParseError, match="line 2: non-finite"):
            load_embeddings(path)

    def test_non_finite_on_filtered_line_is_not_parsed(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b nan inf"])
        vocab = vocabulary(["a"])
        table = load_embeddings(path, restrict_to=vocab)
        assert len(table) == 1

    def test_filtered_line_dimension_still_checked(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b 1 2 3"])
        vocab = vocabulary(["a"])
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(path, restrict_to=vocab)

    @pytest.mark.parametrize("restrict", [False, True])
    def test_kept_token_seen_twice_reports_its_second_line(self, tmp_path, restrict):
        path = write_vectors(tmp_path / "v.txt", ["good 1 0", "bad 0 1", "good -1 0"])
        vocab = vocabulary(["good"]) if restrict else None
        with pytest.raises(ParseError, match="line 3: duplicate token 'good'"):
            load_embeddings(path, restrict_to=vocab)

    def test_token_seen_twice_on_dropped_lines_still_loads(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["bad 0 1", "good 1 0", "bad 0 2"])
        table = load_embeddings(path, restrict_to=vocabulary(["good"]))
        assert list(table.entries) == ["good"]
        assert np.array_equal(table.entries["good"], [1.0, 0.0])

    def test_parse_error_names_the_file(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b 1 zero"])
        with pytest.raises(ParseError, match="line 2") as error:
            load_embeddings(path)
        assert str(error.value).startswith(f"{path}, line 2: ")
        assert (error.value.path, error.value.line) == (path, 2)

    @pytest.mark.parametrize(
        "lines, hint",
        [
            (["2 3", "a 1 0 0", "b 0 1 0"], True),
            (["2 3", "a 1 0"], True),  # the header's dim need not match
            (["a 3", "b 1 0 0"], False),  # a token, not a count
            (["2 3.5", "a 1 0 0"], False),
            (["2 3", "a 1", "b 1 0 0"], False),  # the mismatch is not on line 2
        ],
    )
    def test_word2vec_header_is_named(self, tmp_path, lines, hint):
        path = write_vectors(tmp_path / "v.txt", lines)
        with pytest.raises(ParseError, match="expected 1 vector components") as error:
            load_embeddings(path)
        named = "line 1 looks like a word2vec 'count dim' header; remove it"
        assert str(error.value).endswith(named) == hint

    def test_empty_file_is_error(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", [])
        with pytest.raises(DataError):
            load_embeddings(path)

    def test_round_trip_exact_parse(self, tmp_path):
        lines = ["w1 0.125 -3.5 2.0", "w2 1e-3 4.25 -0.75", "w3 7 8 9"]
        path = write_vectors(tmp_path / "v.txt", lines)
        table = load_embeddings(path)
        for line in lines:
            token, *vals = line.split()
            assert np.array_equal(table.entries[token], [float(v) for v in vals])


def reference_load(path, restrict_to=None):
    """The line-by-line loader that the chunked scan replaced, kept as its
    oracle: every line is split, and kept lines are parsed."""
    path = Path(path)
    keep = None if restrict_to is None else frozenset(restrict_to)
    entries = {}
    dim = None
    for lineno, line in enumerate(_text_lines(path, "embedding file"), start=1):
        parts = line.split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if dim is None:
            if not values:
                raise ParseError("no vector components", path, lineno)
            dim = len(values)
            first = lineno, parts
        elif len(values) != dim:
            message = f"expected {dim} vector components, found {len(values)}"
            if lineno == first[0] + 1 and _looks_like_header(first[1]):
                message += (
                    f"; line {first[0]} looks like a word2vec 'count dim' header; remove it"
                )
            raise ParseError(message, path, lineno)
        if keep is not None and token not in keep:
            continue
        if token in entries:
            raise ParseError(f"duplicate token {token!r}", path, lineno)
        try:
            vector = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise ParseError("non-numeric vector component", path, lineno) from None
        if not np.isfinite(vector).all():
            raise ParseError("non-finite vector component", path, lineno)
        entries[token] = vector
    if dim is None:
        raise DataError(f"embedding file is empty: {path}")
    return EmbeddingTable(entries, dim)


def outcome(load, path, restrict_to):
    """What loading gives: the dimension and every (token, vector bytes) in
    file order, or the error's class, message and line."""
    try:
        table = load(path, restrict_to)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return table.dim, [(token, vec.dtype, vec.tobytes()) for token, vec in table.entries.items()]


# tokens: non-ASCII ones, control characters and a zero-width space inside
# one (none of which ``str.split`` splits on), and digits for a word2vec header
TOKENS = [
    "a", "b", "c", "café", "日本", "x\x01y", "n\x00l", "e\x1bs", "d\x7fl", "z\u200bw",
    "2", "3",
]
# what Python's float reads: signs, exponents, underscores and a non-ASCII
# digit; then values that are non-finite or not numbers at all
NUMBERS = ["1", "0.5", "-2e3", "0", "1_0", "\u0663"]
FLAWS = ["nan", "inf", "1e999", "zero"]
# mostly single spaces, so that many chunks are ASCII; then every other
# character ``str.split`` splits on, ASCII or not
SEPARATORS = [" "] * 8 + [
    "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u1680", "\u2000", "\u200a", "\u2028", "\u2029", "\u202f", "\u205f",
    "\u3000",
]
PADDING = [""] * 6 + [" ", "  ", "\t", "\xa0", " \x0c"]
NEWLINES = ["\n"] * 4 + ["\r\n", "\r"]


@st.composite
def vector_files(draw):
    """The bytes of a vector file and a restriction (or None). Tokens repeat;
    blank and whitespace-only lines, a word2vec header, a byte-order mark and
    a missing final newline all occur. In a flawed file, lines may hold one
    component more or fewer than the dimension, and components may be
    non-finite or not numbers."""
    dim = draw(st.integers(1, 3))
    flawed = draw(st.booleans())
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    lines = [f"{draw(st.integers(1, 9))} {dim}"] if pick([True, False, False, False]) else []
    for _ in range(draw(st.integers(0, 10))):
        kind = pick(["vector"] * 6 + ["blank", "whitespace"])
        if kind == "blank":
            lines.append("")
        elif kind == "whitespace":
            lines.append(pick(PADDING[6:]))
        else:
            n = dim + (pick([0] * 8 + [-1, 1]) if flawed else 0)
            values = NUMBERS * 6 + FLAWS if flawed else NUMBERS
            components = "".join(pick(SEPARATORS) + pick(values) for _ in range(n))
            lines.append(pick(PADDING) + pick(TOKENS) + components + pick(PADDING))
    text = "".join(line + pick(NEWLINES) for line in lines)
    if lines and lines[-1].strip() and draw(st.booleans()):
        text = text.rstrip("\r\n")
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    restrict = draw(st.none() | st.sets(st.sampled_from(TOKENS + ["absent"])))
    return bom + text.encode(), restrict


class TestChunkedScan:
    """The chunked loader against the line-by-line oracle: the same table,
    bit for bit, or the same error, whatever the chunk size."""

    @given(vector_files(), st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 16]))
    def test_matches_the_line_by_line_loader(self, tmp_path_factory, case, chunk_chars):
        data, restrict = case
        path = tmp_path_factory.getbasetemp() / "property-vectors.txt"
        path.write_bytes(data)
        want = outcome(reference_load, path, restrict)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embeddings, "_CHUNK_CHARS", chunk_chars)
            assert outcome(load_embeddings, path, restrict) == want

    def test_the_whitespace_tables_hold_every_space_str_split_knows(self):
        """``_ASCII_SPACE`` and ``_UNICODE_SPACES`` together mark exactly the
        code points ``str.isspace`` accepts, over every code point."""
        assert len(embeddings._ASCII_SPACE) == 0x80
        assert embeddings._UNICODE_SPACES.min() >= 0x80
        spaces = set(np.flatnonzero(embeddings._ASCII_SPACE).tolist())
        spaces |= set(embeddings._UNICODE_SPACES.tolist())
        assert spaces == {c for c in range(sys.maxunicode + 1) if chr(c).isspace()}

    def test_a_line_longer_than_a_chunk_is_joined_once(self, tmp_path, monkeypatch):
        """With 5-character chunks, a 2,000,000-character line is read whole
        by the ``readline`` that completes the chunk it starts in; it is not
        gathered in pieces."""
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 5)
        long = "t" * 2_000_000
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", f"{long} 2 3", "b 4 5"])
        start = time.perf_counter()
        table = load_embeddings(path, restrict_to=vocabulary(["b", long]))
        elapsed = time.perf_counter() - start
        assert list(table.entries) == [long, "b"]
        assert np.array_equal(table.entries[long], [2.0, 3.0])
        assert elapsed < 10

    def test_peak_memory_grows_with_the_kept_rows(self, tmp_path):
        """A 50,000-line 100-d file restricted to 1,000 tokens peaks less than
        1 MB above what the loaded table holds: the file is never held whole."""
        rng = np.random.default_rng(0)
        rows = [" ".join(f"{v:.5f}" for v in rng.standard_normal(100)) for _ in range(500)]
        path = tmp_path / "v.txt"
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(f"w{i:05d} {rows[i % 500]}\n" for i in range(50_000))
        keep = vocabulary(f"w{i:05d}" for i in range(0, 50_000, 50))
        tracemalloc.start()
        try:
            table = load_embeddings(path, restrict_to=keep)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 1000
        assert held > 1000 * 100 * 8
        assert peak - held < 1_000_000

    @pytest.mark.parametrize("filler, error", [(2_000, "not UTF-8"), (10_000, "line 2")])
    def test_invalid_utf8_fails_its_whole_chunk(self, tmp_path, filler, error):
        """A chunk is decoded before any of its lines is checked: a wrong count
        on line 2 is reported only when the invalid byte after ``filler``
        12-byte lines falls in a later 64 Ki-character chunk."""
        path = tmp_path / "v.txt"
        lines = [b"a 1 0", b"b 1 2 3"] + [b"c%06d 1 0" % i for i in range(filler)]
        path.write_bytes(b"\n".join(lines + [b"d \xff 1"]) + b"\n")
        with pytest.raises(DataError, match=error):
            load_embeddings(path)

    def test_a_restriction_may_hold_a_lone_surrogate(self, tmp_path):
        """A JSON corpus can hold a lone surrogate, which no UTF-8 file does:
        such a token is kept from nothing."""
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b 0 1"])
        table = load_embeddings(path, restrict_to=vocabulary(["b", "\ud800"]))
        assert list(table.entries) == ["b"]


class TestLookup:
    @pytest.fixture
    def table(self):
        return EmbeddingTable({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}, dim=2)

    def test_hit(self, table):
        assert "a" in table
        assert np.array_equal(table.entries["a"], [1.0, 0.0])

    def test_miss_is_none(self, table):
        assert "zzz" not in table
        assert table.entries.get("zzz") is None

    def test_miss_after_restriction(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 0", "b 0 1"])
        vocab = vocabulary(["a"])
        table = load_embeddings(path, restrict_to=vocab)
        assert table.entries.get("b") is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_is_rejected_naming_its_token(self, bad):
        """A table built directly checks what the loader checks: a NaN vector
        would make its tokens' SIF rows NaN, which cosine scores 0.0."""
        with pytest.raises(DataError, match="'b' has a non-finite component"):
            EmbeddingTable({"a": np.array([1.0, 0.0]), "b": np.array([0.0, bad])}, dim=2)

    @pytest.mark.parametrize(
        "vec, shape", [(np.float64(1.0), ()), ([1.0, 2.0, 3.0], (3,)), (np.ones((1, 2)), (1, 2))]
    )
    def test_malformed_vector_is_a_data_error_naming_its_shape(self, vec, shape):
        with pytest.raises(DataError, match=re.escape(f"'a' has shape {shape}, expected (2,)")):
            EmbeddingTable({"a": vec}, dim=2)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimensionality_below_one_is_rejected(self, dim):
        with pytest.raises(DataError, match=f"^embedding dimensionality must be >= 1, got {dim}$"):
            EmbeddingTable({}, dim=dim)

    def test_sequence_of_dim_numbers_is_a_vector(self):
        table = EmbeddingTable({"a": [1.0, 2.0]}, dim=2)
        assert np.array_equal(table.entries["a"], [1.0, 2.0])
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingTable({"a": [1.0, float("nan")]}, dim=2)
