import re

import numpy as np
import pytest

from dataselect.embeddings import EmbeddingTable, load_embeddings
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
