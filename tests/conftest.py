import json

import pytest
from hypothesis import settings

from dataselect.corpus import Corpus, Document

# Property tests replay the same examples on every run and keep no database.
settings.register_profile(
    "dataselect", derandomize=True, max_examples=150, deadline=None, database=None
)
settings.load_profile("dataselect")


def make_corpus(rows):
    """rows: iterable of (id, text, domain, label-or-None)."""
    return Corpus(Document(id=i, text=t, domain=d, label=l) for i, t, d, l in rows)


def vocabulary(tokens):
    """A vocabulary of exactly ``tokens``, in the given order."""
    return tuple(tokens)


def gram_strings(encoded):
    """The gram string of every count-matrix column, decoded from its key."""
    table = list(encoded.unigrams)
    first, second = divmod(encoded.grams, len(table) + 1)
    return [
        table[a] if b == 0 else table[a] + " " + table[b - 1]
        for a, b in zip(first.tolist(), second.tolist())
    ]


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


@pytest.fixture
def tiny_corpus():
    return make_corpus(
        [
            ("b1", "great book lovely plot", "books", "positive"),
            ("b2", "terrible book boring plot", "books", "negative"),
            ("d1", "great movie fun plot", "dvd", "positive"),
            ("d2", "awful movie boring scenes", "dvd", "negative"),
            ("k1", "sturdy pan heats evenly", "kitchen", "positive"),
            ("k2", "flimsy pan broke quickly", "kitchen", "negative"),
        ]
    )
