"""fastText stand-in: character n-gram hashing embedder.

fastText represents a word as the sum of its character n-gram vectors,
which is what lets it embed out-of-vocabulary words and absorb
misspellings (paper §II-A). This embedder reproduces the mechanism
without pre-trained weights: every n-gram hashes to a bucket whose vector
is a deterministic seeded Gaussian; a word is the mean of its n-gram
bucket vectors; a multi-word string is the mean of its word vectors,
unit-normalised.

Key property preserved: strings sharing most of their character n-grams
("Mississippi" vs "Missisippi") have highly overlapping bucket sets and
therefore small Euclidean distance — exactly the signal PEXESO's τ
threshold consumes.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.embedding.base import ColumnEmbedderMixin
from repro.text.tokenize import char_ngrams, word_tokens


def _stable_hash(text: str, seed: int) -> int:
    """Deterministic 64-bit hash (Python's ``hash`` is salted per process)."""
    digest = hashlib.blake2b(
        text.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


class HashingNGramEmbedder(ColumnEmbedderMixin):
    """Character n-gram hashing embedder (fastText-style subwords).

    Args:
        dim: output dimensionality (the paper uses 300 for fastText; the
            experiments here default lower for speed).
        n_min / n_max: n-gram sizes (fastText's defaults are 3–6).
        n_buckets: hashing space size; collisions are rare below ~1e5
            distinct n-grams.
        seed: bucket-vector randomness; two embedders with equal seeds
            are identical functions.
        cache_size: number of bucket vectors memoised (they are generated
            lazily from the bucket id, so the full table never
            materialises).
    """

    def __init__(
        self,
        dim: int = 50,
        n_min: int = 3,
        n_max: int = 5,
        n_buckets: int = 1 << 18,
        seed: int = 0,
        cache_size: int = 1 << 16,
    ):
        if dim < 1:
            raise ValueError("dim must be positive")
        self._dim = dim
        self.n_min = n_min
        self.n_max = n_max
        self.n_buckets = n_buckets
        self.seed = seed
        self._cache_size = cache_size
        self._bucket_cache: dict[int, np.ndarray] = {}

    @classmethod
    def from_catalog(cls, catalog: dict) -> "HashingNGramEmbedder":
        """The embedder a CLI-written ``catalog.json`` names: the same
        ``dim`` and ``seed`` the lake was indexed with, so query strings
        land in the indexed space."""
        return cls(dim=catalog["embedder"]["dim"], seed=catalog["embedder"]["seed"])

    @property
    def dim(self) -> int:
        return self._dim

    def _bucket_vector(self, bucket: int) -> np.ndarray:
        vec = self._bucket_cache.get(bucket)
        if vec is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, bucket])
            )
            vec = rng.standard_normal(self._dim)
            if len(self._bucket_cache) < self._cache_size:
                self._bucket_cache[bucket] = vec
        return vec

    def _word_vector(self, word: str) -> np.ndarray:
        grams = char_ngrams(word, self.n_min, self.n_max)
        total = np.zeros(self._dim)
        for gram in grams:
            total += self._bucket_vector(_stable_hash(gram, self.seed) % self.n_buckets)
        return total / len(grams)

    def embed(self, text: str) -> np.ndarray:
        """Unit vector for ``text`` (mean of word vectors; empty -> basis e0)."""
        words = word_tokens(text)
        if not words:
            vec = np.zeros(self._dim)
            vec[0] = 1.0
            return vec
        total = np.zeros(self._dim)
        for word in words:
            total += self._word_vector(word)
        total /= len(words)
        norm = np.linalg.norm(total)
        if norm == 0.0:
            total[0] = 1.0
            return total
        return total / norm
