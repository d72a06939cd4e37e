"""Tests for the heaviest increasing subsequence and chunked heuristic."""

import itertools
import random

import pytest

from repro.core.moves import (
    chunked_increasing_subsequence,
    heaviest_increasing_subsequence,
)


def brute_force(values, weights):
    """Exponential reference: best strictly increasing subsequence weight."""
    best = 0.0
    n = len(values)
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        seq = [values[i] for i in chosen]
        if all(x < y for x, y in zip(seq, seq[1:])):
            best = max(best, sum(weights[i] for i in chosen))
    return best


def assert_valid_chain(values, weights, total, chain):
    assert chain == sorted(chain)
    picked = [values[i] for i in chain]
    assert all(x < y for x, y in zip(picked, picked[1:]))
    assert total == pytest.approx(sum(weights[i] for i in chain))


class TestExactSolver:
    def test_empty(self):
        assert heaviest_increasing_subsequence([]) == (0.0, [])

    def test_sorted_input_keeps_everything(self):
        values = list(range(10))
        total, chain = heaviest_increasing_subsequence(values)
        assert chain == list(range(10))
        assert total == 10.0

    def test_reversed_input_keeps_heaviest_single(self):
        values = [5, 4, 3, 2, 1]
        weights = [1, 1, 9, 1, 1]
        total, chain = heaviest_increasing_subsequence(values, weights)
        assert chain == [2]
        assert total == 9.0

    def test_unweighted_is_classic_lis(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        total, chain = heaviest_increasing_subsequence(values)
        assert total == 4.0  # e.g. 3 4 5 9 or 1 4 5 6
        assert_valid_chain(values, [1.0] * len(values), total, chain)

    def test_weight_beats_length(self):
        # Long light chain (1,2,3) vs a single heavy element (0 with w=10).
        values = [1, 2, 3, 0]
        weights = [1, 1, 1, 10]
        total, chain = heaviest_increasing_subsequence(values, weights)
        assert total == 10.0
        assert chain == [3]

    def test_duplicates_cannot_chain(self):
        values = [2, 2, 2]
        total, chain = heaviest_increasing_subsequence(values)
        assert total == 1.0
        assert len(chain) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        values = [rng.randint(0, 12) for _ in range(n)]
        weights = [rng.choice([1.0, 2.5, 7.0]) for _ in range(n)]
        total, chain = heaviest_increasing_subsequence(values, weights)
        assert_valid_chain(values, weights, total, chain)
        assert total == pytest.approx(brute_force(values, weights))

    def test_permutations_exhaustive(self):
        for perm in itertools.permutations(range(5)):
            total, chain = heaviest_increasing_subsequence(list(perm))
            assert_valid_chain(list(perm), [1.0] * 5, total, chain)
            assert total == brute_force(list(perm), [1.0] * 5)


class TestChunkedHeuristic:
    def test_equals_exact_for_single_block(self):
        rng = random.Random(1)
        values = [rng.randint(0, 50) for _ in range(30)]
        exact = heaviest_increasing_subsequence(values)
        chunked = chunked_increasing_subsequence(values, block_length=50)
        assert chunked[0] == exact[0]

    def test_result_is_always_valid(self):
        rng = random.Random(2)
        for _ in range(20):
            values = [rng.randint(0, 30) for _ in range(rng.randint(0, 120))]
            total, chain = chunked_increasing_subsequence(
                values, block_length=10
            )
            assert_valid_chain(values, [1.0] * len(values), total, chain)

    def test_never_beats_exact(self):
        rng = random.Random(3)
        for _ in range(20):
            values = list(range(60))
            rng.shuffle(values)
            exact_total, _ = heaviest_increasing_subsequence(values)
            chunk_total, _ = chunked_increasing_subsequence(
                values, block_length=7
            )
            assert chunk_total <= exact_total

    def test_paper_figure3_style_loss(self):
        # Cutting the list can lose elements the exact solver keeps: the
        # first block greedily keeps [3, 9, 10], blocking all of [4, 5, 6].
        values = [3, 9, 10, 4, 5, 6]
        exact_total, _ = heaviest_increasing_subsequence(values)
        chunk_total, _ = chunked_increasing_subsequence(values, block_length=3)
        assert exact_total == 4.0  # 3, 4, 5, 6
        assert chunk_total == 3.0  # 3, 9, 10 and nothing from block two

    @pytest.mark.parametrize("block", [5, 50])
    def test_local_reordering_keeps_most_weight(self, block):
        # Web-realistic reordering: shuffles within windows of 20, where
        # the heuristic "proves to be sufficient in practice".
        rng = random.Random(9)
        values = list(range(400))
        for start in range(0, 400, 20):
            window = values[start:start + 20]
            rng.shuffle(window)
            values[start:start + 20] = window
        exact_total, _ = heaviest_increasing_subsequence(values)
        chunk_total, _ = chunked_increasing_subsequence(
            values, block_length=block
        )
        assert 0.5 * exact_total <= chunk_total <= exact_total

    def test_sorted_input_is_lossless(self):
        values = list(range(100))
        total, chain = chunked_increasing_subsequence(values, block_length=9)
        assert total == 100.0
        assert chain == values

    def test_bad_block_length(self):
        with pytest.raises(ValueError):
            chunked_increasing_subsequence([1, 2], block_length=0)

    def test_empty(self):
        assert chunked_increasing_subsequence([]) == (0.0, [])
