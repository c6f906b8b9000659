import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rankforge
from rankforge import codes
from rankforge.codes import (
    EQUALITY_ANTIPODAL_PAIR,
    EQUALITY_EVEN_WEIGHT,
    EQUALITY_FULL_SPACE,
    EQUALITY_NONE,
    EQUALITY_ODD_WEIGHT,
    BinaryCode,
    all_ones_in_rowspace,
    code_from_lines,
    min_distance,
    plotkin_bound_check,
    rowspace_distance2_bound,
    rowspace_distance2_max,
    singleton_verify,
)
from rankforge.constructions import extremal_triangle_free
from rankforge.graphs import cycle_graph, from_edges, independence_number, mask_of

from conftest import all_independent_sets


def test_code_serialization_roundtrip():
    code = BinaryCode(4, (0b0011, 0b0101, 0b1111))
    assert code_from_lines(code.to_lines()) == code
    assert code.to_lines()[0] == "1100"  # bit k is character k
    with pytest.raises(ValueError):
        code_from_lines(["01", "011"])
    with pytest.raises(ValueError):
        BinaryCode(3, (1, 1))


def test_every_way_to_build_a_code_sorts_and_checks_it():
    import pickle

    code = BinaryCode(3, (0b110, 0b001))
    assert code.words == (0b001, 0b110) and len(code) == 2
    assert code._replace(words=(0b111, 0b000)).words == (0b000, 0b111)
    assert pickle.loads(pickle.dumps(code)) == code
    with pytest.raises(ValueError, match="duplicate words"):
        code._replace(words=(1, 1))
    with pytest.raises(ValueError, match="longer than the code length"):
        BinaryCode._make((2, (0b100,)))


def test_min_distance_examples():
    assert min_distance(BinaryCode(3, (0b000, 0b111))) == 3
    even = BinaryCode(3, tuple(w for w in range(8) if w.bit_count() % 2 == 0))
    assert min_distance(even) == 2
    assert min_distance(BinaryCode(3, tuple(range(8)))) == 1
    with pytest.raises(ValueError):
        min_distance(BinaryCode(3, (0b101,)))


def test_singleton_examples():
    omega = BinaryCode(3, tuple(range(8)))
    v = singleton_verify(omega, 1)
    assert v.bound == 8 and v.holds and v.equality == EQUALITY_FULL_SPACE
    even = BinaryCode(3, tuple(w for w in range(8) if w.bit_count() % 2 == 0))
    v = singleton_verify(even, 2)
    assert v.bound == 4 and v.holds and v.equality == EQUALITY_EVEN_WEIGHT
    odd = BinaryCode(3, tuple(w for w in range(8) if w.bit_count() % 2 == 1))
    assert singleton_verify(odd, 2).equality == EQUALITY_ODD_WEIGHT
    v = singleton_verify(BinaryCode(4, (0b0000, 0b1111)), 4)
    assert v.bound == 2 and v.holds and v.equality == EQUALITY_ANTIPODAL_PAIR
    with pytest.raises(ValueError) as exc:
        singleton_verify(BinaryCode(3, (0b000, 0b001)), 2)
    assert "distance" in str(exc.value)
    one_word = BinaryCode(3, (0b101,))  # meets any distance vacuously
    v = singleton_verify(one_word, 4)  # d = n + 1: the bound is 1
    assert v.bound == 1 and v.holds and v.equality == EQUALITY_NONE
    with pytest.raises(ValueError, match=r"distance must be in 1\.\.4"):
        singleton_verify(one_word, 5)


def _case_predicates(code, n):
    full = (1 << n) - 1
    return {
        EQUALITY_FULL_SPACE: len(code.words) == 2 ** n,
        EQUALITY_EVEN_WEIGHT: len(code.words) == 2 ** (n - 1)
        and all(w.bit_count() % 2 == 0 for w in code.words),
        EQUALITY_ODD_WEIGHT: len(code.words) == 2 ** (n - 1)
        and all(w.bit_count() % 2 == 1 for w in code.words),
        EQUALITY_ANTIPODAL_PAIR: len(code.words) == 2
        and code.words[0] ^ code.words[1] == full,
    }


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_singleton_exhaustive_small_lengths(n):
    """Every code of every length <= 4: the bound holds; at equality the
    classification is exhaustive, and exclusive for n >= 3 (the cases overlap
    at n <= 2, where the classifier picks the first in order)."""
    for mask in range(1, 1 << (1 << n)):
        words = tuple(w for w in range(1 << n) if mask >> w & 1)
        if len(words) < 2:
            continue
        code = BinaryCode(n, words)
        d = min_distance(code)
        if d < 1:
            continue
        verdict = singleton_verify(code, d)
        assert verdict.holds
        matches = [name for name, ok in _case_predicates(code, n).items() if ok]
        if len(code.words) == verdict.bound:
            assert verdict.equality != EQUALITY_NONE
            assert matches
            if n >= 3:
                assert len(matches) == 1
            assert verdict.equality == matches[0]
        else:
            assert verdict.equality == EQUALITY_NONE


def test_singleton_random_codes(random_codes):
    for n, words in random_codes:
        if len(words) < 2:
            continue
        code = BinaryCode(n, words)
        d = min_distance(code)
        verdict = singleton_verify(code, d)
        assert verdict.holds
        if len(words) == verdict.bound:
            assert verdict.equality != EQUALITY_NONE


def test_plotkin_examples():
    c5 = cycle_graph(5)
    res = plotkin_bound_check(c5, mask_of((0, 2)))
    assert res.bound == Fraction(3) and res.min_symdiff == 2 and res.holds
    star = from_edges(5, [(0, i) for i in range(1, 5)])
    res = plotkin_bound_check(star, mask_of((1, 2, 3, 4)))
    assert res.min_symdiff == 0 and res.holds
    c8 = extremal_triangle_free(8).graph
    _, witness = independence_number(c8)
    assert plotkin_bound_check(c8, witness).holds
    with pytest.raises(ValueError):
        plotkin_bound_check(c5, mask_of((0, 1)))  # adjacent pair
    with pytest.raises(ValueError):
        plotkin_bound_check(c5, 1 << 0)  # too small


def test_plotkin_rejects_a_vertex_out_of_range():
    with pytest.raises(IndexError, match="vertex index out of range"):
        plotkin_bound_check(cycle_graph(5), mask_of((0, 5)))


def test_plotkin_universal_over_corpus(reduced_corpus):
    """The independent-set bound over every independent set of every corpus
    graph: zero violations."""
    for g in reduced_corpus:
        for s in all_independent_sets(g, min_size=2):
            assert plotkin_bound_check(g, s).holds


def test_all_ones_in_rowspace_computed_examples():
    # The full length-2 space contains the zero word, whose column forces
    # every row-space combination to vanish there: the all-ones vector is NOT
    # reachable (computed via the rank comparison oracle).
    assert not all_ones_in_rowspace(BinaryCode(2, (0, 1, 2, 3)))
    assert not all_ones_in_rowspace(BinaryCode(2, (0,)))
    assert all_ones_in_rowspace(BinaryCode(2, (1, 2)))
    assert all_ones_in_rowspace(BinaryCode(5, tuple(w for w in range(32) if w.bit_count() == 2)))


def test_rowspace_bound_examples():
    wt2 = BinaryCode(5, tuple(w for w in range(32) if w.bit_count() == 2))
    res = rowspace_distance2_bound(wt2)
    assert res.bound == 10 and res.holds
    wt3 = BinaryCode(6, tuple(w for w in range(64) if w.bit_count() == 3))
    res = rowspace_distance2_bound(wt3)
    assert res.bound == 20 and res.holds
    single = BinaryCode(5, (0b11111,))
    assert rowspace_distance2_bound(single).holds
    with pytest.raises(ValueError):
        rowspace_distance2_bound(BinaryCode(4, (0b0011, 0b1100)))  # length < 5
    with pytest.raises(ValueError):
        rowspace_distance2_bound(BinaryCode(5, (0b00111, 0b01111)))  # distance 1
    with pytest.raises(ValueError):
        rowspace_distance2_bound(BinaryCode(5, (0b00000, 0b00011)))  # zero word


def _random_hypothesis_code(rng, n):
    """Random code meeting the row-space lemma hypotheses, built from a random
    rational slice {w : <x, w> = 1} pruned to pairwise distance >= 2."""
    while True:
        x = [Fraction(rng.randint(-2, 3), rng.choice([1, 2, 3])) for _ in range(n)]
        slice_words = [
            w
            for w in range(1 << n)
            if sum(x[i] for i in range(n) if w >> i & 1) == 1
        ]
        rng.shuffle(slice_words)
        chosen: list[int] = []
        for w in slice_words:
            if all((w ^ c).bit_count() >= 2 for c in chosen):
                chosen.append(w)
        if chosen:
            return BinaryCode(n, tuple(chosen))


def test_rowspace_bound_random_codes():
    rng = random.Random(314)
    violations = 0
    for i in range(1000):
        n = 5 if i % 2 else 6
        code = _random_hypothesis_code(rng, n)
        res = rowspace_distance2_bound(code)
        if not res.holds:
            violations += 1
    assert violations == 0


@pytest.mark.parametrize("seed_weight", (None, 1), ids=("seed-optimal", "seed-weight-1"))
def test_rowspace_max_length5_exact(monkeypatch, seed_weight):
    if seed_weight is not None:
        # A seed of 5 words below the optimum, so the search records better codes.
        real = codes._constant_weight_code
        monkeypatch.setattr(codes, "_constant_weight_code", lambda n, w: real(n, seed_weight))
    best, witness = rowspace_distance2_max(5)
    assert best == 10
    assert len(witness) == 10
    assert rowspace_distance2_bound(witness).holds
    # the proven-bound cutoff changes nothing but the work done
    best_plain, witness_plain = rowspace_distance2_max(5, use_theorem_cutoff=False)
    assert best_plain == 10
    assert rowspace_distance2_bound(witness_plain).holds


def test_rowspace_max_length6():
    best, witness = rowspace_distance2_max(6)
    assert best == 20
    assert rowspace_distance2_bound(witness).holds


@pytest.mark.extended
def test_rowspace_max_length6_without_cutoff(uncut_length6_optimum):
    best, _ = uncut_length6_optimum
    assert best == 20


def test_rowspace_max_seed_check_survives_optimize_flag():
    src = str(Path(rankforge.__file__).resolve().parents[1])
    code = (
        "from rankforge import codes\n"
        "from rankforge.graphs import InternalError\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "codes.rowspace_distance2_bound = lambda c: codes.RowspaceBoundCheck(0, False)\n"
        "try:\n"
        "    codes.rowspace_distance2_max(5)\n"
        "except InternalError as exc:\n"
        "    print('raised', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised ")


def test_rowspace_max_guard():
    with pytest.raises(ValueError):
        rowspace_distance2_max(4)
    with pytest.raises(ValueError):
        rowspace_distance2_max(7)
