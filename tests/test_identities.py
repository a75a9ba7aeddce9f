import pytest

from pellcheck.arith import factor, is_probable_prime, nu2
from pellcheck.identities import (
    nu2_lemma_holds,
    pq_relation_holds,
    split_indices,
    split_pell_minus_one,
)
from pellcheck.sequences import pell_lucas_sequence, pell_pair, pell_sequence


@pytest.mark.parametrize("n", [0, 3, 5])
def test_pq_relation_examples(n):
    pair = pell_pair(n)
    assert pq_relation_holds(n, pair.p, pair.q)


def test_pq_relation_range():
    for n in range(2001):
        pair = pell_pair(n)
        assert pq_relation_holds(n, pair.p, pair.q)


@pytest.mark.parametrize("n,p_idx,q_idx,p_part,q_part", [
    (5, 2, 3, 2, 14),     # 2 * 14 = 28 = P_5 - 1
    (7, 4, 3, 12, 14),    # 12 * 14 = 168 = P_7 - 1
    (9, 4, 5, 12, 82),    # 12 * 82 = 984 = P_9 - 1
    (3, 2, 1, 2, 2),      # 2 * 2 = 4 = P_3 - 1
])
def test_split_examples(n, p_idx, q_idx, p_part, q_part):
    assert split_indices(n) == (p_idx, q_idx)
    assert split_pell_minus_one(n) == (p_part, q_part)


def test_split_branches_by_residue_mod_4():
    for n in range(3, 1000, 2):
        a, b = split_indices(n)
        if n % 4 == 1:
            assert (a, b) == ((n - 1) // 2, (n + 1) // 2)
        else:
            assert (a, b) == ((n + 1) // 2, (n - 1) // 2)
        assert sorted((a, b)) == [(n - 1) // 2, (n + 1) // 2]


def test_split_product_range():
    ps = pell_sequence(2000)
    qs = pell_lucas_sequence(2000)
    for n in range(3, 2001, 2):
        a, b = split_indices(n)
        p_part, q_part = split_pell_minus_one(n)
        assert p_part == ps[a]
        assert q_part == qs[b]
        assert p_part * q_part == ps[n] - 1


def test_split_rejects_bad_indices():
    with pytest.raises(ValueError):
        split_pell_minus_one(4)
    with pytest.raises(ValueError):
        split_pell_minus_one(1)


@pytest.mark.parametrize("n", [4, 6, 1])
def test_nu2_lemma_examples(n):
    pair = pell_pair(n)
    assert nu2_lemma_holds(n, pair.p, pair.q)


def test_nu2_lemma_range():
    for n in range(1, 2001):
        pair = pell_pair(n)
        assert nu2_lemma_holds(n, pair.p, pair.q)


def test_nu2_lemma_rejects_zero():
    # P_0 = 0 has no 2-adic valuation
    pair = pell_pair(0)
    with pytest.raises(ValueError):
        nu2_lemma_holds(0, pair.p, pair.q)


def test_valuation_transfer_spot_values():
    # nu2(P_n - 1) = nu2(n - eps), eps = +1 iff n = 1 (mod 4)
    ps = pell_sequence(9)
    assert nu2(ps[5] - 1) == 2 == nu2(4)
    assert nu2(ps[9] - 1) == 3 == nu2(8)


def test_valuation_transfer_range():
    ps = pell_sequence(2000)
    for n in range(3, 2001, 2):
        eps = 1 if n % 4 == 1 else -1
        assert nu2(ps[n] - 1) == nu2(n - eps), n


@pytest.mark.parametrize("n,q", [(5, 29), (7, 13), (9, 197)])
def test_residue_examples(n, q):
    # q is a prime factor of P_n for odd n, so q = 1 (mod 4)
    assert is_probable_prime(q) and pell_pair(n).p % q == 0
    assert q % 4 == 1


def test_residue_of_every_factor_for_odd_n():
    for n in range(3, 60, 2):
        f = factor(pell_pair(n).p)
        assert f.complete, n
        assert all(q % 4 == 1 for q, _ in f.factors), n


def test_residue_fact_needs_an_odd_index():
    # P_4 = 12 = 2^2 * 3
    assert [q % 4 for q, _ in factor(pell_pair(4).p).factors] == [2, 3]
