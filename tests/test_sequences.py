import pytest

from pellcheck.sequences import (
    digits10,
    pell_lucas_sequence,
    pell_pair,
    pell_residue,
    pell_sequence,
)

# first values straight from the recurrences
PELL = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741, 13860, 33461]
PELL_LUCAS = [2, 2, 6, 14, 34, 82, 198, 478, 1154, 2786, 6726]


@pytest.mark.parametrize("n,p,q", [
    (0, 0, 2),
    (1, 1, 2),
    (2, 2, 6),
    (7, 169, 478),
])
def test_pell_pair_examples(n, p, q):
    pair = pell_pair(n)
    assert (pair.n, pair.p, pair.q) == (n, p, q)


@pytest.mark.parametrize("n,expected", [(5, 29), (9, 985), (0, 0)])
def test_pell_iterative_examples(n, expected):
    assert pell_sequence(n)[n] == expected


@pytest.mark.parametrize("n,expected", [(3, 14), (5, 82), (1, 2)])
def test_pell_lucas_iterative_examples(n, expected):
    assert pell_lucas_sequence(n)[n] == expected


def test_first_values():
    assert [pell_sequence(n)[n] for n in range(len(PELL))] == PELL
    assert ([pell_lucas_sequence(n)[n] for n in range(len(PELL_LUCAS))]
            == PELL_LUCAS)


def test_sequences_match_iteratives():
    assert pell_sequence(13) == PELL
    assert pell_lucas_sequence(10) == PELL_LUCAS
    assert pell_sequence(0) == [0]
    assert pell_lucas_sequence(0) == [2]


def test_doubling_agrees_with_iteration_to_2000():
    ps = pell_sequence(2000)
    qs = pell_lucas_sequence(2000)
    for n in range(2001):
        pair = pell_pair(n)
        assert pair.p == ps[n]
        assert pair.q == qs[n]


@pytest.mark.parametrize("modulus", [3, 7, 2**61 - 1])
def test_residue_ladder_agrees_with_iteration_to_2000(modulus):
    ps = pell_sequence(2000)
    for n in range(2001):
        assert pell_residue(n, modulus) == ps[n] % modulus


def test_residue_ladder_rejects_even_modulus():
    for modulus in (1, 2, 2**61):
        with pytest.raises(ValueError):
            pell_residue(5, modulus)


def test_companion_relation_to_2000():
    for n in range(2001):
        pair = pell_pair(n)
        assert pair.q**2 - 8 * pair.p**2 == (4 if n % 2 == 0 else -4)


def test_monotonicity():
    ps = pell_sequence(5000)
    qs = pell_lucas_sequence(5000)
    assert all(ps[n + 1] > ps[n] for n in range(1, 5000))
    assert all(qs[n + 1] > qs[n] for n in range(1, 5000))


def test_index_divisibility_to_1000():
    # P_d | P_n whenever d | n
    ps = pell_sequence(1000)
    for n in range(2, 1001):
        for d in range(2, n):
            if n % d == 0:
                assert ps[n] % ps[d] == 0, (d, n)


@pytest.mark.parametrize("n", [2, 3, 200])
def test_size_bound_examples(n):
    # P_n >= 2^(n/2), in the exact squared form
    assert pell_pair(n).p ** 2 >= 1 << n


def test_size_bound_boundary():
    # equality at n = 2: P_2 = 2 = 2^(2/2)
    assert pell_pair(2).p ** 2 == 2**2


def test_size_bound_fails_below_index_2():
    # the bound is stated for n >= 2: P_0 = 0 < 1 and P_1 = 1 < 2^(1/2)
    for n in (0, 1):
        assert pell_pair(n).p ** 2 < 1 << n


def test_size_bound_range():
    ps = pell_sequence(2000)
    for n in range(2, 2001):
        assert ps[n] ** 2 >= 1 << n


def test_negative_index_rejected():
    for fn in (pell_pair, pell_sequence, pell_lucas_sequence):
        with pytest.raises(ValueError):
            fn(-1)


def test_digits10():
    assert digits10(0) == 1
    assert digits10(9) == 1
    assert digits10(10) == 2
    for n in (1, 99, 100, 10**15 - 1, 10**15, 7**300):
        assert digits10(n) == len(str(n))
    assert digits10(pell_pair(200).p) == 77
