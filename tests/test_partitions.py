import pytest

from hltorus.errors import DomainError
from hltorus.partitions import (
    DominantWeight,
    Partition,
    classify_shape,
    partitions_up_to,
)

from helpers import bounded_partitions, dominant_weights, parity_counts, parse_weight


def test_multiplicity_examples():
    assert Partition((2, 2, 1, 0)).multiplicities() == {2: 2, 1: 1, 0: 1}
    assert Partition((0, 0)).multiplicities() == {0: 2}


def test_parity_counts_examples():
    assert parity_counts(Partition((3, 2, 1, 0))) == (2, 2)
    assert parity_counts(Partition((0, 0, 0, 0))) == (0, 4)
    assert parity_counts(Partition((1, 1))) == (2, 0)


def test_statistics_sum_rules():
    for lam in partitions_up_to(5, 4):
        mults = lam.multiplicities()
        assert sum(mults.values()) == len(lam)
        assert sum(v * m for v, m in mults.items()) == lam.weight()


def test_classify_shapes():
    info = classify_shape((2, 2, 1, 1))
    assert info.double_mult == Partition((2, 1))
    assert info.palindrome is None

    info = classify_shape((2, 0, -2))
    assert info.palindrome == Partition((2,))


def test_classify_palindrome_odd_length():
    info = classify_shape((1, 0, -1))
    assert info.palindrome == Partition((1,))
    assert classify_shape((1, 1, -1)).palindrome is None
    assert classify_shape(()).palindrome == Partition(())


def test_classify_reconstruction():
    for lam in partitions_up_to(6, 4):
        info = classify_shape(lam.parts)
        if info.double_mult is not None:
            mu = info.double_mult.parts
            rebuilt = tuple(x for p in mu for x in (p, p))
            assert rebuilt == lam.parts


def test_padding_and_validation():
    lam = Partition((2, 1))
    assert lam.padded(4).parts == (2, 1, 0, 0)
    with pytest.raises(DomainError):
        lam.padded(1)
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((1, -1))


def test_text_roundtrip():
    lam = parse_weight(Partition, "2,2,1,0")
    assert lam.parts == (2, 2, 1, 0)
    assert lam.text() == "2,2,1,0"
    w = parse_weight(DominantWeight, "2,0,-1")
    assert w.parts == (2, 0, -1)


def test_dominant_weight_pair_decomposition():
    w = DominantWeight.from_pair((2, 1), (1,), 5)
    assert w.parts == (2, 1, 0, 0, -1)
    assert w.positive_part() == Partition((2, 1))
    assert w.negative_part() == Partition((1,))
    with pytest.raises(DomainError):
        DominantWeight.from_pair((1, 1), (1, 1), 3)


def test_grid_enumerators_are_deterministic():
    a = partitions_up_to(3, 2)
    b = partitions_up_to(3, 2)
    assert [p.parts for p in a] == [p.parts for p in b]
    assert Partition(()) in a
    assert len(bounded_partitions(2, 3)) == 10
    ws = dominant_weights(2, 1)
    assert DominantWeight((1, -1)) in ws
