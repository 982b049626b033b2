import pytest

from permlab.bijections import (
    AnchorDecomposition,
    _carry_candidates,
    _contract_tables,
    anchor_decompose,
    contract,
    cycle_flip,
    exchange_letters,
    flank_swap,
    is_anchor_decomposable,
    pivot_words,
)
from permlab.cycles import max_letter_neighbors, perm_weight
from permlab.enumeration import anchor_classes, member_index
from permlab.errors import DomainError
from permlab.toeplitz import shift
from permlab.words import find_factor, height, is_ballot, swap_letters


def spread_pairs(n):
    return [(i, j) for i in range(1, n - 2) for j in range(i + 2, n)]


def assert_decomposition_definition(p, anchor, dec):
    """Definition-level oracle: the returned split satisfies every clause and
    no longer carry passes both filters."""
    assert dec.head + dec.anchor + dec.carry + dec.tail == p
    assert dec.anchor == anchor
    assert height(dec.head + dec.anchor + dec.carry) == height(anchor)
    assert is_ballot(dec.carry[::-1] + (anchor[-1],))
    start = len(dec.head) + len(anchor)
    for g in range(len(dec.carry) + 1, len(p) - start + 1):
        carry = p[start:start + g]
        both = (height(p[:start + g]) == height(anchor)
                and is_ballot(carry[::-1] + (anchor[-1],)))
        assert not both, f"longer carry {carry} also qualifies"


def test_anchor_decompose_examples():
    dec = anchor_decompose((1, 5, 2, 3, 4), (1, 5, 2, 3))
    assert dec == AnchorDecomposition((), (1, 5, 2, 3), (), (4,))
    dec = anchor_decompose((2, 5, 3, 4, 1), (2, 5, 3, 4))
    assert dec == AnchorDecomposition((), (2, 5, 3, 4), (), (1,))
    assert anchor_decompose((1, 2, 3), (2, 1)) is None
    with pytest.raises(DomainError):
        anchor_decompose((1, 2, 3), ())
    with pytest.raises(DomainError) as exc:
        is_anchor_decomposable((1, 2), ())
    assert str(exc.value) == "anchor must be a nonempty word"


def test_anchor_decompose_satisfies_definition():
    for n in range(4, 8):
        idx = member_index("ballot", n)
        for i, j in spread_pairs(n):
            forward_word, backward_word = pivot_words(i, j, n)
            for word, cell in ((forward_word, (i, j - 1)), (backward_word, (j, i))):
                for p in idx.cell_union(*cell):
                    dec = anchor_decompose(p, word)
                    if dec is not None:
                        assert_decomposition_definition(p, word, dec)
                    assert (dec is not None) == is_anchor_decomposable(p, word)


def test_anchor_decompose_general_words():
    # every ballot factor of every small ballot permutation works as an anchor
    idx = member_index("ballot", 5)
    for p in idx.stat_class(1) + idx.stat_class(2):
        for a in range(5):
            for b in range(a + 1, 6):
                word = p[a:b]
                if not is_ballot(word):
                    continue
                dec = anchor_decompose(p, word)
                if dec is not None:
                    assert_decomposition_definition(p, word, dec)


def test_carry_lengths_match_the_height_of_every_prefix(small_ballot):
    # the running height against measuring each prefix p[:split + g] afresh
    for n in range(4, 8):
        for p in small_ballot[n]:
            for i, j in spread_pairs(n):
                for word in pivot_words(i, j, n):
                    found = _carry_candidates(p, word)
                    if find_factor(p, word) is None:
                        assert found is None
                        continue
                    start, split, lengths = found
                    assert p[start:split] == word
                    assert lengths == [g for g in range(n - split + 1)
                                       if height(p[:split + g]) == height(word)], (p, word)


def test_flank_swap_examples():
    assert flank_swap((1, 5, 2, 3, 4), 1, 3) == (2, 3, 5, 1, 4)
    assert flank_swap((2, 5, 3, 4, 1), 2, 4) == (3, 4, 5, 2, 1)
    assert flank_swap((2, 3, 5, 1, 4), 1, 3, "backward") == (1, 5, 2, 3, 4)


def test_flank_swap_round_trip_exhaustive():
    for n in range(4, 8):
        idx = member_index("ballot", n)
        for i, j in spread_pairs(n):
            forward_word, backward_word = pivot_words(i, j, n)
            forward = [p for p in idx.cell_union(i, j - 1) if is_anchor_decomposable(p, forward_word)]
            backward = [p for p in idx.cell_union(j, i) if is_anchor_decomposable(p, backward_word)]
            image = []
            for p in forward:
                q = flank_swap(p, i, j, "forward")
                assert flank_swap(q, i, j, "backward") == p
                image.append(q)
            assert sorted(image) == sorted(backward)


def test_anchor_classes_split_the_cells_and_the_letter_exchange_swaps_the_rest():
    # the memoized split against a filter over each neighbor cell; on the rest
    # of the cell (i, j-1) the letter exchange is the swap of j-1 and j, and
    # its image is the whole cell (i, j)
    for n in range(4, 8):
        idx = member_index("ballot", n)
        for i, j in spread_pairs(n):
            forward_word, backward_word = pivot_words(i, j, n)
            cell = idx.cell_union(i, j - 1)
            rest = tuple(p for p in cell if not is_anchor_decomposable(p, forward_word))
            assert anchor_classes(n, i, j) == (
                tuple(p for p in cell if is_anchor_decomposable(p, forward_word)), rest,
                tuple(p for p in idx.cell_union(j, i) if is_anchor_decomposable(p, backward_word)))
            image = [exchange_letters(p, i, j) for p in rest]
            assert image == [swap_letters(p, j - 1, j) for p in rest]
            assert sorted(image) == sorted(idx.cell_union(i, j))


def test_flank_swap_domain_errors():
    with pytest.raises(DomainError):
        flank_swap((1, 2, 3, 4, 5), 1, 3)  # no pivot factor
    with pytest.raises(DomainError):
        flank_swap((1, 5, 2, 3, 4), 1, 2)  # letters too close
    with pytest.raises(DomainError):
        flank_swap((1, 5, 2, 3, 4), 1, 3, "sideways")
    with pytest.raises(DomainError) as exc:
        flank_swap((2, 1, 3, 4, 5), 1, 3)
    assert str(exc.value) == "(2, 1, 3, 4, 5) is not ballot, so not in the anchor class of (1, 5, 2, 3)"


def test_pivot_words():
    assert pivot_words(1, 3, 5) == ((1, 5, 2, 3), (2, 3, 5, 1))
    assert pivot_words(2, 6, 7) == ((2, 7, 5, 6), (5, 6, 7, 2))


@pytest.mark.parametrize("i, j", [(1, 2), (0, 3), (2, 1), (1, 5)])
def test_pivot_letter_refusals_name_the_pivot_words(i, j):
    # the flank swap and the letter exchange refuse the same letters with the same message
    message = f"pivot words need ints with 1 <= i, i+2 <= j <= n-1, got i={i}, j={j}, n=5"
    p = (1, 5, 2, 3, 4)
    for call in (lambda: pivot_words(i, j, 5), lambda: flank_swap(p, i, j),
                 lambda: flank_swap(p, i, j, "backward"), lambda: exchange_letters(p, i, j)):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


def test_exchange_letters_examples():
    assert exchange_letters((1, 5, 2, 4, 3), 1, 3) == (1, 5, 3, 4, 2)
    assert exchange_letters((3, 4, 1, 5, 2), 1, 3) == (2, 4, 1, 5, 3)


def test_exchange_letters_is_involution_on_values():
    p = (1, 5, 2, 4, 3)
    q = exchange_letters(p, 1, 3)
    from permlab.words import swap_letters

    assert swap_letters(q, 2, 3) == p


def test_exchange_letters_domain_errors():
    with pytest.raises(DomainError):
        exchange_letters((1, 5, 2, 3, 4), 1, 3)  # anchor-decomposable
    with pytest.raises(DomainError):
        exchange_letters((1, 2, 3, 4, 5), 1, 3)  # missing factor
    with pytest.raises(DomainError):
        exchange_letters((2, 1, 4, 3, 5), 1, 3)  # not a valid shape at all


def test_contract_examples():
    assert contract((1, 5, 2, 3, 4), 1, 2) == (1, 2, 3)
    assert contract((3, 4, 2, 5, 1), 2, 1) == (2, 3, 1)
    assert contract((1, 4, 2, 3), 1, 2) == (1, 2)
    assert contract((1, 2, 3), 1, 2, inverse=True) == (1, 5, 2, 3, 4)


def test_contract_cycles():
    reduced = contract(((1, 4, 2), (3,)), 1, 2)
    assert reduced == ((1,), (2,))
    assert contract(reduced, 1, 2, inverse=True) == ((1, 4, 2), (3,))


def test_contract_reads_cycles_spelled_as_lists_like_shift():
    # a decomposition may be spelled with lists, as shift accepts it
    spelled = [[1, 4, 2], [3]]
    assert contract(spelled, 1, 2) == contract(((1, 4, 2), (3,)), 1, 2) == ((1,), (2,))
    assert contract([[2], [1]], 1, 2, inverse=True) == ((1, 4, 2), (3,))
    assert shift(spelled, 1, 2, cyclic=True) == shift(((1, 4, 2), (3,)), 1, 2, cyclic=True)
    with pytest.raises(DomainError) as exc:
        contract([[1, 3, 2], [4]], 1, 2)
    assert str(exc.value) == "((1, 3, 2), (4,)) does not contain the cyclic factor 1 4 2"


def test_contract_tables_are_the_sorted_set_and_rank_dict():
    # by the definition: the letters of [n] other than j and n in increasing
    # order, and the rank of each among them
    for n in range(1, 13):
        for j in range(1, n + 1):
            kept, rank = _contract_tables(n, j)
            old_kept = sorted(set(range(1, n + 1)) - {j, n})
            old_rank = {x: r for r, x in enumerate(old_kept, start=1)}
            assert kept == (0, *old_kept)
            assert len(rank) == n + 1
            assert {x: rank[x] for x in range(1, n + 1) if rank[x]} == old_rank
            assert rank[0] == rank[j] == rank[n] == 0
            # so the contraction's letter map is a bijection of the kept
            # letters onto [n-2], and the expansion's its inverse fixing 0
            assert [kept[rank[x]] for x in kept] == list(kept)


def test_contract_round_trip_exhaustive():
    for kind in ("ballot", "odd"):
        for n in (5, 6):
            idx = member_index(kind, n)
            small = member_index(kind, n - 2)
            for d in range((n - 1) // 2 + 1):
                for i in range(1, n):
                    for j in (i - 1, i + 1):
                        if not 1 <= j <= n - 1:
                            continue
                        members = idx.cell(d, i, j)
                        image = [contract(p, i, j) for p in members]
                        for p, q in zip(members, image):
                            assert contract(q, i, j, inverse=True) == p
                        assert sorted(image) == sorted(small.stat_class(d - 1) if d else ())


def test_contract_errors():
    with pytest.raises(DomainError):
        contract((1, 5, 2, 3, 4), 1, 3)  # |i-j| != 1
    with pytest.raises(DomainError):
        contract((1, 5, 2, 3, 4), 2, 3)  # factor absent
    with pytest.raises(DomainError):
        contract(((1, 4, 3), (2,)), 1, 2)  # cyclic factor absent
    for q in ((1, 2, 3), ((1,), (2,), (3,))):  # the inverse side: letters past n-1
        with pytest.raises(DomainError) as exc:
            contract(q, 5, 6, inverse=True)
        assert str(exc.value) == "letters must lie in [1, 4], got (5, 6)"


def test_cycle_flip_examples():
    assert cycle_flip(((1, 7, 2, 3, 6, 5, 4),)) == ((1, 7, 3, 2, 4, 5, 6),)
    assert perm_weight(((1, 7, 2, 3, 6, 5, 4),)) == perm_weight(((1, 7, 3, 2, 4, 5, 6),)) == 3
    assert cycle_flip(((1, 5, 2, 3, 4),)) == ((1, 5, 3, 2, 4),)
    assert perm_weight(((1, 5, 2, 3, 4),)) == perm_weight(((1, 5, 3, 2, 4),)) == 2


def test_cycle_flip_exchange_branch():
    assert cycle_flip(((1, 4, 2), (3,))) == ((1, 4, 3), (2,))
    assert cycle_flip(((1, 4, 3), (2,))) == ((1, 4, 2), (3,))


def test_cycle_flip_involution_exhaustive():
    for n in (5, 6, 7):
        idx = member_index("odd", n)
        for d in range((n - 1) // 2 + 1):
            for cell in ((d, 1, 2), (d, 1, 3)):
                for p in idx.cell(*cell):
                    q = cycle_flip(p)
                    assert cycle_flip(q) == p
                    assert perm_weight(q) == perm_weight(p)
                    assert sorted(map(len, q)) == sorted(map(len, p))
                    i, j = max_letter_neighbors(q)
                    assert (i, j) == (1, 5 - cell[2])


def test_cycle_flip_domain_errors():
    with pytest.raises(DomainError):
        cycle_flip(((1,), (2,), (3,), (4,)))  # largest letter fixed
    with pytest.raises(DomainError):
        cycle_flip(((1, 2, 5, 3, 4),))  # neighbors not (1,2)/(1,3)
    with pytest.raises(DomainError):
        cycle_flip(((1, 3, 2),))  # n too small
    with pytest.raises(DomainError) as exc:
        cycle_flip(((1, 2), (3,), (4,)))
    assert str(exc.value) == "cycle flip is defined on odd order permutations, got ((1, 2), (3,), (4,))"


def test_tail_of_pivot_decomposition_is_ballot():
    # splits whose anchor has height 1 always leave a ballot tail
    for n in range(4, 8):
        idx = member_index("ballot", n)
        for i, j in spread_pairs(n):
            forward_word, backward_word = pivot_words(i, j, n)
            for word, cell in ((forward_word, (i, j - 1)), (backward_word, (j, i))):
                for p in idx.cell_union(*cell):
                    dec = anchor_decompose(p, word)
                    if dec is not None and dec.tail and not is_ballot(dec.tail):
                        assert dec.carry_last > dec.tail[0]
                        assert height(word) != 1
