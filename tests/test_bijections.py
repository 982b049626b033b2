import itertools
import random

import pytest
from conftest import oracle_anchor_split, oracle_ballot, oracle_swap_letters

from permlab import bijections
from permlab.bijections import (
    AnchorDecomposition,
    _carry_scan,
    _contractor,
    anchor_decompose,
    contract,
    cycle_flip,
    exchange_letters,
    flank_swap,
    is_anchor_decomposable,
    pivot_words,
)
from permlab.cycles import _normalize, max_letter_neighbors, perm_weight
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
    # the one scan against measuring each prefix p[:split + g] afresh and
    # testing each reversed carry followed by the anchor's last letter
    for n in range(4, 8):
        for p in small_ballot[n]:
            for i, j in spread_pairs(n):
                for word in pivot_words(i, j, n):
                    start, split, fits, best = _carry_scan(p, word)
                    if find_factor(p, word) is None:
                        assert (start, split, fits, best) == (None, None, False, None)
                        continue
                    assert p[start:split] == word
                    lengths = [g for g in range(n - split + 1) if height(p[:split + g]) == height(word)]
                    assert fits is bool(lengths), (p, word)
                    assert best == max((g for g in lengths if is_ballot(p[split:split + g][::-1] + word[-1:])),
                                       default=None), (p, word)


def assert_split_matches_the_oracle(p, anchor):
    fits, parts = oracle_anchor_split(p, anchor)
    dec = anchor_decompose(p, anchor)
    assert (None if dec is None else (dec.head, dec.anchor, dec.carry, dec.tail)) == parts, (p, anchor)
    assert is_anchor_decomposable(p, anchor) is fits, (p, anchor)
    return fits, parts


def test_anchor_split_matches_the_two_filter_search_on_every_small_ballot_member(small_ballot):
    # the oracle reads (False, None) for a word that is not a factor of p
    members = {**small_ballot, 8: oracle_ballot(8)}
    for n in range(4, 9):
        words = [word for i, j in spread_pairs(n) for word in pivot_words(i, j, n)]
        for p in members[n]:
            factors = {p[s:s + 4] for s in range(n - 3)}
            for word in words:
                if word in factors:
                    assert_split_matches_the_oracle(p, word)
                else:
                    assert anchor_decompose(p, word) is None and is_anchor_decomposable(p, word) is False


def test_anchor_split_matches_the_two_filter_search_on_random_words():
    # words of distinct letters, most not ballot, against factors of the word
    # (suffixes among them), single letters and words that mostly do not occur
    rng, seen = random.Random(20), set()
    for _ in range(6000):
        n = rng.randint(1, 12)
        p = tuple(rng.sample(range(1, 2 * n + 2), n))
        a = rng.randrange(n)
        for word in (p[a:rng.randint(a + 1, n)], p[a:], p[a:a + 1],
                     tuple(rng.sample(range(1, 2 * n + 5), rng.randint(1, 4)))):
            fits, parts = assert_split_matches_the_oracle(p, word)
            seen.add("ballot" if is_ballot(p) else "not ballot")
            if parts is None:
                seen.add("fits, no split" if fits else "absent" if find_factor(p, word) is None else "no fit")
            else:
                seen.add("empty carry" if not parts[2] else "carry")
                if not parts[2] and not parts[3]:
                    seen.add("anchor at the end")
    assert seen == {"ballot", "not ballot", "fits, no split", "absent", "no fit", "empty carry", "carry",
                    "anchor at the end"}
    for call in (anchor_decompose, is_anchor_decomposable):
        with pytest.raises(DomainError) as exc:
            call((2, 1, 3), ())
        assert str(exc.value) == "anchor must be a nonempty word"


def test_anchor_split_runs_no_ballot_test(monkeypatch):
    # the ballot side condition is read off the running minimum of one scan,
    # so a split costs O(n), not a ballot test per candidate carry
    def refused(w):
        raise AssertionError("the split ran a ballot test")

    monkeypatch.setattr(bijections, "is_ballot", refused)
    for p in itertools.permutations(range(1, 7)):
        for word in ((1, 6, 2, 3), (2, 3, 6, 1), p[1:3], p[4:]):
            assert_split_matches_the_oracle(p, word)


def _ballot_word(ups):
    """The ballot permutation of [len(ups) + 1] whose adjacent pairs rise exactly
    where ``ups`` is true: each run of descents is a reversed block of 1..n."""
    word, block = [], [1]
    for x, up in enumerate(ups, 2):
        if up:
            word += reversed(block)
            block = [x]
        else:
            block.append(x)
    return tuple(word + block[::-1])


def test_anchor_split_of_a_long_ballot_word_with_a_late_anchor():
    # 300 letters: a walk kept >= 0 that drifts down from step 250, so late
    # anchors are followed by long carries
    carries = []
    for seed in range(3):
        rng, ups, h = random.Random(seed), [], 0
        for k in range(299):
            up = h == 0 or rng.random() < (0.5 if k < 250 else 0.3)
            h += 1 if up else -1
            ups.append(up)
        p = _ballot_word(ups)
        assert is_ballot(p) and sorted(p) == list(range(1, 301))
        for k in range(200, 297):
            _, parts = assert_split_matches_the_oracle(p, p[k:k + 4])
            carries.append(0 if parts is None else len(parts[2]))
    assert max(carries) >= 30


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
    for p, message in (
        ((1, 5, 2, 3, 4), "(1, 5, 2, 3, 4) is anchor-decomposable for (1, 5, 2, 3), outside the swap domain"),
        ((1, 2, 3, 4, 5), "(1, 2, 3, 4, 5) does not contain the factor 1 5 2"),
        ((2, 1, 4, 3, 5), "(2, 1, 4, 3, 5) is not ballot"),
        ((1, 5, 2, 4), "not a one-line permutation of [4]: (1, 5, 2, 4)"),
        ((1, 5, 2, 4, 3.0), "not a one-line permutation of [5]: (1, 5, 2, 4, 3.0)"),
    ):
        with pytest.raises(DomainError) as exc:
            exchange_letters(p, 1, 3)
        assert str(exc.value) == message


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
    # order, and the rank of each among them.  The tables live in the kernels,
    # so they are pinned through the images: a member holding i n j, in either
    # form, maps each kept letter to its rank, and the expansion maps each
    # rank back to its letter.  No kernel reads the tables at j = n, where
    # the factor i n j cannot occur
    for n in range(1, 13):
        for j in range(1, n):
            old_kept = sorted(set(range(1, n + 1)) - {j, n})
            old_rank = {x: r for r, x in enumerate(old_kept, start=1)}
            for i in (j - 1, j + 1):
                if not 1 <= i <= n - 1:
                    continue
                line = (i, n, j, *(x for x in old_kept if x != i))
                image = tuple(old_rank[x] for x in line if x not in (j, n))
                for is_cycles, member, contracted in ((False, line, image),
                                                      (True, _normalize([line]), _normalize([image]))):
                    assert _contractor(n, i, j, False, is_cycles)(member) == contracted, (n, i, j)
                    assert _contractor(n, i, j, True, is_cycles)(contracted) == member, (n, i, j)


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


def test_contract_answers_exactly_where_n_is_flanked_by_i_and_j(small_odd):
    # every odd order decomposition of n = 3..7 and every pair |i - j| = 1 of
    # letters in [0, n]: contract answers exactly where i n j is a cyclic
    # factor, and refuses every other pair with _no_factor's message, whether
    # a letter lies outside [1, n-1] or the factor is absent
    answered = 0
    for n in range(3, 8):
        for p in small_odd[n]:
            for i in range(n + 1):
                for j in (i - 1, i + 1):
                    if max_letter_neighbors(p) == (i, j):
                        assert contract(contract(p, i, j), i, j, inverse=True) == p
                        answered += 1
                        continue
                    with pytest.raises(DomainError) as exc:
                        contract(p, i, j)
                    assert str(exc.value) == f"{p} does not contain the cyclic factor {i} {n} {j}"
    assert answered == 546  # the odd count tables' cells (i, i +- 1) summed over n = 3..7


def test_contract_answers_exactly_where_a_word_holds_i_n_j():
    # the one-line counterpart, over every permutation of n = 3..7: the factor
    # i n j never wraps round the word's ends
    answered = 0
    for n in range(3, 8):
        for p in itertools.permutations(range(1, n + 1)):
            for i in range(n + 1):
                for j in (i - 1, i + 1):
                    if find_factor(p, (i, n, j)) is not None:
                        assert contract(contract(p, i, j), i, j, inverse=True) == p
                        answered += 1
                        continue
                    with pytest.raises(DomainError) as exc:
                        contract(p, i, j)
                    assert str(exc.value) == f"{p} does not contain the factor {i} {n} {j}"
    assert answered == 1438  # the block i n j: 2(n-2) pairs times (n-2)! words, summed over n = 3..7


def test_cycle_flip_examples():
    assert cycle_flip(((1, 7, 2, 3, 6, 5, 4),)) == ((1, 7, 3, 2, 4, 5, 6),)
    assert perm_weight(((1, 7, 2, 3, 6, 5, 4),)) == perm_weight(((1, 7, 3, 2, 4, 5, 6),)) == 3
    assert cycle_flip(((1, 5, 2, 3, 4),)) == ((1, 5, 3, 2, 4),)
    assert perm_weight(((1, 5, 2, 3, 4),)) == perm_weight(((1, 5, 3, 2, 4),)) == 2


def test_cycle_flip_exchange_branch(small_odd):
    assert cycle_flip(((1, 4, 2), (3,))) == ((1, 4, 3), (2,))
    assert cycle_flip(((1, 4, 3), (2,))) == ((1, 4, 2), (3,))
    # every canonical decomposition the flip answers by exchanging 2 and 3
    swapped = 0
    for n in range(4, 8):
        for p in small_odd[n]:
            if max_letter_neighbors(p) not in ((1, 2), (1, 3)):
                continue
            c = p[0]
            if len(c) >= 4 and c[3] == 5 - c[2]:
                continue
            assert cycle_flip(p) == _normalize([oracle_swap_letters(cycle, 2, 3) for cycle in p])
            swapped += 1
    assert swapped == 92


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


def test_cycle_flip_answers_exactly_where_n_is_flanked_by_1_and_2_or_3(small_odd):
    # every odd order decomposition of n = 4..7 passes the n and odd order
    # checks, so the flip answers exactly on the cells (1, 2) and (1, 3) and
    # refuses every other member with the factor message
    answered = 0
    for n in range(4, 8):
        for p in small_odd[n]:
            if max_letter_neighbors(p) in ((1, 2), (1, 3)):
                assert cycle_flip(cycle_flip(p)) == p
                answered += 1
                continue
            with pytest.raises(DomainError) as exc:
                cycle_flip(p)
            assert str(exc.value) == f"no cycle with the largest letter flanked by 1 and 2 or 3: {p}"
    assert answered == 116  # the odd count tables' cells (1, 2) and (1, 3) summed over n = 4..7


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
