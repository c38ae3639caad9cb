"""Search a compressed text for a compressed pattern.

The occurrence set comes back as ranges of starts per grammar rule, so
counting and membership work even when there are a million hits.

Run with: python3 demos/04_pattern_matching.py
"""

from crx import Slp, Term, char_at, first_mismatch, occurrences, substring_slp

sample = Slp.build((Term(0), Term(1), (1, 2), (1, 3), (3, 4), (4, 5), (6, 5)))
print("text:", "".join("ab"[char_at(sample, i)] for i in range(1, sample.length + 1)))

pat = Slp.build((Term(0), Term(1), (1, 2)))  # "ab"
occ = occurrences(sample, pat)
print(f"occurrences of 'ab': count={occ.count()}, first={occ.min_start()}, "
      f"all={sorted(occ.positions())}")
print(f"is there a hit starting in [5, 8]? {occ.exists_start_in(5, 8)}")
print(f"one fully inside [1, 3]? {occ.exists_fully_within(1, 3)}")
print()

# a million-hit query: aaa inside a^(2^20)
rules: list[Term | tuple[int, int]] = [Term(0)]
for i in range(1, 21):
    rules.append((i, i))
big = Slp.build(tuple(rules))
aaa = Slp.build((Term(0), (1, 1), (2, 1)))
occ = occurrences(big, aaa)
print(f"'aaa' in a^(2^20): {occ.count():,} occurrences "
      f"(no expansion, membership(12345)={occ.membership(12345)})")
print()

# substring extraction and comparison, still compressed
mid = substring_slp(sample, 3, 6)
print(f"text[3..6] is a program with {mid.n} rules deriving "
      f"{''.join('ab'[char_at(mid, i)] for i in range(1, 5))!r}")
other = Slp.build((Term(0), Term(1), (1, 2), (3, 3)))  # "abab"
pos = first_mismatch(mid, other)
print(f"first mismatch between text[3..6] and 'abab': position {pos}")
