"""Search a compressed text for a compressed pattern.

The occurrence set comes back as ranges of starts per grammar rule, so
counting and membership work even when there are a million hits.

Run with: python3 demos/04_pattern_matching.py
"""

from crx import (
    RleString,
    Slp,
    Term,
    Text,
    char_at,
    expand_slp,
    first_mismatch,
    occurrences,
    rle_as_slp,
    rle_encode,
    substring_slp,
)
from crx.slp_ops import run_count

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


def count_in_expansion(s: Slp, pattern: str) -> int:
    """Overlapping occurrences in the expanded text, for checking."""
    text = expand_slp(s).to_str()
    return sum(text.startswith(pattern, i) for i in range(len(text)))


# counting takes the cheaper exact route: a walk over the rules for a
# Fibonacci word, whose runs outnumber its rules, and one scan over the
# runs for a chain of runs, which has more rules than runs
fib = Slp.build(tuple([Term(1), Term(0)] + [(i - 1, i - 2) for i in range(3, 21)]))
chain = rle_as_slp(RleString(((0, 7), (1, 2), (0, 3), (1, 2), (0, 9), (1, 1), (0, 3))))
for name, s, pattern in (("X_20, a Fibonacci word", fib, "abaab"),
                         ("a chain of 7 runs", chain, "aab")):
    got = occurrences(s, rle_encode(Text.from_str(pattern))).count()
    assert got == count_in_expansion(s, pattern)
    print(f"{pattern!r} in {name} ({s.n} rules, {run_count(s):,} runs, "
          f"{s.length:,} symbols): {got} occurrences")
print()

# substring extraction and comparison, still compressed
mid = substring_slp(sample, 3, 6)
print(f"text[3..6] is a program with {mid.n} rules deriving "
      f"{''.join('ab'[char_at(mid, i)] for i in range(1, 5))!r}")
other = Slp.build((Term(0), Term(1), (1, 2), (3, 3)))  # "abab"
pos = first_mismatch(mid, other)
print(f"first mismatch between text[3..6] and 'abab': position {pos}")
