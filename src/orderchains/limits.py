"""Resource caps: the finite limits up to which the library probes the
paper's infinite sequences and trees.

Every guarantee the library gives holds up to these caps.  A value past
a cap is refused with a typed error before the work starts, except where
a line says what happens instead.  Each line gives the cap's value, what
it bounds, and its cost at the cap: the wall time and peak resident
memory of one child process that runs only that call, on a 2-core VM
with Python 3.11.7, at the commit named.  The modules that check a cap
import it from here under the same name.  This module imports nothing
from the package.
"""

# cap = value  # what it bounds; cost at the cap (commit)
MAX_AXIOM_SUPPORT = 900  # elements check_axioms takes, keeping n^2 verdicts; `check-axioms` of 900 words under RL 1.1 s (RatLess 0.7 s, IntLess 0.4 s), 23 MB (212514b)
MAX_AXIOM_VIOLATIONS = 1 << 18  # transitivity violations check_axioms reports, counted before any is built; a report at the cap 0.8 s, 94 MB, 10 MB of text (212514b)
_INT_KEY_BITS = 1 << 25  # bits of RatLess int sort keys over one sequence, past which it keys by rational_key; 4 096 dyadics over 2^8191, the longest reduction image: 4 MiB of keys, longest_chain 0.06 s, 18 MB (212514b)
MAX_BLOCK = 4096  # last block index_of and word_at rank, and the largest tree depth cap and max_children; ranking or unranking in block 4096 (a 49 153-bit index) 0.8 s, 15 MB (212514b)
MAX_HORIZON = 4096  # terms reduce_tree writes, and the first filler index past them; `reduce --target binary --horizon 4096` 1.9-2.1 s, 347 MB (other targets 0.7-1.0 s, 108 MB) (212514b)
MAX_NODES = 1 << 16  # node cap of TreeGenSpec; deepest tree found, `fuzz --trials 1 --seed 3 --node-cap 65536 --mean-children 1.03 --depth-cap 4096 --pipeline binary` (mean depth 271) 1.0 s, 161 MB; 2^17 nodes 3.0 s, 404 MB (212514b)
MAX_DEPTH = 16  # deepest interval scheme build_scheme builds, on a stage of 2^17 components; `cantor --depth 16` 1.9 s, 165 MB (212514b)
MAX_RESOLUTION = 64  # finest stage build_scheme looks for when no resolution is given; 65 `components` calls before the refusal, 0.06 s, 16 MB (212514b)
MAX_DYADIC_DIGITS = 1 << 20  # binary digits word_to_dyadic writes, a 128 KiB denominator; one run 0.1 s, 31 MB; 699 050 runs alternating 0 and 1 9.8 s, 21 MB (212514b)
MAX_STREAM_VALUES = 1 << 20  # values a CountableSetStream draws; dyadic_stream().prefix(2^20) 2.4-2.8 s, 291 MB; gap midpoints 3.0 s, 353 MB; word images 6.3 s, 301 MB (212514b)
ECHO_LIMIT = 40  # characters of any caller value an error message quotes, past which it marks the cut and gives the length; Element(Tag.NAT, (1,)*10**5) refused in 0.02 s, 18 MB, with a 99-character message, 300 036 uncut; a 10^6-character token quotes in 66 (ebd9035 with the cut)
