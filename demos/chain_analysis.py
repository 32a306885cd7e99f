"""Walk through the chain toolkit on a few concrete sequences."""

from orderchains import (
    Tag,
    Sequence,
    constant_subsequence,
    decide_membership_up,
    cycle_witness,
    format_witness,
    longest_chain,
    make_order,
    parse_up_sequence,
    patience_chain_length,
)


def main():
    divides = make_order("Divides")
    int_less = make_order("IntLess")

    seq = Sequence.from_payloads(Tag.NAT, [6, 2, 3, 4, 8, 9, 16])
    length, witness = longest_chain(seq, divides)
    print("sequence:", list(seq.payloads()))
    print("longest divisibility chain:", length)
    print("witness:", format_witness(witness))
    print()

    # Patience sorting gives the same length on linear oracles.
    ints = Sequence.from_payloads(Tag.INT, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5])
    dp_len, _ = longest_chain(ints, int_less)
    print("integer sequence:", list(ints.payloads()))
    print("longest increasing chain:", dp_len)
    print("patience check:", patience_chain_length(ints, int_less))

    value, count = constant_subsequence(ints)
    print("most repeated value:", value, "seen", count, "times")
    print()

    # Eventually periodic input: a prefix, then a cycle repeated forever.
    up = parse_up_sequence("3 | 2 4 8", divides.domain)
    print("eventually periodic input: 3 | 2 4 8")
    print("unbounded chain under strict divisibility:", decide_membership_up(up, divides))

    lax = make_order("Divides", strict=False)
    print("unbounded chain allowing equality:", decide_membership_up(up, lax))
    cyc = cycle_witness(up, lax)
    if cyc is not None:
        loop = cyc + [cyc[0]]
        print("witness cycle:", " -> ".join(str(e) for e in loop))
    print()

    # A strict linear order can still be decided the same way.
    up2 = parse_up_sequence("| 1 2 3", int_less.domain)
    print("eventually periodic input: | 1 2 3")
    print("unbounded increasing chain:", decide_membership_up(up2, int_less))


if __name__ == "__main__":
    main()
