"""Show the word-to-bits and word-to-rational encoders side by side."""

from orderchains import (
    double_bits,
    format_bit_word,
    format_dyadic_binary,
    format_nat_word,
    iter_words,
    lex_between,
    make_order,
    parse_bit_word,
    word_to_bits,
    word_to_dyadic,
)


def main():
    print("doubled binary digits:")
    for n in (0, 1, 2, 5, 12):
        print(f"  {n}: {format_bit_word(double_bits(n))}")
    print()

    print("word encodings (bit form and rational form):")
    reverse_lex = make_order("RL")
    rows = []
    for _, w in zip(range(10), iter_words()):
        rows.append((w, word_to_bits(w), word_to_dyadic(w)))
    for w, bits, value in rows:
        print(
            f"  {format_nat_word(w):8} -> {format_bit_word(bits):14} "
            f"{str(value):5} = {format_dyadic_binary(value)}"
        )
    print()

    # The rational form orders words exactly like the reverse-lex oracle.
    keys = reverse_lex.sort_keys([w for w, _, _ in rows])
    by_order = sorted(range(len(rows)), key=keys.__getitem__)
    values = [rows[i][2] for i in by_order]
    print("values sorted by the word order are increasing:", values == sorted(values))
    print()

    # Between any two bit-words ending in 1 sits a third, lexicographically.
    for a, b in (("1", "11"), ("01", "11"), ("0101", "011")):
        mid = lex_between(parse_bit_word(a), parse_bit_word(b))
        print(f"strictly between {a} and {b}: {format_bit_word(mid)}")


if __name__ == "__main__":
    main()
