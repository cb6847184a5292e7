"""Machine-speed probe: fixed pure-Python work that does not use vimotest.

The benchmark runs it as a child process twice per round, exactly like a
CLI call, so its time tracks how fast the host runs Python during that run.
It tokenizes a generated text character by character into small objects and
counts them, the same kind of work as the DSL lexer and parser. Its output
is fixed; the benchmark checks it.
"""

from dataclasses import dataclass

EXPECTED = "[('int', 60301), ('punct', 49000), ('word', 159160)]"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    offset: int


def tokens(text: str) -> list[Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch.isalpha():
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("word", text[i:j], i))
        elif ch.isdigit():
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], i))
        elif not ch.isspace():
            out.append(Token("punct", ch, i))
        i = j
    return out


def main() -> None:
    text = "".join(f'row_{i} | "cell {i}" | {i * 7} {{ name{i % 97}: value }}\n'
                   for i in range(7000))
    counts: dict[str, int] = {}
    for token in tokens(text):
        counts[token.kind] = counts.get(token.kind, 0) + len(token.text)
    print(sorted(counts.items()))


if __name__ == "__main__":
    main()
