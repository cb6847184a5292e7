"""String literals and comment text shared by the Java and C++ emitters."""


def quote(value: str) -> str:
    """A double-quoted literal: backslash, quote, newline, tab and carriage
    return are escaped, every other character passes through."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n").replace("\t", "\\t").replace("\r", "\\r") + '"'


def comment_text(text: str) -> str:
    """``text`` kept on its ``//`` line: a raw carriage return, a line end to
    both javac and g++, is spelled ``\\r``. Callers pass no newline and no
    trailing backslash (a C++ line splice)."""
    return text.replace("\r", "\\r")
