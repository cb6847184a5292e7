"""String literals and comment text shared by the Java and C++ emitters."""


def quote(value: str) -> str:
    """A double-quoted literal: backslash, quote, newline, tab and carriage
    return are escaped, every other character passes through. Each escape
    runs only on a value that holds its character."""
    if "\\" in value:
        value = value.replace("\\", "\\\\")
    if '"' in value:
        value = value.replace('"', '\\"')
    if "\n" in value:
        value = value.replace("\n", "\\n")
    if "\t" in value:
        value = value.replace("\t", "\\t")
    if "\r" in value:
        value = value.replace("\r", "\\r")
    return f'"{value}"'


def comment_text(text: str) -> str:
    """``text`` kept on its ``//`` line: a raw carriage return, a line end to
    both javac and g++, is spelled ``\\r``. Callers pass no newline and no
    trailing backslash (a C++ line splice)."""
    return text.replace("\r", "\\r")
