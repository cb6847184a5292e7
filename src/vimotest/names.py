"""Identifier word splitting and case conversion used for default target names."""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def split_words(identifier: str) -> list[str]:
    """Split an identifier into words on underscores and case boundaries.

    "AddNewTask" -> ["Add", "New", "Task"]; "a_b" -> ["a", "b"];
    trailing acronyms stay together: "TaskListVM" -> ["Task", "List", "VM"].
    """
    return _WORD_RE.findall(identifier)


def _words_of(parts: tuple[str, ...]) -> list[str]:
    words: list[str] = []
    for part in parts:
        words.extend(split_words(part))
    return words


def camel_case(*parts: str) -> str:
    words = _words_of(parts)
    if not words:
        return ""
    head = words[0].lower()
    return head + "".join(w.capitalize() for w in words[1:])


def pascal_case(*parts: str) -> str:
    return "".join(w.capitalize() for w in _words_of(parts))


def snake_case(*parts: str) -> str:
    return "_".join(w.lower() for w in _words_of(parts))


# Reserved words of each target, which no generated name may be as written.
KEYWORDS = {
    "java": frozenset("""
        abstract assert boolean break byte case catch char class const continue
        default do double else enum extends false final finally float for goto
        if implements import instanceof int interface long native new null
        package private protected public return short static strictfp super
        switch synchronized this throw throws transient true try void volatile
        while _
    """.split()),
    "cpp": frozenset("""
        alignas alignof and and_eq asm auto bitand bitor bool break case catch
        char char8_t char16_t char32_t class compl concept const consteval
        constexpr constinit const_cast continue co_await co_return co_yield
        decltype default delete do double dynamic_cast else enum explicit export
        extern false float for friend goto if inline int long mutable namespace
        new noexcept not not_eq nullptr operator or or_eq private protected
        public register reinterpret_cast requires return short signed sizeof
        static static_assert static_cast struct switch template this
        thread_local throw true try typedef typeid typename union unsigned using
        virtual void volatile wchar_t while xor xor_eq
    """.split()),
}

# Java words that may name a method, variable or field but not a type (JLS 17
# §3.8-3.9). They are left out of KEYWORDS, which would rename those.
JAVA_RESTRICTED_TYPE_NAMES = frozenset("permits record sealed var yield".split())
