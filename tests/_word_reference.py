"""Checked word helpers that spell the mu and nu windows one step at a time.

The package builds those windows in ``invariants._mu_windows`` and
``_nu_windows`` with slices and a running parity; these helpers are the
independent spelling that ``test_windows_match_word_helpers`` compares them
with, and ``test_words`` pins their examples.
"""
from horseshoe.words import _check_word, _flip, is_even


def flip_first(w: str) -> str:
    """The word with its first symbol changed."""
    _check_word(w, allow_empty=False)
    return _flip(w[0]) + w[1:]


def append_even(w: str) -> str:
    """w extended on the right by the symbol that makes the result even."""
    _check_word(w)
    return w + ("0" if is_even(w) else "1")


def prepend_even(w: str) -> str:
    """w extended on the left by the symbol that makes the result even."""
    _check_word(w)
    return ("0" if is_even(w) else "1") + w


def even_initial_subwords(w: str) -> list[str]:
    """Nonempty even prefixes of w, in increasing length order."""
    _check_word(w)
    return [w[:k] for k in range(1, len(w) + 1) if is_even(w[:k])]


def even_final_subwords(w: str) -> list[str]:
    """Nonempty even suffixes of w, in increasing length order."""
    _check_word(w)
    return [w[k:] for k in range(len(w) - 1, -1, -1) if is_even(w[k:])]
