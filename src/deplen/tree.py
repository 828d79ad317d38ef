"""Dependency trees and linear arrangements of their tokens.

A sentence is a rooted tree over tokens 1..n.  The head map sends every
token index to the index of its head, with 0 standing for the root.  A
Linearization assigns the tokens to positions 1..n; the order the tokens
came in (index order) is the observed one.

A DepTree stores its words as columns by index - 1 (forms, char_lengths,
head_column) and builds its Tokens on first read.  Subtree sizes are
counted once, in one pass without recursion; descendants are walked from
the children on each call.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import CycleError, DisconnectedError, MultiRootError

ROOT = 0  # head value marking the root token


class Unit(Enum):
    """Length unit for dependency distances."""

    WORDS = "words"
    CHARACTERS = "chars"


def char_count(form: str) -> int:
    """Number of characters of a form after NFC normalization."""
    if form.isascii():  # NFC leaves ASCII unchanged
        return len(form)
    return len(unicodedata.normalize("NFC", form))


@dataclass(frozen=True)
class Token:
    """A word: 1-based index in the given order, surface form, length.

    char_length defaults to the NFC character count of the form.
    Synthetic tokens may use an empty form with an explicit char_length.
    """

    index: int
    form: str
    char_length: int | None = None

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("token index must be >= 1, got %d" % self.index)
        if self.char_length is None:
            if not self.form:
                raise ValueError("empty form requires an explicit char_length")
            object.__setattr__(self, "char_length", char_count(self.form))
        else:
            if self.char_length < 1:
                raise ValueError("char_length must be >= 1")
            if self.form and self.char_length != char_count(self.form):
                raise ValueError(
                    "char_length %d disagrees with form %r"
                    % (self.char_length, self.form)
                )


class DepTree:
    """Immutable rooted dependency tree over tokens 1..n."""

    sent_id = None  # the "# sent_id" comment of a parsed sentence, if any

    def __init__(self, tokens, heads):
        tokens = sorted(tokens, key=lambda t: t.index)
        if not tokens:
            raise ValueError("a tree needs at least one token")
        n = len(tokens)
        if [t.index for t in tokens] != list(range(1, n + 1)):
            raise ValueError("token indices must be exactly 1..n")
        try:
            heads = [int(heads[i]) for i in range(1, n + 1)]
        except KeyError as e:
            raise ValueError("no head given for token %s" % e) from e
        self._link(heads)
        self.forms = tuple(t.form for t in tokens)
        self.char_lengths = tuple(t.char_length for t in tokens)  # may be synthetic

    @classmethod
    def _trusted(cls, forms, heads, sent_id=None, char_lengths=None):
        """A tree over columns the caller has checked, as parse_conllu does.

        Token i has forms[i - 1] and the int head heads[i - 1]; only the
        checks of _link run.  char_lengths, if given, must agree with the
        forms; if not, they are counted from the forms on first use.
        """
        tree = cls.__new__(cls)
        tree._link(heads)
        tree.forms, tree.sent_id = tuple(forms), sent_id
        if char_lengths is not None:
            tree.char_lengths = tuple(char_lengths)
        return tree

    def _link(self, heads):
        """Check and keep the head column: heads[i - 1] is token i's head."""
        n = len(heads)
        roots = heads.count(ROOT)
        if roots != 1:
            raise MultiRootError("expected exactly one root, found %d" % roots)
        for i, h in enumerate(heads, 1):
            if h == i:
                raise CycleError("token %d is its own head" % i)
            if not 0 <= h <= n:
                raise DisconnectedError("token %d names head %d, outside 1..%d"
                                        % (i, h, n))
        # Every token must reach the root by following heads.  With one
        # root and all heads in range, a walk can only fail on a cycle, by
        # coming back to a token it has met; earlier walks reached the root.
        head, walk = [ROOT] + heads, [-1] + [0] * n  # the walk that met each token
        for start in range(1, n + 1):
            v = start
            while not walk[v]:
                walk[v], v = start, head[v]
            if walk[v] == start:
                raise CycleError("cycle through token %d" % v)
        self.root = heads.index(ROOT) + 1
        self.head_column = tuple(heads)

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        columns = enumerate(zip(self.forms, self.char_lengths), 1)
        return tuple(Token(i, form, length) for i, (form, length) in columns)

    @cached_property
    def char_lengths(self) -> tuple[int, ...]:  # a parsed tree's, on first use
        return tuple(map(char_count, self.forms))

    @property
    def heads(self) -> dict[int, int]:
        return dict(enumerate(self.head_column, 1))

    @property
    def n(self) -> int:
        return len(self.head_column)

    def token(self, index: int) -> Token:
        return self.tokens[index - 1]

    def head_of(self, index: int) -> int:
        if not 1 <= index <= self.n:
            raise KeyError(index)
        return self.head_column[index - 1]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(head, dependent) pairs, ordered by dependent index."""
        return tuple([(h, d) for d, h in enumerate(self.head_column, 1) if h != ROOT])

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def _children(self) -> dict[int, tuple[int, ...]]:
        out = [[] for _ in range(self.n + 1)]  # by head; out[ROOT] holds the root
        for d, h in enumerate(self.head_column, 1):
            out[h].append(d)
        return {i: tuple(out[i]) for i in range(1, self.n + 1)}

    def children(self, index: int) -> tuple[int, ...]:
        return self._children[index]

    def descendants(self, index: int) -> frozenset[int]:
        """Proper descendants of a token (the token itself excluded)."""
        out = list(self._children[index])
        for v in out:
            out.extend(self._children[v])
        return frozenset(out)

    @cached_property
    def _sizes(self) -> dict[int, int]:
        order = [self.root]  # top-down; in reverse, dependents come first
        for v in order:
            order.extend(self._children[v])
        size = dict.fromkeys(order, 1)
        for v in order[:0:-1]:  # each token but the root, before its head
            size[self.head_column[v - 1]] += size[v]
        return size

    def subtree_size(self, index: int) -> int:
        return self._sizes[index]

    def widths(self, unit: Unit) -> tuple[int, ...]:
        """Each token's width in the unit, by index - 1: the unit's one definition.

        A token is 1 wide in words, and its length plus one space wide in
        characters.  Placed after tokens of total width s, it has its
        doubled center at 2s + w, w its own width.
        """
        if unit is Unit.CHARACTERS:
            return tuple([c + 1 for c in self.char_lengths])
        return (1,) * self.n

    def identity_linearization(self) -> "Linearization":
        return Linearization(tuple(range(1, self.n + 1)))


def build_tree(tokens, heads) -> DepTree:
    """Validate tokens plus a head map and return the tree."""
    return DepTree(tokens, heads)


@dataclass(frozen=True)
class Linearization:
    """A linear order: seq[p-1] is the token index at position p."""

    seq: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(self.seq)
        object.__setattr__(self, "seq", seq)
        if sorted(seq) != list(range(1, len(seq) + 1)):
            raise ValueError("sequence is not a permutation of 1..n")

    @classmethod
    def identity(cls, n: int) -> "Linearization":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_positions(cls, positions: dict[int, int]) -> "Linearization":
        if sorted(positions.values()) != list(range(1, len(positions) + 1)):
            raise ValueError("positions are not exactly 1..n")
        seq = tuple(t for t, _ in sorted(positions.items(), key=lambda kv: kv[1]))
        return cls(seq)

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {t: p for p, t in enumerate(self.seq, start=1)}

    @property
    def n(self) -> int:
        return len(self.seq)

    def position(self, token: int) -> int:
        return self._pos[token]

    def positions(self) -> dict[int, int]:
        return dict(self._pos)

    def reverse(self) -> "Linearization":
        return Linearization(tuple(reversed(self.seq)))


def is_projective(tree: DepTree, lin: Linearization) -> bool:
    """True iff every edge spans only descendants of its head.

    For each edge (h, d), any token strictly between h and d in the
    linear order must lie in h's subtree.
    """
    pos = lin.positions()
    for h, d in tree.edges:
        lo, hi = sorted((pos[h], pos[d]))
        inside = tree.descendants(h)
        for p in range(lo + 1, hi):
            t = lin.seq[p - 1]
            if t != h and t not in inside:
                return False
    return True


def random_tree(n: int, rng, char_length: int = 1) -> DepTree:
    """Uniform random rooted tree on n labeled tokens.

    Draws a random root and a random parent array, rejecting draws that
    contain cycles, so every rooted labeled tree is equally likely.
    Tokens are synthetic, all with the given char_length.
    """
    tokens = [Token(i, "", char_length) for i in range(1, n + 1)]
    if n == 1:
        return build_tree(tokens, {1: ROOT})
    while True:
        root = rng.randrange(1, n + 1)
        heads = {root: ROOT}
        for i in range(1, n + 1):
            if i == root:
                continue
            h = rng.randrange(1, n)
            heads[i] = h if h < i else h + 1
        try:
            return build_tree(tokens, heads)
        except CycleError:
            continue
