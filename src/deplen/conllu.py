"""CoNLL-U subset ingestion and serialization.

Only the ID, FORM and HEAD columns (1, 2 and 7) are consumed.  Comment
lines start with '#', a blank line ends a sentence, multiword range
lines ("3-4") and empty nodes ("8.1") are skipped.  HEAD 0 marks the
root.
"""

from __future__ import annotations

import unicodedata

from .errors import DeplenError, NonLeafPunctuationError, ParseError
from .tree import DepTree, Token, build_tree


def parse_conllu(text: str) -> list[DepTree]:
    """Parse CoNLL-U text into a list of dependency trees."""
    trees = []
    rows = []  # (index, form, head, line_no) for the current sentence

    def flush():
        if not rows:
            return
        sent_no = len(trees) + 1
        seen = {}
        for idx, _, _, line_no in rows:
            if idx in seen:
                raise ParseError(
                    "sentence %d: duplicate token ID %d" % (sent_no, idx),
                    line=line_no,
                )
            seen[idx] = line_no
        ids = sorted(seen)
        if ids != list(range(1, len(ids) + 1)):
            raise ParseError(
                "sentence %d: token IDs are not consecutive from 1" % sent_no,
                line=rows[0][3],
            )
        tokens = [Token(idx, form) for idx, form, _, _ in rows]
        heads = {idx: head for idx, _, head, _ in rows}
        try:
            trees.append(build_tree(tokens, heads))
        except DeplenError as e:
            raise type(e)("sentence %d: %s" % (sent_no, e)) from e
        rows.clear()

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 7:
            raise ParseError(
                "expected at least 7 tab-separated columns, got %d"
                % len(fields),
                line=line_no,
            )
        tid = fields[0]
        if "-" in tid or "." in tid:
            continue  # multiword range or empty node
        try:
            idx = int(tid)
        except ValueError:
            raise ParseError("malformed ID %r" % tid, line=line_no) from None
        try:
            head = int(fields[6])
        except ValueError:
            raise ParseError(
                "malformed HEAD %r" % fields[6], line=line_no
            ) from None
        if idx < 1:
            raise ParseError("ID must be >= 1, got %d" % idx, line=line_no)
        if head < 0:
            raise ParseError(
                "HEAD must be >= 0, got %d" % head, line=line_no
            )
        if not fields[1]:
            raise ParseError("empty FORM", line=line_no)
        rows.append((idx, fields[1], head, line_no))
    flush()
    return trees


def to_conllu(trees) -> str:
    """Serialize trees back to the CoNLL-U subset (ID, FORM, HEAD).

    An empty (synthetic) form is written as char_length underscores, so
    character lengths survive a round trip.
    """
    blocks = []
    for tree in trees:
        lines = []
        for tok in tree.tokens:
            fields = ["_"] * 10
            fields[0] = str(tok.index)
            fields[1] = tok.form or "_" * tok.char_length
            fields[6] = str(tree.head_of(tok.index))
            lines.append("\t".join(fields))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def is_punctuation(form: str) -> bool:
    """True iff the form is non-empty and all characters are punctuation."""
    form = unicodedata.normalize("NFC", form)
    return bool(form) and all(
        unicodedata.category(c).startswith("P") for c in form
    )


def drop_punctuation(tree: DepTree) -> DepTree:
    """Remove punctuation-only tokens, reindexing the rest.

    Punctuation must be a leaf; a punctuation token with dependents
    raises NonLeafPunctuationError.  A sentence of nothing but
    punctuation is rejected.
    """
    drop = {t.index for t in tree.tokens if is_punctuation(t.form)}
    if not drop:
        return tree
    for i in sorted(drop):
        if tree.children(i):
            raise NonLeafPunctuationError(
                "punctuation token %d (%r) has dependents"
                % (i, tree.token(i).form)
            )
    kept = [t for t in tree.tokens if t.index not in drop]
    if not kept:
        raise ParseError("sentence contains only punctuation")
    renum = {t.index: k for k, t in enumerate(kept, start=1)}
    tokens = [
        Token(renum[t.index], t.form, t.char_length) for t in kept
    ]
    heads = {}
    for t in kept:
        h = tree.head_of(t.index)
        heads[renum[t.index]] = renum[h] if h != 0 else 0
    return build_tree(tokens, heads)
