"""CoNLL-U subset ingestion and serialization.

Only the ID, FORM and HEAD columns (1, 2 and 7) are consumed.  Comment
lines start with '#', a blank line ends a sentence, multiword range
lines ("3-4") and empty nodes ("8.1") are skipped.  HEAD 0 marks the
root.
"""

from __future__ import annotations

import unicodedata
from itertools import chain

from .errors import DeplenError, NonLeafPunctuationError, ParseError
from .tree import ROOT, DepTree


READ_CHARS = 1 << 16  # characters read_lines takes from the file at a time
LINE_BREAKS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines()'s, "\r" read as "\n"


def parse_conllu(text: str) -> list[DepTree]:
    """Parse CoNLL-U text into a list of dependency trees."""
    return list(iter_conllu(text.splitlines()))


def read_lines(path):
    """The lines of a UTF-8 file, as str.splitlines() gives them, read
    READ_CHARS characters at a time.  An undecodable byte raises the error
    of decoding the whole file, its position counted from the file's start.
    """
    with open(path, encoding="utf-8") as fh:
        rest = ""  # the last line read, when it may go on in the next chunk
        try:
            for chunk in iter(lambda: fh.read(READ_CHARS), ""):
                lines = (rest + chunk).splitlines()
                rest = "" if chunk[-1] in LINE_BREAKS else lines.pop()
                yield from lines
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                raw.read().decode("utf-8")
            raise
        if rest:
            yield rest


def iter_conllu(lines):
    """Parse CoNLL-U lines, without their line breaks, one tree at a time.

    Each line is checked as it comes, and a sentence's FORM and HEAD
    columns fill by ID.  Only a sentence whose IDs do not come as 1, 2, ...
    is read again, from its lines, the only ones kept, to sort it or to
    name its duplicate or missing ID.  A "# sent_id = ..." comment in a
    sentence's block gives its sent_id.
    """
    sent_no, block, forms, heads = 0, [], [], []  # the current sentence: lines, columns by ID - 1
    in_order, sent_id = True, None  # its IDs so far 1, 2, ...
    for line_no, line in enumerate(chain(lines, [""]), start=1):
        if not line or line.isspace():
            if forms:
                sent_no += 1
                if not in_order:
                    forms, heads = _sorted_columns(block, line_no - len(block), sent_no)
                try:
                    tree = DepTree(forms, heads, sent_id)
                except DeplenError as e:
                    raise type(e)("sentence %d: %s" % (sent_no, e)) from e
                yield tree
                forms, heads = [], []
            block, in_order, sent_id = [], True, None
            continue
        block.append(line)
        if line[0] == "#":
            key, eq, value = line[1:].partition("=")
            if eq and key.strip() == "sent_id":
                sent_id = value.strip()
            continue
        fields = line.split("\t", 7)
        if len(fields) < 7:
            raise ParseError("expected at least 7 tab-separated columns, got %d"
                             % len(fields), line=line_no)
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
            raise ParseError("malformed HEAD %r" % fields[6], line=line_no) from None
        if idx != len(forms) + 1:
            if idx < 1:
                raise ParseError("ID must be >= 1, got %d" % idx, line=line_no)
            in_order = False
        if head < 0:
            raise ParseError("HEAD must be >= 0, got %d" % head, line=line_no)
        if not fields[1]:
            raise ParseError("empty FORM", line=line_no)
        forms.append(fields[1])
        heads.append(head)


def _sorted_columns(block, start, sent_no):
    """Forms and heads by ID from a sentence's checked lines, block[0] at line start."""
    rows, first = {}, None  # ID: (form, head); the first token line
    for line_no, line in enumerate(block, start):
        fields = line.split("\t", 7)
        if fields[0][0] == "#" or "-" in fields[0] or "." in fields[0]:
            continue  # a comment, multiword range or empty node
        idx = int(fields[0])
        if idx in rows:
            raise ParseError("sentence %d: duplicate token ID %d" % (sent_no, idx),
                             line=line_no)
        rows[idx] = fields[1], int(fields[6])
        first = first or line_no
    if sorted(rows) != list(range(1, len(rows) + 1)):
        raise ParseError("sentence %d: token IDs are not consecutive from 1"
                         % sent_no, line=first)
    return [rows[i][0] for i in sorted(rows)], [rows[i][1] for i in sorted(rows)]


def to_conllu(trees) -> str:
    """Serialize trees back to the CoNLL-U subset (ID, FORM, HEAD).

    An empty (synthetic) form is written as char_length underscores, so
    character lengths survive a round trip.
    """
    blocks = []
    for tree in trees:
        lines = []
        for i, (form, length) in enumerate(zip(tree.forms, tree.char_lengths), 1):
            fields = ["_"] * 10
            fields[0] = str(i)
            fields[1] = form or "_" * length
            fields[6] = str(tree.head_of(i))
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
    drop = {i for i, form in enumerate(tree.forms, 1) if is_punctuation(form)}
    if not drop:
        return tree
    for i in sorted(drop):
        if tree.children(i):
            raise NonLeafPunctuationError("punctuation token %d (%r) has dependents"
                                          % (i, tree.forms[i - 1]))
    kept = [i for i in range(1, tree.n + 1) if i not in drop]
    if not kept:
        raise ParseError("sentence contains only punctuation")
    renum = dict(zip([ROOT] + kept, range(len(kept) + 1)))  # ROOT stays 0
    forms = [tree.forms[i - 1] for i in kept]
    lengths = None  # a form's own length: counted on first use
    if not all(forms):  # a synthetic token has only its length
        lengths = [tree.char_lengths[i - 1] for i in kept]
    return DepTree(forms, [renum[tree.head_column[i - 1]] for i in kept],
                   tree.sent_id, lengths)
