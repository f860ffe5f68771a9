"""Plain-text tensor files.

A tensor file is a text document with two fields::

    dims = [m, n, p]
    data = [a_111, a_121, ..., a_mnp]

`data` lists the entries slice by slice, row-major within each slice:
``data[(k-1)*m*n + (i-1)*n + (j-1)]`` is the (i, j, k) entry (1-based).
Values are written with full round-trip precision, so write/read is
bit-exact, and in at most 24 characters each.  Entries are ASCII decimal
numerals: ``int()`` and ``float()`` syntax without digit-group underscores or
non-ASCII digits, and at most 4096 characters long as the grammar below reads
them; a longer one is not a number, even one ``float()`` would take, such as
``0.`` followed by 5,000 zeros and a ``1``.  Files are UTF-8,
and a leading byte-order mark is skipped; a file that is not UTF-8 is a
format error.  Blank lines and ``#`` comments are ignored; a bracketed list
may span any number of lines, and reading and writing take time linear in the
file size.

Lines end where ``str.splitlines`` ends them.  A field runs from its
``key =`` line to the first line whose text, comment cut, ends with ``]``.
One list grammar serves both fields: the field's lines, each stripped, are
joined by one space, and the list entries are the comma-separated parts
between the outer brackets; `dims` takes integers, `data` finite numbers.

Memory is bounded by the tensor, not by its text.  A write formats the list
4096 entries at a time, copying at most that many entries.  A read takes
every input, pipes included, once, 64 Ki characters at a time.  Entries are
converted in batches: once 4 Ki characters of them have arrived since the
last batch, everything up to the last comma is converted and the rest
carried over.  So a batch is at most one piece plus what was held before it:
under 4 Ki characters, and the entry under way.  The read sees the text as
the grammar joins it: each line with its leading and trailing blanks dropped
and one space before it, and of a run of blanks that spans pieces, or that
comes before a ``]`` that may end the field, at most 4097 characters, as more
make an entry too long either way.  So the entry under way is held stripped,
in at most 8 Ki characters: once it is longer than 4096, it is refused and no
more of it is held.  A 2,000,000-character entry peaks at 0.47 MiB
(tracemalloc).  For short entries a batch is some 20,000 entry strings at
once: a `dims` that lists 100,000 entries ``40`` (a 0.38 MiB file) peaks at
about 1.45 MiB, as does one four times as long.

A field keeps its converted batches while its count stays within what it
can take, and only counts the entries after that: 3 for `dims`; for `data`,
m*n*p after a valid `dims`, none after an invalid one, and every entry when
`data` comes first.  The batches are joined once, after the count is
checked, and then laid out as the result, so a read peaks at about twice the
tensor, or at the 0.7 MiB of a batch for a smaller one (tracemalloc): a
32x32x32 tensor (0.25 MiB) at 0.70 MiB, 512x16x16 (1 MiB) at 2.03 MiB and
64x64x64 (2 MiB) at 4.05 MiB.  400,000 `data` entries after
``dims = [1, 1, 1]``, or after ``[0, 1, 1]``, peak at 1.32 MiB.  The bound
holds also when a field runs on past its line, as a `dims` that lacks its
``]`` runs on through `data`.

A malformed file is reported from that same pass, with its line number and,
for a bad list entry, the entry's index and text.  A message quotes at most
80 characters of a line that is no field, of an unknown field's name,
stripped, or of a bad list entry, and marks a cut with ``...`` after the
quote; the read holds no more of such a line than that and one piece, so a
2 MB line with no ``=`` peaks at 0.32 MiB (tracemalloc).
The first fault the pass meets is the one reported: a line that is no
`key = value` field, or names an unknown or repeated one, at that line; a
byte that is not UTF-8 when the decoder, which reads up to 64 Ki characters
ahead, reaches it; the other faults after the last line.
"""

import contextlib
import math

import numpy as np

from .core import as_tensor

__all__ = ["TensorFormatError", "read_tensor", "write_tensor"]

# Entries formatted per write, characters of text read at a time, and
# characters of list entries gathered before they are converted.  They bound
# the memory a write or read takes beyond the tensor itself.
_WRITE_CHUNK = 4096
_READ_CHUNK = 1 << 16
_CONVERT_CHUNK = 1 << 12
# Characters of a line, of a field's name, or of a list entry that a message
# quotes.
_SHOWN = 80
# Characters of a list entry, as the grammar reads it, beyond which it is not
# a number.  A written entry has at most 24, as "-2.2250738585072014e-308".
_LONGEST_ENTRY = 4096

# The line boundaries of str.splitlines.  ("\r" never reaches the parser:
# text-mode reads translate it.)
_BREAKS = "\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TensorFormatError(ValueError):
    """A tensor file violates the dims/data format."""


def _plain(text):
    """True if `text` is ASCII without "_" and no comma-separated part of it
    is longer than `_LONGEST_ENTRY`.  int() and float() also read Python-only
    numerals, with digit-group underscores or non-ASCII digits; the format
    takes ASCII ones only, and none longer than `_LONGEST_ENTRY`.  Each window
    of `_LONGEST_ENTRY` + 1 characters from a part's start is searched for
    its last comma, where the next window starts: a few searches a batch,
    where measuring every part would take a Python step per entry."""
    if not text.isascii() or "_" in text:
        return False
    start = 0
    while len(text) - start > _LONGEST_ENTRY:
        start = text.rfind(",", start, start + _LONGEST_ENTRY + 1) + 1
        if not start:
            return False
    return True


def _shown(text):
    """`text` quoted for a message: cut to `_SHOWN` characters, and marked
    with "..." after the quote where it was cut."""
    return repr(text) if len(text) <= _SHOWN else repr(text[:_SHOWN]) + "..."


def _lines(fh):
    """Yield (text, ends_line) for the lines str.splitlines would split the
    file into, in pieces of at most `_READ_CHUNK` characters without breaks,
    as the grammar joins them: a line's leading and trailing blanks dropped,
    and each non-blank line started with the one space that joins it to the
    line before.  So a piece is empty or ends in a non-blank character.  The
    blanks that end a piece are held back until the line goes on, at most
    `_LONGEST_ENTRY` + 1 of them: more make an entry too long either way, and
    each quote and name takes fewer."""
    held = None  # the blanks held back; None until the line has a non-blank
    for piece in iter(lambda: fh.read(_READ_CHUNK), ""):
        for part in piece.splitlines(keepends=True):
            text = part.rstrip()  # a break is a blank too
            if text:
                text = " " + text.lstrip() if held is None else held + text
            ends_line = part[-1] in _BREAKS
            if ends_line:
                held = None
            elif text:  # the piece's last part, and its line goes on
                held = part[len(part.rstrip()) :][: _LONGEST_ENTRY + 1]
            elif held is not None:
                held = (held + part)[: _LONGEST_ENTRY + 1]
            yield text, ends_line
    # End a last line that has no break; after one that has, this adds a
    # blank line, which the grammar ignores.
    yield "", True


class _Entries:
    """One field's list, its entries converted a batch at a time as the
    field's text arrives.

    `dims` entries are integers, `data` entries finite floats.  Each field
    keeps its converted batches in `parts` while its count stays within
    `limit`, and only counts the entries after that: 3 for `dims`; for
    `data`, m*n*p after a valid `dims`, none after an invalid one, and every
    entry when `data` comes first.  `data`'s batches are joined once, after
    `_read` has checked the count, so the read peaks at about twice the
    tensor there.  `fault` holds the first fault in the order the whole-text
    grammar reports them, `rank` being its place: 0, not a bracketed list;
    1, an empty entry; 2, the first entry that is not a numeral of its kind
    or not finite; then, for `dims` once it is closed, its arity and its
    sign.
    """

    def __init__(self, key, dims):
        self.key = key
        self.carry = self.fault = self.rank = None
        self.parts, self.count, self.last = [], 0, ""  # last: last non-blank character
        if key == "dims":
            self.kind, self.dtype, self.noun, self.limit = int, object, "an integer", 3
        else:
            self.kind, self.dtype, self.noun = float, float, "a number"
            self.limit = math.inf  # `data` first
            if dims is not None:
                self.limit = 0 if dims.fault else math.prod(dims.joined())

    def feed(self, text, ends_line):
        """Take the next piece of the field's text as `_lines` yields it,
        comment cut; True once the field has ended: its line ended, its last
        character a "]"."""
        if text:
            self.last = text[-1]
        if self.carry is None:  # before the "["
            text = text.lstrip()
            if not text:
                return False
            if text[0] != "[":
                self.fault, self.rank = f"field {self.key!r} must be a bracketed list", 0
            self.carry, self.held, text = [], 0, text[1:]
        ends = ends_line and self.last == "]"
        if self.rank != 0 and text:
            # `carry` holds the pieces not taken yet, `held` characters of them
            # new since the last batch.  Once `_CONVERT_CHUNK` are, and the
            # field goes on, they are taken up to the last comma, and the
            # entry under way is kept as `_kept` bounds it; so each piece is
            # joined a bounded number of times and a read stays linear.
            self.carry.append(text)
            self.held += len(text)
            if self.held >= _CONVERT_CHUNK and not ends:
                body, comma, tail = "".join(self.carry).rpartition(",")
                if comma:
                    self._take(body)
                self.carry, self.held = [self._kept(tail)], 0
        if not ends:
            return False
        if self.rank != 0:
            tail = "".join(self.carry)[:-1]  # the entry before the "]"
            if self.count or tail.strip():
                self._take(tail)
        if self.key == "dims" and self.rank is None:
            if self.count != 3:
                self.fault = f"'dims' must have exactly 3 entries, got {self.count}"
            elif min(shape := list(self.joined())) < 1:
                self.fault = f"'dims' entries must be positive, got {shape}"
        return True

    def _kept(self, tail):
        """`tail`, the text so far of the entry under way, in at most
        2 * `_LONGEST_ENTRY` + 2 characters that read as it does once the
        rest of the field follows.

        An entry already longer than `_LONGEST_ENTRY` as the grammar reads it
        is refused, and "0" stands for it until it ends.  Else its leading
        blanks are dropped.  A "]" that ends the text so far ends the field if
        its line ends next, and is then no part of the entry: so the entry is
        measured before the blanks that precede the "]", and at most
        `_LONGEST_ENTRY` + 1 of them are kept, as more text on that line makes
        the entry too long either way.
        """
        if len(tail) <= _LONGEST_ENTRY:
            return tail
        bracket = "]" if tail.endswith("]") else ""
        tail = tail.lstrip().removesuffix(bracket)
        entry = tail.rstrip()
        if len(entry) > _LONGEST_ENTRY:
            if self.rank is None:
                self.fault = (f"field {self.key!r} entry {self.count + 1} is not "
                              f"{self.noun}: {_shown(entry)}")
                self.rank = 2
            return "0" + bracket
        return entry + tail[len(entry) :][: _LONGEST_ENTRY + 1] + bracket

    def _take(self, body):
        tokens = body.split(",")
        start, self.count = self.count, self.count + len(tokens)
        valid = False
        if self.rank is None and _plain(body):
            try:
                values = np.fromiter(map(self.kind, tokens), self.dtype, len(tokens))
            except ValueError:
                pass
            else:
                valid = self.kind is int or np.isfinite(values).all()
        if not valid:
            if "" in map(str.strip, tokens):
                self.fault, self.rank = f"field {self.key!r} has an empty list entry", 1
            if self.rank is not None:
                return
            values = np.empty(len(tokens), self.dtype)
            for i, tok in enumerate(map(str.strip, tokens)):
                values[i], what = np.nan, self.noun
                if _plain(tok):
                    with contextlib.suppress(ValueError):
                        values[i], what = self.kind(tok), "finite"
                if not abs(values[i]) < np.inf:  # true of NaN and ±inf, never of an int
                    self.fault = (f"field {self.key!r} entry {start + i + 1} is not {what}: "
                                  f"{_shown(tok)}")
                    self.rank = 2
                    return
        if self.count <= self.limit:
            self.parts.append(values)

    def joined(self):
        """The kept entries as one array, which replaces their batches."""
        self.parts = [np.concatenate(self.parts)]
        return self.parts[0]


def _read(fh, source):
    """Parse a tensor file in one pass, line by line as `_lines` yields it."""
    starts, entries = {}, {}  # field -> the line it starts on, and its list
    key = None
    lineno, comment, head = 1, False, ""
    for text, ends_line in _lines(fh):
        if comment:
            cut = ""
        else:
            cut, hash_, _ = text.partition("#")
            if hash_:  # the blanks before it end the line
                cut, comment = cut.rstrip(), True
        if key is None:
            # `head` is the line so far, from its first piece whose comment-cut
            # text is not blank, cut to `_SHOWN` + 2 characters: the space
            # `_lines` starts it with, and one more than a quote takes.  No
            # piece before the one whose comment-cut text holds "=" holds "#"
            # or "=", so the field's name is `head` and that text before "=".
            # Only the latter is stripped: a cut `head` may end in a blank
            # that more of the name follows.
            if "=" in cut:
                name, _, cut = cut.partition("=")
                key = (head + name.rstrip())[1:]
                if key not in ("dims", "data"):
                    raise TensorFormatError(
                        f"{source}:{lineno}: unknown field {_shown(key)} "
                        "(expected 'dims' or 'data')"
                    )
                if key in starts:
                    raise TensorFormatError(f"{source}:{lineno}: duplicate field {key!r}")
                starts[key] = lineno
                entries[key] = _Entries(key, entries.get("dims"))
            elif head or cut:
                head = (head + text)[: _SHOWN + 2]
                if ends_line:
                    raise TensorFormatError(
                        f"{source}:{lineno}: expected 'key = value', got {_shown(head[1:])}"
                    )
        if key is not None and entries[key].feed(cut, ends_line):
            key = None
        if ends_line:
            lineno += 1
            comment, head = False, ""
    if key is not None:
        raise TensorFormatError(
            f"{source}:{starts[key]}: field {key!r} has an unterminated list"
        )
    for required in ("dims", "data"):
        if required not in starts:
            raise TensorFormatError(f"{source}: missing field {required!r}")
    for key in ("dims", "data"):
        if entries[key].fault is not None:
            raise TensorFormatError(f"{source}:{starts[key]}: {entries[key].fault}")
    m, n, p = entries["dims"].joined()
    data = entries["data"]
    if data.count != m * n * p:
        raise TensorFormatError(
            f"{source}:{starts['data']}: 'data' has {data.count} entries, "
            f"expected m*n*p = {m * n * p}"
        )
    # The entries list the slices one by one: slice-major, then C order.
    return data.joined().reshape(p, m, n).transpose(1, 2, 0).copy()


def read_tensor(path):
    """Read a tensor file; raises TensorFormatError with a line diagnostic."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            return _read(fh, str(path))
    except UnicodeDecodeError as exc:
        # The decoder's byte position counts from its buffer, not the file.
        raise TensorFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_tensor(path, a):
    """Write `a` with full round-trip precision, in at most 24 characters an
    entry: a float's shortest repr."""
    a = as_tensor(a)
    m, n, p = a.shape
    sep = ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dims = [{m}, {n}, {p}]\ndata = [")
        # A list's repr is "[" + ", ".join(map(repr, items)) + "]", and a
        # float's repr is its shortest round-trip form; so the chunks joined
        # by ", " are the whole list's repr.
        for chunk in np.nditer(a.transpose(2, 0, 1), flags=["external_loop", "buffered"],
                               order="C", buffersize=_WRITE_CHUNK):
            fh.write(sep + repr(chunk.tolist())[1:-1])
            sep = ", "
        fh.write("]\n")
