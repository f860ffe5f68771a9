"""Plain-text tensor files.

A tensor file is a text document with two fields::

    dims = [m, n, p]
    data = [a_111, a_121, ..., a_mnp]

`data` lists the entries slice by slice, row-major within each slice:
``data[(k-1)*m*n + (i-1)*n + (j-1)]`` is the (i, j, k) entry (1-based).
Values are written with full round-trip precision, so write/read is
bit-exact.  Entries are ASCII decimal numerals: ``int()`` and ``float()``
syntax without digit-group underscores or non-ASCII digits.  Files are UTF-8,
and a leading byte-order mark is skipped; a file that is not UTF-8 is a
format error.  Blank lines and ``#`` comments are ignored; a bracketed list
may span any number of lines, and reading and writing take time linear in the
file size.

Lines end where ``str.splitlines`` ends them.  A field runs from its
``key =`` line to the first line whose text, comment cut, ends with ``]``.
Its lines, each stripped, are joined by one space, and the list entries are
the comma-separated parts between the outer brackets.

Memory is bounded by the tensor, not by its text.  A write formats the list
4096 entries at a time, copying at most that many entries.  A read takes
every input, pipes included, once, 64 Ki characters at a time, and converts
the entries straight into the result array (into pieces joined at the end
when `data` comes before `dims`).  Beside that piece it holds fewer than 4 Ki
characters of entries not yet converted, and all of an entry that runs
longer.  A malformed file is reported from that same pass, with its line
number and, for a bad list entry, the entry's index and text.  The first
fault the pass meets is the one reported: a line that is no `key = value`
field, or names an unknown or repeated one, at that line; a byte that is not
UTF-8 when the decoder, which reads a few KiB ahead, reaches it; the other
faults after the last line.
"""

import numpy as np

from .core import as_tensor

__all__ = ["TensorFormatError", "read_tensor", "write_tensor"]

# Entries formatted per write, characters of text read at a time, and
# characters of list entries gathered before they are converted.  They bound
# the memory a write or read takes beyond the tensor itself.
_WRITE_CHUNK = 4096
_READ_CHUNK = 1 << 16
_CONVERT_CHUNK = 1 << 12

# The line boundaries of str.splitlines.  ("\r" never reaches the parser:
# text-mode reads translate it.)
_BREAKS = "\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TensorFormatError(ValueError):
    """A tensor file violates the dims/data format."""


def _numeral(convert, tok):
    # int() and float() also read Python-only numerals, with digit-group
    # underscores or non-ASCII digits; the format takes ASCII ones only.
    if "_" in tok or not tok.isascii():
        raise ValueError(tok)
    return convert(tok)


def _parse_ints(tokens, source, lineno):
    out = []
    for idx, tok in enumerate(tokens):
        try:
            out.append(_numeral(int, tok))
        except ValueError:
            raise TensorFormatError(
                f"{source}:{lineno}: field 'dims' entry {idx + 1} is not an "
                f"integer: {tok!r}"
            ) from None
    return out


def _split_list(body, key, source, lineno):
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise TensorFormatError(
            f"{source}:{lineno}: field {key!r} must be a bracketed list"
        )
    inner = body[1:-1].strip()
    if not inner:
        return []
    tokens = [tok.strip() for tok in inner.split(",")]
    if any(not tok for tok in tokens):
        raise TensorFormatError(
            f"{source}:{lineno}: field {key!r} has an empty list entry"
        )
    return tokens


def _dims(text, source, lineno):
    """The three positive sides listed by the text of a `dims` field."""
    dims = _parse_ints(_split_list(text, "dims", source, lineno), source, lineno)
    if len(dims) != 3:
        raise TensorFormatError(
            f"{source}:{lineno}: 'dims' must have exactly 3 entries, "
            f"got {len(dims)}"
        )
    if min(dims) < 1:
        raise TensorFormatError(
            f"{source}:{lineno}: 'dims' entries must be positive, got {dims}"
        )
    return dims


def _segments(fh):
    """Yield (text, ends_line) for the lines str.splitlines would split the
    file into, in pieces of at most `_READ_CHUNK` characters without breaks."""
    for piece in iter(lambda: fh.readline(_READ_CHUNK), ""):
        for part in piece.splitlines(keepends=True):
            ends_line = part[-1] in _BREAKS
            yield (part[:-1] if ends_line else part), ends_line
    # End a last line that has no break; after one that has, this adds a
    # blank line, which the grammar ignores.
    yield "", True


class _Entries:
    """The `data` list, converted a batch of entries at a time as its text
    arrives.

    The values go straight into `out` when `dims` came first, into `parts`
    when it did not, and nowhere when `dims` is too large to allocate: the
    count then differs from it.  `fault` holds the first fault in the order
    a whole list reports them, `rank` being its place: 0, not a bracketed
    list; 1, an empty entry; 2, the first entry that is not a number or not
    finite.
    """

    def __init__(self, dims):
        self.out = self.parts = self.carry = self.fault = self.rank = None
        self.count = 0  # entries taken
        if dims is None:
            self.parts = []
        else:
            try:
                self.out = np.empty(dims)
            except (MemoryError, ValueError):  # ValueError: too large to index
                pass

    def feed(self, text):
        """Take the next piece of the field's text."""
        if self.carry is None:  # before the "["
            text = text.lstrip()
            if not text.startswith("["):
                self.fault, self.rank = "must be a bracketed list", 0
            self.carry, self.held, text = [], 0, text[1:]
        if self.rank != 0:
            # `carry` holds the pieces not taken yet, `held` characters; they
            # are taken up to the last comma once `_CONVERT_CHUNK` are held,
            # so each piece is joined at most twice and a read stays linear.
            self.carry.append(text)
            self.held += len(text)
            if self.held >= _CONVERT_CHUNK and "," in text:
                body, _, tail = "".join(self.carry).rpartition(",")
                self._take(body)
                self.carry, self.held = [tail], len(tail)

    def close(self):
        """Take the entry before the field's last character, its "]"."""
        last = "".join(self.carry)[:-1]
        if self.count or last.strip():
            self._take(last)

    def _take(self, body):
        tokens = body.split(",")
        start, self.count = self.count, self.count + len(tokens)
        if self.rank == 1:
            return
        values = None
        if self.rank is None and body.isascii() and "_" not in body:
            try:
                values = np.fromiter(map(float, tokens), float, len(tokens))
            except ValueError:
                pass
        if values is None or not np.isfinite(values).all():
            values = np.empty(len(tokens))
            for i, tok in enumerate(tokens):
                tok = tok.strip()
                if not tok:
                    self.fault, self.rank = "has an empty list entry", 1
                    return
                if self.rank is None:
                    what = "finite"
                    try:
                        values[i] = _numeral(float, tok)
                    except ValueError:
                        values[i], what = np.nan, "a number"
                    if not np.isfinite(values[i]):
                        self.fault = f"entry {start + i + 1} is not {what}: {tok!r}"
                        self.rank = 2
        if self.rank is not None:
            return
        if self.parts is not None:
            self.parts.append(values)
        elif self.out is not None and self.count <= self.out.size:
            self.out.transpose(2, 0, 1).flat[start : self.count] = values

    def tensor(self, m, n, p):
        """The (m, n, p) tensor of the entries, once their count is m*n*p."""
        if self.parts is None:
            if self.out is None:
                raise MemoryError(f"cannot allocate a tensor of shape {(m, n, p)}")
            return self.out
        values, self.parts = np.concatenate(self.parts), None
        return values.reshape(p, m, n).transpose(1, 2, 0).copy()


def _read(fh, source):
    """Parse a tensor file in one pass, line by line as `_segments` cuts it."""
    starts = {}  # field -> the line it starts on
    key = dims = dims_fault = entries = None
    lineno, comment, started, raw, pending = 1, False, False, [], ""
    for text, ends_line in _segments(fh):
        if comment:
            cut = ""
        else:
            cut, hash_, _ = text.partition("#")
            comment = bool(hash_)
        if key is None:
            # The pieces of the line from its first non-blank one.  No piece
            # before the one whose comment-cut text holds "=" holds "#" or "=".
            if raw or cut.strip():
                raw.append(text)
            if "=" in cut:
                name, _, cut = "".join(raw).partition("#")[0].partition("=")
                key = name.strip()
                if key not in ("dims", "data"):
                    raise TensorFormatError(
                        f"{source}:{lineno}: unknown field {key!r} "
                        "(expected 'dims' or 'data')"
                    )
                if key in starts:
                    raise TensorFormatError(f"{source}:{lineno}: duplicate field {key!r}")
                starts[key], field = lineno, []
                if key == "data" and dims_fault is None:
                    entries = _Entries(dims)
            elif ends_line and raw:
                raise TensorFormatError(
                    f"{source}:{lineno}: expected 'key = value', got {''.join(raw).strip()!r}"
                )
        if key is not None:
            # The field's text is its lines, each stripped, joined by one
            # space; trailing blanks wait in `pending` until text follows.
            if not started:
                cut = cut.lstrip()
            body = cut.rstrip()
            if body:
                piece = (pending if started else " ") + body
                started, pending, closing = True, cut[len(body):], body[-1] == "]"
                if key == "dims":
                    field.append(piece)
                elif entries is not None:
                    entries.feed(piece)
            elif started:
                pending += cut
        if ends_line:
            if key is not None and started and closing:
                if key == "dims":
                    try:
                        dims = _dims("".join(field), source, starts["dims"])
                    except TensorFormatError as exc:
                        dims_fault = exc
                elif entries is not None:
                    entries.close()
                key = None
            lineno += 1
            comment, started, raw, pending = False, False, [], ""
    if key is not None:
        raise TensorFormatError(
            f"{source}:{starts[key]}: field {key!r} has an unterminated list"
        )
    for required in ("dims", "data"):
        if required not in starts:
            raise TensorFormatError(f"{source}: missing field {required!r}")
    if dims_fault is not None:
        raise dims_fault
    line = starts["data"]
    if entries.fault is not None:
        raise TensorFormatError(f"{source}:{line}: field 'data' {entries.fault}")
    m, n, p = dims
    if entries.count != m * n * p:
        raise TensorFormatError(
            f"{source}:{line}: 'data' has {entries.count} entries, "
            f"expected m*n*p = {m * n * p}"
        )
    return entries.tensor(m, n, p)


def read_tensor(path):
    """Read a tensor file; raises TensorFormatError with a line diagnostic."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            return _read(fh, str(path))
    except UnicodeDecodeError as exc:
        # The decoder's byte position counts from its buffer, not the file.
        raise TensorFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_tensor(path, a):
    """Write `a` with full round-trip precision."""
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
