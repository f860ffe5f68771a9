"""Plain-text tensor files.

A tensor file is a text document with two fields::

    dims = [m, n, p]
    data = [a_111, a_121, ..., a_mnp]

`data` lists the entries slice by slice, row-major within each slice:
``data[(k-1)*m*n + (i-1)*n + (j-1)]`` is the (i, j, k) entry (1-based).
Values are written with full round-trip precision, so write/read is
bit-exact.  Entries are ASCII decimal numerals: ``int()`` and ``float()``
syntax without digit-group underscores or non-ASCII digits.  A leading UTF-8
byte-order mark is skipped.  Blank lines and ``#`` comments are ignored; a
bracketed list may span any number of lines, and reading and writing take
time linear in the file size.

Memory is bounded by the tensor, not by its text.  A write formats the list
a fixed number of entries at a time, copying at most that many entries or one
frontal slice.  A read parses a fixed number of characters at a time straight
into the result array.  A read that meets anything outside that streamed form
(a malformed file, or a valid one with ``data`` before ``dims``, a line break
other than ``\\n`` outside the list, non-ASCII text outside comments, or a
header line longer than a chunk)
reads the file again whole with the line-by-line parser, which builds the
diagnostic; so does an input that cannot seek, such as a pipe.
"""

import numpy as np

from .core import as_tensor

__all__ = ["TensorFormatError", "read_tensor", "write_tensor"]

# Entries formatted per write and characters of text parsed per read.  They
# bound the memory a write or read takes beyond the tensor itself.
_WRITE_CHUNK = 4096
_READ_CHUNK = 1 << 16

# The line boundaries of str.splitlines other than "\n".  ("\r" never reaches
# the parser: text-mode reads translate it.)
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


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


def _parse_floats(tokens, source, lineno):
    out = np.empty(len(tokens))
    for idx, tok in enumerate(tokens):
        try:
            out[idx] = _numeral(float, tok)
        except ValueError:
            raise TensorFormatError(
                f"{source}:{lineno}: field 'data' entry {idx + 1} is not a "
                f"number: {tok!r}"
            ) from None
        if not np.isfinite(out[idx]):
            raise TensorFormatError(
                f"{source}:{lineno}: field 'data' entry {idx + 1} is not "
                f"finite: {tok!r}"
            )
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


def _parse(text, source):
    """Parse a whole file's text line by line; every malformed file gets its
    line diagnostic here."""
    fields = {}
    starts = {}
    key = None
    chunks = []
    start_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if key is None:
            if "=" not in line:
                raise TensorFormatError(
                    f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in ("dims", "data"):
                raise TensorFormatError(
                    f"{source}:{lineno}: unknown field {key!r} "
                    "(expected 'dims' or 'data')"
                )
            if key in fields:
                raise TensorFormatError(f"{source}:{lineno}: duplicate field {key!r}")
            chunks = [value]
            start_line = lineno
        else:
            chunks.append(line)
        if line.endswith("]"):
            fields[key] = " ".join(chunks)
            starts[key] = start_line
            key = None
    if key is not None:
        raise TensorFormatError(
            f"{source}:{start_line}: field {key!r} has an unterminated list"
        )
    for required in ("dims", "data"):
        if required not in fields:
            raise TensorFormatError(f"{source}: missing field {required!r}")

    dims_line = starts["dims"]
    dims = _parse_ints(_split_list(fields["dims"], "dims", source, dims_line),
                       source, dims_line)
    if len(dims) != 3:
        raise TensorFormatError(
            f"{source}:{dims_line}: 'dims' must have exactly 3 entries, "
            f"got {len(dims)}"
        )
    m, n, p = dims
    if min(dims) < 1:
        raise TensorFormatError(
            f"{source}:{dims_line}: 'dims' entries must be positive, got {dims}"
        )
    data_line = starts["data"]
    data = _parse_floats(_split_list(fields["data"], "data", source, data_line),
                         source, data_line)
    if data.size != m * n * p:
        raise TensorFormatError(
            f"{source}:{data_line}: 'data' has {data.size} entries, "
            f"expected m*n*p = {m * n * p}"
        )
    return data.reshape(p, m, n).transpose(1, 2, 0).copy()


def _pieces(fh):
    """Yield (text, ends_line) for the file, in pieces of at most one line and
    `_READ_CHUNK` characters, with each comment cut and its line break kept.

    A comment holding another line break raises ValueError: `_parse` would end
    the comment there.
    """
    in_comment = False
    for piece in iter(lambda: fh.readline(_READ_CHUNK), ""):
        if in_comment:
            text, comment = "", piece
        else:
            text, hash_, comment = piece.partition("#")
            in_comment = bool(hash_)
        if in_comment and any(c in comment for c in _OTHER_BREAKS):
            raise ValueError("line break inside a comment")
        ends_line = piece.endswith("\n")
        if in_comment and ends_line:
            text += "\n"
            in_comment = False
        yield text, ends_line


def _read_streamed(fh):
    """Parse blank lines, then `dims`, then the `data` list, chunk by chunk.

    Returns the tensor `_parse` would return for the same text.  Any file
    outside this form raises ValueError, with no diagnostic: the caller then
    hands the file to `_parse`.
    """
    # States: "head" (blank lines and the dims field, line by line), "open"
    # (after "data =", up to "["), "list" (the entries) and "tail" (after
    # "]", where only blank text may follow).  `field` holds the dims field's
    # lines until its "]"; `carry` holds an entry cut by a chunk edge.
    dims = field = out = None
    state, line, carry, pos = "head", "", "", 0
    for text, ends_line in _pieces(fh):
        if "_" in text or not text.isascii():
            raise ValueError("maybe a Python-only numeral")
        if state == "head":
            if any(c in text for c in _OTHER_BREAKS) or len(line) > _READ_CHUNK:
                raise ValueError("not a plain header line")
            line += text
            key, eq, value = line.partition("=")
            if field is None and eq and key.strip() == "data":
                if dims is None:
                    raise ValueError("'data' before 'dims'")
                out = np.empty(dims)
                dest = out.transpose(2, 0, 1).flat
                state, text = "open", value
            elif not ends_line:
                continue
            else:
                line, stripped = "", line.strip()
                if not stripped:
                    continue
                if field is None:
                    if not (eq and key.strip() == "dims" and dims is None):
                        raise ValueError("not a 'dims' field")
                    field, stripped = [], value.strip()
                field.append(stripped)
                if stripped.endswith("]"):
                    dims = [int(tok) for tok in
                            _split_list(" ".join(field), "dims", "", 0)]
                    if len(dims) != 3 or min(dims) < 1:
                        raise ValueError("bad 'dims'")
                    field = None
                continue
        if state == "open":
            before, bracket, text = text.partition("[")
            if before.strip():
                raise ValueError("'data' is not a bracketed list")
            if not bracket:
                continue
            state = "list"
        if state == "list":
            text = carry + text
            body, close, rest = text.partition("]")
            if not close:
                # Hold back the last, maybe unfinished, entry.
                body, comma, carry = text.rpartition(",")
                if len(carry) > _READ_CHUNK:
                    raise ValueError("list entry longer than a chunk")
                if not comma:
                    continue
            tokens = body.split(",")
            values = np.fromiter(map(float, tokens), float, len(tokens))
            if pos + values.size > out.size or not np.isfinite(values).all():
                raise ValueError("too many or non-finite entries")
            dest[pos : pos + values.size] = values
            pos += values.size
            if not close:
                continue
            state, text = "tail", rest
        if text.strip():
            raise ValueError("text after the 'data' list")
    if state != "tail" or pos != out.size:
        raise ValueError("incomplete 'data' list")
    return out


def read_tensor(path):
    """Read a tensor file; raises TensorFormatError with a line diagnostic."""
    with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
        if fh.seekable():
            try:
                return _read_streamed(fh)
            except (ValueError, MemoryError):  # MemoryError: dims too large
                fh.seek(0)
        text = fh.read()
    return _parse(text, str(path))


def write_tensor(path, a):
    """Write `a` with full round-trip precision."""
    a = as_tensor(a)
    m, n, p = a.shape
    slices = a.transpose(2, 0, 1)
    step = max(1, _WRITE_CHUNK // (m * n))  # frontal slices copied at a time
    sep = ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dims = [{m}, {n}, {p}]\ndata = [")
        # A list's repr is "[" + ", ".join(map(repr, items)) + "]", and a
        # float's repr is its shortest round-trip form; so the chunks joined
        # by ", " are the whole list's repr.
        for k in range(0, p, step):
            block = slices[k : k + step].ravel()
            for start in range(0, block.size, _WRITE_CHUNK):
                fh.write(sep + repr(block[start : start + _WRITE_CHUNK].tolist())[1:-1])
                sep = ", "
        fh.write("]\n")
