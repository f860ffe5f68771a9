"""The whole-text tensor-file parser, kept as the reference that
`read_tensor`'s one chunked pass is compared against.

`_parse` splits the whole text with ``str.splitlines``, joins each field's
lines (stripped, comments cut) with one space, and checks the fields in a
fixed order; every malformed file gets its line diagnostic from it.  It
shares no code with `tsvdkit.fileio` but the error class, so a fault in the
reader cannot hide in the reference.
"""

import numpy as np

from tsvdkit import TensorFormatError

# Characters of a line, of a field's name, or of a list entry that a message
# quotes.
SHOWN = 80
# Characters of a list entry beyond which it is not a number.
LONGEST_ENTRY = 4096


def _shown(text):
    # Cut to SHOWN characters, marked with "..." after the quote where cut.
    return repr(text) if len(text) <= SHOWN else repr(text[:SHOWN]) + "..."


def _numeral(convert, tok):
    # int() and float() also read Python-only numerals, with digit-group
    # underscores or non-ASCII digits; the format takes ASCII ones only, and
    # none longer than LONGEST_ENTRY.
    if len(tok) > LONGEST_ENTRY or "_" in tok or not tok.isascii():
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
                f"integer: {_shown(tok)}"
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


def _parse_floats(tokens, source, lineno):
    out = np.empty(len(tokens))
    for idx, tok in enumerate(tokens):
        try:
            out[idx] = _numeral(float, tok)
        except ValueError:
            raise TensorFormatError(
                f"{source}:{lineno}: field 'data' entry {idx + 1} is not a "
                f"number: {_shown(tok)}"
            ) from None
        if not np.isfinite(out[idx]):
            raise TensorFormatError(
                f"{source}:{lineno}: field 'data' entry {idx + 1} is not "
                f"finite: {_shown(tok)}"
            )
    return out


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
                    f"{source}:{lineno}: expected 'key = value', got {_shown(raw.strip())}"
                )
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in ("dims", "data"):
                raise TensorFormatError(
                    f"{source}:{lineno}: unknown field {_shown(key)} "
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
