"""Plain-text tensor files.

A tensor file is a text document with two fields::

    dims = [m, n, p]
    data = [a_111, a_121, ..., a_mnp]

`data` lists the entries slice by slice, row-major within each slice:
``data[(k-1)*m*n + (i-1)*n + (j-1)]`` is the (i, j, k) entry (1-based).
Values are written with full round-trip precision, so write/read is
bit-exact.  Blank lines and ``#`` comments are ignored; a bracketed list may
span any number of lines, and reading and writing take time linear in the
file size.
"""

import numpy as np

from .core import as_tensor

__all__ = ["TensorFormatError", "read_tensor", "write_tensor"]


class TensorFormatError(ValueError):
    """A tensor file violates the dims/data format."""


def _parse_ints(tokens, source, lineno):
    out = []
    for idx, tok in enumerate(tokens):
        try:
            out.append(int(tok))
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
            out[idx] = float(tok)
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


def _parse_data(body, source, lineno):
    """Parse the 'data' list in one ``float()`` pass.

    ``float()`` skips the whitespace around a token and rejects an empty one,
    so whatever it accepts the per-token path accepts too.  Anything it
    rejects, and any non-finite value, goes through the per-token path, which
    decides and builds the line-numbered diagnostic.
    """
    body = body.strip()
    if body.startswith("[") and body.endswith("]"):
        try:
            out = np.fromiter(map(float, body[1:-1].split(",")), float)
        except ValueError:
            pass
        else:
            if np.isfinite(out).all():
                return out
    return _parse_floats(_split_list(body, "data", source, lineno), source, lineno)


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
    data = _parse_data(fields["data"], source, data_line)
    if data.size != m * n * p:
        raise TensorFormatError(
            f"{source}:{data_line}: 'data' has {data.size} entries, "
            f"expected m*n*p = {m * n * p}"
        )
    return data.reshape(p, m, n).transpose(1, 2, 0).copy()


def read_tensor(path):
    """Read a tensor file; raises TensorFormatError with a line diagnostic."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _parse(text, str(path))


def write_tensor(path, a):
    """Write `a` with full round-trip precision."""
    a = as_tensor(a)
    m, n, p = a.shape
    flat = a.transpose(2, 0, 1).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dims = [{m}, {n}, {p}]\n")
        # A list's repr is "[" + ", ".join(map(repr, items)) + "]", and a
        # float's repr is its shortest round-trip form.
        fh.write("data = " + repr(flat.tolist()) + "\n")
