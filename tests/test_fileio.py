import codecs
import os
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tsvdkit import TensorFormatError, fileio, read_tensor, write_tensor

import whole_text_parser
from tensor_cases import same_bits

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        a = rng.standard_normal((4, 3, 5)) * 10.0 ** rng.integers(-12, 12, (4, 3, 5))
        path = tmp_path / "t.tensor"
        write_tensor(path, a)
        assert np.array_equal(read_tensor(path), a)

    def test_entry_order(self, tmp_path):
        a = np.arange(1.0, 9.0).reshape(2, 2, 2, order="F")  # distinct entries
        path = tmp_path / "t.tensor"
        write_tensor(path, a)
        text = path.read_text()
        flat = [float(tok) for tok in
                text.splitlines()[1].split("[")[1].rstrip("]").split(",")]
        m, n, p = 2, 2, 2
        for i in range(m):
            for j in range(n):
                for k in range(p):
                    assert flat[k * m * n + i * n + j] == a[i, j, k]

    def test_comments_and_multiline(self, tmp_path):
        path = tmp_path / "t.tensor"
        path.write_text(
            "# hand-written fixture\n"
            "dims = [2, 1, 2]\n"
            "data = [1.0, 2.5,\n"
            "        -3.0, 4.0]  # trailing comment\n"
        )
        a = read_tensor(path)
        assert a.shape == (2, 1, 2)
        assert a[0, 0, 0] == 1.0
        assert a[1, 0, 0] == 2.5
        assert a[0, 0, 1] == -3.0
        assert a[1, 0, 1] == 4.0

    @settings(max_examples=100, deadline=None)
    @given(a=arrays(np.float64,
                    array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=8),
                    elements=st.one_of(st.sampled_from(EDGE_VALUES),
                                       st.floats(allow_nan=False,
                                                 allow_infinity=False))))
    def test_bit_exact_property(self, tmp_path_factory, a):
        path = tmp_path_factory.mktemp("rt") / "t.tensor"
        write_tensor(path, a)
        back = read_tensor(path)
        assert back.shape == a.shape
        assert np.array_equal(back.view(np.int64), a.view(np.int64))  # sign bits too

    def test_pinned_file_text(self, tmp_path):
        a = np.array([0.1, -0.0, 5e-324, 1e300, -2.0, 1.0 / 3.0]).reshape(
            2, 1, 3, order="F")
        path = tmp_path / "t.tensor"
        write_tensor(path, a)
        assert path.read_bytes() == (
            b"dims = [2, 1, 3]\n"
            b"data = [0.1, -0.0, 5e-324, 1e+300, -2.0, 0.3333333333333333]\n"
        )

    def test_one_value_per_line(self, tmp_path):
        values = (np.arange(20000) * 0.25 - 7.0).tolist()
        lines = ["dims = [100, 50, 4]", "data = ["]
        for v in values[:-1]:
            lines += [f"  {v!r},", "# between values"]
        lines.append(f"  {values[-1]!r}]  # last value")
        path = tmp_path / "long.tensor"
        path.write_text("\n".join(lines) + "\n")
        a = read_tensor(path)
        assert np.array_equal(a.transpose(2, 0, 1).ravel(), values)


class TestFormatErrors:
    def write_and_expect(self, tmp_path, text, pattern):
        path = tmp_path / "bad.tensor"
        path.write_text(text)
        with pytest.raises(TensorFormatError, match=pattern) as info:
            read_tensor(path)
        return info

    def test_missing_data(self, tmp_path):
        self.write_and_expect(tmp_path, "dims = [1, 1, 1]\n", "missing field 'data'")

    def test_wrong_count(self, tmp_path):
        self.write_and_expect(
            tmp_path, "dims = [2, 2, 2]\ndata = [1.0, 2.0]\n", "expected m\\*n\\*p"
        )

    def test_bad_number(self, tmp_path):
        info = self.write_and_expect(
            tmp_path, "dims = [1, 1, 1]\ndata = [oops]\n", "not a number"
        )
        assert ":2:" in str(info.value)  # line diagnostic

    def test_non_finite(self, tmp_path):
        self.write_and_expect(
            tmp_path, "dims = [1, 1, 1]\ndata = [inf]\n", "not finite"
        )

    def test_unknown_field(self, tmp_path):
        self.write_and_expect(
            tmp_path, "shape = [1, 1, 1]\ndata = [0.0]\n", "unknown field"
        )

    def test_duplicate_field(self, tmp_path):
        self.write_and_expect(
            tmp_path,
            "dims = [1, 1, 1]\ndims = [1, 1, 1]\ndata = [0.0]\n",
            "duplicate",
        )

    def test_dims_arity(self, tmp_path):
        self.write_and_expect(
            tmp_path, "dims = [1, 1]\ndata = [0.0]\n", "exactly 3"
        )

    def test_dims_positive(self, tmp_path):
        self.write_and_expect(
            tmp_path, "dims = [1, 0, 1]\ndata = []\n", "positive"
        )

    def test_garbage_line(self, tmp_path):
        self.write_and_expect(
            tmp_path, "dims: [1, 1, 1]\ndata = [0.0]\n", "expected 'key = value'"
        )

    @pytest.mark.parametrize("chunk", [1, 7, fileio._READ_CHUNK])
    @pytest.mark.parametrize("line,shown", [
        ("x" * 80, repr("x" * 80)),
        ("x" * 81, repr("x" * 80) + "..."),
        ("  " + "x" * 80 + " " * 300, repr("x" * 80)),
        ("x" * 79 + " " * 300 + "y", repr("x" * 79 + " ") + "..."),
        ("x" * 80 + " " * 300 + "# y", repr("x" * 80) + "..."),
        ("x" * 60 + "# " + "y" * 60, repr("x" * 60 + "# " + "y" * 18) + "..."),
    ])
    def test_line_quoted_to_80_characters(self, tmp_path, chunk, line, shown):
        # The message quotes a line that is no field, comment included, to
        # 80 characters once stripped, and marks a cut with "..." after it.
        text = "dims = [1, 1, 1]\n" + line + "\ndata = [0.0]\n"
        path = tmp_path / "t.tensor"
        path.write_text(text)
        want = f"{path}:2: expected 'key = value', got {shown}"
        with mock.patch.object(fileio, "_READ_CHUNK", chunk), \
                pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == want
        with pytest.raises(TensorFormatError) as info:
            whole_text_parser._parse(text, str(path))
        assert str(info.value) == want

    @pytest.mark.parametrize("chunk", [1, 7, fileio._READ_CHUNK])
    @pytest.mark.parametrize("name,shown", [
        ("k" * 80, repr("k" * 80)),
        ("k" * 81, repr("k" * 80) + "..."),
        (" " * 300 + "k" * 40 + " " * 300 + "k", repr("k" * 40 + " " * 40) + "..."),
    ])
    def test_unknown_field_name_quoted_to_80_characters(self, tmp_path, chunk, name,
                                                        shown):
        text = f"{name} = [1, 1, 1]\ndata = [0.0]\n"
        path = tmp_path / "t.tensor"
        path.write_text(text)
        want = f"{path}:1: unknown field {shown} (expected 'dims' or 'data')"
        with mock.patch.object(fileio, "_READ_CHUNK", chunk), \
                pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == want
        with pytest.raises(TensorFormatError) as info:
            whole_text_parser._parse(text, str(path))
        assert str(info.value) == want

    @pytest.mark.parametrize("chunk", [1, 7, fileio._READ_CHUNK])
    def test_keys_padded_past_the_quote_bound_read(self, tmp_path, chunk):
        # Blanks around a key are not part of its name, however many.
        pad = " " * 300
        path = tmp_path / "t.tensor"
        path.write_text(f"{pad}dims{pad}= [1, 1, 2]\n\t{pad}data{pad}\t=[1.5, -2.0]\n")
        with mock.patch.object(fileio, "_READ_CHUNK", chunk):
            assert read_tensor(path).ravel().tolist() == [1.5, -2.0]

    def test_unterminated_list(self, tmp_path):
        self.write_and_expect(
            tmp_path, "dims = [1, 1, 1]\ndata = [0.0,\n", "unterminated"
        )

    def test_empty_entry(self, tmp_path):
        self.write_and_expect(
            tmp_path, "dims = [1, 1, 1]\ndata = [0.0,]\n", "empty list entry"
        )


class TestLongListDiagnostics:
    """Errors far into a long list carry the same line, entry and token."""

    def write_list(self, tmp_path, tokens):
        path = tmp_path / "long.tensor"
        path.write_text(
            f"# header\ndims = [{len(tokens)}, 1, 1]\n"
            "data = [" + ", ".join(tokens) + "]\n"
        )
        return path

    def test_bad_number_at_the_end(self, tmp_path):
        tokens = ["1.5"] * 9999 + ["oops"]
        path = self.write_list(tmp_path, tokens)
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == (
            f"{path}:3: field 'data' entry 10000 is not a number: 'oops'"
        )

    def test_nan_is_not_finite(self, tmp_path):
        tokens = ["1.5"] * 5000 + [" nan "] + ["1.5"] * 4999
        path = self.write_list(tmp_path, tokens)
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == (
            f"{path}:3: field 'data' entry 5001 is not finite: 'nan'"
        )

    def test_empty_entry_reported_before_bad_number(self, tmp_path):
        tokens = ["oops"] + ["1.5"] * 9998 + [" "]
        path = self.write_list(tmp_path, tokens)
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == f"{path}:3: field 'data' has an empty list entry"

    def test_separator_padding_accepted(self, tmp_path):
        # str.strip() removes the unit separator, float() does not.
        path = self.write_list(tmp_path, ["1.5"] * 3 + ["\x1f2.5\x1f"])
        assert read_tensor(path).ravel().tolist() == [1.5, 1.5, 1.5, 2.5]

    @pytest.mark.parametrize("text, chunk, message", [
        # One value per line with the commas left out: one entry of 200,000 lines.
        ("dims = [1, 1, 1]\ndata = [\n" + "1.5\n" * 200_000 + "]\n", fileio._READ_CHUNK,
         ":2: field 'data' entry 1 is not a number: '1.5 1.5 "),
        # One such line, and a header line without '=', in 16-character pieces.
        ("dims = [1, 1, 1]\ndata = [" + "1.5 " * 400_000 + "]\n", 16,
         ":2: field 'data' entry 1 is not a number: '1.5 1.5 "),
        ("x" * 2_000_000 + "\ndims = [1, 1, 1]\ndata = [1]\n", 16,
         ":1: expected 'key = value', got 'xxxx"),
    ], ids=["values per line", "one line", "header line"])
    def test_long_fault_found_in_linear_time(self, tmp_path, text, chunk, message):
        # A reader that copies the text held so far once per piece takes
        # several seconds on each of these.
        path = tmp_path / "long.tensor"
        path.write_text(text)
        with mock.patch.object(fileio, "_READ_CHUNK", chunk):
            start = time.perf_counter()
            with pytest.raises(TensorFormatError) as info:
                read_tensor(path)
            elapsed = time.perf_counter() - start
        assert str(info.value).startswith(f"{path}{message}")
        assert elapsed < 3.0


    @pytest.mark.parametrize("entry, message", [
        # float() reads this as 0.0.
        ("0." + "0" * 5000 + "1", "entry 2 is not a number: " + repr("0." + "0" * 78) + "..."),
        ("1" * 4097, "entry 2 is not a number: " + repr("1" * 80) + "..."),
        ("1" * 4096, "entry 2 is not finite: " + repr("1" * 80) + "..."),
        ("1" * 400, "entry 2 is not finite: " + repr("1" * 80) + "..."),
        ("0" * 4095 + "1", None),
        ("1.5" + " " * 5000, None),
    ], ids=["0.0...01", "4097 digits", "4096 digits", "400 digits", "4096 digits to 1",
            "padded"])
    @pytest.mark.parametrize("chunk", [7, fileio._READ_CHUNK])
    def test_longest_entry(self, tmp_path, entry, message, chunk):
        path = self.write_list(tmp_path, ["1.5", entry, "2.5"])
        with mock.patch.object(fileio, "_READ_CHUNK", chunk):
            got = outcome(lambda: read_tensor(path))
        want = outcome(lambda: whole_text_parser._parse(path.read_text(), str(path)))
        assert got == want
        if message is None:
            assert got[0] == "tensor"
        else:
            assert got == ("error", f"{path}:3: field 'data' {message}")

    @pytest.mark.parametrize("dims", ["[1" + "0" * 4096 + ", 1, 1]", "[1, 1" + " " * 9000 + "]"],
                             ids=["long", "padded"])
    def test_longest_dims_entry(self, tmp_path, dims):
        path = tmp_path / "t.tensor"
        path.write_text(f"dims = {dims}\ndata = [1.5]\n")
        got = outcome(lambda: read_tensor(path))
        assert got == outcome(lambda: whole_text_parser._parse(path.read_text(), str(path)))
        if "0" in dims:
            assert got == ("error", f"{path}:1: field 'dims' entry 1 is not an integer: "
                           + repr("1" + "0" * 79) + "...")
        else:
            assert got[0] == "error" and "got 2" in got[1]


WRITE_CHUNK = fileio._WRITE_CHUNK
READ_CHUNK = fileio._READ_CHUNK


def reference_bytes(a):
    """The file as one repr of the whole entry list."""
    m, n, p = a.shape
    return (f"dims = [{m}, {n}, {p}]\ndata = "
            + repr(a.transpose(2, 0, 1).ravel().tolist()) + "\n").encode()


def varied_values(rng, size):
    """Entries whose text lengths vary, so chunk cuts land anywhere in them."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    values[rng.integers(0, size, size // 7)] = rng.choice(EDGE_VALUES, size // 7)
    return values


def outcome(read):
    try:
        a = read()
    except TensorFormatError as exc:
        return "error", str(exc)
    return "tensor", a.shape, a.tobytes()


class TestChunkBoundaries:
    @pytest.mark.parametrize("size", [WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1,
                                      2 * WRITE_CHUNK + 1])
    @pytest.mark.parametrize("layout", ["rows", "tubes", "slices"])
    def test_bytes_match_one_repr(self, tmp_path, size, layout):
        rng = np.random.default_rng(size)
        shape = {"rows": (size, 1, 1), "tubes": (1, 1, size), "slices": (1, size, 1)}
        a = varied_values(rng, size).reshape(shape[layout])
        path = tmp_path / "t.tensor"
        write_tensor(path, a)
        assert path.read_bytes() == reference_bytes(a)
        back = read_tensor(path)
        assert np.array_equal(back.view(np.int64), a.view(np.int64))

    def test_random_shapes_match_one_repr(self, tmp_path):
        rng = np.random.default_rng(20261018)
        path = tmp_path / "t.tensor"
        for _ in range(200):
            m, n, p = (int(d) for d in rng.integers(1, 19, size=3))
            a = varied_values(rng, m * n * p).reshape(m, n, p)
            write_tensor(path, a)
            assert path.read_bytes() == reference_bytes(a)
            assert np.array_equal(read_tensor(path).view(np.int64), a.view(np.int64))

    @pytest.mark.parametrize("close_at", [2 * READ_CHUNK - 1, 2 * READ_CHUNK,
                                          2 * READ_CHUNK + 1])
    def test_closing_bracket_at_a_read_cut(self, tmp_path, close_at):
        # "data = [" + pad + "1.5, " * (count - 1) + "1.5]": the "]" sits at
        # index 6 + pad + 5 * count of its line, and the cuts at the chunk
        # edges fall in a token, on a comma or on a space.
        count, pad = divmod(close_at - 6, 5)
        path = tmp_path / "t.tensor"
        path.write_text(f"dims = [{count}, 1, 1]\ndata = [" + " " * pad
                        + ", ".join(["1.5"] * count) + "]\n")
        assert path.read_text().splitlines()[1][close_at] == "]"
        assert read_tensor(path).ravel().tolist() == [1.5] * count

    def test_blanks_before_a_closing_bracket_at_a_read_cut(self, tmp_path):
        # The "]" is the 65,536th character and ends the first read piece;
        # the blanks before it are no part of the last entry.
        text = "dims = [2, 1, 1]\ndata = [1.5, 2" + " " * 65504 + "]\n"
        assert text.index("]", 20) == READ_CHUNK - 1
        path = tmp_path / "t.tensor"
        path.write_text(text)
        assert read_tensor(path).ravel().tolist() == [1.5, 2.0]
        assert whole_text_parser._parse(text, str(path)).ravel().tolist() == [1.5, 2.0]

    @pytest.mark.parametrize("chunk", [1, 7, READ_CHUNK])
    @pytest.mark.parametrize("text", [
        "d{B}ims = [1, 1, 1]\ndata = [1.5]\n",
        "dims = [1, 1, 1]\nx{B}y\ndata = [1.5]\n",
        "dims = [1, 1, 1]\ndata = [1{B}2]\n",
        "dims = [2, 1, 1]\ndata = [1.5{B}, 2]\n",
        "dims = [2, 1, 1]\ndata = [1.5, 2{B}]\n",
        "dims = [2, 1, 1]\ndata = [1.5, 2{B}] 3]\n",
        "dims = [2, 1, 1]\ndata = [1.5{B}# c\n, 2]\n",
    ], ids=["in a name", "in a line that is no field", "in an entry", "before a comma",
            "before the closing bracket", "before a bracket inside", "before a comment"])
    def test_blank_runs_across_read_pieces(self, tmp_path, chunk, text):
        # A run of blanks that spans read pieces is held to 4097 of them,
        # which changes no verdict and no quote.
        text = text.format(B=("\t" + " " * 8 + "\u00a0") * 500)
        path = tmp_path / "t.tensor"
        path.write_bytes(text.encode())
        with mock.patch.object(fileio, "_READ_CHUNK", chunk):
            got = outcome(lambda: read_tensor(path))
        assert got == outcome(lambda: whole_text_parser._parse(text, str(path)))

    @pytest.mark.parametrize("chunk", [1, 7, READ_CHUNK])
    def test_result_layout_in_either_field_order(self, tmp_path, chunk):
        # Whichever field comes first, the entries are joined once and laid
        # out as one C-contiguous float64 array that owns its memory.
        a = varied_values(np.random.default_rng(5), 60).reshape(3, 4, 5)
        path, flipped = tmp_path / "t.tensor", tmp_path / "flipped.tensor"
        write_tensor(path, a)
        dims, data = path.read_text().splitlines()
        flipped.write_text(data + "\n" + dims + "\n")
        with mock.patch.object(fileio, "_READ_CHUNK", chunk):
            reads = [read_tensor(path), read_tensor(flipped)]
        for b in reads:
            assert b.flags.c_contiguous and b.flags.owndata
            assert same_bits(b, a)  # float64, the same shape and bytes

    def test_written_entries_are_at_most_24_characters(self, tmp_path):
        # Far inside the 4096 characters a read takes of an entry.
        values = np.concatenate([-np.abs(varied_values(np.random.default_rng(7), 20_000)),
                                 EDGE_VALUES, np.negative(EDGE_VALUES)])
        path = tmp_path / "t.tensor"
        write_tensor(path, values.reshape(-1, 1, 1))
        entries = path.read_text().splitlines()[1][len("data = ["):-1].split(", ")
        assert len(entries) == values.size
        assert max(map(len, entries)) == 24  # as in -2.2250738585072014e-308

    def test_crlf_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "t.tensor"
        path.write_bytes(
            b"# header, with [brackets] = and commas\r\n\r\n"
            b"dims = [2,  # rows\r\n  3, 2]\r\n"
            b"data =  # the list starts on the next line\r\n"
            b"\t[1.0, 2.0,  # ], not the end\r\n"
            b"# a comment line between list lines\r\n"
            b"\r\n"
            b"   3.0\r\n, 4.0, 5.0, 6.0,\r\n"
            b"7.0, 8.0, 9.0, 10.0, 11.0, 12.0]  # trailing comment\r\n"
            b"# after the list\r\n"
        )
        a = read_tensor(path)
        assert np.array_equal(a.transpose(2, 0, 1).ravel(), np.arange(1.0, 13.0))

    def test_file_without_final_newline(self, tmp_path):
        path = tmp_path / "t.tensor"
        path.write_text("dims = [1, 1, 2]\ndata = [1.0, 2.0]")
        assert read_tensor(path).ravel().tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("text", [
        "data = [1.0, 2.0]\ndims = [2, 1, 1]\n",            # data before dims
        "dims = [2, 1, 1]\ndata = [1.0, \x1f2.0\x1f]\n",     # padding float() rejects
        "dims = [2, 1, 1]  # c\x0b\ndata = [1.0, 2.0]\n",     # a comment ended by \v
        "dims = [2, 1, 1]\x1cdata = [1.0, 2.0]\n",            # two lines split by \x1c
    ])
    def test_other_valid_forms(self, tmp_path, text):
        path = tmp_path / "t.tensor"
        path.write_text(text)
        assert read_tensor(path).ravel().tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("chunk", [16, READ_CHUNK])  # 16 cuts the comment
    def test_comment_ends_an_entry(self, tmp_path, chunk):
        # "1.0" and "5]" are two lines, joined as "1.0 5", never "1.05".
        path = tmp_path / "t.tensor"
        path.write_text("dims = [1, 1, 1]\ndata = [1.0# a comment\n5]\n")
        with mock.patch.object(fileio, "_READ_CHUNK", chunk):
            with pytest.raises(TensorFormatError) as info:
                read_tensor(path)
        assert str(info.value) == (
            f"{path}:2: field 'data' entry 1 is not a number: '1.0 5'"
        )

    def test_dims_too_large_for_memory(self, tmp_path):
        # 7 PiB: no allocation can hold it, so the count check reports it.
        path = tmp_path / "t.tensor"
        path.write_text("dims = [1000000, 1000000, 1000]\ndata = [1.0]\n")
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == (
            f"{path}:2: 'data' has 1 entries, expected m*n*p = 1000000000000000"
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_gets_the_diagnostic(self, tmp_path):
        # A pipe cannot be read twice: the diagnostic comes from the one pass.
        fifo = tmp_path / "pipe.tensor"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_text, args=("dims = [1, 1, 2]\ndata = [1.0, oops]\n",),
            daemon=True)
        writer.start()
        with pytest.raises(TensorFormatError) as info:
            read_tensor(fifo)
        writer.join(timeout=10)
        assert str(info.value) == f"{fifo}:2: field 'data' entry 2 is not a number: 'oops'"

    @pytest.mark.parametrize("where", ["second", "last"])
    @pytest.mark.parametrize("token,message", [
        ("oops", "entry {index} is not a number: 'oops'"),
        (" nan ", "entry {index} is not finite: 'nan'"),
        (" ", "has an empty list entry"),
        ("1_5", "entry {index} is not a number: '1_5'"),
        ("\u0663", "entry {index} is not a number: '\u0663'"),
    ])
    def test_bad_entry_diagnostic(self, tmp_path, where, token, message):
        count = 3 * READ_CHUNK // 5
        index = count // 2 if where == "second" else count - 1
        tokens = ["1.5"] * count
        tokens[index] = token
        path = tmp_path / "t.tensor"
        path.write_text(f"# header\ndims = [{count}, 1, 1]\n"
                        "data = [" + ", ".join(tokens) + "]\n")
        want = f"{path}:3: field 'data' " + message.format(index=index + 1)
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == want
        with pytest.raises(TensorFormatError) as info:
            whole_text_parser._parse(path.read_text(), str(path))
        assert str(info.value) == want

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 3),
                                    st.sampled_from(["", ",", "[", "]", "#", "=", " ",
                                                     "\n", "\r", "\x0b", "\x1c", "\x1f",
                                                     "\x85", "nan", "1e999", "_", "-",
                                                     "7", "dims = [1, 2, 2]",
                                                     "data = [", "# ]\n", "\u3000",
                                                     "\t", "\u00a0",
                                                     "\n\n", "dims = [1, 2",
                                                     "k" * 90, " " * 90])),
                          max_size=4),
           chunk=st.sampled_from([1, 3, 16, 64, READ_CHUNK]),
           convert=st.sampled_from([1, 5, fileio._CONVERT_CHUNK]),
           text=st.sampled_from([
               ("# a [2x2x1] tensor\n"
                "dims = [2, 2, 1]\n"
                "data = [1.5, -2.0,  # first row\n"
                "        3.25, 4e-300]\n"),
               # `data` first, with p > 1: the join lays the slices out.
               ("# a [1x2x2] tensor\n"
                "data = [1.5, -2.0,  # first slice\n"
                "        3.25, 4e-300]\n"
                "dims = [1, 2, 2]\n"),
           ]))
    def test_agrees_with_whole_text_parser(self, tmp_path_factory, edits, chunk,
                                           convert, text):
        for at, cut, insert in edits:
            at %= len(text) + 1
            text = text[:at] + insert + text[at + cut:]
        path = tmp_path_factory.mktemp("fuzz") / "t.tensor"
        path.write_bytes(text.encode())
        with mock.patch.object(fileio, "_READ_CHUNK", chunk), \
                mock.patch.object(fileio, "_CONVERT_CHUNK", convert):
            got = outcome(lambda: read_tensor(path))
        with open(path, encoding="utf-8") as fh:
            want = outcome(lambda: whole_text_parser._parse(fh.read(), str(path)))
        assert got == want


    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 3),
                                    st.sampled_from(["", ",", "]", "#", " ", "\n", "\x0b",
                                                     "\x1f", "7" * 40, "0" * 50, "k" * 45,
                                                     " " * 60, "\n" * 30, "\n  \n"])),
                          max_size=5),
           longest=st.sampled_from([80, 81, 90, 130]),
           chunk=st.sampled_from([1, 3, 16, READ_CHUNK]),
           convert=st.sampled_from([1, 5, fileio._CONVERT_CHUNK]))
    # The last entry, 4e-300 and then 7s, as long as the limit and longer,
    # read one character at a time: the "]" after it arrives before its line
    # break does, last in a batch, and in the last two with the character
    # that makes the entry too long.
    @example(edits=[(69, 0, "7" * 74)], longest=80, chunk=1, convert=1)
    @example(edits=[(69, 0, "7" * 75)], longest=80, chunk=1, convert=1)
    @example(edits=[(69, 0, "7" * 76)], longest=80, chunk=1, convert=5)
    @example(edits=[(69, 0, "7" * 80)], longest=80, chunk=3, convert=7)
    # More blanks than the limit between the last entry and its "]".
    @example(edits=[(69, 0, " " * 90)], longest=80, chunk=1, convert=1)
    def test_entry_limit_agrees_with_whole_text_parser(self, tmp_path_factory, edits,
                                                      longest, chunk, convert):
        # A smaller entry limit in both parsers, so that long entries, and the
        # blanks the reader squeezes out of an entry under way, meet every cut.
        # It stays at least the quote's 80 characters, as the reader's is.
        text = ("dims = [2, 2, 1]\n"
                "data = [1.5, -2.0,  # first row\n"
                "        3.25, 4e-300]\n")
        for at, cut, insert in edits:
            at %= len(text) + 1
            text = text[:at] + insert + text[at + cut:]
        path = tmp_path_factory.mktemp("fuzz") / "t.tensor"
        path.write_bytes(text.encode())
        with mock.patch.object(fileio, "_READ_CHUNK", chunk), \
                mock.patch.object(fileio, "_CONVERT_CHUNK", convert), \
                mock.patch.object(fileio, "_LONGEST_ENTRY", longest):
            got = outcome(lambda: read_tensor(path))
        with mock.patch.object(whole_text_parser, "LONGEST_ENTRY", longest):
            want = outcome(lambda: whole_text_parser._parse(text, str(path)))
        assert got == want


class TestNumeralsAndEncoding:
    @pytest.mark.parametrize("text,line,message", [
        ("dims = [1, 1, 2]\ndata = [1_5, 2.0]\n", 2,
         "field 'data' entry 1 is not a number: '1_5'"),
        ("dims = [1, 1, 2]\ndata = [1.0, 2e1_0]\n", 2,
         "field 'data' entry 2 is not a number: '2e1_0'"),
        ("dims = [1, 1, 2]\ndata = [\u0663, 2.0]\n", 2,  # Arabic-Indic 3
         "field 'data' entry 1 is not a number: '\u0663'"),
        ("dims = [1, 1, 2]\ndata = [1.0, \uff12]\n", 2,  # fullwidth 2
         "field 'data' entry 2 is not a number: '\uff12'"),
        ("dims = [1_0, 1, 1]\ndata = [1.0]\n", 1,
         "field 'dims' entry 1 is not an integer: '1_0'"),
        ("dims = [1, 1, \u0662]\ndata = [1.0, 2.0]\n", 1,
         "field 'dims' entry 3 is not an integer: '\u0662'"),
    ])
    def test_python_only_numerals_rejected(self, tmp_path, text, line, message):
        path = tmp_path / "t.tensor"
        path.write_text(text, encoding="utf-8")
        want = f"{path}:{line}: {message}"
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == want
        with pytest.raises(TensorFormatError) as info:
            whole_text_parser._parse(text, str(path))
        assert str(info.value) == want

    def test_non_ascii_comment_streams(self, tmp_path):
        path = tmp_path / "t.tensor"
        path.write_text("# fa\u00e7ade \u0663_1\ndims = [1, 1, 2]  # \u00e9\n"
                        "data = [1.5,  # \u00bd \u0663\n2.0]\n", encoding="utf-8")
        assert read_tensor(path).ravel().tolist() == [1.5, 2.0]

    @pytest.mark.parametrize("offset", [9, 20000])
    def test_not_utf8_is_a_format_error(self, tmp_path, offset):
        # The decoder counts its byte position from its own buffer, so the
        # message leaves it out.
        text = b"dims = [1, 1, 2]\ndata = [1.0, " + b" " * offset + b"\xff2.0]\n"
        path = tmp_path / "t.tensor"
        path.write_bytes(text)
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("before, after, message", [
        (b"# \xff\n", b"", ": not UTF-8 text (invalid start byte)"),
        (b"", b"#" + b" " * 100_000 + b"\xff\n", ":1: expected 'key = value', got 'bogus'"),
    ], ids=["bad byte first", "bad byte far after"])
    def test_first_fault_met_is_reported(self, tmp_path, before, after, message):
        # A bad byte on the line before a garbage line, or far after it.
        path = tmp_path / "t.tensor"
        path.write_bytes(before + b"bogus\ndims = [1, 1, 1]\ndata = [1.0]\n" + after)
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == f"{path}{message}"

    def test_decoder_reads_ahead_of_the_parser(self, tmp_path):
        # The decoder runs up to 64 Ki characters ahead of the parser, so a
        # bad byte within that reach beats a garbage line before it.
        path = tmp_path / "t.tensor"
        path.write_bytes(b"bogus\ndims = [1, 1, 1]\ndata = [1.0]\n#"
                         + b" " * 20_000 + b"\xff\n")
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_padding_that_strip_removes_reads(self, tmp_path):
        path = tmp_path / "t.tensor"
        path.write_text("dims = [\u00a01, 1, 2\u3000]\n"
                        "data = [\u00a01.5\u2003, 2.0]\n", encoding="utf-8")
        assert read_tensor(path).ravel().tolist() == [1.5, 2.0]

    def bom_copy(self, path):
        copy = path.with_suffix(".bom")
        copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return copy

    def test_byte_order_mark_skipped_in_a_written_file(self, tmp_path):
        a = varied_values(np.random.default_rng(3), 2 * WRITE_CHUNK).reshape(16, 8, -1)
        path = tmp_path / "t.tensor"
        write_tensor(path, a)
        assert path.read_bytes() == reference_bytes(a)  # written without a mark
        assert same_bits(read_tensor(self.bom_copy(path)), a)

    def test_byte_order_mark_skipped_with_data_before_dims(self, tmp_path):
        path = tmp_path / "t.tensor"
        path.write_text("data = [1.0, 2.0]\ndims = [2, 1, 1]\n")  # data before dims
        assert same_bits(read_tensor(self.bom_copy(path)), read_tensor(path))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_byte_order_mark_skipped_in_a_pipe(self, tmp_path):
        a = varied_values(np.random.default_rng(4), 60).reshape(3, 4, 5)
        path = tmp_path / "t.tensor"
        write_tensor(path, a)
        fifo = tmp_path / "pipe.tensor"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(codecs.BOM_UTF8 + path.read_bytes(),),
            daemon=True)
        writer.start()
        back = read_tensor(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert same_bits(back, a)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """A read or write holds the tensor and a bounded amount of its text."""

    @pytest.fixture
    def cube(self, tmp_path):
        a = np.random.default_rng(0).standard_normal((40, 40, 40))
        path = tmp_path / "t.tensor"
        write_tensor(path, a)
        return a, path

    def test_peaks_follow_the_tensor_not_the_text(self, cube):
        a, path = cube
        write_peak = traced_peak(lambda: write_tensor(path, a))
        read_peak = traced_peak(lambda: read_tensor(path))
        file_bytes = path.stat().st_size  # 1.26 MiB beside a 0.49 MiB array
        assert write_peak <= a.nbytes + (1 << 20)
        # Less than the text held once beside the result.
        assert read_peak <= file_bytes + a.nbytes

    @pytest.mark.parametrize("form", [
        "data before dims", "vertical tab breaks", "bad last entry",
        "unclosed dims", "long dims",
        pytest.param("pipe", marks=pytest.mark.skipif(
            not hasattr(os, "mkfifo"), reason="needs named pipes")),
    ])
    def test_other_inputs_stay_bounded(self, tmp_path, cube, form):
        a, path = cube
        text = path.read_text()
        dims, data = text.splitlines()
        source, message = path, None
        if form == "data before dims":
            path.write_text(data + "\n" + dims + "\n")
        elif form == "vertical tab breaks":
            path.write_text(dims + "\v" + data + "\v")
        elif form == "bad last entry":
            path.write_text(text[: text.rindex(",")] + ", oops]\n")
            message = f"{path}:2: field 'data' entry {a.size} is not a number: 'oops'"
        elif form == "unclosed dims":
            # `dims` runs on through the data line to the end of the file.
            path.write_text(dims[:-1] + "\n" + data + "\n")
            message = f"{path}: missing field 'data'"
        elif form == "long dims":
            path.write_text("dims = [" + ", ".join(["40"] * 100_000) + "]\n" + data + "\n")
            message = f"{path}:1: 'dims' must have exactly 3 entries, got 100000"
        else:
            source = tmp_path / "pipe.tensor"
            os.mkfifo(source)
            writer = threading.Thread(
                target=source.write_bytes, args=(path.read_bytes(),), daemon=True)
            writer.start()
        outcome = []

        def read():
            try:
                outcome.append(read_tensor(source))
            except TensorFormatError as exc:
                outcome.append(str(exc))

        read_peak = traced_peak(read)
        if form == "pipe":
            writer.join(timeout=10)
            assert not writer.is_alive()
        if message is None:
            assert same_bits(outcome[0], a)
        else:
            assert outcome == [message]
        assert read_peak <= path.stat().st_size + a.nbytes

    @pytest.mark.parametrize("line,message", [
        ("[" + ", ".join(["1.5"] * 400_000) + "]",
         "expected 'key = value', got " + repr("[" + "1.5, " * 15 + "1.5,") + "..."),
        ("x" * 2_000_000 + " = [1, 1, 1]",
         f"unknown field {'x' * 80!r}... (expected 'dims' or 'data')"),
    ], ids=["no field", "unknown field"])
    def test_a_long_line_that_is_no_field_stays_bounded(self, tmp_path, line, message):
        # A 2 MB line is held one read piece at a time, and its message
        # quotes 80 characters of it: the whole line used to be held (a
        # 5.8 MiB peak) and quoted in a 2,000,063-character message.
        path = tmp_path / "t.tensor"
        path.write_text(line + "\n")
        outcome = []

        def read():
            try:
                read_tensor(path)
            except TensorFormatError as exc:
                outcome.append(str(exc))

        read_peak = traced_peak(read)
        assert path.stat().st_size > 2_000_000
        assert outcome == [f"{path}:1: {message}"]
        assert len(message) < 200  # beside the file's path
        assert read_peak < 1 << 20

    @pytest.mark.parametrize("text, message", [
        ("dims = [1, 1, 1]\ndata = [" + "1" * 2_000_000 + "x]\n",
         "field 'data' entry 1 is not a number: " + repr("1" * 80) + "..."),
        # The empty entry outranks a bad one, as in the whole-text grammar.
        ("dims = [2, 1, 1]\ndata = [" + "1" * 2_000_000 + ", ]\n",
         "field 'data' has an empty list entry"),
        ("dims = [2, 1, 1]\ndata = [1.5" + " " * 2_000_000 + "\n" * 50_000 + ", 2]\n", None),
        ("dims = [2, 1, 1]\ndata = [1.5" + "\n" * 200_000 + ", 2" + " " * 2_000_000 + "]\n",
         None),
    ], ids=["long entry", "empty after long", "blanks after an entry", "blank lines"])
    def test_a_long_entry_is_held_and_quoted_within_a_bound(self, tmp_path, text, message):
        # An entry of 2,000,000 characters used to be held whole (a 7.7 MiB
        # peak) and quoted whole.  Blanks around an entry are no part of it.
        path = tmp_path / "t.tensor"
        path.write_text(text)
        outcome = []

        def read():
            try:
                outcome.append(read_tensor(path).ravel().tolist())
            except TensorFormatError as exc:
                outcome.append(str(exc))

        read_peak = traced_peak(read)
        if message is None:
            assert outcome == [[1.5, 2.0]]
        else:
            assert outcome == [f"{path}:2: {message}"]
            assert len(message) < 200
        assert read_peak < 1 << 20

    @pytest.mark.parametrize("dims, message", [
        ("1, 1, 1", "2: 'data' has 400000 entries, expected m*n*p = 1"),
        ("0, 1, 1", "1: 'dims' entries must be positive, got [0, 1, 1]"),
    ], ids=["more than dims takes", "after an invalid dims"])
    def test_data_past_what_dims_takes_is_only_counted(self, tmp_path, dims, message):
        # `data` keeps m*n*p entries after a valid `dims` and none after an
        # invalid one; keeping all 400,000 would peak at 4.06 MiB.
        path = tmp_path / "t.tensor"
        path.write_text(f"dims = [{dims}]\ndata = [" + ", ".join(["1.5"] * 400_000) + "]\n")
        outcome = []

        def read():
            try:
                read_tensor(path)
            except TensorFormatError as exc:
                outcome.append(str(exc))

        read_peak = traced_peak(read)
        assert outcome == [f"{path}:{message}"]
        assert read_peak <= 32 * fileio._READ_CHUNK

    @pytest.mark.parametrize("entries", [100_000, 400_000])
    def test_a_batch_is_at_most_one_piece(self, tmp_path, entries):
        # A batch converts all the held text up to its last comma: one read
        # piece plus the carried tail, some 20,000 short entries (1.4 MiB
        # with their strings), however long the list.  Converting the whole
        # list at once would peak at 7.4 MiB for the 0.38 MiB file.
        path = tmp_path / "long.tensor"
        path.write_text("dims = [" + ", ".join(["40"] * entries) + "]\ndata = [1]\n")
        outcome = []

        def read():
            try:
                read_tensor(path)
            except TensorFormatError as exc:
                outcome.append(str(exc))

        read_peak = traced_peak(read)
        assert outcome == [f"{path}:1: 'dims' must have exactly 3 entries, got {entries}"]
        assert read_peak <= 32 * fileio._READ_CHUNK
