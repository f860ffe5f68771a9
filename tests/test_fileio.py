import codecs
import os
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
                                                     "data = [", "# ]\n"])),
                          max_size=4),
           chunk=st.sampled_from([1, 3, 16, 64, READ_CHUNK]),
           convert=st.sampled_from([1, 5, fileio._CONVERT_CHUNK]))
    def test_agrees_with_whole_text_parser(self, tmp_path_factory, edits, chunk,
                                           convert):
        text = ("# a [2x2x1] tensor\n"
                "dims = [2, 2, 1]\n"
                "data = [1.5, -2.0,  # first row\n"
                "        3.25, 4e-300]\n")
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
