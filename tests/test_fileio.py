import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tsvdkit import TensorFormatError, read_tensor, write_tensor

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
