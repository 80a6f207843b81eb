"""Command line interface: file formats, reports, and exit codes."""

import argparse
import contextlib
import decimal
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import oracles
import pytest

from bindens import (
    EstimatorConfig,
    SearchSpace,
    ShrinkageSpec,
    counts_from_observations,
    estimate_at,
    evaluate_space,
    index_of_point,
    kl_risk,
)
from bindens import cli, cv, walsh
from bindens.cli import _parse_decimal, load_observations, main, parse_cells_spec
from bindens.errors import ConfigError, DataError

UNIFORM_ESTIMATOR = {"variant": "linear", "shrinkage": {"form": "sparse", "entries": {"1": 1.0}}}
FREQUENCY_2 = {"variant": "linear", "shrinkage": {"form": "dense", "values": [1.0, 1.0, 1.0, 1.0]}}


def _write_signs(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(",".join(str(int(v)) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@contextlib.contextmanager
def _unlimited_int_text(digits=0):
    """Set Python's limit on int <-> decimal text conversion (0: none) for the test's own use."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _strip_timing(payload):
    out = dict(payload)
    out.pop("timing", None)
    return out


def _token_lines(sep, lead="", tail="", eol="\n"):
    """File text from rows of tokens: each line lead + tokens joined by sep + tail."""
    return lambda rows: eol.join(lead + sep.join(tokens) + tail for tokens in rows) + eol


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "obs.csv"
    _write_signs(data, [(1, 1), (1, -1), (-1, 1)])
    return tmp_path, data


@pytest.fixture(params=["byte pass", "token loop"])
def route(request, monkeypatch):
    """Blocks take the byte pass where it reads them; "token loop" sends
    every block line by line through the token decoder, so both see each
    case."""
    if request.param == "token loop":
        monkeypatch.setattr(cli._Observations, "add_block", lambda self, block: None)


class TestLoadObservations:
    def test_signs_default(self, tmp_path):
        p = tmp_path / "d.csv"
        _write_signs(p, [(1, -1, 1), (1, -1, 1), (-1, -1, -1)])
        counts = load_observations(p)
        assert counts.n == 3
        assert counts.count_of(3) == 2
        assert counts.count_of(8) == 1

    def test_bits_encoding(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1,0\n0,1,0\n1,1,1\n")
        counts = load_observations(p, encoding="bits")
        assert counts.count_of(3) == 2
        assert counts.count_of(8) == 1

    def test_whitespace_delimiter_and_header(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("x1 x2\n1 -1\n1  -1\n\n-1 1\n")
        counts = load_observations(p, delimiter="ws", header=True)
        assert counts.count_of(3) == 2
        assert counts.count_of(2) == 1
        assert counts.total == 3

    def test_plus_sign_tokens(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("+1,-1\n1,-1\n")
        counts = load_observations(p)
        assert counts.count_of(3) == 2

    def test_bad_token_reports_line(self, tmp_path):
        from bindens.errors import DataError

        p = tmp_path / "d.csv"
        p.write_text("1,-1\n1,2\n")
        with pytest.raises(DataError, match=":2"):
            load_observations(p)

    @pytest.mark.parametrize(
        "raw, lineno, reason",
        [
            (b"1,1\n\xff,-1\n", 2, "byte 0xff in position 0: invalid start byte"),
            # Lines end as the text reader ends them: \r\n, a lone \r, \n.
            (b"1,1\r\n-1,1\r1,-1\n-1,\xe9\n", 4, "byte 0xe9 in position 3: unexpected end of data"),
            # Past the text reader's first 8 KiB chunk.
            (b"1,-1\n" * 5000 + b"\xc3\x28,1\n", 5001, "byte 0xc3 in position 0: invalid continuation byte"),
        ],
        ids=["second line", "mixed line ends", "late line"],
    )
    def test_not_utf8_names_file_and_line(self, tmp_path, raw, lineno, reason):
        p = tmp_path / "d.csv"
        p.write_bytes(raw)
        with pytest.raises(DataError) as info:
            load_observations(p)
        assert str(info.value) == f"{p}:{lineno}: not valid UTF-8: 'utf-8' codec can't decode {reason}"

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,-1\n1,-1,1\n")
        with pytest.raises(DataError) as info:
            load_observations(p)
        assert str(info.value) == f"{p}: rows have inconsistent lengths [2, 3]"

    SIGNS, PLUS, BITS = ("1", "-1"), ("+1", "-1"), ("0", "1")
    # name -> (encoding, delimiter, header, tokens for +1 and -1, file text from token rows)
    LAYOUTS = {
        "canonical signs": ("signs", ",", False, SIGNS, _token_lines(",")),
        "canonical bits": ("bits", ",", False, BITS, _token_lines(",")),
        "plus tokens": ("signs", ",", False, PLUS, _token_lines(",")),
        "padded tokens": ("signs", ",", False, SIGNS, _token_lines(" , ", lead=" ")),
        "trailing delimiter": ("signs", ",", False, SIGNS, _token_lines(",", tail=",")),
        "empty tokens": ("signs", ",", False, PLUS, _token_lines(",,")),
        "leading delimiter": ("signs", ",", False, SIGNS, _token_lines(",", lead=",")),
        "leading delimiter bits": ("bits", ",", False, BITS, _token_lines(",", lead=",")),
        "crlf": ("signs", ",", False, SIGNS, _token_lines(",", eol="\r\n")),
        "semicolon": ("signs", ";", False, PLUS, _token_lines(";")),
        "tab bits": ("bits", "\t", False, BITS, _token_lines("\t", tail="\t")),
        "ws header blanks": ("signs", "ws", True, SIGNS, lambda rows: "x y\n" + _token_lines("  ", tail=" ", eol="\n\n")(rows)),
        "mixed lines": (
            "signs", ",", True, SIGNS,
            lambda rows: "1\n" + "\n".join(" , ".join(t) if i % 3 else ",".join(t) for i, t in enumerate(rows)),
        ),
    }

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 1000])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_matches_token_reference(self, tmp_path, route, layout, n):
        encoding, delimiter, header, (plus, minus), build = self.LAYOUTS[layout]
        rng = np.random.default_rng([n, len(layout)])
        rows = [[plus if v > 0 else minus for v in rng.choice([-1, 1], size=n)] for _ in range(12)]
        rows += rows[:5]  # repeated cells
        p = tmp_path / "d.txt"
        with open(p, "w", encoding="utf-8", newline="") as handle:
            handle.write(build(rows))
        counts = load_observations(p, encoding=encoding, delimiter=delimiter, header=header)
        want_n, want_total, want_cells = oracles.decode_observations(p, encoding, delimiter, header)
        assert (counts.n, counts.total) == (want_n, want_total) == (n, 17)
        assert counts.cells == tuple(sorted(want_cells.items()))

    @pytest.mark.parametrize(
        "encoding, delimiter, text",
        [
            ("signs", "-", "1-1\n1--1\n"),
            ("signs", "+", "1+1\n-1+1\n"),
            ("bits", "0", "1010\n101\n000\n"),
            ("bits", "1", "0101\n010\n111\n"),
            ("signs", ",", "1,\u00a0-1\n\u2003-1,1\n"),
        ],
    )
    def test_odd_delimiters_and_non_ascii_match_reference(self, tmp_path, route, encoding, delimiter, text):
        p = tmp_path / "d.txt"
        p.write_text(text, encoding="utf-8")
        counts = load_observations(p, encoding=encoding, delimiter=delimiter)
        n, total, cells = oracles.decode_observations(p, encoding, delimiter)
        assert (counts.n, counts.total, counts.cells) == (n, total, tuple(sorted(cells.items())))

    @pytest.mark.parametrize(
        "encoding, line, token",
        [
            ("signs", "1,2", "2"),
            ("signs", "--1", "--1"),
            ("signs", "+-1", "+-1"),
            ("signs", "1-1", "1-1"),
            ("signs", "11", "11"),
            ("signs", "1,+", "+"),
            ("signs", ",2", "2"),
            ("signs", "x,-1", "x"),
            ("bits", "01", "01"),
            ("bits", "0,-1", "-1"),
            ("bits", "2,1", "2"),
            ("bits", "0;1", "0;1"),
            ("signs", "1,\u00e9", "\u00e9"),
        ],
    )
    @pytest.mark.parametrize("prefix", ["", "1," * 300])
    def test_bad_line_message(self, tmp_path, route, encoding, line, token, prefix):
        p = tmp_path / "d.csv"
        p.write_text(f"1,1\n{prefix}{line}\n1,1\n", encoding="utf-8")
        expected = "-1/+1" if encoding == "signs" else "0/1"
        with pytest.raises(DataError) as info:
            load_observations(p, encoding=encoding)
        assert str(info.value) == f"{p}:2: expected {expected} tokens, got {token!r}"
        with pytest.raises(ValueError) as info:
            oracles.decode_observations(p, encoding)
        assert str(info.value) == f"line 2: bad token {token!r}"

    @pytest.mark.parametrize("line, token", [("1,-", "-"), ("-1,+", "+"), ("1,-1-", "-1-")])
    def test_bad_last_line_without_line_end(self, tmp_path, route, line, token):
        p = tmp_path / "d.csv"
        p.write_text(f"1,1\n{line}")
        with pytest.raises(DataError) as info:
            load_observations(p)
        assert str(info.value) == f"{p}:2: expected -1/+1 tokens, got {token!r}"

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"1,2\n\xff,1\n", ":1: expected -1/+1 tokens, got '2'"),
            (b"\xff,1\n1,2\n", ":1: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["bad token first", "bad byte first"],
    )
    def test_first_fault_in_file_order(self, tmp_path, route, raw, message):
        p = tmp_path / "d.csv"
        p.write_bytes(raw)
        with pytest.raises(DataError) as info:
            load_observations(p)
        assert str(info.value) == f"{p}{message}"

    def test_bad_token_reported_before_ragged_rows(self, tmp_path, route):
        p = tmp_path / "d.csv"
        p.write_text("1,-1\n1,-1,1\n1,2\n")
        with pytest.raises(DataError) as info:
            load_observations(p)
        assert str(info.value) == f"{p}:3: expected -1/+1 tokens, got '2'"

    @pytest.fixture
    def token_loop_lines(self, monkeypatch):
        """Records the number of lines in each block sent to the token loop."""
        seen = []
        real = cli._token_rows

        def spy(block, *args):
            seen.append(len(block.splitlines()))
            return real(block, *args)

        monkeypatch.setattr(cli, "_token_rows", spy)
        return seen

    # name -> (delimiter, header, file text): each is read by the byte pass alone.
    BYTE_PASS = {
        "canonical": (",", False, "1,-1,1\n-1,1,1\n"),
        "plus tokens": (",", False, "+1,-1,1\n-1,+1,+1\n"),
        "leading and trailing spaces": (",", False, "  1,-1,1  \n -1,1,1\n"),
        "leading and trailing tabs": (",", False, "\t1,-1,1\t\n\t\t-1,1,1\n"),
        "spaces and tabs mixed": (",", False, " \t1,-1,1 \t \n-1,1,1\t \n \t\n"),
        "header": (",", True, "x1,x2,x3\n1,-1,1\n-1,1,1\n"),
        "padded header": (",", True, " x1 , x2 , x3 \n1,-1,1\n-1,1,1\n"),
        "non-ASCII header": (",", True, "\u00e9t\u00e9,\u00fc,\u2603\n1,-1,1\n-1,1,1\n"),
        "empty tokens": (",", False, ",1,,-1,1,\n,,-1,1,1,,\n"),
        "delimiter-only and blank lines": (",", False, "1,-1,1\n,,,\n\n   \n-1,1,1\n"),
        "crlf and lone cr": (",", False, "1,-1,1\r\n-1,1,1\r1,1,1\n"),
        "space delimiter with tabs": (" ", False, "\t1 -1  1\t\n-1 1 1 \n"),
        "tab delimiter with spaces": ("\t", False, " 1\t-1\t1 \n-1\t1\t1\t\n"),
        "no final line end": (";", False, "1;-1;1\n-1;1;1"),
    }

    @pytest.mark.parametrize("layout", sorted(BYTE_PASS))
    def test_byte_pass_reads_without_token_loop(self, tmp_path, token_loop_lines, layout):
        delimiter, header, text = self.BYTE_PASS[layout]
        p = tmp_path / "d.txt"
        p.write_bytes(text.encode("utf-8"))
        counts = load_observations(p, delimiter=delimiter, header=header)
        n, total, cells = oracles.decode_observations(p, "signs", delimiter, header)
        assert (counts.n, counts.total, counts.cells) == (n, total, tuple(sorted(cells.items())))
        assert token_loop_lines == []

    @pytest.mark.parametrize(
        "text",
        ["1, -1\n", "1 ,-1\n", "1,\x0b-1\n", "1,-1\x0c\n", "1,\u00a0-1\n", "1,1\n1,- 1\n"],
        ids=["space after delimiter", "space before delimiter", "vertical tab", "form feed", "no-break space", "split token"],
    )
    def test_byte_pass_refuses_padded_tokens(self, tmp_path, token_loop_lines, text):
        # Whitespace that is not at either end of a line, or not a space or
        # tab, is left to the token loop, which strips each token.
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        try:
            want = oracles.decode_observations(p)
        except ValueError:
            with pytest.raises(DataError):
                load_observations(p)
        else:
            counts = load_observations(p)
            assert (counts.n, counts.total, counts.cells) == (want[0], want[1], tuple(sorted(want[2].items())))
        assert token_loop_lines == [text.count("\n")]

    def test_refusal_costs_only_its_block(self, tmp_path, monkeypatch, token_loop_lines):
        monkeypatch.setattr(cli, "_READ_BLOCK", 16)
        lines = ["1,-1,1,1"] * 12
        lines[5] = "1, -1,1,1"
        p = tmp_path / "d.csv"
        p.write_text("\n".join(lines) + "\n")
        counts = load_observations(p)
        assert counts.total == 12
        # 9-byte lines in 16-byte reads: a block holds one or two lines, and
        # only the padded line's block goes to the token loop.
        assert len(token_loop_lines) == 1 and token_loop_lines[0] <= 2

    # name -> (header, file bytes) that straddle reads of a few bytes.
    BOUNDARIES = {
        "line longer than a block": (False, b"1,-1,1,-1,1,-1,1,-1,1,-1,1,-1\n" * 3),
        "crlf split across blocks": (False, b"1,-1\r\n-1,1\r\n1,1\r\n-1,-1\r\n" * 3),
        "lone cr at block ends": (False, b"1,-1\r\r-1,1\r1,1\r\n\r-1,-1\r" * 3),
        "no final line end": (False, b"1,-1\n-1,1\n1,1\n-1,-1"),
        "delimiter-only and blank lines": (False, b"1,-1\n,,,,\n\n\r\n  \t \n,\n-1,1\n" * 3),
        "non-ASCII header": (True, "\u00e9t\u00e9,\u2603,\U0001f600 \u00fc\n1,-1\n-1,1\n".encode("utf-8")),
        "padded lines": (False, b"  1,-1 \n\t-1,1\t\n 1 , 1 \n" * 3),
    }

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 13])
    @pytest.mark.parametrize("case", sorted(BOUNDARIES))
    def test_read_block_boundaries(self, tmp_path, monkeypatch, route, case, size):
        monkeypatch.setattr(cli, "_READ_BLOCK", size)
        header, raw = self.BOUNDARIES[case]
        p = tmp_path / "d.csv"
        p.write_bytes(raw)
        counts = load_observations(p, header=header)
        n, total, cells = oracles.decode_observations(p, "signs", ",", header)
        assert (counts.n, counts.total, counts.cells) == (n, total, tuple(sorted(cells.items())))

    @pytest.mark.parametrize("size", [1, 4, 7, 64])
    def test_not_utf8_after_the_first_block(self, tmp_path, monkeypatch, route, size):
        monkeypatch.setattr(cli, "_READ_BLOCK", size)
        p = tmp_path / "d.csv"
        p.write_bytes(b"1,-1\r\n-1,1\r" * 20 + b"1,\xe9\n1,1\n")
        with pytest.raises(DataError) as info:
            load_observations(p)
        reason = "byte 0xe9 in position 2: unexpected end of data"
        assert str(info.value) == f"{p}:41: not valid UTF-8: 'utf-8' codec can't decode {reason}"

    @pytest.mark.parametrize("size", [1, 5, 64])
    def test_header_not_utf8(self, tmp_path, monkeypatch, size):
        monkeypatch.setattr(cli, "_READ_BLOCK", size)
        p = tmp_path / "d.csv"
        p.write_bytes(b"x\xff,y\n1,-1\n")
        with pytest.raises(DataError) as info:
            load_observations(p, header=True)
        reason = "byte 0xff in position 1: invalid start byte"
        assert str(info.value) == f"{p}:1: not valid UTF-8: 'utf-8' codec can't decode {reason}"

    @pytest.mark.parametrize(
        "text",
        ["1,-1\n-1,1\n1,1\n", " 1 , -1 \n-1,1\n1,1\n", "1,-1\n1 ,1\n" * 40],
        ids=["canonical", "padded", "mixed blocks"],
    )
    def test_counts_are_taken_once_through_cli(self, tmp_path, monkeypatch, text):
        # e2ebench times estimators.counts_from_observations by rebinding
        # bindens.cli's global: every file, whichever decoder read it, is
        # counted by one call through that name, on rows already packed.
        monkeypatch.setattr(cli, "_READ_BLOCK", 16)
        calls = []
        real = cli.counts_from_observations

        def counted(points, **packed):
            calls.append((packed, points.dtype, points.shape))
            return real(points, **packed)

        monkeypatch.setattr(cli, "counts_from_observations", counted)
        p = tmp_path / "d.csv"
        p.write_text(text)
        counts = load_observations(p)
        assert calls == [({"_n": 2}, np.uint8, (counts.total, 1))]


def _token_loop_counts(path, encoding="signs", delimiter=",", header=False):
    """counts_from_observations of the -1/+1 rows that the token loop
    decodes from the whole file: the unpacked reference for the packed
    ingest."""
    lines = path.read_bytes().splitlines()[1 if header else 0 :]
    rows, _ = cli._token_rows(b"\n".join(lines), 1, encoding, delimiter, path)
    return counts_from_observations([1 - 2 * bits.astype(np.int8) for bits in rows])


class TestPackedIngest:
    """load_observations packs each block's rows as it decodes them; at
    small read blocks its counts match the token loop's unpacked rows, and
    a width change stops the packing but not the decoding."""

    @staticmethod
    def _rows(n, count, seed, tokens=("1", "-1")):
        rng = np.random.default_rng(seed)
        rows = [[tokens[v] for v in rng.integers(0, 2, size=n)] for _ in range(count)]
        return rows + rows[: count // 3]  # repeated cells

    def _check(self, p, **options):
        counts = load_observations(p, **options)
        want = _token_loop_counts(p, **options)
        assert (counts.n, counts.total, counts.cells) == (want.n, want.total, want.cells)
        return counts

    @pytest.mark.parametrize("size", [1, 7, 32, 100])
    def test_rows_of_two_widths_in_one_block(self, tmp_path, monkeypatch, route, size):
        monkeypatch.setattr(cli, "_READ_BLOCK", size)
        p = tmp_path / "d.csv"
        # Rows of width 3 before and after a width-4 row: packing stops at
        # the first disagreement, so the later rows of the first width are
        # still decoded, and the last line's bad token is reported first.
        p.write_text("1,-1,1\n-1,-1,1\n1,1,1,1\n-1,1,1\n1,2,1\n")
        with pytest.raises(DataError) as info:
            load_observations(p)
        assert str(info.value) == f"{p}:5: expected -1/+1 tokens, got '2'"
        p.write_text("1,-1,1\n-1,-1,1\n1,1,1,1\n-1,1,1\n1,1\n")
        with pytest.raises(DataError) as info:
            load_observations(p)
        assert str(info.value) == f"{p}: rows have inconsistent lengths [2, 3, 4]"

    @pytest.mark.parametrize("tail", ["", "1,2\n", "1,-1,1,1\n"], ids=["ragged", "bad token", "third width"])
    def test_width_change_at_a_block_boundary(self, tmp_path, monkeypatch, route, tail):
        # 10-byte reads cut after every second 5-byte line, so the first
        # 3-wide row opens a block.
        monkeypatch.setattr(cli, "_READ_BLOCK", 10)
        p = tmp_path / "d.csv"
        p.write_text("1,-1\n" * 4 + "1,-1,1\n" * 4 + tail)
        with pytest.raises(DataError) as info:
            load_observations(p)
        message = {
            "": ": rows have inconsistent lengths [2, 3]",
            "1,2\n": ":9: expected -1/+1 tokens, got '2'",
            "1,-1,1,1\n": ": rows have inconsistent lengths [2, 3, 4]",
        }[tail]
        assert str(info.value) == f"{p}{message}"

    @pytest.mark.parametrize("size", [1, 9, 64, 1 << 16])
    @pytest.mark.parametrize("n", [1, 8, 13, 200])
    def test_blank_lines_inside_blocks(self, tmp_path, monkeypatch, route, size, n):
        monkeypatch.setattr(cli, "_READ_BLOCK", size)
        lines = [",".join(row) for row in self._rows(n, 12, n)]
        for k in (0, 3, 4, 9):
            lines.insert(k, ["", "  ", ",,", "\t"][k % 4])
        p = tmp_path / "d.csv"
        p.write_text("\n".join(lines) + "\n\n\n")
        assert self._check(p).total == 16

    @pytest.mark.parametrize("size", [8, 30, 60])
    def test_token_loop_blocks_between_array_blocks(self, tmp_path, monkeypatch, size):
        rows = self._rows(9, 30, size)
        # Every eleventh line pads a token, which only the token loop reads.
        lines = [" , ".join(row) if k % 11 == 2 else ",".join(row) for k, row in enumerate(rows)]
        p = tmp_path / "d.csv"
        p.write_text("\n".join(lines) + "\n")
        want = _token_loop_counts(p)
        monkeypatch.setattr(cli, "_READ_BLOCK", size)
        seen = []
        real = cli._token_rows
        monkeypatch.setattr(cli, "_token_rows", lambda block, *args: seen.append(block) or real(block, *args))
        counts = load_observations(p)
        assert (counts.n, counts.total, counts.cells) == (want.n, want.total, want.cells) == (9, len(rows), want.cells)
        # Both decoders read some of the blocks.
        assert 0 < sum(len(block.splitlines()) for block in seen) < len(rows)

    @pytest.mark.parametrize("size", [1, 6, 50, 1 << 16])
    @pytest.mark.parametrize(
        "encoding, eol, header",
        [("signs", "\r\n", False), ("signs", "\r\n", True), ("signs", "\n", True), ("bits", "\n", False), ("bits", "\r\n", True)],
    )
    def test_header_crlf_and_bits(self, tmp_path, monkeypatch, route, size, encoding, eol, header):
        monkeypatch.setattr(cli, "_READ_BLOCK", size)
        tokens = ("1", "-1") if encoding == "signs" else ("0", "1")
        rows = self._rows(11, 15, size, tokens)
        text = ("c1,c2" + eol if header else "") + eol.join(",".join(row) for row in rows) + eol
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("ascii"))
        assert self._check(p, encoding=encoding, header=header).total == len(rows)

    def test_peak_memory_of_a_wide_file(self, tmp_path):
        # 100 rows of 10^4 signs, about 2.5 MB: the loader holds one read
        # block's work arrays and the packed rows (125 KB), not a byte per
        # sign of the whole file.
        p = tmp_path / "wide.csv"
        rng = np.random.default_rng(10000)
        np.savetxt(p, rng.choice([-1, 1], size=(100, 10000)), fmt="%d", delimiter=",")
        load_observations(p)  # first-call allocations (imports, caches) stay outside the count
        tracemalloc.start()
        try:
            counts = load_observations(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (counts.n, counts.total, len(counts.cells)) == (10000, 100, 100)
        assert peak <= 1.5e6, f"load_observations peaked at {peak / 1e6:.2f} MB"


class TestParseCellsSpec:
    def test_mixed_indexes_and_patterns(self):
        parsed = parse_cells_spec([3, "7", "+-+"], 3)
        assert [p["cell"] for p in parsed] == [3, 7, 3]

    def test_conditional_pattern(self):
        parsed = parse_cells_spec(["?++"], 3)
        item = parsed[0]
        assert item["kind"] == "conditional"
        assert item["coordinate"] == 1
        assert item["cell_plus"] == 1
        assert item["cell_minus"] == 2

    def test_rejects_double_hole(self):
        from bindens.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_cells_spec(["??+"], 3)

    def test_rejects_wrong_length(self):
        from bindens.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_cells_spec(["+-"], 3)

    @pytest.mark.parametrize("text", ["\u00b2", "--5", "+-3", "1_000", "12a", "+*"])
    def test_rejects_non_index_naming_the_cell(self, text):
        # One decimal check for indexes: a digit that is not decimal, or a
        # second sign, is a bad query cell, not a bare parse error.
        with pytest.raises(ConfigError) as info:
            parse_cells_spec([text], 3)
        assert str(info.value) == f"query cell {text!r} is neither an index nor a +/-/? pattern"

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 10_000])
    def test_patterns_match_index_of_point(self, n):
        # Patterns are indexed from their bytes; index_of_point is the reference.
        rng = np.random.default_rng(n)
        signs = rng.choice([-1, 1], size=n)
        text = "".join("+" if v > 0 else "-" for v in signs)
        assert parse_cells_spec(["-" * n, "+" * n], n) == [
            {"kind": "cell", "cell": 1 << n, "label": "-" * n},
            {"kind": "cell", "cell": 1, "label": "+" * n},
        ]
        items = [text]
        for pos in sorted({0, n // 2, n - 1}):
            items.append(text[:pos] + "?" + text[pos + 1:])
        parsed = parse_cells_spec(items, n)
        assert parsed[0] == {"kind": "cell", "cell": index_of_point(signs), "label": text}
        for item, got in zip(items[1:], parsed[1:]):
            pos = item.index("?")
            plus, minus = signs.copy(), signs.copy()
            plus[pos], minus[pos] = 1, -1
            assert got == {
                "kind": "conditional",
                "pattern": item,
                "coordinate": pos + 1,
                "cell_plus": index_of_point(plus),
                "cell_minus": index_of_point(minus),
            }


    def test_first_bad_item_raises_in_input_order(self):
        # Items are checked one by one before any pattern is decoded.
        with pytest.raises(ConfigError, match="query cell '12a' is neither"):
            parse_cells_spec(["+-+", "12a", "++", "??+"], 3)
        with pytest.raises(ConfigError, match="pattern '\\+\\+' has 2 coordinates"):
            parse_cells_spec(["+-+", 5, "++", "12a"], 3)
        with pytest.raises(ConfigError, match="has 2 '\\?' marks"):
            parse_cells_spec(["??+", "++"], 3)

    def test_many_patterns_mixed_with_indexes(self):
        n = 9
        rng = np.random.default_rng(9)
        signs = rng.choice([-1, 1], size=(2_000, n))
        texts = ["".join("+" if v > 0 else "-" for v in row) for row in signs]
        parsed = parse_cells_spec([7] + texts + ["12"], n)
        assert parsed[0]["cell"] == 7 and parsed[-1]["cell"] == 12
        assert [p["cell"] for p in parsed[1:-1]] == [index_of_point(row) for row in signs]
        assert [p["label"] for p in parsed[1:-1]] == texts


class TestParseDecimal:
    @pytest.mark.parametrize("digits", [4300, 4301])
    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_around_int_text_limit(self, digits, sign):
        text = sign + "7" + "3" * (digits - 1)
        with _unlimited_int_text():
            want = int(text)
            assert _parse_decimal(text) == want
        with _unlimited_int_text(4300):
            assert _parse_decimal(f" {text}\n") == want

    @pytest.mark.parametrize("text", ["", "-", "1_000", "12a", "--3", "1.5", "\u00b2", "--5", "+-3"])
    def test_rejects_non_decimal(self, text):
        with pytest.raises(ValueError):
            _parse_decimal(text)


class TestIntText:
    """Cell indexes to JSON: a bit length settles most sizes, and the text
    is what decimal.Decimal would write at every size."""

    @staticmethod
    def _cases(limit):
        cases = [0, 2**53 - 1, 2**53, 2**53 + 1, 3 << 9_998, 2**15_000 - 5]
        if limit:
            power = 10**limit
            bits = 3 * (limit - 1)
            cases += [power - 1, power, power + 1, 2**bits - 1, 2**bits, 10 ** (limit - 1), 10 ** (limit - 1) - 1]
        return cases

    @pytest.mark.parametrize("limit", [4300, 640, 5000, 0])
    def test_decimal_text_matches_decimal_module(self, limit):
        with _unlimited_int_text(limit):
            for value in self._cases(limit):
                assert cli._decimal(value) == str(decimal.Decimal(value))

    @pytest.mark.parametrize("limit", [4300, 640, 5000, 0])
    def test_json_int_is_a_number_while_str_prints_it(self, limit):
        with _unlimited_int_text(limit):
            for value in self._cases(limit) + [10**6000]:
                fits = limit == 0 or value < 10**limit
                want = value if fits else str(decimal.Decimal(value))
                got = cli._json_int(value)
                assert got == want and type(got) is type(want)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1.5e-05, 0.1]


class TestWriteReport:
    @pytest.fixture(autouse=True, params=["repr", "vector"])
    def route(self, request, monkeypatch):
        """Every array takes the route named: the vector route from one
        value on, or repr however long the array is."""
        monkeypatch.setattr(cli, "_VECTOR_MIN_VALUES", 1 if request.param == "vector" else 1 << 30)

    @pytest.mark.parametrize(
        "payload",
        [
            {"estimate": {"full": True, "values": np.array(SPECIAL_FLOATS)}, "timing": {"elapsed_ms": 1.5}},
            {"values": np.array(SPECIAL_FLOATS[::-1]), "empty": np.array([]), "one": np.array([2.0])},
            np.array(SPECIAL_FLOATS),
            [np.array([0.1, -math.inf]), {"nested": [np.array([math.nan])]}, "nan inf, ok"],
            {"values": np.random.default_rng(1).standard_normal(300) * 1e-5, "path": "a\"b\u00e9"},
            # Bitwise-constant arrays take the one-repr route; -0.0 beside
            # 0.0 compares equal but is not constant.
            {"w": np.full(7, 0.8), "tiny": np.full(3, 5e-324), "zeros": np.zeros(4)},
            {"signed_zeros": np.array([-0.0, 0.0]), "other_order": np.array([0.0, -0.0, 0.0])},
            {"nan": np.full(3, math.nan), "inf": np.full(2, math.inf), "-inf": np.full(4, -math.inf)},
            {"mixed": np.array([0.8, 0.8, 0.8, 0.1]), "nan_last": np.array([1.0, 1.0, math.nan])},
            # Several blocks of the vector route, at two indents.
            {"estimate": {"values": np.concatenate([np.random.default_rng(2).random(20_000) / 3, SPECIAL_FLOATS])}},
            [np.random.default_rng(3).standard_normal(9_000) * 1e12],
            {"strided": np.linspace(-1.0, 1.0, 41)[::3], "reversed": np.geomspace(1e-310, 1e300, 50)[::-1]},
        ],
    )
    def test_matches_json_dumps_byte_for_byte(self, tmp_path, payload):
        out = tmp_path / "r.json"
        cli.write_report(out, payload)
        want = json.dumps(payload, indent=2, default=lambda a: a.tolist()) + "\n"
        assert out.read_bytes() == want.encode("utf-8")

    def test_refuses_other_arrays(self, tmp_path):
        out = tmp_path / "r.json"
        for values in (np.arange(3), np.zeros((2, 2)), np.zeros(2, dtype=np.float32)):
            with pytest.raises(TypeError):
                cli.write_report(out, {"values": values})
        assert not out.exists()

    def test_placeholder_text_in_payload(self, tmp_path):
        out = tmp_path / "r.json"
        cli.write_report(out, {"text": "\x00ndarray"})
        assert _read_json(out) == {"text": "\x00ndarray"}
        with pytest.raises(ValueError):
            cli.write_report(out, {"text": "\x00ndarray", "values": np.zeros(2)})


def test_vector_route_is_imported_only_for_long_vectors(tmp_path):
    """Compiling floattext costs every command that imports it several ms, so
    cli imports it only when a report holds a long float vector."""
    script = """
import sys
import numpy as np
import bindens.cli as cli
assert "bindens.floattext" not in sys.modules
cli.write_report(sys.argv[1], {"values": np.arange(cli._VECTOR_MIN_VALUES - 1) / 3})
assert "bindens.floattext" not in sys.modules
cli.write_report(sys.argv[1], {"values": np.arange(cli._VECTOR_MIN_VALUES) / 3})
assert "bindens.floattext" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "r.json")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n, limit_mb", [(16, 3.0), (20, 3.0)])
def test_write_report_memory_stays_in_blocks(tmp_path, n, limit_mb):
    """A full vector's text is written as it is made, block by block, in one
    set of working arrays: the peak, 2.58 MiB at either n, stays that of one
    block (3.0 MiB leaves 16 % for numpy's allocations), where the list repr
    formats, its text and that text's copies took 87.5 MB at n = 20."""
    values = np.random.default_rng(n).random(1 << n) / (1 << n)
    assert values.size >= cli._VECTOR_MIN_VALUES
    payload = {"estimate": {"full": True, "values": values, "sum": 1.0}}
    out = tmp_path / "r.json"
    cli.write_report(out, {"values": values[: cli._VECTOR_MIN_VALUES]})  # imports and tables
    gc.collect()
    tracemalloc.start()
    try:
        cli.write_report(out, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 20 << n
    assert peak <= limit_mb * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestEstimateCommand:
    def test_uniform_all_cells(self, workspace, capsys):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "report.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = _read_json(out)
        assert report["report_version"] == 2
        assert "backend" not in report
        assert report["command"] == "estimate"
        assert report["n"] == 2
        assert report["estimate"]["full"] is True
        np.testing.assert_allclose(report["estimate"]["values"], [0.25] * 4)
        assert report["estimate"]["sum"] == pytest.approx(1.0, abs=1e-12)
        assert "seed" in report
        stdout = capsys.readouterr().out
        assert "wrote" in stdout

    def test_frequency_matches_empirical(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "report.json"
        _write_json(cfg, {"estimator": FREQUENCY_2})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        # observed cells: (+,+) -> 1, (+,-) -> 3, (-,+) -> 2
        np.testing.assert_allclose(
            report["estimate"]["values"], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-15
        )

    def test_explicit_cells_and_patterns(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "report.json"
        _write_json(
            cfg,
            {
                "estimator": {"variant": "waak", "gamma": 2.0, "w": 0.5},
                "query": {"cells": [1, "--"]},
            },
        )
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        assert report["estimate"]["full"] is False
        assert report["estimate"]["cells"] == [1, 4]
        counts = counts_from_observations([(1, 1), (1, -1), (-1, 1)])
        want = estimate_at([1, 4], EstimatorConfig.waak(np.full(2, 0.5), 2.0), counts)
        np.testing.assert_allclose(report["estimate"]["values"], want.values, rtol=1e-13)

    def test_rerun_identical_after_timing_strip(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"estimator": {"variant": "aa_classic", "lambda": 0.8}, "seed": 7})
        out1, out2 = tmp / "r1.json", tmp / "r2.json"
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out2)]) == 0
        a, b = _read_json(out1), _read_json(out2)
        assert "timing" in a
        assert json.dumps(_strip_timing(a), sort_keys=True) == json.dumps(
            _strip_timing(b), sort_keys=True
        )
        assert a["seed"] == 7

    def test_overwrites_existing_report(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "report.json"
        out.write_text("not json {")
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        assert _read_json(out)["command"] == "estimate"

    def test_full_vector_at_n16_is_json_dumps_output(self, tmp_path):
        rng = np.random.default_rng(9)
        n = 16
        data = tmp_path / "obs.csv"
        _write_signs(data, rng.choice([-1, 1], size=(40, n)))
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        _write_json(cfg, {"estimator": {"variant": "waak", "gamma": 3.0, "w": 0.7}, "query": {"cells": "all"}})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        assert len(report["estimate"]["values"]) == 1 << n
        assert json.dumps(report, indent=2) + "\n" == text

    def test_moderate_dimension_explicit_cells(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 25
        data = tmp_path / "obs.csv"
        _write_signs(data, rng.choice([-1, 1], size=(10, n)))
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        _write_json(
            cfg,
            {
                "estimator": {"variant": "waak", "gamma": 1.6, "w": 0.6},
                "query": {"cells": [1, 77, (1 << 25)]},
            },
        )
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        assert len(report["estimate"]["values"]) == 3
        assert all(v >= 0 for v in report["estimate"]["values"])

    def test_full_estimate_over_capacity_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        n = 25
        data = tmp_path / "obs.csv"
        _write_signs(data, rng.choice([-1, 1], size=(3, n)))
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"estimator": {"variant": "waak", "gamma": 2.0, "w": 0.5}})
        code = main(
            ["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "r.json")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "n=25" in err and "list explicit query cells" in err
        assert not (tmp_path / "r.json").exists()

    def test_degenerate_normalizer_exits_4(self, workspace, capsys):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(
            cfg,
            {
                "estimator": {
                    "variant": "transformed",
                    "shrinkage": {"form": "sparse", "entries": {"2": 0.7}},
                    "transform": {"kind": "tanh", "scale": 1.0},
                }
            },
        )
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")])
        assert code == 4
        assert "not positive" in capsys.readouterr().err

    def test_rounding_error_normalizer_exits_4(self, tmp_path, capsys):
        # The identity over a single-interaction row sums to 0 exactly; at
        # n=6, w=0.3 the summed row gives 1.8e-15, rounding error only.
        data, cfg = tmp_path / "obs.csv", tmp_path / "cfg.json"
        _write_signs(data, [(1, -1, 1, 1, -1, 1), (-1, -1, 1, 1, 1, 1)])
        shrinkage = {"form": "single_interaction", "w": 0.3}
        _write_json(cfg, {"estimator": {"variant": "transformed", "shrinkage": shrinkage, "transform": {"kind": "identity"}},
                          "query": {"cells": [1, 2]}})
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == 4
        assert "not positive" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_missing_estimator_key_exits_2(self, workspace, capsys):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"cv": {}})
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")])
        assert code == 2
        assert "estimator" in capsys.readouterr().err

    def test_invalid_json_config_exits_2(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        cfg.write_text("{broken")
        assert (
            main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")])
            == 2
        )

    def test_bad_data_token_exits_2(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("1,-1\nx,-1\n")
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert ":2" in capsys.readouterr().err

    def test_missing_data_file_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        code = main(
            [
                "estimate",
                "--data",
                str(tmp_path / "nope.csv"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2


class TestCvCommand:
    def _dataset(self, tmp_path, rng, n=4, rows=16):
        data = tmp_path / "obs.csv"
        _write_signs(data, rng.choice([-1, 1], size=(rows, n)))
        return data

    def test_aa_grid_matches_library(self, tmp_path):
        rng = np.random.default_rng(11)
        data = self._dataset(tmp_path, rng)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        lambdas = [0.6, 0.75, 0.9]
        _write_json(cfg, {"cv": {"loss": "kl", "search": {"kind": "aa_lambda", "lambdas": lambdas}}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        assert report["command"] == "cv"
        assert report["loss"] == "kl"
        assert report["partial"] is False
        rows = report["evaluations"]
        assert len(rows) == 3
        assert [row["rank"] for row in rows] == [1, 2, 3]
        counts = load_observations(data)
        want = {
            lam: kl_risk(EstimatorConfig.aa_classic(4, lam), counts).value for lam in lambdas
        }
        best_lam = max(want, key=want.get)
        assert report["best"]["estimator"]["lambda"] == best_lam
        assert report["best"]["value"] == pytest.approx(want[best_lam], rel=1e-12)
        # ranked rows are ordered best to worst
        values = [row["value"] for row in rows]
        assert values == sorted(values, reverse=True)

    def test_loss_flag_overrides_config(self, tmp_path):
        rng = np.random.default_rng(12)
        data = self._dataset(tmp_path, rng)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        _write_json(cfg, {"cv": {"loss": "kl", "search": {"kind": "aa_lambda", "lambdas": [0.6, 0.9]}}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out), "--loss", "se"]) == 0
        report = _read_json(out)
        assert report["loss"] == "se"
        values = [row["value"] for row in report["evaluations"]]
        assert values == sorted(values)

    def test_element_count_bookkeeping(self, tmp_path):
        rng = np.random.default_rng(13)
        data = self._dataset(tmp_path, rng, n=3, rows=9)
        counts = load_observations(data)
        N = counts.total
        m = len(counts.cells)
        repeated = sum(1 for _, cnt in counts.cells if cnt >= 2)
        aa = {"variant": "aa_classic", "lambda": 0.8}
        linear = {"variant": "linear", "shrinkage": {"form": "sparse", "entries": {"1": 1.0, "2": 0.5}}}
        searches = [
            {"kind": "aa_lambda", "lambdas": [0.7, 0.8]},
            {"kind": "linear_sparse", "indexes": [2, 5], "value_grid": [0.25, 0.75]},
            {"kind": "mixture", "components": [aa, linear], "denominator": 3},
        ]
        for pos, search in enumerate(searches):
            cfg = tmp_path / f"cfg{pos}.json"
            _write_json(cfg, {"cv": {"search": search}})

            out_kl = tmp_path / f"kl{pos}.json"
            assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out_kl), "--loss", "kl"]) == 0
            for row in _read_json(out_kl)["evaluations"]:
                assert row["squared_element_evals"] == 0
                assert row["element_evals"] == m * (m - 1) // 2 + repeated
                assert row["element_evals"] <= N * (N - 1) // 2

            out_se = tmp_path / f"se{pos}.json"
            assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out_se), "--loss", "se"]) == 0
            for row in _read_json(out_se)["evaluations"]:
                assert row["squared_element_evals"] == m * (m + 1) // 2
                assert row["squared_element_evals"] <= N * (N + 1) // 2
                assert row["element_evals"] == m * (m - 1) // 2 + repeated

    def test_budget_partial_exits_2_with_report(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        data = self._dataset(tmp_path, rng)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        _write_json(
            cfg,
            {
                "cv": {
                    "search": {
                        "kind": "waak",
                        "gammas": [1.5, 2.0],
                        "w": {"mode": "shared_grid", "grid": [0.3, 0.7]},
                        "budget": 2,
                    }
                }
            },
        )
        code = main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        report = _read_json(out)
        assert report["partial"] is True
        assert len(report["evaluations"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_integral_float_budget_reads_as_integer(self, workspace):
        """budget is read like sweeps and denominator: 2.0 means 2."""
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "cv.json"
        _write_json(cfg, {"cv": {"search": {"kind": "aa_lambda", "lambdas": [0.6, 0.7, 0.8], "budget": 2.0}}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        report = _read_json(out)
        assert report["partial"] is True
        assert len(report["evaluations"]) == 2

    @pytest.mark.parametrize("loss", ["kl", "se"])
    def test_waak_product_search_matches_library(self, tmp_path, loss):
        rng = np.random.default_rng(16)
        data = self._dataset(tmp_path, rng, n=3, rows=12)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        gammas, axes = [1.5, 2.5], [[0.2, 1.0], [0.5], [0.2, 1.0]]
        search = {"kind": "waak", "gammas": gammas, "w": {"mode": "product", "axes": axes}}
        _write_json(cfg, {"cv": {"loss": loss, "search": search}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        rows = sorted(_read_json(out)["evaluations"], key=lambda row: row["candidate_index"])
        want, _, _ = evaluate_space(SearchSpace.waak_product(gammas, axes), loss, load_observations(data))
        assert [row["candidate_index"] for row in rows] == list(range(len(want))) == list(range(8))
        for row, rep in zip(rows, want):
            assert row["estimator"] == {"variant": "waak", "gamma": rep.config.gamma, "w": rep.config.shrinkage.w.tolist()}
            assert row["value"] == pytest.approx(rep.value, rel=1e-12)

    def test_waak_product_search_needs_an_axis_per_coordinate(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        data = self._dataset(tmp_path, rng, n=3, rows=12)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        search = {"kind": "waak", "gammas": [1.5], "w": {"mode": "product", "axes": [[0.2, 1.0], [0.5]]}}
        _write_json(cfg, {"cv": {"search": search}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: product search needs 3 axes, got 2"]
        assert not out.exists()

    def test_waak_descent_rows(self, tmp_path):
        rng = np.random.default_rng(15)
        data = self._dataset(tmp_path, rng, n=3, rows=12)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        _write_json(
            cfg,
            {
                "cv": {
                    "loss": "kl",
                    "search": {
                        "kind": "waak_descent",
                        "gammas": [1.5, 2.5],
                        "grid": [0.0, 0.5, 1.0],
                        "initial": 0.5,
                        "sweeps": 2,
                    },
                }
            },
        )
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        rows = report["evaluations"]
        assert len(rows) == 2
        assert sorted(row["gamma"] for row in rows) == [1.5, 2.5]
        for row in rows:
            assert row["sweeps"] == 2
            assert row["estimator"]["variant"] == "waak"
        best_val = report["best"]["value"]
        assert best_val == max(row["value"] for row in rows)

    def test_uniform_data_prefers_full_smoothing(self, tmp_path):
        # draws from the uniform law: the gamma = 1 candidate (complete
        # smoothing) should win the likelihood surrogate in the typical
        # trial; assert the median selection over 20 seeded repetitions
        selected = []
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            data = tmp_path / f"u{seed}.csv"
            _write_signs(data, rng.choice([-1, 1], size=(25, 5)))
            cfg = tmp_path / f"c{seed}.json"
            out = tmp_path / f"r{seed}.json"
            _write_json(
                cfg,
                {
                    "cv": {
                        "loss": "kl",
                        "search": {
                            "kind": "waak",
                            "gammas": [1.0, 2.0, 4.0],
                            "w": {"mode": "fixed", "values": 1.0},
                        },
                    }
                },
            )
            assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
            selected.append(_read_json(out)["best"]["estimator"]["gamma"])
        assert float(np.median(selected)) == 1.0

    @pytest.mark.parametrize("loss", ["kl", "se"])
    @pytest.mark.parametrize(
        "values",
        [
            [math.nan, math.inf],
            [math.nan, -math.inf],
            [math.inf, math.nan, -math.inf],
            [math.nan, math.nan],
            [math.nan, 0.5, math.inf, -math.inf, 0.5],
        ],
    )
    def test_best_candidate_is_rank_one(self, workspace, monkeypatch, loss, values):
        """On fabricated risks with NaN and infinities, the reported best is
        the rank 1 row: the first candidate with the best non-NaN value."""
        fabricated = iter(values)

        def risk(config, counts):
            return cv.RiskReport(loss, next(fabricated), (), config, 0, 0, False)

        monkeypatch.setattr(cv, f"{loss}_risk", risk)
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "cv.json"
        lambdas = [0.55, 0.6, 0.7, 0.8, 0.9][: len(values)]
        _write_json(cfg, {"cv": {"loss": loss, "search": {"kind": "aa_lambda", "lambdas": lambdas}}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        finite = [v for v in values if not math.isnan(v)]
        want = values.index((max if loss == "kl" else min)(finite)) if finite else 0
        rank_one = report["evaluations"][0]
        assert rank_one["rank"] == 1
        assert rank_one["candidate_index"] == want
        assert report["best"]["estimator"] == rank_one["estimator"]
        assert report["best"]["estimator"]["lambda"] == lambdas[want]

    def test_mixture_denominator_past_sys_maxsize_exits_2(self, workspace, capsys):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "r.json"
        search = {"kind": "mixture", "components": [UNIFORM_ESTIMATOR, FREQUENCY_2], "denominator": 10**19}
        _write_json(cfg, {"cv": {"loss": "kl", "search": search}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        assert "denominator" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_cv_block_exits_2(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")]) == 2


@pytest.mark.parametrize(
    "command, config",
    [
        ("estimate", {"estimator": {"variant": "waak", "w": 1, "gamma": [2]}}),
        ("estimate", {"seed": [1], "estimator": UNIFORM_ESTIMATOR}),
        ("estimate", {"estimator": {**UNIFORM_ESTIMATOR, "variant": "transformed",
                                    "transform": {"kind": "logistic", "gamma": {}}}}),
        ("cv", {"cv": {"search": {"kind": "aa_lambda", "lambdas": 0.7}}}),
        # JSON true and false are not the numbers 1 and 0
        ("estimate", {"estimator": {"variant": "waak", "gamma": True, "w": 0.5}}),
        ("estimate", {"estimator": {"variant": "waak", "gamma": 2.0, "w": False}}),
        ("estimate", {"estimator": {"variant": "waak", "gamma": 2.0, "w": [0.5, True]}}),
        ("estimate", {"estimator": {"variant": "linear", "shrinkage": {"form": "sparse", "entries": {"1": True}}}}),
        ("estimate", {"estimator": {**UNIFORM_ESTIMATOR, "variant": "transformed",
                                    "transform": {"kind": "logistic", "gamma": True}}}),
        ("estimate", {"estimator": {"variant": "mixture",
                                    "components": [{"weight": True, "estimator": UNIFORM_ESTIMATOR}]}}),
        # a number written as a JSON string is not a number
        ("estimate", {"seed": "3", "estimator": {"variant": "waak", "gamma": "2.5", "w": 0.5}}),
        ("estimate", {"seed": "3", "estimator": UNIFORM_ESTIMATOR}),
        ("estimate", {"estimator": {"variant": "waak", "gamma": "2.5", "w": 0.5}}),
        ("estimate", {"estimator": {"variant": "waak", "gamma": 2.0, "w": [0.5, "0.5"]}}),
        ("cv", {"cv": {"search": {"kind": "aa_lambda", "lambdas": [0.7], "budget": "2"}}}),
    ],
)
def test_config_value_of_wrong_json_type_exits_2(workspace, command, config):
    tmp, data = workspace
    cfg = tmp / "cfg.json"
    out = tmp / "r.json"
    _write_json(cfg, config)
    proc = subprocess.run(
        [sys.executable, "-m", "bindens", command, "--data", str(data), "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("estimate", {"seed": 12345, "estimator": UNIFORM_ESTIMATOR}),
        ("estimate", {"estimator": {"variant": "waak", "gamma": 12345, "w": 0.5}}),
        ("cv", {"seed": 12345, "cv": {"search": {"kind": "aa_lambda", "lambdas": [0.7]}}}),
    ],
)
def test_config_integer_past_digit_limit_exits_2(workspace, capsys, command, config):
    """An integer longer than int() reads (sys.get_int_max_str_digits())
    is named by its config file, not by int()'s advice to raise the limit."""
    tmp, data = workspace
    cfg = tmp / "cfg.json"
    out = tmp / "r.json"
    text = json.dumps(config)
    assert text.count("12345") == 1
    cfg.write_text(text.replace("12345", "9" * 5000), encoding="utf-8")
    with _unlimited_int_text(4300):
        code = main([command, "--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: config file {cfg} holds an integer of more than 4300 digits"]
    assert not out.exists()


def test_data_not_utf8_exits_2(workspace, capsys):
    tmp, _ = workspace
    data = tmp / "bad.csv"
    data.write_bytes(b"1,1\n\xff,-1\n")
    cfg = tmp / "cfg.json"
    _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
    out = tmp / "r.json"
    assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {data}:2: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"]
    assert not out.exists()


def test_config_not_utf8_exits_2(workspace, capsys):
    tmp, data = workspace
    cfg = tmp / "cfg.json"
    cfg.write_bytes(b'\xff{"estimator": 1}')
    assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg} is not valid JSON: 'utf-8' codec"), lines


@pytest.mark.parametrize(
    "command, doc",
    [
        ("estimate", {"seed": 2.9, "estimator": UNIFORM_ESTIMATOR}),
        ("estimate", {"seed": True, "estimator": UNIFORM_ESTIMATOR}),
        ("cv", {"cv": {"search": {"kind": "waak_descent", "gammas": [2.0], "grid": [0.5, 1.0], "sweeps": 1.5}}}),
        ("cv", {"cv": {"search": {"kind": "mixture", "components": [UNIFORM_ESTIMATOR, FREQUENCY_2],
                                  "denominator": 4.5}}}),
        ("cv", {"cv": {"search": {"kind": "linear_sparse", "indexes": [3.5], "value_grid": [0.5]}}}),
        ("cv", {"cv": {"search": {"kind": "aa_lambda", "lambdas": [0.7], "budget": True}}}),
        ("cv", {"cv": {"search": {"kind": "aa_lambda", "lambdas": [0.7], "budget": 2.5}}}),
        ("query", {"n": 2.7}),
        ("query", {"data": {"counts": {"1": 1.5}}}),
    ],
)
def test_non_integral_integer_value_exits_2(workspace, command, doc):
    """Integer reads refuse bools and fractional numbers rather than truncate
    them; for query, doc overrides keys of a valid fit report."""
    tmp, data = workspace
    cfg = tmp / "cfg.json"
    out = tmp / "r.json"
    if command == "query":
        fit = tmp / "fit.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(fit)]) == 0
        _write_json(fit, {**_read_json(fit), **doc})
        args = ["query", "--fit", str(fit), "--cells", "1", "--out", str(out)]
    else:
        _write_json(cfg, doc)
        args = [command, "--data", str(data), "--config", str(cfg), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "bindens", *args], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


class TestQueryCommand:
    def _fit(self, tmp_path, rows, estimator, seed=0):
        data = tmp_path / "obs.csv"
        _write_signs(data, rows)
        cfg = tmp_path / "cfg.json"
        fit = tmp_path / "fit.json"
        _write_json(cfg, {"estimator": estimator, "seed": seed})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(fit)]) == 0
        return fit

    def test_values_match_direct_evaluation(self, tmp_path):
        rng = np.random.default_rng(16)
        n = 5
        rows = rng.choice([-1, 1], size=(18, n))
        fit = self._fit(tmp_path, rows, {"variant": "waak", "gamma": 2.0, "w": 0.7})
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "7,+-++-,3", "--out", str(out)]) == 0
        report = _read_json(out)
        results = report["query"]["results"]
        counts = counts_from_observations(rows)
        cfg = EstimatorConfig.waak(np.full(n, 0.7), 2.0)
        cells = [r["cell"] for r in results]
        want = estimate_at(cells, cfg, counts)
        np.testing.assert_allclose([r["value"] for r in results], want.values, rtol=1e-13)
        assert results[1]["point"] == "+-++-"

    def test_step_kernel_round_trip_over_every_cell(self, tmp_path):
        # A step kernel has no closed-form Z: it sums its dense row, and the
        # fit's full vector and every queried entry come from that row. At
        # w = 0.3 half the row sits on the threshold 0 in exact arithmetic.
        rng = np.random.default_rng(12)
        n = 12
        data = tmp_path / "obs.csv"
        _write_signs(data, rng.choice([-1, 1], size=(40, n)))
        cfg = tmp_path / "cfg.json"
        fit = tmp_path / "fit.json"
        estimator = {
            "variant": "transformed",
            "shrinkage": {"form": "single_interaction", "w": 0.3},
            "transform": {"kind": "step", "threshold": 0, "low": 0.1, "high": 1},
        }
        _write_json(cfg, {"estimator": estimator, "query": {"cells": "all"}})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(fit)]) == 0
        values = _read_json(fit)["estimate"]["values"]
        assert len(values) == 1 << n
        out = tmp_path / "q.json"
        cells = ",".join(str(c) for c in range(1, (1 << n) + 1))
        assert main(["query", "--fit", str(fit), "--cells", cells, "--out", str(out)]) == 0
        results = _read_json(out)["query"]["results"]
        assert [r["cell"] for r in results] == list(range(1, (1 << n) + 1))
        np.testing.assert_allclose([r["value"] for r in results], values, rtol=1e-12, atol=0)

    def test_reads_version_1_fit(self, tmp_path):
        # A version 1 fit differs from the current one by its version and
        # a "backend" field.
        rows = np.random.default_rng(18).choice([-1, 1], size=(14, 4))
        fit = self._fit(tmp_path, rows, {"variant": "waak", "gamma": 2.0, "w": 0.6})
        old_fit = tmp_path / "fit_v1.json"
        _write_json(old_fit, {**_read_json(fit), "report_version": 1, "backend": "numpy"})

        def query(path):
            out = tmp_path / "q.json"
            assert main(["query", "--fit", str(path), "--cells", "3,+-+-,?-+-", "--out", str(out)]) == 0
            report = _strip_timing(_read_json(out))
            report.pop("fit")
            return report

        assert query(old_fit) == query(fit)

    def test_estimator_block_is_rebuilt_from_the_parsed_fit(self, tmp_path):
        rows = np.random.default_rng(19).choice([-1, 1], size=(14, 4))
        fit = self._fit(tmp_path, rows, {"variant": "waak", "gamma": 2.0, "w": [0.6, 0.7, 0.7, 1.0]})
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "3", "--out", str(out)]) == 0
        assert _read_json(out)["estimator"] == _read_json(fit)["estimator"]
        # A hand-edited fit's values come back normalized.
        edited = tmp_path / "edited.json"
        _write_json(edited, {**_read_json(fit), "estimator": {"variant": "waak", "gamma": 3, "w": [1, 0.5, 0.5, 1]}})
        assert main(["query", "--fit", str(edited), "--cells", "3", "--out", str(out)]) == 0
        assert '"gamma": 3.0' in out.read_text()
        assert _read_json(out)["estimator"] == {"variant": "waak", "gamma": 3.0, "w": [1.0, 0.5, 0.5, 1.0]}

    def test_conditional_expectation(self, tmp_path):
        rng = np.random.default_rng(17)
        n = 4
        rows = rng.choice([-1, 1], size=(15, n))
        fit = self._fit(tmp_path, rows, {"variant": "waak", "gamma": 2.5, "w": 0.6})
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "?-+-", "--out", str(out)]) == 0
        entry = _read_json(out)["query"]["results"][0]
        counts = counts_from_observations(rows)
        cfg = EstimatorConfig.waak(np.full(n, 0.6), 2.5)
        est = estimate_at([entry["cells"][0], entry["cells"][1]], cfg, counts)
        p_plus, p_minus = (float(v) for v in est.values)
        assert entry["undefined"] is False
        assert entry["conditional_expectation"] == pytest.approx(
            (p_plus - p_minus) / (p_plus + p_minus), rel=1e-12
        )
        assert entry["coordinate"] == 1

    def test_uniform_fit_has_zero_conditional(self, tmp_path):
        rows = [(1, 1, 1), (1, -1, 1), (-1, 1, -1)]
        fit = self._fit(tmp_path, rows, UNIFORM_ESTIMATOR)
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "?++", "--out", str(out)]) == 0
        entry = _read_json(out)["query"]["results"][0]
        assert entry["conditional_expectation"] == 0.0

    def test_deterministic_coordinate_pins_conditional(self, tmp_path):
        # first coordinate always +1 under the frequency estimator
        rows = [(1, 1), (1, 1), (1, -1)]
        fit = self._fit(tmp_path, rows, FREQUENCY_2)
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "?+", "--out", str(out)]) == 0
        entry = _read_json(out)["query"]["results"][0]
        assert entry["conditional_expectation"] == 1.0

    def test_unseen_region_is_undefined_under_frequency(self, tmp_path):
        rows = [(1, 1), (1, 1), (1, -1)]
        fit = self._fit(tmp_path, rows, FREQUENCY_2)
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "?-", "--out", str(out)]) == 0
        entry = _read_json(out)["query"]["results"][0]
        # pattern ?- means x2 = -1; only (+1,-1) was observed
        assert entry["undefined"] is False
        fit2 = self._fit(tmp_path, [(1, 1), (1, 1), (-1, 1)], FREQUENCY_2, seed=1)
        out2 = tmp_path / "q2.json"
        assert main(["query", "--fit", str(fit2), "--cells", "?-", "--out", str(out2)]) == 0
        entry2 = _read_json(out2)["query"]["results"][0]
        assert entry2["undefined"] is True
        assert entry2["conditional_expectation"] is None

    def test_round_trip_past_int_text_limit(self, tmp_path):
        # At n = 15000 a cell index has about 4500 decimal digits, more
        # than str() and int() accept by default (4300). Reports keep them
        # as decimal text. lambda near 1 keeps every estimate near 1/N.
        n = 15_000
        rng = np.random.default_rng(19)
        base = rng.choice([-1, 1], size=n)
        rows = [base.copy() for _ in range(6)]
        for k in range(1, 5):
            rows[k][k] *= -1
        estimator = {"variant": "aa_classic", "lambda": 0.999999}
        counts = counts_from_observations(rows)
        base_cell, near_cell = index_of_point(rows[0]), index_of_point(rows[1])
        base_pattern = "".join("+" if v > 0 else "-" for v in base)
        with _unlimited_int_text():
            text = {cell: str(cell) for cell, _ in counts.cells}

        data = tmp_path / "obs.csv"
        _write_signs(data, rows)
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"estimator": estimator, "query": {"cells": [base_pattern, text[near_cell]]}})
        fit = tmp_path / "fit.json"
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(fit)]) == 0
        report = _read_json(fit)
        assert report["data"]["counts"] == {text[cell]: cnt for cell, cnt in counts.cells}
        assert report["estimate"]["cells"] == [text[base_cell], text[near_cell]]
        want = estimate_at([base_cell, near_cell], EstimatorConfig.aa_classic(n, 0.999999), counts)
        np.testing.assert_allclose(report["estimate"]["values"], want.values, rtol=1e-12)
        assert 0.3 < want.values[0] < 1.0 / 3.0

        out = tmp_path / "q.json"
        spec = f"{text[base_cell]},?{base_pattern[1:]}"
        assert main(["query", "--fit", str(fit), "--cells", spec, "--out", str(out)]) == 0
        plain, conditional = _read_json(out)["query"]["results"]
        assert plain["cell"] == text[base_cell]
        assert plain["value"] == pytest.approx(want.values[0], rel=1e-12)
        assert conditional["cells"][0 if base[0] > 0 else 1] == text[base_cell]
        assert conditional["undefined"] is False

    def test_bad_pattern_exits_2(self, tmp_path):
        fit = self._fit(tmp_path, [(1, 1), (-1, 1)], UNIFORM_ESTIMATOR)
        assert main(["query", "--fit", str(fit), "--cells", "??", "--out", str(tmp_path / "q.json")]) == 2
        assert main(["query", "--fit", str(fit), "--cells", "+*", "--out", str(tmp_path / "q.json")]) == 2

    @pytest.mark.parametrize("spec", ["\u00b2", "--5", "+-3"])
    def test_non_decimal_cell_names_the_query_cell(self, tmp_path, capsys, spec):
        fit = self._fit(tmp_path, [(1, 1), (-1, 1)], UNIFORM_ESTIMATOR)
        assert main(["query", "--fit", str(fit), f"--cells={spec}", "--out", str(tmp_path / "q.json")]) == 2
        assert capsys.readouterr().err == f"error: query cell {spec!r} is neither an index nor a +/-/? pattern\n"
        assert not (tmp_path / "q.json").exists()

    def test_cells_file_reads_as_inline_text(self, tmp_path):
        fit = self._fit(tmp_path, [(1, -1, 1, 1, -1), (-1, -1, 1, 1, 1), (1, 1, 1, -1, -1)], {"variant": "waak", "gamma": 2.0, "w": 0.7})
        spec = "7, +-++-,3,?-+-+"
        listed = tmp_path / "cells.txt"
        listed.write_text(f"\n  {spec}\t\n\n", encoding="utf-8")
        inline, from_file = tmp_path / "inline.json", tmp_path / "file.json"
        assert main(["query", "--fit", str(fit), f"--cells={spec}", "--out", str(inline)]) == 0
        assert main(["query", "--fit", str(fit), "--cells", f"@{listed}", "--out", str(from_file)]) == 0
        # Surrounding whitespace is stripped, and the report records the
        # file's text: the two reports match byte for byte but for timing.
        assert _read_json(from_file)["query"]["cells"] == spec
        texts = [path.read_text().split('\n  "timing"')[0] for path in (inline, from_file)]
        assert texts[0] == texts[1]

    def test_cells_file_past_the_argument_limit(self, tmp_path):
        # Linux refuses one argument past 128 KiB; 15 patterns of 10^4
        # signs are 150 KB, which only a cells file can carry.
        n = 10_000
        rng = np.random.default_rng(n)
        data, cfg, fit = tmp_path / "obs.csv", tmp_path / "cfg.json", tmp_path / "fit.json"
        _write_signs(data, rng.choice([-1, 1], size=(6, n)))
        _write_json(cfg, {"estimator": {"variant": "aa_classic", "lambda": 0.9}, "query": {"cells": [1]}})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(fit)]) == 0
        patterns = ["".join("+" if v > 0 else "-" for v in rng.choice([-1, 1], size=n)) for _ in range(15)]
        listed = tmp_path / "cells.txt"
        listed.write_text(",".join(patterns) + "\n", encoding="ascii")
        assert listed.stat().st_size > 128 * 1024
        out = tmp_path / "q.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bindens", "query", "--fit", str(fit), f"--cells=@{listed}", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        results = _read_json(out)["query"]["results"]
        assert [r["cell"] for r in results] == [cli._decimal(index_of_point([1 if c == "+" else -1 for c in p])) for p in patterns]

    @pytest.mark.parametrize("content", [None, b"1,\xff\n"], ids=["missing", "not utf-8"])
    def test_unreadable_cells_file_exits_2(self, tmp_path, capsys, content):
        fit = self._fit(tmp_path, [(1, 1), (-1, 1)], UNIFORM_ESTIMATOR)
        listed = tmp_path / "cells.txt"
        if content is not None:
            listed.write_bytes(content)
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), f"--cells=@{listed}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read cells file {listed}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_fit_report_exits_2(self, tmp_path):
        code = main(
            ["query", "--fit", str(tmp_path / "nope.json"), "--cells", "1", "--out", str(tmp_path / "q.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda fit: {**fit, "n": [fit["n"]]},
            lambda fit: {**fit, "data": {**fit["data"], "counts": {"1": [1], "3": 1}}},
            lambda fit: {**fit, "data": []},
            lambda fit: " ".join(fit),  # a string holding every required key
        ],
        ids=["n_list", "count_list", "data_list", "not_an_object"],
    )
    def test_fit_value_of_wrong_json_type_exits_2(self, tmp_path, edit):
        fit = self._fit(tmp_path, [(1, 1), (-1, 1), (1, 1)], UNIFORM_ESTIMATOR)
        _write_json(fit, edit(_read_json(fit)))
        out = tmp_path / "q.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bindens", "query", "--fit", str(fit), "--cells", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    def test_truncated_fit_report_exits_2(self, tmp_path):
        bad = tmp_path / "fit.json"
        _write_json(bad, {"report_version": 1, "n": 2})
        assert main(["query", "--fit", str(bad), "--cells", "1", "--out", str(tmp_path / "q.json")]) == 2


_NULL_NUMBERS = {"parse_float": lambda text: None, "parse_int": lambda text: None, "parse_constant": lambda text: None}
FIT_ESTIMATORS = {
    "linear_sparse": UNIFORM_ESTIMATOR,
    "linear_dense": {"variant": "linear", "shrinkage": {"form": "dense", "values": [1.0, 0.5, 0.5, 0.25, 0.5, 0.25, 0.25, 0.0]}},
    "transformed": {"variant": "transformed", "shrinkage": {"form": "single_interaction", "w": [0.5, 0.7, 0.9]},
                    "transform": {"kind": "logistic", "gamma": 2.0}},
    "waak": {"variant": "waak", "gamma": 2.0, "w": [0.6, 0.7, 1.0]},
    "aa_classic": {"variant": "aa_classic", "lambda": 0.8},
    "mixture": {"variant": "mixture", "components": [{"weight": 0.25, "estimator": UNIFORM_ESTIMATOR},
                                                     {"weight": 0.75, "estimator": {"variant": "waak", "gamma": 3.0, "w": 0.5}}]},
}


class TestFitReader:
    """query reads report_version, n, seed, data and estimator from a fit as
    json.loads would; every other member is checked as JSON but holds None
    where it holds a number."""

    def _fit(self, tmp_path, estimator, rows=((1, 1, 1), (1, -1, 1), (-1, 1, -1), (1, 1, 1)), cells="all"):
        data = tmp_path / "obs.csv"
        _write_signs(data, rows)
        cfg = tmp_path / "cfg.json"
        fit = tmp_path / "fit.json"
        _write_json(cfg, {"estimator": estimator, "seed": 5, "query": {"cells": cells}})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(fit)]) == 0
        return fit

    def _query(self, fit, tmp_path):
        out = tmp_path / "q.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bindens", "query", "--fit", str(fit), "--cells", "1,?+-", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        return proc, out

    @pytest.mark.parametrize("variant", sorted(FIT_ESTIMATORS))
    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("cells", ["all", [1, 6]])
    def test_members_read_equal_json_loads(self, tmp_path, variant, version, cells):
        fit = self._fit(tmp_path, FIT_ESTIMATORS[variant], cells=cells)
        if version == 1:
            _write_json(fit, {**_read_json(fit), "report_version": 1, "backend": "numpy"})
        text = fit.read_text(encoding="utf-8")
        got, want, nulled = cli._read_fit(text), json.loads(text), json.loads(text, **_NULL_NUMBERS)
        assert list(got) == list(want)
        assert set(cli._FIT_KEYS) - {"seed"} < set(got)
        for key in got:
            assert got[key] == (want[key] if key in cli._FIT_KEYS else nulled[key]), key

    def test_full_estimate_values_hold_no_float(self, tmp_path):
        n = 16
        rows = np.random.default_rng(3).choice([-1, 1], size=(6, n))
        fit = self._fit(tmp_path, {"variant": "waak", "gamma": 2.0, "w": 0.5}, rows=rows)
        got = cli._read_fit(fit.read_text(encoding="utf-8"))
        values = got["estimate"]["values"]
        assert len(values) == 1 << n and set(values) == {None}
        assert got["estimate"]["sum"] is None and got["timing"] == {"elapsed_ms": None}
        assert got["data"] == _read_json(fit)["data"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace('"values": [', '"values": [1.2.3, ', 1),
            lambda text: text[: len(text) // 2],
            lambda text: text.rstrip() + " {}\n",
            lambda text: text.replace(',\n  "estimate": {', '\n  "estimate": {', 1),
            lambda text: text[: text.index(",", text.index('"values": ['))] + text[text.index(",", text.index('"values": [')) + 1:],
        ],
        ids=["bad_number_in_values", "truncated", "trailing_data", "missing_comma", "missing_comma_in_values"],
    )
    def test_malformed_fit_exits_2(self, tmp_path, edit):
        fit = self._fit(tmp_path, UNIFORM_ESTIMATOR)
        text = fit.read_text(encoding="utf-8")
        edited = edit(text)
        assert edited != text
        fit.write_text(edited, encoding="utf-8")
        proc, out = self._query(fit, tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "is not valid JSON" in lines[0], lines
        assert not out.exists()

    def test_int_past_digit_limit_in_a_read_member_exits_2(self, tmp_path):
        fit = self._fit(tmp_path, UNIFORM_ESTIMATOR)
        text = fit.read_text(encoding="utf-8")
        assert text.count('"seed": 5,') == 1
        fit.write_text(text.replace('"seed": 5,', '"seed": ' + "9" * 5000 + ","), encoding="utf-8")
        proc, out = self._query(fit, tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines == [f"error: fit report {fit}: member 'seed' holds an integer of more than 4300 digits"]
        assert not out.exists()

    def test_int_past_digit_limit_at_the_top_level_exits_2(self, tmp_path, capsys):
        fit = tmp_path / "fit.json"
        fit.write_text("9" * 5000, encoding="utf-8")
        with _unlimited_int_text(4300):
            code = main(["query", "--fit", str(fit), "--cells", "1", "--out", str(tmp_path / "q.json")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: fit report {fit}: the top level holds an integer of more than 4300 digits"]

    def test_fit_not_utf8_exits_2(self, tmp_path, capsys):
        fit = tmp_path / "fit.json"
        fit.write_bytes(b'\xff{"n": 1}')
        assert main(["query", "--fit", str(fit), "--cells", "1", "--out", str(tmp_path / "q.json")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {fit} is not valid JSON: 'utf-8' codec"), lines

    def test_duplicate_estimator_keys_give_the_last(self, tmp_path):
        fit = self._fit(tmp_path, UNIFORM_ESTIMATOR)
        text = fit.read_text(encoding="utf-8")
        waak = {"variant": "waak", "gamma": 3.0, "w": [0.5, 0.5, 0.5]}
        first = '{"estimator": ' + json.dumps(waak) + "," + text[1:]
        last = text.rstrip()[:-1] + ', "estimator": ' + json.dumps(waak) + "}\n"
        for edited, want in ((first, UNIFORM_ESTIMATOR), (last, waak)):
            fit.write_text(edited, encoding="utf-8")
            assert cli._read_fit(edited)["estimator"] == json.loads(edited)["estimator"] == want
            proc, out = self._query(fit, tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert _read_json(out)["estimator"] == want


# Lists of JSON numbers, which the vector check converts in one numpy
# pass (walsh._float_array), and JSON values it refuses, each with the
# entry its error must name.
NUMBER_LISTS = [
    [],
    [0.5],
    [1, 0.25, -0.0, 0, -3],
    [2**53 + 1, 2**64 + 1, -(2**70), 10**300, 0.1],
    [float("nan"), float("inf"), -float("inf"), 5e-324, 1.7976931348623157e308],
]
BAD_NUMBER_LISTS = [
    ([0.5, True], True), ([False], False), ([0.5, "2"], "2"), ([None], None), ([[0.5]], [0.5]), ([0.5, {}], {}),
    ([0.5, 10**400], 10**400), ([-(10**400)], -(10**400)), ("0.5", "0.5"), ({"a": 1}, {"a": 1}),
]


@pytest.mark.parametrize("raw", NUMBER_LISTS)
def test_float_array_equals_the_entry_loop(raw):
    got = walsh._float_array(raw, "w", ConfigError)
    want = np.asarray(cli._numbers(raw, "w"), dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("raw, bad", BAD_NUMBER_LISTS, ids=[f"raw{k}" for k in range(len(BAD_NUMBER_LISTS))])
def test_float_array_refuses_with_the_entry_loop_message(raw, bad):
    with pytest.raises(ConfigError) as got:
        walsh._float_array(raw, "w", ConfigError)
    assert str(got.value) == f"w must be real numbers, got {bad!r}"


class TestBenchCommand:
    # Growth checks compare the two largest dense sizes; below n=16 the
    # per-call overhead outweighs the O(n 2^n) work they assert on. 20
    # also runs the largest dense size, where a squared element is one dot
    # product over 2^20 values.
    @pytest.mark.parametrize("max_n", [16, 20])
    def test_small_bench_passes(self, tmp_path, max_n):
        out = tmp_path / "bench.json"
        code = main(["bench", "--out", str(out), "--max-n", str(max_n)])
        report = _read_json(out)
        # Per regime: its expected (normalization, element, squared_element)
        # costs and its check names, in report order.
        schema = {
            "linear_sparse": (
                ("O(1)", "O(nonzeros)", "O(nonzeros)"),
                [
                    "normalization_constant_time",
                    "element_time_independent_of_n",
                    "squared_element_time_independent_of_n",
                ],
            ),
            "waak": (
                ("O(n)", "O(n)", "O(n)"),
                [
                    "normalization_under_10ms_at_n10000",
                    "element_under_10ms_at_n10000",
                    "squared_element_under_10ms_at_n10000",
                ],
            ),
            "logistic_single_interaction": (
                ("O(1)", "O(n)", "O(n 2^n)"),
                ["normalization_constant_time", "squared_element_dense_growth"],
            ),
            "general_no_closed_form": (
                ("O(n 2^n)", "O(1)", "O(n 2^n)"),
                ["element_time_fixed_support", "normalization_dense_growth", "squared_element_dense_growth"],
            ),
        }
        assert [row["regime"] for row in report["rows"]] == list(schema)
        for row in report["rows"]:
            expected, names = schema[row["regime"]]
            assert row["expected"] == dict(zip(("normalization", "element", "squared_element"), expected))
            assert [check["name"] for check in row["checks"]] == names
            for check in row["checks"]:
                assert "skipped" not in check, (row["regime"], check)
                assert check["pass"], (row["regime"], check)
        assert report["all_checks_pass"] is True
        assert code == 0

    def test_max_n_validation(self, tmp_path):
        assert main(["bench", "--out", str(tmp_path / "b.json"), "--max-n", "4"]) == 2


class _RecordingNamespace(argparse.Namespace):
    """A Namespace that records the attribute names read once reads is a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


class TestEveryOptionIsRead:
    """Each option of a command reaches the command: an option that parses
    but is never read selects nothing."""

    @pytest.fixture
    def argvs(self, workspace):
        tmp, data = workspace
        estimate_cfg, cv_cfg = tmp / "estimate.json", tmp / "cv.json"
        _write_json(estimate_cfg, {"estimator": UNIFORM_ESTIMATOR})
        _write_json(cv_cfg, {"cv": {"search": {"kind": "aa_lambda", "lambdas": [0.6, 0.8]}}})
        fit = tmp / "fit.json"
        return {
            "estimate": ["estimate", "--data", str(data), "--config", str(estimate_cfg), "--out", str(fit)],
            "cv": ["cv", "--data", str(data), "--config", str(cv_cfg), "--out", str(tmp / "cv-report.json")],
            "query": ["query", "--fit", str(fit), "--cells", "1,2", "--out", str(tmp / "query-report.json")],
        }

    def test_estimate_cv_and_query_read_every_option(self, argvs):
        for command, argv in argvs.items():  # estimate first: query reads its fit
            args = cli.build_parser().parse_args(argv, namespace=_RecordingNamespace())
            dests = set(vars(args)) - {"func", "command"}
            args.reads = set()
            assert args.func(args) == 0, command
            assert dests <= args.reads, (command, sorted(dests - args.reads))

    @pytest.mark.parametrize("command", ["estimate", "cv"])
    def test_threads_is_a_usage_error(self, argvs, command, capsys):
        argv = argvs[command] + ["--threads", "1"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --threads 1" in err
        assert not os.path.exists(argv[argv.index("--out") + 1])



class TestCommandLineParsing:
    """main reads exact full flags from the option table and leaves every
    other command line to argparse; both must give a command the same
    namespace, and argparse its help, usage and error text."""

    VALID = {
        "estimate": [
            ["estimate", "--data", "d.csv", "--config", "c.json", "--out", "o.json"],
            ["estimate", "--data=d.csv", "--header", "--encoding", "bits", "--delimiter", "ws",
             "--config", "c.json", "--out", "o.json"],
        ],
        "cv": [
            ["cv", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--loss", "kl"],
            ["cv", "--out", "o.json", "--header", "--data", "d.csv", "--config", "c.json", "--loss=se"],
        ],
        "query": [
            ["query", "--fit", "f.json", "--cells=-+-,?+", "--out", "o.json"],
            ["query", "--fit", "f.json", "--cells", "1,2", "--out", "o.json"],
        ],
        "bench": [
            ["bench", "--out", "o.json"],
            ["bench", "--out", "o.json", "--max-n", "12", "--seed", "5"],
        ],
    }

    # Each is a usage error (exit 2) for the command it starts with.
    INVALID = [
        ["estimate"],
        ["estimate", "--data", "d.csv", "--out", "o.json"],
        ["estimate", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--encoding", "hex"],
        ["estimate", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--bogus"],
        ["estimate", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--threads", "2"],
        ["cv", "--data", "d.csv", "--config", "c.json"],
        ["cv", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--encoding", "hex"],
        ["cv", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--loss", "l1"],
        ["cv", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "extra"],
        ["cv", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--threads", "2"],
        ["query", "--fit", "f.json", "--out", "o.json"],
        ["query", "--fit", "f.json", "--cells", "1", "--out", "o.json", "--bogus"],
        ["query", "--fit", "f.json", "--cells", "1", "--out", "o.json", "--threads", "2"],
        ["bench"],
        ["bench", "--out", "o.json", "--max-n", "many"],
        ["bench", "--out", "o.json", "--bogus"],
        ["bench", "--out", "o.json", "--threads", "2"],
    ]

    @staticmethod
    def _exit(parser, argv, capsys):
        """(exit code, stdout, stderr) of parser.parse_args(argv), which must exit."""
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
        out, err = capsys.readouterr()
        return info.value.code, out, err

    @staticmethod
    def _module(argv):
        return subprocess.run(
            [sys.executable, "-m", "bindens", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, COLUMNS="80"),
        )

    @pytest.mark.parametrize("command", list(VALID))
    def test_same_namespace(self, command, monkeypatch):
        """main hands a command the same namespace through argparse as
        through the option table."""
        seen = []

        def record(args):
            seen.append(vars(args))
            return 0

        commands = {name: (text, record, options) for name, (text, _, options) in cli._COMMANDS.items()}
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        for argv in self.VALID[command]:
            want = vars(cli._read_table(argv))
            with monkeypatch.context() as patched:
                patched.setattr(cli, "_read_table", lambda _: None)
                assert main(argv) == 0
            assert seen.pop() == want, argv
            assert want["command"] == command

    @pytest.mark.parametrize("command", list(VALID))
    def test_same_help(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        out, err = capsys.readouterr()
        assert (info.value.code, err) == (0, "")
        assert out.startswith(f"usage: bindens {command} ")
        assert all(flag in out for flag, _ in cli._COMMANDS[command][2])

    @pytest.mark.parametrize("argv", INVALID, ids=" ".join)
    def test_same_usage_error_through_the_module(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = self._exit(cli.build_parser(), argv, capsys)
        assert code == 2 and not out
        proc = self._module(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    # Command lines the table reader leaves to argparse, one reason each:
    # an abbreviation, a repeat, "--", a dash-led value, a value given to a
    # store_true flag, -h after the command, and a dash-led number.
    DECLINED = [
        ["estimate", "--dat", "d.csv", "--config", "c.json", "--out", "o.json"],
        ["estimate", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--out", "p.json"],
        ["cv", "--data", "d.csv", "--config", "c.json", "--out", "o.json", "--"],
        ["query", "--fit", "f.json", "--cells", "-+-", "--out", "o.json"],
        ["estimate", "--data", "d.csv", "--header=1", "--config", "c.json", "--out", "o.json"],
        ["cv", "-h"],
        ["bench", "--out", "o.json", "--max-n", "-5"],
    ]

    @pytest.mark.parametrize("command", list(VALID))
    def test_table_reader_gives_the_parser_namespace(self, command):
        for argv in self.VALID[command]:
            read = cli._read_table(argv)
            assert read is not None, argv
            assert vars(read) == vars(cli.build_parser().parse_args(argv)), argv

    @pytest.mark.parametrize("argv", INVALID + DECLINED + [[], ["--help"], ["nope"]], ids=" ".join)
    def test_table_reader_declines(self, argv):
        assert cli._read_table(argv) is None

    def test_full_flags_import_no_parser(self, workspace):
        # A fresh process that runs estimate, cv and query with full flag
        # names never imports argparse, nor the gettext and locale it uses.
        tmp, data = workspace
        estimate_cfg, cv_cfg, fit = tmp / "estimate.json", tmp / "cv.json", tmp / "fit.json"
        _write_json(estimate_cfg, {"estimator": UNIFORM_ESTIMATOR})
        _write_json(cv_cfg, {"cv": {"search": {"kind": "aa_lambda", "lambdas": [0.6, 0.8]}}})
        argvs = [
            ["estimate", "--data", str(data), "--config", str(estimate_cfg), "--out", str(fit)],
            ["cv", f"--data={data}", "--header", "--config", str(cv_cfg), "--out", str(tmp / "cv.out"), "--loss=se"],
            ["query", "--fit", str(fit), "--cells", "1,+-", "--out", str(tmp / "query.out")],
        ]
        script = (
            "import json, sys\nfrom bindens import cli\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]]))"
        )
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], []]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["nope"]], ids=repr)
    def test_other_arguments_get_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        want = self._exit(cli.build_parser(), argv, capsys)
        proc = self._module(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == want
        shown = proc.stdout + proc.stderr
        assert "{estimate,cv,query,bench}" in shown
        assert "usage: bindens [-h] {estimate,cv,query,bench} ..." in shown

class TestSubprocessEntryPoints:
    def test_module_invocation(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "r.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "bindens",
                "estimate",
                "--data",
                str(data),
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert _read_json(out)["command"] == "estimate"

    def test_backends_produce_identical_reports(self, workspace):
        # numpy is the only backend: naming it and leaving the variable
        # unset must give the same report, and no report names a backend.
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"estimator": {"variant": "waak", "gamma": 2.0, "w": [0.4, 0.9]}})

        def run(name):
            env = dict(os.environ)
            env.pop("BINDENS_BACKEND", None)
            if name is not None:
                env["BINDENS_BACKEND"] = name
            out = tmp / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "bindens", "estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            report = _strip_timing(_read_json(out))
            assert "backend" not in report
            return json.dumps(report, sort_keys=True)

        assert run("numpy") == run(None)

    def test_refused_backend_exits_2(self, workspace):
        # Both entry points import the package before a command runs; a
        # backend request that cannot be honoured is a configuration error.
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        out = tmp / "r.json"
        args = ["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]
        entry_points = [
            [sys.executable, "-m", "bindens"],
            # what the installed `bindens` script runs
            [sys.executable, "-c", "import sys; from bindens.cli import main; sys.exit(main())"],
        ]
        for value in ("numba", "vectorized"):
            for entry in entry_points:
                proc = subprocess.run(
                    entry + args,
                    capture_output=True,
                    text=True,
                    env=dict(os.environ, BINDENS_BACKEND=value),
                )
                assert proc.returncode == 2, proc.stderr
                lines = proc.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")
                assert "BINDENS_BACKEND" in lines[0] and value in lines[0]
                assert not out.exists()
