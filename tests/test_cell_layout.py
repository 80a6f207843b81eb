"""One layout for a cell in bytes, owned by walsh.

A cell's zero-based index is read little-endian from a row of bytes, bit
k % 8 of byte k // 8 set where coordinate k + 1 is -1. Every route that
makes or reads such rows must agree with a plain-Python reference at the
byte (n = 7, 8, 9) and 64-bit word (n = 63, 64, 65) boundaries, and only
walsh may spell out the byte order.
"""

import collections
import pathlib
import re

import numpy as np
import pytest

from bindens import CountsVector, counts_from_observations, index_of_point, point_of_index
from bindens import cli, estimators
from bindens.cli import load_observations

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bindens"

BOUNDARY_NS = [1, 7, 8, 9, 63, 64, 65, 1000]


def _rows(n):
    """Random sign rows with repeats, all-plus and all-minus among them."""
    rng = np.random.default_rng(n)
    distinct = rng.choice(np.array([-1, 1], dtype=np.int8), size=(10, n))
    distinct[0], distinct[1] = 1, -1
    return distinct[rng.integers(0, len(distinct), size=25)]


def _index(row):
    return 1 + sum(1 << k for k, v in enumerate(row) if v < 0)


def _word_bytes(row):
    """The row's cell as bytes padded to whole 64-bit words, bit by bit."""
    out = bytearray(8 * -(-len(row) // 64))
    for k, v in enumerate(row):
        if v < 0:
            out[k // 8] |= 1 << (k % 8)
    return bytes(out)


def _support(counts):
    return [counts._packed.bytes[r].tobytes() for r in range(counts._packed.size)]


@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_every_encoder_agrees_with_the_reference(tmp_path, n):
    rows = _rows(n)
    want = sorted(collections.Counter(_index(r) for r in rows).items())
    want_bytes = sorted({_index(r): _word_bytes(r) for r in rows}.items())
    want_support = [b for _, b in want_bytes]

    signs = tmp_path / "signs.csv"
    signs.write_text("".join(",".join(str(int(v)) for v in r) + "\n" for r in rows))
    bits = tmp_path / "bits.txt"
    bits.write_text("".join(" ".join("1" if v < 0 else "0" for v in r) + "\n" for r in rows))
    assert cli._Observations(ord(",")).add_block(signs.read_bytes()) is not None  # the array pass
    built = {
        "array pass": load_observations(signs),
        "token loop": load_observations(bits, encoding="bits", delimiter="ws"),
        "ndarray": counts_from_observations(rows),
        "list": counts_from_observations([list(map(int, r)) for r in rows]),
        "from_cells": CountsVector.from_cells(n, dict(want)),
    }
    for name, counts in built.items():
        # Counted rows are kept as the packed support, not packed again.
        assert ("_packed" in vars(counts)) == (name != "from_cells"), name
        assert counts.n == n, name
        assert list(counts.cells) == want, name
        assert _support(counts) == want_support, name
        assert counts._packed.hamming.tolist() == [
            [((a - 1) ^ (b - 1)).bit_count() for b, _ in want] for a, _ in want
        ], name

    patterns = ["".join("-" if v < 0 else "+" for v in r) for r in rows]
    assert [item["cell"] for item in cli._pattern_items(patterns, n)] == [_index(r) for r in rows]
    for r in rows:
        assert index_of_point(r) == _index(r)
        np.testing.assert_array_equal(point_of_index(_index(r), n), r)

    cells = estimators._as_cells([cell for cell, _ in want], n)
    assert [row.tobytes() for row in cells.bytes] == want_support
    assert cells.words.dtype == np.dtype("<u8")
    zero = np.zeros_like(cells.bytes[:1])
    by_index = {_index(r): r for r in rows}
    minus = np.array([by_index[cell] < 0 for cell, _ in want], dtype=float)
    np.testing.assert_array_equal(cells.bits(0, n, zero), minus)
    if n > 8:
        np.testing.assert_array_equal(cells.bits(8, n, zero), minus[:, 8:])


@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_random_cell_stays_in_range(n):
    rng = np.random.default_rng(n)
    drawn = [cli._random_cell(rng, n) for _ in range(200)]
    assert all(1 <= cell <= 1 << n for cell in drawn)
    assert max(drawn).bit_length() > n - 2


def test_only_walsh_spells_out_the_byte_order():
    pattern = re.compile(r"bitorder=|int\.from_bytes\(|\.to_bytes\(")
    found = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "walsh.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert found == [], "cells are packed and read only through walsh's helpers"
