"""Command line interface: estimate, cv, query, bench.

Configuration comes from a JSON file; results go to JSON reports written
atomically (temp file + rename) with a stable key order, so identical
inputs reproduce identical bytes except for the trailing "timing" block.
Exit codes: 0 success, 2 configuration or data problems, 3 capacity
refusals, 4 numeric failures.
"""

import collections
import decimal
import json
import math
import os
import re
import sys
import tempfile
import time
import types

import numpy as np

from .cv import SearchSpace, _rank_key, coordinate_descent_w, evaluate_space
from .errors import (
    BindensError,
    CapacityError,
    ConfigError,
    DataError,
    NumericError,
)
from .estimators import (
    MAX_FULL_N,
    CountsVector,
    EstimatorConfig,
    counts_from_observations,
    element_linear,
    element_transformed,
    element_waak,
    estimate_at,
    estimate_full,
    squared_element_general,
    squared_element_linear,
    squared_element_waak,
)
from .shrinkage import ShrinkageSpec
from .transforms import Transform, normalizer
from .walsh import _real, point_of_index

REPORT_VERSION = 2

__all__ = ["main"]


# ---------------------------------------------------------------------------
# data loading


def _decode_token(token, encoding, where):
    if encoding == "signs":
        if token in ("1", "+1"):
            return 1
        if token == "-1":
            return -1
        raise DataError(f"{where}: expected -1/+1 tokens, got {token!r}")
    if token == "0":
        return 1
    if token == "1":
        return -1
    raise DataError(f"{where}: expected 0/1 tokens, got {token!r}")


def _decode_tokens(text, encoding, delimiter, where):
    """Signs of a stripped line, token by token; None when it holds no token."""
    if delimiter == "ws":
        tokens = text.split()
    else:
        tokens = [t.strip() for t in text.split(delimiter)]
    tokens = [t for t in tokens if t]
    if not tokens:
        return None
    return np.array([_decode_token(t, encoding, where) for t in tokens], dtype=np.int8)


# Bytes read at a time. A block holds the whole lines these bytes finish,
# so a line longer than this takes as many reads as it needs. Bigger
# blocks save per-call overhead but touch more new pages: in forked
# children on a 2-core VM, `estimate` on 1000-token lines ran about 14 %
# faster than with a per-line reader at 64 KiB, and no faster at 128 KiB.
_READ_BLOCK = 1 << 16

# A line end as the text reader sees one: \n, \r\n or a lone \r.
_LINE_END = re.compile(rb"\r\n?|\n")


def _line_blocks(handle, size):
    """The bytes of a binary file in blocks of whole lines, cut where the
    text reader ends a line; the last block may lack its line end."""
    pieces = []
    while chunk := handle.read(size):
        # After the last line end, but not after a final \r: a \n may follow.
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if not cut:
            pieces.append(chunk)
            continue
        pieces.append(chunk[:cut])
        yield b"".join(pieces)
        pieces = [chunk[cut:]]
    tail = b"".join(pieces)
    if tail:
        yield tail


class _Observations:
    """The rows of an observation file as its blocks are read: their signs
    flat in one int8 array, and the set of row widths.

    A block of signs lines is decoded by a fixed number of array operations
    into work arrays kept from block to block; in a fresh process a page
    touched for the first time costs more than the arithmetic on it.
    """

    def __init__(self, size, delimiter):
        # A token and the byte that ends it take two bytes, so a file of
        # `size` bytes holds at most (size + 1) // 2 tokens; pages of the
        # array that no sign reaches are never touched.
        self.signs = np.empty((size + 1) // 2, dtype=np.int8)
        self.filled = 0
        self.widths = set()
        self.delimiter = delimiter  # a byte, or None when no block can take the array pass
        self.work = np.empty((6, 0), dtype=bool)

    def _room(self, count):
        """The next `count` entries of the signs array, grown if the file grew."""
        end = self.filled + count
        if end > len(self.signs):
            grown = np.empty(max(end, 2 * len(self.signs)), dtype=np.int8)
            grown[: self.filled] = self.signs[: self.filled]
            self.signs = grown
        return self.signs[self.filled : end]

    def add_rows(self, rows):
        """Append rows decoded token by token."""
        self.widths.update(len(r) for r in rows)
        if rows:
            flat = np.concatenate(rows)
            self._room(len(flat))[:] = flat
            self.filled += len(flat)

    def add_block(self, block):
        """Append the rows of a block of whole signs lines; returns its number
        of lines, or None, having appended nothing, when a byte or token
        needs the token loop.

        Read here: tokens 1, +1 and -1 between runs of the delimiter byte
        (empty tokens are skipped, as the token loop skips them) and spaces
        or tabs at either end of a line. Anything else, a non-ASCII byte or
        a padded token included, is left to the token loop.
        """
        if self.delimiter is None:
            return None
        raw = np.frombuffer(block, dtype=np.uint8)
        n = len(raw)
        if self.work.shape[1] < n:
            self.work = np.empty((6, 2 * n), dtype=bool)
        one, minus, ends, gap, extra, check = (row[:n] for row in self.work)
        np.equal(raw, 49, out=one)
        np.equal(raw, 45, out=minus)
        np.equal(raw, 10, out=ends)
        np.equal(raw, self.delimiter, out=gap)
        # A byte the block lacks costs one memchr instead of an array pass.
        crlf = 0
        if b"\r" in block:
            np.equal(raw, 13, out=extra)
            crlf = np.count_nonzero(np.logical_and(extra[:-1], ends[1:], out=check[:-1]))
            ends |= extra
        gap |= ends  # the bytes that end a token
        blanks = [b for b in b" \t" if b != self.delimiter and bytes((b,)) in block]
        if blanks:
            pad = np.equal(raw, blanks[0], out=extra)
            for b in blanks[1:]:
                pad |= raw == b
            # A run of spaces and tabs must touch a line end or the block's
            # edge; one between tokens pads a token.
            first, stop = np.flatnonzero(np.diff(pad, prepend=False, append=False)).reshape(-1, 2).T
            beside = np.concatenate(([True], ends, [True]))
            if not (beside[first] | beside[stop + 1]).all():
                return None
            gap |= pad
        sign = minus
        if b"+" in block:
            sign = np.equal(raw, 43, out=extra)
            sign |= minus
        np.logical_or(one, sign, out=check)
        check |= gap
        if not check.all():
            return None
        # A '1' ends at a gap or at the block's end; a sign is followed by a '1'.
        if (
            sign[-1]
            or np.greater(one[:-1], gap[1:], out=check[:-1]).any()
            or np.greater(sign[:-1], one[1:], out=check[:-1]).any()
        ):
            return None
        values = one.nonzero()[0]
        breaks = ends.nonzero()[0]
        # Tokens before each line-end byte, and in the whole block.
        cuts = np.append(values.searchsorted(breaks), len(values))
        widths = cuts - np.concatenate(([0], cuts[:-1]))
        self.widths.update(widths[widths > 0].tolist())
        # Each token's sign from the byte before its '1'; before position
        # 0, index -1 wraps to the block's last byte, never a sign.
        signs = self._room(len(values))
        values -= 1
        np.take(minus.view(np.int8), values, out=signs, mode="wrap")
        signs *= -2
        signs += 1
        self.filled += len(values)
        return len(breaks) - crlf + (not ends[-1])

    def matrix(self):
        """The rows as one int8 matrix; the widths must agree."""
        (width,) = self.widths
        return self.signs[: self.filled].reshape(-1, width)


def _token_rows(block, lineno, encoding, delimiter, path):
    """(rows, lines) of a block of lines read token by token; lineno is
    the number of its first line."""
    rows = []
    lines = block.splitlines()
    for lineno, line in enumerate(lines, start=lineno):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as bad:
            raise DataError(f"{path}:{lineno}: not valid UTF-8: {bad}") from bad
        if text:
            signs = _decode_tokens(text, encoding, delimiter, f"{path}:{lineno}")
            if signs is not None:
                rows.append(signs)
    return rows, len(lines)


def load_observations(path, encoding="signs", delimiter=",", header=False):
    """Read one observation per line; returns a CountsVector.

    Lines end at \\n, \\r\\n or a lone \\r. Each line is stripped of
    surrounding whitespace; blank lines are skipped, and with ``header``
    the first line is only checked to be UTF-8. The file is read as bytes,
    a block of whole lines at a time. A block of signs lines whose bytes
    are all tokens ``1``, ``+1`` or ``-1``, runs of a one-byte ASCII
    delimiter (empty tokens allowed) and spaces or tabs at either end of a
    line is decoded by a fixed number of array operations. Any other block
    (a non-ASCII byte, a bad or padded token, ``ws`` or a longer
    delimiter, the bits encoding) is read line by line: each line is
    decoded from UTF-8, split into tokens, and each token stripped and
    decoded in turn. Results and error messages are the same either way.
    The first bad token or non-UTF-8 line in file order raises a DataError
    naming ``path:line``; rows of unequal length are reported after the
    whole file is read. The rows are then counted by
    counts_from_observations.
    """
    # The array pass splits signs lines on one byte that is neither a line
    # end nor a byte of a token.
    byte = None
    if encoding == "signs" and len(delimiter) == 1 and delimiter.isascii() and delimiter not in "+-01\r\n":
        byte = ord(delimiter)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc
    with handle:
        rows = _Observations(os.fstat(handle.fileno()).st_size, byte)
        lineno = 1
        for block in _line_blocks(handle, _READ_BLOCK):
            if header and lineno == 1:
                end = _LINE_END.search(block)
                head, block = (block[: end.start()], block[end.end() :]) if end else (block, b"")
                try:
                    head.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise DataError(f"{path}:1: not valid UTF-8: {bad}") from bad
                lineno = 2
                if not block:
                    continue
            lines = rows.add_block(block)
            if lines is None:
                decoded, lines = _token_rows(block, lineno, encoding, delimiter, path)
                rows.add_rows(decoded)
            lineno += lines
    if not rows.widths:
        raise DataError(f"{path}: no observations found")
    if len(rows.widths) > 1:
        raise DataError(f"{path}: rows have inconsistent lengths {sorted(rows.widths)}")
    return counts_from_observations(rows.matrix())


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(_too_many_digits(f"config file {path}")) from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# cell indexes as decimal text
#
# str() and int() refuse integers beyond 4300 decimal digits (Python's
# int_max_str_digits), which cell indexes pass from n ~ 14,300 on.
# decimal.Decimal converts between int and digits without that limit.
# A value of at most 3 d bits is below 8^d < 10^d, so it has at most d
# digits: a bit length settles most sizes without forming a power of ten.


def _decimal(value):
    """str(value) for an integer of any size: str() itself while the value
    has fewer digits than the limit, decimal.Decimal (slower) beyond."""
    limit = _int_text_limit()
    if limit == 0 or value.bit_length() <= 3 * (limit - 1):
        return str(value)
    return str(decimal.Decimal(value))


def _int_text_limit():
    """Most decimal digits int() and str() convert; 0 means no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7


def _parse_decimal(text):
    """int(text) for an optionally signed decimal string of any length."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits.isdecimal():
        raise ValueError(f"invalid decimal integer {text!r}")
    limit = _int_text_limit()
    if limit == 0 or len(digits) <= limit:
        return int(text)
    return int(decimal.Decimal(text))


def _cell_json(cell):
    """A cell index as a JSON number up to 2^53, as decimal text above."""
    return _decimal(cell) if cell > 2**53 else cell


def _json_int(value):
    """value as a JSON number while str() can print it, as decimal text beyond."""
    limit = _int_text_limit()
    if limit == 0 or value.bit_length() <= 3 * limit or value < 10**limit:
        return value
    return _decimal(value)


# ---------------------------------------------------------------------------
# config (de)serialization


def _require(mapping, key, what):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{what} must be a JSON object")
    if key not in mapping:
        raise ConfigError(f"{what} is missing required key {key!r}")
    return mapping[key]


def _number(raw, what, kind=float):
    """kind(raw) for kind float or int; a JSON value it refuses is a ConfigError.

    Both kinds refuse a bool, which float() and int() would read as 1 or 0,
    and a string, which they would parse; a float read is the package's
    real-number check. An int read also refuses a number with a fractional
    part rather than truncate it; an integral float such as 3.0 is accepted.
    """
    if kind is float:
        return _real(raw, what, ConfigError)
    if isinstance(raw, (bool, str)) or (isinstance(raw, float) and not raw.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {raw!r}") from exc


def _numbers(raw, what, kind=float):
    """A JSON list of numbers, each converted by kind."""
    if not isinstance(raw, list):
        raise ConfigError(f"{what} must be a list of numbers, got {raw!r}")
    return [_number(v, f"{what} entry", kind) for v in raw]


def _float_array(raw, what):
    """_numbers(raw, what) as a float64 array. A list of JSON ints and floats
    converts in one numpy pass; any other value, or an int past float range,
    goes through _numbers, whose error names the first bad entry."""
    if isinstance(raw, list) and set(map(type, raw)) <= {int, float}:
        try:
            return np.asarray(raw, dtype=np.float64)
        except OverflowError:
            pass
    return np.asarray(_numbers(raw, what), dtype=np.float64)


def _weight_vector(raw, n, what):
    if isinstance(raw, (int, float)):
        return np.full(n, _number(raw, what))
    if isinstance(raw, list):
        arr = _float_array(raw, what)
        if arr.size != n:
            raise ConfigError(f"{what} has {arr.size} entries, expected {n}")
        return arr
    raise ConfigError(f"{what} must be a number or a list of numbers")


def shrinkage_from_dict(d, n):
    form = _require(d, "form", "shrinkage")
    try:
        if form == "dense":
            values = _float_array(_require(d, "values", "dense shrinkage"), "dense shrinkage values")
            spec = ShrinkageSpec.dense(values)
            if spec.n != n:
                raise ConfigError(f"dense shrinkage is for n={spec.n}, data has n={n}")
            return spec
        if form == "sparse":
            entries = _require(d, "entries", "sparse shrinkage")
            if not isinstance(entries, dict):
                raise ConfigError("sparse shrinkage entries must map index -> value")
            converted = {}
            for key, val in entries.items():
                try:
                    idx = _parse_decimal(str(key))
                except ValueError as exc:
                    raise ConfigError(f"bad sparse shrinkage index {key!r}") from exc
                converted[idx] = _number(val, f"sparse shrinkage entry {key!r}")
            return ShrinkageSpec.sparse(n, converted)
        if form == "single_interaction":
            return ShrinkageSpec.single_interaction(
                _weight_vector(_require(d, "w", "single-interaction shrinkage"), n, "shrinkage w")
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown shrinkage form {form!r}")


def shrinkage_to_dict(spec):
    if spec.form == "dense":
        return {"form": "dense", "values": spec.values}
    if spec.form == "sparse":
        return {"form": "sparse", "entries": {_decimal(idx): val for idx, val in spec.entries}}
    return {"form": "single_interaction", "w": spec.w}


_TRANSFORM_FIELDS = {
    "identity": (),
    "exponential": ("gamma",),
    "logistic": ("gamma",),
    "step": ("threshold", "low", "high"),
    "relu": (),
    "tanh": ("scale",),
    "elu": ("alpha",),
}


def transform_from_dict(d):
    kind = _require(d, "kind", "transform")
    if not isinstance(kind, str) or kind not in _TRANSFORM_FIELDS:
        raise ConfigError(f"unknown transform kind {kind!r}; expected one of {sorted(_TRANSFORM_FIELDS)}")
    kwargs = {}
    for name in _TRANSFORM_FIELDS[kind]:
        kwargs[name] = _number(_require(d, name, f"{kind} transform"), f"{kind} transform {name}")
    try:
        return Transform(kind=kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def transform_to_dict(transform):
    out = {"kind": transform.kind}
    for name in _TRANSFORM_FIELDS[transform.kind]:
        out[name] = getattr(transform, name)
    return out


def estimator_from_dict(d, n):
    variant = _require(d, "variant", "estimator")
    if variant == "linear":
        return EstimatorConfig.linear(shrinkage_from_dict(_require(d, "shrinkage", "linear estimator"), n))
    if variant == "transformed":
        return EstimatorConfig.transformed(
            shrinkage_from_dict(_require(d, "shrinkage", "transformed estimator"), n),
            transform_from_dict(_require(d, "transform", "transformed estimator")),
        )
    if variant == "waak":
        w = _weight_vector(_require(d, "w", "waak estimator"), n, "waak w")
        return EstimatorConfig.waak(w, _number(_require(d, "gamma", "waak estimator"), "waak gamma"))
    if variant == "aa_classic":
        return EstimatorConfig.aa_classic(n, _number(_require(d, "lambda", "aa_classic estimator"), "aa_classic lambda"))
    if variant == "mixture":
        raw = _require(d, "components", "mixture estimator")
        if not isinstance(raw, list):
            raise ConfigError("mixture components must be a list")
        comps = []
        for item in raw:
            comps.append(
                (
                    _number(_require(item, "weight", "mixture component"), "mixture component weight"),
                    estimator_from_dict(_require(item, "estimator", "mixture component"), n),
                )
            )
        return EstimatorConfig.mixture(tuple(comps))
    raise ConfigError(f"unknown estimator variant {variant!r}")


def estimator_to_dict(config):
    """The JSON form of a config. Weight and dense shrinkage vectors stay
    float64 arrays, which write_report writes without json's encoder."""
    if config.variant == "linear":
        return {"variant": "linear", "shrinkage": shrinkage_to_dict(config.shrinkage)}
    if config.variant == "transformed":
        return {
            "variant": "transformed",
            "shrinkage": shrinkage_to_dict(config.shrinkage),
            "transform": transform_to_dict(config.transform),
        }
    if config.variant == "waak":
        return {
            "variant": "waak",
            "gamma": config.gamma,
            "w": config.shrinkage.w,
        }
    if config.variant == "aa_classic":
        return {"variant": "aa_classic", "lambda": config.lam, "n": config.n}
    return {
        "variant": "mixture",
        "components": [
            {"weight": weight, "estimator": estimator_to_dict(cfg)}
            for weight, cfg in config.components
        ],
    }


# ---------------------------------------------------------------------------
# query cell parsing


# Only +, - and ?; a regex scans a 10^4-character pattern far faster than
# set(text) or text.strip("+-?").
_PATTERN = re.compile(r"[+?-]+")


def _parse_pattern(item, n):
    """Sign pattern like '+-+', optionally with one '?' marking the
    coordinate whose conditional expectation is requested."""
    if len(item) != n:
        raise ConfigError(f"pattern {item!r} has {len(item)} coordinates, data has n={n}")
    holes = item.count("?")
    if holes > 1:
        raise ConfigError(f"pattern {item!r} has {holes} '?' marks; at most one is supported")
    # Bit k of the zero-based index is set where coordinate k + 1 is '-'
    # (walsh.index_of_point); a '?' leaves its bit clear, at the '+' cell.
    minus = np.frombuffer(item.encode("ascii"), dtype=np.uint8) == ord("-")
    cell = 1 + int.from_bytes(np.packbits(minus, bitorder="little").tobytes(), "little")
    if not holes:
        return {"kind": "cell", "cell": cell, "label": item}
    pos = item.index("?")
    return {
        "kind": "conditional",
        "pattern": item,
        "coordinate": pos + 1,
        "cell_plus": cell,
        "cell_minus": cell + (1 << pos),
    }


def parse_cells_spec(items, n):
    """Parse query cell specifiers: integer indexes and sign patterns."""
    parsed = []
    for item in items:
        if isinstance(item, (int, np.integer)) and not isinstance(item, bool):
            parsed.append({"kind": "cell", "cell": int(item), "label": None})
            continue
        if not isinstance(item, str):
            raise ConfigError(f"query cell {item!r} must be an integer or a sign pattern")
        text = item.strip()
        if not text:
            continue
        if _PATTERN.fullmatch(text):
            parsed.append(_parse_pattern(text, n))
            continue
        try:
            cell = _parse_decimal(text)
        except ValueError:
            raise ConfigError(f"query cell {text!r} is neither an index nor a +/-/? pattern") from None
        parsed.append({"kind": "cell", "cell": cell, "label": None})
    if not parsed:
        raise ConfigError("no query cells given")
    return parsed


def _point_label(cell, n):
    if n > 64:
        return None
    signs = point_of_index(cell, n)
    return "".join("+" if s > 0 else "-" for s in signs)


# ---------------------------------------------------------------------------
# report writing


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


# Stands in for an ndarray leaf while json encodes the rest of a report. It
# holds a NUL, which no path from the command line can hold.
_ARRAY_MARK = "\x00ndarray"


# Shorter float arrays go through repr, at about 1 us a value. The vector
# route (floattext) takes about 0.3 us a value plus 0.4 ms of numpy calls
# per array, and the first array of a process also pays about 5 ms to
# compile floattext and build its tables: they cross near 8000 values.
_VECTOR_MIN_VALUES = 8192


def _float_array_text(values, indent):
    """A 1-D float64 array as json.dumps(values.tolist(), indent=2) writes it
    at a line indented by indent spaces, in pieces."""
    if values.size == 0:
        yield "[]"
        return
    inner = " " * (indent + 2)
    yield "[\n" + inner
    bits = values.view(np.uint64)
    if np.all(bits == bits[0]):
        # One value repeated, as a shared-grid weight vector is, takes one
        # repr. Bitwise equality keeps -0.0 beside 0.0 apart.
        yield (",\n" + inner).join([json.dumps(float(values[0]))] * values.size)
    elif values.size >= _VECTOR_MIN_VALUES:
        from .floattext import array_text

        yield from array_text(values, ",\n" + inner)
    else:
        # A list's repr joins float.__repr__ with ", ", as json does with its
        # separator; json spells repr's nan, inf and -inf NaN, Infinity and -Infinity.
        text = repr(values.tolist())[1:-1].replace(", ", ",\n" + inner)
        yield text.replace("nan", "NaN").replace("inf", "Infinity")
    yield "\n" + " " * indent + "]"


def write_report(path, payload):
    """Write json.dumps(payload, indent=2) and a newline to path atomically.

    A 1-D float64 ndarray in payload is written as json writes the list of
    its values, but without json: with an indent json runs its pure-Python
    encoder, which costs several times estimate_full on a 2^16-value vector.
    """
    arrays = []

    def defer(obj):
        if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
            arrays.append(obj)
            return _ARRAY_MARK
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    text = json.dumps(payload, indent=2, default=defer)
    pieces = text.split(json.dumps(_ARRAY_MARK)) if arrays else [text]
    if len(pieces) != len(arrays) + 1:
        raise ValueError("report holds a string equal to the array placeholder")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".bindens-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(pieces[0])
            for head, values, tail in zip(pieces, arrays, pieces[1:]):
                line = head[head.rfind("\n") + 1 :]
                handle.writelines(_float_array_text(values, len(line) - len(line.lstrip(" "))))
                handle.write(tail)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _data_block(counts, path):
    return {
        "path": str(path),
        "observations": counts.total,
        "distinct_cells": len(counts.cells),
        "n": counts.n,
        "counts": {_decimal(idx): cnt for idx, cnt in counts.cells},
    }


def _normalizer_block(results):
    return [
        {
            "value": _json_safe(res.value),
            "log_value": _json_safe(res.log_value),
            "method": res.method,
        }
        for res in results
    ]


def _risk_row(report, extra=None):
    row = {
        "estimator": estimator_to_dict(report.config),
        "value": _json_safe(report.value),
        "dominated": report.dominated,
        "element_evals": report.element_evals,
        "squared_element_evals": report.squared_element_evals,
    }
    if extra:
        row.update(extra)
    return row


# ---------------------------------------------------------------------------
# commands


def _common_header(command, n, seed):
    return {
        "report_version": REPORT_VERSION,
        "command": command,
        "n": n,
        "seed": seed,
    }


def cmd_estimate(args):
    started = time.perf_counter()
    counts = load_observations(args.data, args.encoding, args.delimiter, args.header)
    config_doc = load_config(args.config)
    seed = _number(config_doc.get("seed", 0), "seed", int)
    estimator_doc = _require(config_doc, "estimator", "config")
    config = estimator_from_dict(estimator_doc, counts.n)

    query_doc = config_doc.get("query", {})
    if not isinstance(query_doc, dict):
        raise ConfigError("query block must be a JSON object")
    raw_cells = query_doc.get("cells", "all")
    if raw_cells == "all" or raw_cells == ["all"]:
        if counts.n > MAX_FULL_N:
            raise CapacityError(
                f"full estimates are limited to n <= {MAX_FULL_N}; list explicit query cells for n={counts.n}"
            )
        estimate = estimate_full(config, counts)
        cells_out = None
    else:
        if not isinstance(raw_cells, list):
            raise ConfigError("query.cells must be \"all\" or a list of cells")
        parsed = parse_cells_spec(raw_cells, counts.n)
        cells = []
        for item in parsed:
            if item["kind"] != "cell":
                raise ConfigError("estimate only takes plain cells; use the query command for '?' patterns")
            cells.append(item["cell"])
        estimate = estimate_at(cells, config, counts)
        cells_out = list(estimate.cells)

    report = _common_header("estimate", counts.n, seed)
    report["data"] = _data_block(counts, args.data)
    report["estimator"] = estimator_to_dict(config)
    block = {
        "full": cells_out is None,
        "negativity": estimate.negativity,
        "sum": float(np.sum(estimate.values)),
        "normalizers": _normalizer_block(estimate.normalizers),
    }
    if cells_out is not None:
        block["cells"] = [_cell_json(c) for c in cells_out]
    block["values"] = estimate.values
    report["estimate"] = block
    report["timing"] = {"elapsed_ms": (time.perf_counter() - started) * 1000.0}
    write_report(args.out, report)
    print(
        f"estimate: n={counts.n} observations={counts.total} "
        f"cells={'all' if cells_out is None else len(cells_out)} "
        f"sum={block['sum']:.12g} negativity={estimate.negativity}"
    )
    print(f"wrote {args.out}")
    return 0


def _search_from_dict(d, n):
    kind = _require(d, "kind", "cv.search")
    budget = d.get("budget")
    if budget is not None:
        budget = _number(budget, "search budget", int)
    if kind == "aa_lambda":
        return SearchSpace.aa_lambda_grid(n, _numbers(_require(d, "lambdas", "aa_lambda search"), "aa_lambda lambdas"), budget=budget)
    if kind == "waak":
        gammas = _numbers(_require(d, "gammas", "waak search"), "waak search gammas")
        w_doc = _require(d, "w", "waak search")
        mode = _require(w_doc, "mode", "waak search w")
        if mode == "fixed":
            w = _weight_vector(_require(w_doc, "values", "fixed-w search"), n, "search w")
            return SearchSpace.waak_fixed_w(w, gammas, budget=budget)
        if mode == "shared_grid":
            grid = _numbers(_require(w_doc, "grid", "shared-grid search"), "shared-grid search grid")
            return SearchSpace.waak_shared_grid(n, gammas, grid, budget=budget)
        if mode == "product":
            axes = _require(w_doc, "axes", "product search")
            if not isinstance(axes, list):
                raise ConfigError("product search axes must be a list of lists")
            if len(axes) != n:
                raise ConfigError(f"product search needs {n} axes, got {len(axes)}")
            return SearchSpace.waak_product(gammas, [_numbers(axis, "product search axis") for axis in axes], budget=budget)
        raise ConfigError(f"unknown waak search mode {mode!r}")
    if kind == "linear_sparse":
        indexes = _numbers(_require(d, "indexes", "linear_sparse search"), "linear_sparse search indexes", int)
        grid = _numbers(_require(d, "value_grid", "linear_sparse search"), "linear_sparse search value_grid")
        return SearchSpace.linear_sparse_grid(n, indexes, grid, budget=budget)
    if kind == "mixture":
        raw = _require(d, "components", "mixture search")
        if not isinstance(raw, list):
            raise ConfigError("mixture search components must be a list")
        comps = [estimator_from_dict(item, n) for item in raw]
        denominator = _number(_require(d, "denominator", "mixture search"), "mixture search denominator", int)
        return SearchSpace.mixture_weight_grid(comps, denominator, budget=budget)
    raise ConfigError(f"unknown search kind {kind!r}")


def cmd_cv(args):
    started = time.perf_counter()
    counts = load_observations(args.data, args.encoding, args.delimiter, args.header)
    config_doc = load_config(args.config)
    seed = _number(config_doc.get("seed", 0), "seed", int)
    cv_doc = _require(config_doc, "cv", "config")
    search_doc = _require(cv_doc, "search", "cv block")
    loss = args.loss or cv_doc.get("loss", "kl")
    kind = _require(search_doc, "kind", "cv.search")

    report = _common_header("cv", counts.n, seed)
    report["data"] = _data_block(counts, args.data)
    report["loss"] = loss
    report["search"] = search_doc
    partial = False

    if kind == "waak_descent":
        gammas = _numbers(_require(search_doc, "gammas", "waak_descent search"), "waak_descent gammas")
        grid = _numbers(_require(search_doc, "grid", "waak_descent search"), "waak_descent grid")
        sweeps = _number(search_doc.get("sweeps", 2), "waak_descent sweeps", int)
        if not gammas or not grid:
            raise ConfigError("waak_descent search needs at least one gamma and one grid value")
        initial = _weight_vector(search_doc.get("initial", grid[0]), counts.n, "descent initial w")
        evaluated = []
        for gamma in gammas:
            _, rep = coordinate_descent_w(initial, gamma, loss, counts, sweeps, grid)
            evaluated.append((rep, {"gamma": gamma, "sweeps": sweeps}))
    else:
        space = _search_from_dict(search_doc, counts.n)
        reports, _, partial = evaluate_space(space, loss, counts)
        evaluated = [(rep, {"candidate_index": pos}) for pos, rep in enumerate(reports)]

    # A stable sort by the search's own key: rank 1 is its best candidate.
    ranked = sorted(evaluated, key=lambda row: _rank_key(row[0]))
    report["evaluations"] = [
        _risk_row(rep, extra={**extra, "rank": rank}) for rank, (rep, extra) in enumerate(ranked, start=1)
    ]
    best_rep = ranked[0][0]
    report["best"] = _risk_row(best_rep)
    report["partial"] = partial
    report["timing"] = {"elapsed_ms": (time.perf_counter() - started) * 1000.0}
    write_report(args.out, report)
    value = best_rep.value
    print(f"cv: loss={loss} candidates={len(evaluated)} best_value={value:.12g} partial={partial}")
    print(f"wrote {args.out}")
    if partial:
        print("error: search budget exhausted before the grid was fully evaluated", file=sys.stderr)
        return 2
    return 0


# The members of a fit report that query reads. The rest (the estimate,
# whose values run to 2^20 numbers, timing, a version 1 backend, unknown
# keys) are checked as JSON but build no number objects: _SKIPPER reads
# each number as None. Its hook runs once per number, so it is a builtin
# that returns None without reading the number's text: the append of a
# deque that keeps nothing. A lambda's Python frame slowed the whole read
# of a 2^20-value fit by 5 to 20 %.
_FIT_KEYS = frozenset(("report_version", "n", "seed", "data", "estimator"))
_DECODER = json.JSONDecoder()
_NO_NUMBER = collections.deque(maxlen=0).append
_SKIPPER = json.JSONDecoder(parse_float=_NO_NUMBER, parse_int=_NO_NUMBER, parse_constant=_NO_NUMBER)
_WHITESPACE = re.compile(r"[ \t\n\r]*")


def _too_many_digits(what):
    """The message for JSON text whose integer int() refuses to read: one
    of more digits than sys.get_int_max_str_digits() allows."""
    return f"{what} holds an integer of more than {_int_text_limit()} digits"


def _read_fit(text):
    """json.loads(text) for a fit report, except that a top-level member
    outside _FIT_KEYS holds None for every number in it. Text that is not
    JSON raises json.JSONDecodeError wherever the fault is; a top level
    other than an object is left to json.loads. An integer too long for
    int() raises ValueError naming the member that holds it."""
    pos = _WHITESPACE.match(text).end()
    if text[pos:pos + 1] != "{":
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise ValueError(_too_many_digits("the top level")) from exc
    fit = {}
    while True:
        pos = _WHITESPACE.match(text, pos + 1).end()  # past "{" or ","
        if not fit and text[pos:pos + 1] == "}":  # an empty object
            break
        if text[pos:pos + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, pos)
        key, pos = _DECODER.raw_decode(text, pos)
        pos = _WHITESPACE.match(text, pos).end()
        if text[pos:pos + 1] != ":":
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        decoder = _DECODER if key in _FIT_KEYS else _SKIPPER
        try:
            fit[key], pos = decoder.raw_decode(text, _WHITESPACE.match(text, pos + 1).end())
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise ValueError(_too_many_digits(f"member {key!r}")) from exc
        pos = _WHITESPACE.match(text, pos).end()
        if text[pos:pos + 1] == "}":
            break
        if text[pos:pos + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
    pos = _WHITESPACE.match(text, pos + 1).end()
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    return fit


def _fit_counts(fit, path):
    """n and the CountsVector a fit report records; a value of the wrong
    JSON type is a DataError naming the report."""
    try:
        n = _number(fit["n"], "n", int)
        raw = _require(fit["data"], "counts", "data block")
        if not isinstance(raw, dict):
            raise ConfigError("data.counts must be a JSON object")
        cells = {_parse_decimal(idx): _number(cnt, "cell count", int) for idx, cnt in raw.items()}
    except ConfigError as exc:
        raise DataError(f"fit report {path}: {exc}") from exc
    return n, CountsVector.from_cells(n, cells)


def cmd_query(args):
    started = time.perf_counter()
    try:
        with open(args.fit, "r", encoding="utf-8") as handle:
            fit = _read_fit(handle.read())
    except OSError as exc:
        raise DataError(f"cannot read fit report {args.fit}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{args.fit} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"fit report {args.fit}: {exc}") from exc
    if not isinstance(fit, dict):
        raise DataError(f"fit report {args.fit} must be a JSON object")
    for key in ("report_version", "n", "data", "estimator"):
        if key not in fit:
            raise DataError(f"fit report {args.fit} is missing key {key!r}")
    n, counts = _fit_counts(fit, args.fit)
    config = estimator_from_dict(fit["estimator"], n)
    parsed = parse_cells_spec([s for s in args.cells.split(",")], n)

    plain = [item["cell"] for item in parsed if item["kind"] == "cell"]
    needed = list(plain)
    for item in parsed:
        if item["kind"] == "conditional":
            needed.extend([item["cell_plus"], item["cell_minus"]])
    estimate = estimate_at(needed, config, counts)
    value_of = dict(zip(needed, (float(v) for v in estimate.values)))

    results = []
    for item in parsed:
        if item["kind"] == "cell":
            cell = item["cell"]
            entry = {"cell": _cell_json(cell), "value": value_of[cell]}
            label = item["label"] or _point_label(cell, n)
            if label:
                entry["point"] = label
            results.append(entry)
        else:
            p_plus = value_of[item["cell_plus"]]
            p_minus = value_of[item["cell_minus"]]
            denom = p_plus + p_minus
            entry = {
                "pattern": item["pattern"],
                "coordinate": item["coordinate"],
                "cells": [_json_int(item["cell_plus"]), _json_int(item["cell_minus"])],
                "values": [p_plus, p_minus],
            }
            if denom > 0:
                entry["conditional_expectation"] = (p_plus - p_minus) / denom
                entry["undefined"] = False
            else:
                entry["conditional_expectation"] = None
                entry["undefined"] = True
            results.append(entry)

    report = _common_header("query", n, _number(fit.get("seed", 0), "fit report seed", int))
    report["fit"] = str(args.fit)
    report["estimator"] = estimator_to_dict(config)
    report["query"] = {"cells": args.cells, "results": results}
    report["negativity"] = bool(estimate.negativity)
    report["timing"] = {"elapsed_ms": (time.perf_counter() - started) * 1000.0}
    write_report(args.out, report)
    for entry in results:
        if "cell" in entry:
            print(f"cell {entry.get('point') or entry['cell']}: {entry['value']:.12g}")
        else:
            ce = entry["conditional_expectation"]
            shown = "undefined" if ce is None else f"{ce:.12g}"
            print(f"conditional {entry['pattern']} (coordinate {entry['coordinate']}): {shown}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# bench


def _time_call(fn, repeats=5):
    fn()  # warm caches before measuring
    t0 = time.perf_counter()
    fn()
    single = time.perf_counter() - t0
    inner = max(1, min(2000, int(0.0005 / max(single, 1e-9))))
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best * 1000.0


def _random_cell(rng, n):
    raw = rng.integers(0, 256, size=(n + 7) // 8, dtype=np.uint8).tobytes()
    return (int.from_bytes(raw, "little") & ((1 << n) - 1)) + 1


def _random_sparse(rng, n, nonzeros):
    entries = {1: 1.0}
    while len(entries) < nonzeros:
        entries[_random_cell(rng, n)] = float(rng.uniform(0.0, 1.0))
    return ShrinkageSpec.sparse(n, entries)


def _flat_check(name, times, limit):
    lo, hi = min(times.values()), max(times.values())
    ratio = hi / lo if lo > 0 else math.inf
    return {"name": name, "pass": bool(ratio <= limit), "max_over_min": ratio, "limit": limit}


def _growth_check(name, times, n_small, n_big, minimum):
    ratio = times[n_big] / times[n_small] if times[n_small] > 0 else math.inf
    return {
        "name": name,
        "pass": bool(ratio >= minimum),
        "growth": ratio,
        "from_n": n_small,
        "to_n": n_big,
        "minimum": minimum,
    }


def _bound_check(name, value_ms, limit_ms):
    return {"name": name, "pass": bool(value_ms < limit_ms), "time_ms": value_ms, "limit_ms": limit_ms}


def _bench_row(regime, expected, norm_t, el_t, sq_t, checks):
    """One report row: expected costs and {n: ms} timings per quantity."""
    times = {"normalization": norm_t, "element": el_t, "squared_element": sq_t}
    return {
        "regime": regime,
        "expected": dict(zip(times, expected)),
        "times_ms": {name: {str(n): t[n] for n in t} for name, t in times.items()},
        "checks": checks,
    }


def cmd_bench(args):
    started = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    max_n = int(args.max_n)
    if max_n < 8:
        raise ConfigError(f"--max-n must be at least 8, got {max_n}")
    dense_grid = [n for n in (8, 12, 16, 20) if n <= max_n]
    big_grid = [100, 1000, 10000]
    rows = []

    # Regime 1: identity transform, leading coefficient pinned to 1,
    # sparse support. Normalization is a constant, elements cost one
    # pass over the nonzeros regardless of n.
    norm_t, el_t, sq_t = {}, {}, {}
    for n in dense_grid + big_grid:
        spec = _random_sparse(rng, n, nonzeros=8)
        ident = Transform.identity()
        i, j = _random_cell(rng, n), _random_cell(rng, n)
        norm_t[n] = _time_call(lambda s=spec, t=ident: normalizer(t, s))
        el_t[n] = _time_call(lambda a=i, b=j, s=spec: element_linear(a, b, s))
        sq_t[n] = _time_call(lambda a=i, b=j, s=spec: squared_element_linear(a, b, s))
    checks = [
        _flat_check("normalization_constant_time", norm_t, 16.0),
        _flat_check(
            "element_time_independent_of_n",
            {n: el_t[n] for n in big_grid},
            4.0,
        ),
        _flat_check("squared_element_time_independent_of_n", {n: sq_t[n] for n in big_grid}, 4.0),
    ]
    rows.append(_bench_row("linear_sparse", ("O(1)", "O(nonzeros)", "O(nonzeros)"), norm_t, el_t, sq_t, checks))

    # Regime 2: exponential base with per-coordinate weights (the
    # weighted product kernel); everything closed-form in O(n).
    norm_t, el_t, sq_t = {}, {}, {}
    for n in dense_grid + big_grid:
        w = rng.uniform(0.0, 1.0, size=n)
        spec = ShrinkageSpec.single_interaction(w)
        expo = Transform.exponential(2.0)
        i, j = _random_cell(rng, n), _random_cell(rng, n)
        norm_t[n] = _time_call(lambda s=spec, t=expo: normalizer(t, s))
        el_t[n] = _time_call(lambda a=i, b=j, ww=w: element_waak(a, b, ww, 2.0))
        sq_t[n] = _time_call(lambda a=i, b=j, ww=w: squared_element_waak(a, b, ww, 2.0))
    big = big_grid[-1]
    checks = [
        _bound_check("normalization_under_10ms_at_n10000", norm_t[big], 10.0),
        _bound_check("element_under_10ms_at_n10000", el_t[big], 10.0),
        _bound_check("squared_element_under_10ms_at_n10000", sq_t[big], 10.0),
    ]
    rows.append(_bench_row("waak", ("O(n)", "O(n)", "O(n)"), norm_t, el_t, sq_t, checks))

    # Regime 3: logistic transform over single-interaction weights.
    # Normalization collapses to half the row length; squared elements
    # need the dense pass.
    norm_t, el_t, sq_t = {}, {}, {}
    for n in dense_grid + big_grid:
        w = rng.uniform(0.0, 1.0, size=n)
        spec = ShrinkageSpec.single_interaction(w)
        logi = Transform.logistic(3.0)
        i, j = _random_cell(rng, n), _random_cell(rng, n)
        norm_t[n] = _time_call(lambda s=spec, t=logi: normalizer(t, s))
        el_t[n] = _time_call(lambda a=i, b=j, s=spec, t=logi: element_transformed(a, b, s, t))
        if n in dense_grid:
            sq_t[n] = _time_call(lambda a=i, b=j, s=spec, t=logi: squared_element_general(a, b, s, t))
    checks = [_flat_check("normalization_constant_time", norm_t, 16.0)]
    if len(dense_grid) >= 2:
        checks.append(
            _growth_check("squared_element_dense_growth", sq_t, dense_grid[-2], dense_grid[-1], 2.0)
        )
    rows.append(_bench_row("logistic_single_interaction", ("O(1)", "O(n)", "O(n 2^n)"), norm_t, el_t, sq_t, checks))

    # Regime 4: no closed form (relu over sparse shrinkage); the
    # normalizer pays the full dense transform, and an element is then
    # one read of the row it summed.
    norm_t, el_t, sq_t = {}, {}, {}
    for n in dense_grid:
        spec = _random_sparse(rng, n, nonzeros=8)
        relu = Transform.relu()
        i, j = _random_cell(rng, n), _random_cell(rng, n)
        norm_t[n] = _time_call(lambda s=spec, t=relu: normalizer(t, s))
        el_t[n] = _time_call(lambda a=i, b=j, s=spec, t=relu: element_transformed(a, b, s, t))
        sq_t[n] = _time_call(lambda a=i, b=j, s=spec, t=relu: squared_element_general(a, b, s, t))
    checks = [_flat_check("element_time_fixed_support", el_t, 4.0)]
    if len(dense_grid) >= 2:
        lo, hi = dense_grid[-2], dense_grid[-1]
        checks.append(_growth_check("normalization_dense_growth", norm_t, lo, hi, 2.0))
        checks.append(_growth_check("squared_element_dense_growth", sq_t, lo, hi, 2.0))
    rows.append(_bench_row("general_no_closed_form", ("O(n 2^n)", "O(1)", "O(n 2^n)"), norm_t, el_t, sq_t, checks))

    all_pass = all(check["pass"] for row in rows for check in row["checks"])
    report = _common_header("bench", None, int(args.seed))
    report["max_n"] = max_n
    report["rows"] = rows
    report["all_checks_pass"] = all_pass
    report["timing"] = {"elapsed_ms": (time.perf_counter() - started) * 1000.0}
    write_report(args.out, report)
    for row in rows:
        states = ", ".join(f"{c['name']}={'ok' if c['pass'] else 'FAIL'}" for c in row["checks"]) or "no checks"
        print(f"bench {row['regime']}: {states}")
    print(f"wrote {args.out}")
    if not all_pass:
        print("error: one or more scaling checks failed; see the report rows", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_DATA_OPTIONS = (
    ("--data", {"required": True, "help": "observation file, one point per line"}),
    ("--encoding", {"choices": ("signs", "bits"), "default": "signs",
                    "help": "signs: -1/+1 tokens; bits: 0 -> +1, 1 -> -1"}),
    ("--delimiter", {"default": ",", "help": "token delimiter; 'ws' splits on whitespace"}),
    ("--header", {"action": "store_true", "help": "skip the first line"}),
)
_OUT = ("--out", {"required": True, "help": "output report path"})

# Every command's help, function and (flag, add_argument keywords) pairs,
# in the order the parser lists them: the one definition of the options.
_COMMANDS = {
    "estimate": ("fit one estimator and evaluate it", cmd_estimate, _DATA_OPTIONS + (
        ("--config", {"required": True, "help": "JSON config with an 'estimator' block"}), _OUT)),
    "cv": ("search configurations by leave-one-out risk", cmd_cv, _DATA_OPTIONS + (
        ("--config", {"required": True, "help": "JSON config with a 'cv' block"}), _OUT,
        ("--loss", {"choices": ("se", "kl"), "help": "override the configured loss"}))),
    "query": ("evaluate a fitted report at new cells", cmd_query, (
        ("--fit", {"required": True, "help": "report written by the estimate command"}),
        ("--cells", {"required": True, "help": "comma-separated cell indexes or +/- patterns; "
                     "one '?' asks for a conditional expectation"}),
        _OUT)),
    "bench": ("measure element/normalization scaling", cmd_bench, (
        _OUT,
        ("--max-n", {"type": int, "default": 20, "help": "largest dense dimension to time; growth checks "
                     "below 16 compare overhead-bound sizes and can FAIL spuriously"}),
        ("--seed", {"type": int, "default": 1, "help": "rng seed for benchmark inputs"}))),
}


def build_parser(command=None):
    """The bindens argument parser: every subcommand, or only `command`,
    which then parses into the same Namespace, with the same help, usage
    and error text, as the full parser."""
    import argparse  # only for the command lines _read_table declines

    parser = argparse.ArgumentParser(
        prog="bindens",
        description="Density estimation over the {-1,+1}^n binary hypercube.",
    )
    # Usage lists the commands a parser has, and a one-command parser's
    # "unrecognized arguments" error prints it, so that parser is given the
    # full list. The full parser keeps no metavar: one would also rename
    # "command" in its "arguments are required" error.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, func, options) in _COMMANDS.items():
        if command in (None, name):
            sub = commands.add_parser(name, help=text)
            for flag, kwargs in options:
                sub.add_argument(flag, **kwargs)
            sub.set_defaults(func=func)
    return parser


def _read_table(argv):
    """The namespace argparse gives argv when argv is a command followed by
    exact flags of its table, each once, as --flag=value or --flag value
    with a value not led by '-', whose values pass type and choices and
    which include every required flag; None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    options = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        kwargs = options.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            if equals:
                return None
            value = True
        elif not equals:
            value = next(tokens, "-")  # a missing value declines as a dash-led one
            if value.startswith("-"):
                return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    if any(kwargs.get("required") and flag not in given for flag, kwargs in options.items()):
        return None
    args = types.SimpleNamespace(command=argv[0], func=func)
    for flag, kwargs in options.items():
        default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads what the table reader declines. A known command first
    # builds only its own subparser; anything else (no argument, -h, an
    # unknown name) needs the full parser's help or error.
    args = _read_table(argv)
    if args is None:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BindensError, ValueError, OSError) as exc:  # configuration, data, budget
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
