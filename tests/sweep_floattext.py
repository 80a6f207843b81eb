"""A seeded sweep of the report writer's vector float route against repr.

Formats float64 values with bindens.floattext, a million at a time, and
compares each chunk's text with json.dumps, which writes every finite float
as repr does. The chunks alternate between random bit patterns, whose
blocks all hold zeros, subnormals or non-finite values and so take the
rare-case passes, and random normal values (any sign, normal exponent and
fraction), whose blocks take none. Exits 1 at the first value that differs.
pytest does not collect this file (tests/test_floattext.py runs a smaller
sweep); run it from the root of a checkout:

    PYTHONPATH=src python tests/sweep_floattext.py --count 20000000 --seed 1
"""

import argparse
import json
import sys

import numpy as np

from bindens.floattext import array_text

CHUNK = 10**6


def _bits(rng, size, ordinary):
    if not ordinary:
        return rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False)
    sign = rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1, 2047, size=size, dtype=np.uint64) << np.uint64(52)
    return sign | exponent | rng.integers(0, 2**52, size=size, dtype=np.uint64)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2 * 10**7, help="values to check")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    for number, start in enumerate(range(0, args.count, CHUNK)):
        bits = _bits(rng, min(CHUNK, args.count - start), ordinary=number % 2 == 1)
        values = bits.view(np.float64)
        got = b"".join(array_text(values, ", ")).decode("ascii").split(", ")
        want = json.dumps(values.tolist())[1:-1].split(", ")
        for word, value, mine, theirs in zip(bits.tolist(), values.tolist(), got, want):
            if mine != theirs:
                print(f"bits {word:#018x}: {mine!r} where repr gives {theirs!r} ({value!r})")
                return 1
        if len(got) != len(want):
            print(f"{len(got)} values written for {len(want)}")
            return 1
    print(f"{args.count} values (seed {args.seed}) match repr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
