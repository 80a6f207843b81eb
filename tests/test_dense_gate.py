"""One gate for every buffer over all 2^n cells, owned by walsh.

walsh._dense_size refuses n > MAX_DENSE_N with a CapacityError that
names the 2^n buffer, before anything is allocated. Every route that
makes such a buffer calls it, and no other module compares with the
limit.
"""

import gc
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from bindens import (
    CountsVector,
    EstimatorConfig,
    ShrinkageSpec,
    Transform,
    normalizer,
    se_risk,
    squared_matrix_element,
)
from bindens.errors import CapacityError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bindens"


def test_only_walsh_compares_with_the_dense_limit():
    compare = r"(?:[<>]=?|[=!]=)"
    pattern = re.compile(rf"{compare}\s*\(?\s*(?:1 << )?MAX_DENSE_N\b|\bMAX_DENSE_N\s*\)?\s*{compare}")
    found = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "walsh.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert found == [], "the 2^n limit is checked only by walsh._dense_size"


def _relu_kernel(n):
    return EstimatorConfig.transformed(ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5}), Transform.relu())


def _waak_first_mixture(n):
    waak = EstimatorConfig.waak(np.linspace(0.2, 0.9, n), 2.0)
    return EstimatorConfig.mixture([(0.5, waak), (0.5, EstimatorConfig.aa_classic(n, 0.8))])


# (name, n, call, what the message must say besides the 2^n buffer)
REFUSALS = [
    ("ShrinkageSpec.to_dense", 40, lambda n: ShrinkageSpec.sparse(n, {1: 1.0, 3: 0.5}).to_dense(), "shrinkage"),
    ("CountsVector.to_dense", 31, lambda n: CountsVector.from_cells(n, {1: 2, 6: 1}).to_dense(), "weight"),
    ("relu normalizer", 31, lambda n: normalizer(Transform.relu(), ShrinkageSpec.sparse(n, {1: 1.0, 2: 0.5})),
     "no closed form"),
    ("se_risk of a mixture led by a waak", 31,
     lambda n: se_risk(_waak_first_mixture(n), CountsVector.from_cells(n, {1: 2, 6: 1, 1 << 30: 1})), "Walsh diagonal"),
    ("relu squared_matrix_element", 40, lambda n: squared_matrix_element(1, 3, _relu_kernel(n)), "no closed form"),
]


@pytest.mark.parametrize("n, call, words", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_names_the_buffer_before_allocating(n, call, words):
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=rf"needs a 2\^{n} buffer \(limit n=30\)") as info:
            call(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words in str(info.value)
    assert peak < 1 << 20, f"peak {peak} bytes"
