"""Machine-speed probe: a fixed reference task timed between documents.

The shared machine this benchmark was built on changes speed by 20-30%
over tens of seconds, which moves every document's time together; the
fastest of several passes does not remove it (see README.md).  The probe
does the same kinds of work as a `torstab run` call (JSON parsing, building
and applying a jsonschema validator, exact Fraction elimination, a numpy
product, JSON dumping) on fixed data, with no torstab code, so a change to
the program cannot change its cost.  Times divided by the probe's slowdown
factor, probe time / NOMINAL_S, are times at the probe's nominal speed.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np
from jsonschema import Draft202012Validator

NOMINAL_S = 0.005  # probe time on the reference machine at its usual speed

_SCHEMA = {
    "type": "object",
    "required": ["rank", "lines"],
    "properties": {
        "rank": {"type": "integer", "minimum": 0},
        "lines": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "weight"],
                "additionalProperties": False,
                "properties": {
                    "label": {"type": "string", "minLength": 1},
                    "weight": {"type": "array", "items": {"type": "integer"}},
                    "rho": {"type": "integer"},
                },
            },
        },
    },
}
_DOC = json.dumps({
    "rank": 3,
    "lines": [{"label": f"l{i}", "weight": [(i * 5) % 7 - 3, (i * 3) % 7 - 3, i % 7 - 3],
               "rho": 1 + i % 4} for i in range(12)],
})
_MATRIX = [[Fraction((i * j + 1) % 7 - 3, 1 + (i + j) % 4) for j in range(7)] for i in range(7)]
_POINTS = np.arange(-45000, 45000, dtype=np.int64).reshape(-1, 3) % 101 - 50
_WEIGHTS = np.array([[1, -2, 3], [-1, 1, 0], [0, 3, -1], [2, 2, -3]], dtype=np.int64)


def _task():
    doc = json.loads(_DOC)
    Draft202012Validator(_SCHEMA).validate(doc)
    m = [row[:] for row in _MATRIX]
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        for r in range(len(m)):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    ok = int(((_POINTS @ _WEIGHTS.T) >= 0).all(axis=1).sum())
    return json.dumps({"doc": doc, "ok": ok, "pivots": [str(m[i][i]) for i in range(len(m))]},
                      sort_keys=True, indent=2)


def probe_s() -> float:
    """Wall time of one run of the reference task."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0
