"""Print one JSON line per feasibility case, to compare two versions of the
package certificate by certificate.

Run from the repository root with the package under test on the path:

    PYTHONPATH=src python tools/feasibility_sweep.py > change.jsonl

and the same against another checkout's ``src`` (``parent.jsonl``); then
``diff parent.jsonl change.jsonl`` lists every case whose certificate or
refusal moved.  The cases are n = 2 to 12; bd, cbd and crd with every n_a;
the ATE and the solo-treatment estimand; and the grids in ``GRIDS``.  A
line holds the case, then the certificate (status, sizes, rank and a sha256
of the ``repr`` of the sorted witness mapping) or the exception's class and
message.  The full sweep is 3,872 cases, about 8 s on one x86-64 core.
"""

from __future__ import annotations

import hashlib
import json

from interference_lab import ATE, Design, SoloTreatmentEffect, unbiased_feasibility

# unit, binary-fraction, signed, single-level and signed-zero grids; the top
# of the double range; subnormal and near-subnormal grids; wide grids and
# levels that are not binary fractions; offset grids, two levels one apart
# far from zero
GRIDS = (
    (0.0, 1.0),
    (0.0, 0.25, 0.5, 1.5),
    (-1.0, 1.5),
    (1.0,),
    (-0.0, 0.0, 1.25),
    (0.0, 1e307),
    (-1e307, 1e307),
    (1e300,),
    (0.0, 1.7e308),
    (1.7e308,),
    (0.0, 5e-324),
    (5e-324, 1e-323),
    (2.3e-308, 2.4e-308),
    (-0.0, 0.0, 1e-310),
    (5e-324, 1.0, 1e307),
    (-1e10, 1e-10, 1e10),
    (3e9 + 0.1, 1 / 3),
    (0.1, 1 / 3),
    (1e6, 1e6 + 1),
    (1e10, 1e10 + 1),
    (1e15, 1e15 + 1),
    (-1e10, -1e10 + 1),
)


def designs(n: int):
    yield Design("bd", n)
    yield Design("cbd", n)
    for n_a in range(1, n):
        yield Design("crd", n, n_a)


def case_line(design: Design, solo: bool, grid: tuple[float, ...]) -> str:
    case = {
        "design": design.kind,
        "n": design.n,
        "n_a": design.n_a,
        "estimand": "solo" if solo else "ate",
        "grid": [repr(level) for level in grid],
    }
    try:
        cert = unbiased_feasibility(design, SoloTreatmentEffect() if solo else ATE, grid)
    except Exception as exc:  # every refusal is a result to compare
        case["error"] = [type(exc).__name__, str(exc)]
    else:
        case.update(cert.to_json_dict())
        if cert.witness is not None:
            text = repr(sorted(cert.witness.mapping.items()))
            case["witness_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return json.dumps(case)


def main(n_values=range(2, 13)) -> None:
    for n in n_values:
        for design in designs(n):
            for solo in (False, True):
                for grid in GRIDS:
                    print(case_line(design, solo, grid), flush=True)


if __name__ == "__main__":
    main()
