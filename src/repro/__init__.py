"""repro: reproduction of *Mining Suspicious Tax Evasion Groups in Big Data*.

The package implements the paper's two-phase tax-evasion detection
pipeline end to end:

* :mod:`repro.model` -- the colored network-based model (CNBM): persons,
  companies, roles, and the homogeneous source networks;
* :mod:`repro.fusion` -- multi-network fusion into the Taxpayer Interest
  Interacted Network (TPIIN);
* :mod:`repro.mining` -- the MSG-phase: patterns-tree construction,
  component-pattern matching and suspicious-group detection;
* :mod:`repro.ite` -- the ITE-phase: arm's-length-principle judgment on
  the transactions of suspicious groups;
* :mod:`repro.baseline` -- the global-traversal and subgraph-enumeration
  comparators;
* :mod:`repro.datagen` -- synthetic taxpayer networks, including the
  provincial-scale dataset behind Table 1 and the paper's case fixtures;
* :mod:`repro.analysis` -- Table-1 metrics, audit reports and
  per-company investigation;
* :mod:`repro.graph` -- the from-scratch graph substrate.

Quick start::

    from repro import TPIIN, detect

    tpiin = TPIIN.build(
        persons=["P1"],
        companies=["C1", "C2", "C3"],
        influence=[("P1", "C1"), ("P1", "C3"), ("C1", "C2")],
        trading=[("C2", "C3")],
    )
    result = detect(tpiin)
    for group in result.groups:
        print(group.render())
"""

from repro.fusion import TPIIN, fuse
from repro.mining import (
    DetectionResult,
    Engine,
    GroupKind,
    SuspiciousGroup,
    detect,
)

__version__ = "1.0.0"

__all__ = [
    "DetectionResult",
    "Engine",
    "GroupKind",
    "SuspiciousGroup",
    "TPIIN",
    "detect",
    "fuse",
    "__version__",
]
