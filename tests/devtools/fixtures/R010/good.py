"""Good: first-party imports at module scope; lazy stdlib/third-party
imports in function bodies are out of scope for R010; a genuine cycle
breaker is suppressed with a citation."""

from repro.mining.parallel import parallel_detect

__all__ = ["lazy_stdlib", "run", "suppressed_cycle_breaker"]


def run(tpiin):
    return parallel_detect(tpiin)


def lazy_stdlib():
    import json
    from collections import Counter

    return json, Counter


def suppressed_cycle_breaker():
    # detector <-> parallel would cycle at module scope
    from repro.mining.parallel import parallel_detect  # reprolint: disable=R010

    return parallel_detect
