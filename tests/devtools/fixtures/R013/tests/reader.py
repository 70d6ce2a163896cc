"""R013 fixture: a test file, the only reader of ``tested_only``."""

from repro.pkg.tested_only import helper


def _check() -> None:
    assert helper() == 4
