"""R013 fixture: a module whose every export is read, but only by tests."""

__all__ = ["helper"]


def helper() -> int:
    return 4
