"""R013 fixture: the entry module, the non-test reader of ``user.py``."""

from repro.pkg import user

user._consume()
