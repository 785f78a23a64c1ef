"""The benchmark's own test: ``python3 -m pytest bench``."""

import run


def test_smoke():
    assert run.smoke() == 0
