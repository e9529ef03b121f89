import os

import pytest


@pytest.fixture(autouse=True)
def scrub_environment(monkeypatch):
    # Stray CLOUDMIMO_ variables would silently override test configs.
    for name in list(os.environ):
        if name.startswith("CLOUDMIMO_"):
            monkeypatch.delenv(name)
