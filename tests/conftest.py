import sys
from pathlib import Path

import pytest

# oracles.py lives next to the tests and is imported as a plain module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(module, name)`` wraps ``module.name`` for the test and
    returns a list to which each call appends its positional arguments."""
    def record(module, name):
        calls, wrapped = [], getattr(module, name)

        def recording(*args, **kwargs):
            calls.append(args)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return calls
    return record
