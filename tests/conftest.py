import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, is_hypothesis_test, settings

# Allow running the suite from a fresh checkout without installing.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# The one property-test policy: each @settings sets only its max_examples, and the CSV row property
# its 200 ms deadline. Every run draws the same examples and stores none, and no other example is
# timed: each builds fields or runs the CLI, which a loaded runner slows. The explicit phase runs the
# @example cases. A failure reports the first failing example as drawn, not shrunk: shrinking
# examples that each build a field took minutes.
settings.register_profile(
    "mechfield", derandomize=True, database=None, deadline=None, phases=[Phase.explicit, Phase.generate]
)
settings.load_profile("mechfield")


def pytest_collection_modifyitems(items):
    """Refuse a property test collected inside a class.

    A derandomized test's examples are seeded by a digest of its source. Hypothesis leaves a
    module function's decorators out of it, but not an indented method's, so a method's examples
    would be re-drawn by an edit to its ``@settings`` or ``@example`` lines.
    """
    held = [item.nodeid for item in items if item.cls is not None and is_hypothesis_test(item.obj)]
    if held:
        raise pytest.UsageError(f"property tests must be module functions, not methods: {', '.join(held)}")


@pytest.fixture
def child():
    """The environment and timeout, in seconds, of every child Python a test starts: ``SRC`` comes
    first on ``PYTHONPATH``, and a child still running after the timeout fails its test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return SimpleNamespace(env=dict(os.environ, PYTHONPATH=path), timeout=120)
