import sys
from pathlib import Path

from hypothesis import Phase, settings

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
