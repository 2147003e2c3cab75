import os
import sys
from pathlib import Path

from hypothesis import settings

# make the sibling oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).resolve().parent))

# CI runs property tests reproducibly: the same examples on every run, and
# a failure prints the blob that replays it.  Local runs keep the default.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
