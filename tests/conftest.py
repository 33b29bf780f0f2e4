"""Test-session settings.

`HYPOTHESIS_PROFILE=ci` loads the `ci` hypothesis profile: examples are
derandomized, so a failure reproduces on every rerun, and a failing example
prints the blob that replays it. Local runs keep the randomized default.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
