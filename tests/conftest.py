"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` derandomizes every property test, so a failure
replays exactly on the next run, and prints the blob that reproduces it.
Without the variable, runs draw fresh examples each time.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
