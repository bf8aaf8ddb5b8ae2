"""Hypothesis profiles, and live asserts in the shared test helpers.

``HYPOTHESIS_PROFILE=ci`` derandomizes every property test, so a failure
replays exactly on the next run, and prints the blob that reproduces it.
It also reports, and shrinks, only the first distinct bug a test finds, so
a broken checkout fails sooner.  Without the variable, runs draw fresh examples each
time.

pytest rewrites the asserts of test modules and of this file only; the
checks in ``helpers`` are registered too, so they still run under
``python -O``, which strips plain asserts.
"""

import os

import pytest
from hypothesis import settings

pytest.register_assert_rewrite("helpers")

settings.register_profile("ci", derandomize=True, print_blob=True, report_multiple_bugs=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
