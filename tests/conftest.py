"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE environment variable.

``default`` runs 25 examples per test, enough for the tier-1 run; ``ci``
runs ten times as many.  Tests that pin their own ``max_examples`` keep it under
either profile; ``tests/test_blocks.py`` and ``tests/test_numerator_kernels.py``
pin none, and ``tests/test_field.py``'s sympy differentials scale theirs with
the profile.  No deadline: an exact
product at level 12 may take longer than the default 200 ms on a busy host.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=250, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
