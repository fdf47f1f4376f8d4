"""Hypothesis profiles shared by the suite.

``deep`` is CI's second, longer pass over the skip-exactness oracles
(``--hypothesis-profile=deep --hypothesis-seed=0``); tier-1 runs the
default profile with each test's own small budget.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=60)
