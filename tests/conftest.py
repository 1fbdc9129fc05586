"""Test-session settings shared by every tier-1 module.

Hypothesis runs without its per-example deadline: example times swing with
the host's speed, and some properties build 64-coordinate inputs.  Each test
keeps its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")
