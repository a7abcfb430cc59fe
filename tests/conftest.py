"""Shared pytest set-up.

Hypothesis draws the same examples on every run and keeps no example
database.  It still caches the constants it reads from local modules, from
collection on, so its storage directory is a temporary one for the session:
a run writes no `.hypothesis/` into the checkout.  Each test sets its own
example count.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    config.add_cleanup(lambda: set_hypothesis_home_dir(None))
    set_hypothesis_home_dir(home.name)
