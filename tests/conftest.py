"""Test-wide settings: every hypothesis property runs the same examples on every run.

The profile derandomizes the search, drops the per-example deadline (the first call of
a kernel pays its imports) and keeps no example database. What hypothesis still stores,
such as its cache of the package's source constants, goes to a temporary directory that
is removed at exit, so no run writes .hypothesis/. A test's own @settings set only
max_examples.
"""

import tempfile

from hypothesis import configuration, settings

_STORAGE = tempfile.TemporaryDirectory(prefix="springswim-hypothesis-")
configuration.set_hypothesis_home_dir(_STORAGE.name)
settings.register_profile("springswim", derandomize=True, deadline=None, database=None)
settings.load_profile("springswim")
