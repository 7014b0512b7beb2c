"""Every test starts with empty loader caches.

``load_group`` and ``load_module`` hand back the objects of an earlier load
of the same text, and those objects build some state lazily (a module's
dense ``action``, its kept coinvariants).  Clearing the caches before each
test keeps such state from crossing from one test to the next.
"""

import pytest

from gammalab import serialize


@pytest.fixture(autouse=True)
def clear_loader_caches():
    serialize._parsed.cache_clear()
