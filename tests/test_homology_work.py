"""Work-count guard: a homology query builds only what it reads.

Over every bundled group, character and degree 0..4, under the bar
provider and, on cyclic groups, the cyclic one (where orbits are asked
for too), calls are watched with monkeypatch:

* no ``periodic_resolution`` and no ``Resolution.twisted_matrix``: without
  a stored resolution the periodic route reads its one twisted entry off
  the character, and the bar route builds sparse columns;
* ``_diagonalize`` runs only on a unit-free remainder of at least two rows
  and two columns: an empty remainder needs no tail, and one row or one
  column is the gcd of its entries.
"""

from gammalab import homology, intmat, resolutions
from gammalab.builtins import standard_library
from gammalab.groups import all_characters
from gammalab.homology import MAX_DEGREE, group_homology, homology_orbits
from gammalab.resolutions import Resolution


def test_homology_builds_no_resolution_and_diagonalizes_only_blocks(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("a resolution was built or twisted")

    shapes = []
    diagonalize = intmat._diagonalize

    def recording(a):
        shapes.append((len(a), len(a[0]) if a else 0))
        return diagonalize(a)

    monkeypatch.setattr(resolutions, "periodic_resolution", refuse)
    monkeypatch.setattr(homology, "periodic_resolution", refuse,
                        raising=False)
    monkeypatch.setattr(Resolution, "twisted_matrix", refuse)
    monkeypatch.setattr(intmat, "_diagonalize", recording)
    queries = 0
    for name, group in sorted(standard_library().items()):
        providers = ("bar", "cyclic") if group.is_cyclic() else ("bar",)
        for w in all_characters(group):
            for k in range(MAX_DEGREE + 1):
                for provider in providers:
                    group_homology(group, w, k, provider=provider, budget=None)
                    queries += 1
                if group.is_cyclic():
                    homology_orbits(group, w, k, provider="cyclic")
    assert all(rows >= 2 and cols >= 2 for rows, cols in shapes), shapes
    # Some bar differentials do leave a block for the dense tail.
    assert shapes and queries == 150
