import sys

import pytest

from grothpoly import perms, poly, polytopes


@pytest.fixture(scope="session")
def tables():
    """Schubert/Grothendieck tables keyed by (n, flavor), built once."""
    built = {}
    for n in (3, 4, 5, 6):
        for flavor in ("S", "G"):
            built[(n, flavor)] = poly.build_table(n, flavor)
    return built


@pytest.fixture
def sumset_builds(monkeypatch):
    """The permutations whose spanning sumset is built, one entry per
    build: the body of `polytopes.spanning_sumset` reads the Rothe diagram
    once, and a spy on `perms.rothe_diagram` records the reads made from
    that body and no other."""
    builds = []
    real = perms.rothe_diagram
    body = polytopes.spanning_sumset.__wrapped__.__code__

    def spy(w):
        if sys._getframe(1).f_code is body:
            builds.append(w)
        return real(w)

    monkeypatch.setattr(perms, "rothe_diagram", spy)
    return builds
