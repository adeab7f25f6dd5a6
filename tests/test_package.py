"""Package surface: the public export list stays in step with the modules."""

from collections import Counter

import hetflux


def test_every_export_resolves_once():
    counts = Counter(hetflux.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in hetflux.__all__ if not hasattr(hetflux, name)] == []
