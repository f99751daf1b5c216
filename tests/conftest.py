"""The one recorder of numpy decompositions that the count tests read."""

import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch) -> list[tuple[str, tuple[int, ...], bool | None]]:
    """Every decomposition numpy makes during the test, in order, as ``(name, input shape, kind)``.

    ``eigh``, ``eigvalsh``, ``svd``, ``solve``, ``inv`` and the spectral norm
    (``norm`` at ``ord=2``) are recorded; vector and Frobenius norms factor
    nothing and are not. ``kind`` is ``compute_uv`` for ``svd`` and None for
    the rest. A test counts from where it clears the list. Hypothesis rejects
    function-scoped fixtures, so no ``@given`` test takes this one.
    """
    calls = []

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a), None))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    svd, norm = np.linalg.svd, np.linalg.norm

    def recording_svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        calls.append(("svd", np.shape(a), compute_uv))
        return svd(a, full_matrices, compute_uv, *args, **kwargs)

    def recording_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(("norm", np.shape(x), None))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    return calls
