import pytest

from spencerkit.pipeline import clear_kept_model


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SPENCERKIT_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture(autouse=True)
def _cold_kept_model():
    # every test starts without a model kept from an earlier run, and
    # leaves none behind
    clear_kept_model()
    yield
    clear_kept_model()
