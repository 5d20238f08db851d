import pytest


@pytest.fixture(params=["highspy", "milp"])
def lp_binding(request, monkeypatch):
    """Run a test with scipy's private HiGHS binding, then with it gone (the milp fallback)."""
    if request.param == "milp":
        from capclust import allocation

        monkeypatch.setattr(allocation, "_find_binding", lambda: None)
    return request.param
