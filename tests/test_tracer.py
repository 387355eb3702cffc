"""The benchmark's tracer (perfbench/tracing.py) wraps `conicac` names from
outside the package, looked up by name.  Building it over the package and
running one traced command fails here when a patched name is renamed or
removed, rather than only in the benchmark's own smoke tests."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from conicac import bounds, cli, geometry, gf, nrc, search, tables

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def test_every_traced_name_exists_and_is_restored(tracing, capsys):
    modules = SimpleNamespace(cli=cli, gf=gf, geometry=geometry, search=search,
                              bounds=bounds, nrc=nrc, tables=tables)
    tracer = tracing.Tracer(modules)
    targets = [(obj, attr) for obj, attr, _ in tracer._patches]
    assert [f"{obj.__name__}.{attr}" for obj, attr in targets
            if not hasattr(obj, attr)] == []
    before = [getattr(obj, attr) for obj, attr in targets]
    geometry.build_conic_model.cache_clear()  # as the benchmark does before every op
    code = tracer.call("search", 7, cli.main, ["search", "7", "--restarts", "2"])
    assert code == cli.EXIT_OK and capsys.readouterr().out.startswith("7;")
    assert [getattr(obj, attr) for obj, attr in targets] == before
    spans = {name for name, *_ in tracer.spans}
    assert {"cli.main", "geometry.build_conic_model", "search.randomized_greedy",
            "search.is_ac_subset"} <= spans
    assert tracer.counts["mul", 7] > 0
