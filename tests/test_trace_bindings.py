"""The benchmark's outside-in tracer (perfbench/tracer.py) against the
package: every wrapped function is bound where it is called, no wrapped
function calls itself by its public name, and the 2x2 kernel is counted."""

import json
import sys
from pathlib import Path

import pytest

from kreindirac import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        yield tracer
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_commands_count_the_kernel_without_self_nesting(tracer_module, tmp_path):
    one_gap = {"gaps": [[-1.0, 1.0]], "uniform": 0.4}
    jobs = [("verify", {"profile": one_gap}),
            ("oracle", {"constant": [0.6, -0.8]}),
            ("evolve", {"profile": one_gap, "xgrid": [0.0, 0.1]})]
    tr = tracer_module.Tracer()
    tr.install()
    try:
        assert tracer_module.selfcheck(tr) == []
        for k, (cmd, cfg) in enumerate(jobs):
            path = tmp_path / f"{cmd}.json"
            path.write_text(json.dumps(cfg))
            argv = [cmd, "--config", str(path), "--out", str(tmp_path / f"{cmd}.out")]
            tr.begin_job(k)
            try:
                code = tr.call(tracer_module.ROOT_SPAN, cli.main, (argv,))
            finally:
                tr.end_job()
            assert code == 0, cmd
    finally:
        tr.uninstall()
    names = {sid: name for sid, name, *_ in tr.spans}
    nested = [name for _, name, _, _, parent, _, _ in tr.spans if names.get(parent) == name]
    assert nested == []
    totals = tr.totals()
    for name in ("mat2.mexp", "mat2.mlog_spectral", "dirac.ode_weyl"):
        assert totals.get(name, [0])[0] > 0, name
