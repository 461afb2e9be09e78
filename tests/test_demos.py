import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path, capsys):
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as e:
        assert e.code in (None, 0)
    assert capsys.readouterr().out
