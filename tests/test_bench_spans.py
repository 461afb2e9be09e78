"""Every library name that the benchmark tracer wraps still exists.

`bench/run.py --trace 1` replaces each entry of `bench/spans.py`'s WRAPS
by a recording wrapper, looked up with `inspect.getattr_static`; a name
renamed or deleted in the library would make the traced run fail.  The
module is loaded by path, as it is not a package.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WRAPS


@pytest.mark.parametrize("modname, path, span", _wraps())
def test_wrapped_name_resolves(modname, path, span):
    owner = importlib.import_module("rootring." + modname)
    for attr in path.split("."):
        owner = inspect.getattr_static(owner, attr)
    assert callable(owner)
    assert span.split(".", 1)[0] == modname
