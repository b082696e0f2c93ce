"""What importing the package costs, counted in modules rather than time.

Every CLI call starts a fresh interpreter, so the modules that
``import refinemask.cli`` pulls in are paid on each call.  The annotations
are strings (``from __future__ import annotations``) whose names still
resolve through ``typing.get_type_hints`` without a runtime ``typing``
import in the package.
"""

import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import refinemask

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"dataclasses", "typing", "inspect", "ast", "dis"}


def test_cli_import_loads_no_heavy_module():
    # -S: no site hooks, so only the package's own imports count
    code = ("import sys; before = set(sys.modules); import refinemask.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60)
    loaded = set(proc.stdout.split())
    assert {"refinemask", "refinemask.cli", "fractions", "argparse"} <= loaded
    assert loaded & HEAVY == set()


def _public_callables():
    for name in refinemask.__all__:
        obj = getattr(refinemask, name)
        if not inspect.isclass(obj):
            yield name, obj
            continue
        if issubclass(obj, BaseException):
            continue
        yield name, obj
        for attr, value in vars(obj).items():
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                value = value.__func__
            elif isinstance(value, property):
                value = value.fget
            if inspect.isfunction(value):
                yield f"{name}.{attr}", value
    from refinemask import cli
    yield "cli.main", cli.main
    yield "cli.build_parser", cli.build_parser


def test_annotations_resolve():
    names = []
    for name, obj in _public_callables():
        typing.get_type_hints(obj)  # raises NameError on a name the module lacks
        names.append(name)
    assert {"Mask.items", "mask_from_poly_at_nodes", "Matrix.apply", "Polynomial.__init__",
            "IntegrationConstant.__init__", "ReducedMask", "CascadeReport"} <= set(names)
    hints = typing.get_type_hints(refinemask.CascadeReport)
    assert list(hints) == ["result", "iterations", "final_delta", "converged"]
    assert typing.get_type_hints(refinemask.ReducedMask) == {
        "remainder": refinemask.Mask, "quotient": refinemask.Mask}
