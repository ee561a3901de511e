"""The benchmark under perfbench/ wraps program names from outside. Installing
and removing its wrappers here fails fast when a refactor drops or renames a
name it wraps, instead of failing a traced benchmark run."""

import sys
from pathlib import Path

from foodmatch import engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_wraps_every_name_it_needs():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    original = engine.ca_dtb
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert engine.ca_dtb.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert engine.ca_dtb is original
