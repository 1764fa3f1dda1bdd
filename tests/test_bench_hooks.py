"""The benchmark's tracer must find every attribute it hooks.

bench/tracer.py looks each hooked callable up by name (`vars(owner)[attr]`)
on every run, traced or not, so renaming or deleting one breaks the
benchmark.  Building the hooks here makes that a tier-1 failure instead.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_hook_target_exists():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    tracer.Hooks().assert_originals()
