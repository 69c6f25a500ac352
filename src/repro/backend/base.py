"""An empty ``ArrayBackend`` class, kept only for the benchmark suite.

The batched kernels call numpy directly; the array-backend layer that
once sat in front of them is gone.  ``benchmarks/suite/trace.py`` still
imports this class to time an ``ArrayBackend.to_numpy`` layer, which now
has no method to wrap and reads 0 calls.  Nothing in ``repro`` imports
this package (``tests/test_package_imports.py`` checks that).  ROADMAP
item 1 drops that layer from the suite and then deletes this package.
"""

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """Empty: no kernel computes through an array backend any more."""
