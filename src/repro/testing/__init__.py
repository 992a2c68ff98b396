"""Deterministic fault-injection harnesses for robustness tests.

Everything here is test infrastructure shipped as library code, because
the failure modes it manufactures (torn writes, mid-frame disconnects,
short reads) are exactly the ones the durability and retry layers
promise to survive -- downstream users hardening their own deployments
can reuse the same harness.  Nothing in this package is
imported by the serving path.
"""

from .faults import FaultyFile, FaultyProxy

__all__ = ["FaultyFile", "FaultyProxy"]
