"""Reproducible runs: stable seed derivation, and a float sum that every Python version rounds alike.

All randomness in a run flows from one user-supplied seed. Sub-streams
(SFCR generation, GA generations, per-candidate evaluations, the telemetry
engine) get their own seeds derived here, so parallel and serial execution
draw identical numbers. Built-in hash() is salted per process and must never
be used for this.
"""

import hashlib
from functools import reduce
from operator import add


def derive_seed(*parts: object) -> int:
    """Derive a 63-bit seed from a base seed plus any context components."""
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def plain_sum(values) -> float:
    """sum(values) as Python 3.10 and 3.11 compute it: left to right, rounding after each addition.

    From Python 3.12 on, sum() compensates float rounding errors, so its last
    bit can differ; the engine and the GA trace use this instead, so report
    bytes do not depend on the interpreter version.
    """
    return reduce(add, values, 0)
