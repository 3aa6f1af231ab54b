"""BDD substrate: engine, cross-engine serialization, header encoding."""

from .engine import FALSE, TRUE, BddEngine, BddOverflowError  # noqa: F401
from .headerspace import ALL_FIELDS, HeaderEncoding  # noqa: F401
from .serialize import (  # noqa: F401
    SerializedBdd,
    deserialize,
    from_bytes,
    serialize,
    to_bytes,
)
