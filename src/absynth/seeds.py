"""Process-stable seed derivation.

Python's built-in hash() is salted per process, so anything that must be
reproducible across runs derives integer seeds through sha256 instead.
A spec is encoded for its digest in one pass: the C JSON encoder walks its
lists, dicts and dataclasses itself, with `fields_of` as its fallback. A
spec is a frozen tree, never a cycle, so the encoder keeps no record of the
containers it has entered (`check_circular=False`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any

MASK64 = (1 << 64) - 1

_FIELD_NAMES: dict[type, tuple[str, ...]] = {}  # dataclass -> its field names


def derive_seed(master: int, *parts: object) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    Same (master, parts) always yields the same child, in any process.
    """
    key = ":".join([str(int(master) & MASK64)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def fields_of(obj: Any) -> Any:
    """The field dict of a dataclass instance, one level deep, else `str(obj)`
    (a set or a dataclass class too). A tree encodes as `dataclasses.asdict`
    would, without its per-leaf deepcopy."""
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if not is_dataclass(cls):
            return str(obj)
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return {name: getattr(obj, name) for name in names}


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, check_circular=False,
                            default=fields_of)


def stable_digest(obj: Any) -> int:
    """64-bit digest of a JSON-representable object, stable across processes.

    Each dataclass in `obj` encodes as its field dict and any other value
    JSON has no type for as its `str()`, in one pass. `question_seed` uses
    it to seed question-selection RNGs from a scenario spec, so that
    questions are a pure function of the spec itself.
    """
    digest = hashlib.sha256(_ENCODER.encode(obj).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def question_seed(spec: Any) -> int:
    """Seed of a scenario spec's question RNG: `stable_digest(spec.to_dict())`.

    Computed on first use and kept in the spec's instance `__dict__`, the
    store `functools.cached_property` uses, so the drafting call and the
    oracle call on one spec encode it once. The value is not a field, so
    `==`, `repr`, `dataclasses.replace` and `to_dict` ignore it. Specs are
    frozen, and nothing mutates what they hold once they are sampled.
    """
    cache = vars(spec)
    seed = cache.get("_question_seed")
    if seed is None:
        seed = cache["_question_seed"] = stable_digest(spec.to_dict())
    return seed
