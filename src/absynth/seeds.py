"""Process-stable seed derivation.

Python's built-in hash() is salted per process, so anything that must be
reproducible across runs derives integer seeds through sha256 instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any

MASK64 = (1 << 64) - 1

_LEAVES = frozenset({str, int, float, bool, type(None)})
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}  # dataclass -> its field names


def derive_seed(master: int, *parts: object) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    Same (master, parts) always yields the same child, in any process.
    """
    key = ":".join([str(int(master) & MASK64)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def plain(obj: Any) -> Any:
    """JSON-ready form of a dataclass tree: each dataclass becomes a dict of
    its fields, each tuple or list a list, each dict a dict, recursively.

    Encodes to the same JSON as the standard library's dataclass-to-dict
    conversion, without its per-leaf deepcopy. Other values (str, numbers,
    None, sets) are returned as is.
    """
    cls = type(obj)
    if cls in _LEAVES:
        return obj
    if isinstance(obj, (tuple, list)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    names = _FIELD_NAMES.get(cls)
    if names is None and is_dataclass(cls):
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    if names is not None:
        return {name: plain(getattr(obj, name)) for name in names}
    return obj


def stable_digest(obj: Any) -> int:
    """64-bit digest of a JSON-representable object, stable across processes.

    `question_seed` uses it to seed question-selection RNGs from a scenario
    spec, so that questions are a pure function of the spec itself.
    """
    blob = json.dumps(obj, sort_keys=True, ensure_ascii=False, default=str)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
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
