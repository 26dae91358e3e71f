"""Shared constants for the test suite."""

import json
import pathlib

import absynth

SRC_DIR = pathlib.Path(absynth.__file__).parent


def dump_predictions(predictions) -> bytes:
    """A prediction file, in the format `eval` reads, from (record id,
    response) pairs: one JSON object per line."""
    lines = [json.dumps({"id": record_id, "response": response}, ensure_ascii=False)
             for record_id, response in predictions]
    return ("\n".join(lines) + "\n").encode("utf-8")


def role_indices(scene, role: str) -> tuple[int, ...]:
    """The indices, in draw order, of the primitives of `scene` whose role is
    `role`."""
    return tuple(i for i, p in enumerate(scene.primitives) if p.role == role)
