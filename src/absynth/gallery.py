"""Static HTML gallery: every image with its questions and answers."""

from __future__ import annotations

from html import escape
from os import curdir
from pathlib import PurePath

from .records import InstructionRecord, Manifest

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Dataset gallery</title>
<style>
body {{ font-family: sans-serif; margin: 2em; background: #fafafa; }}
figure {{ border: 1px solid #ccc; background: white; padding: 1em; margin: 1em 0; }}
img {{ max-width: 640px; display: block; border: 1px solid #eee; }}
dt {{ font-weight: bold; margin-top: 0.6em; }}
dd {{ margin: 0.1em 0 0.1em 1.5em; color: #234; }}
.meta {{ color: #777; font-size: 0.85em; }}
</style>
</head>
<body>
<h1>Dataset gallery</h1>
<p class="meta">{count} images, {records} records.</p>
{figures}
</body>
</html>
"""

_FIGURE = """<figure>
<img src="{src}" alt="{image_id}">
<figcaption class="meta">{image_id} ({scenario})</figcaption>
<dl>
{entries}
</dl>
</figure>"""


def _entry(record: InstructionRecord) -> str:
    answer = escape(record.answer)
    if record.alternates:
        answer += " | " + " | ".join(escape(a) for a in record.alternates)
    lines = [
        f"<dt>{escape(record.question)} <span class=\"meta\">"
        f"[{escape(record.question_type)}]</span></dt>",
        f"<dd>{answer}</dd>",
    ]
    if record.rationale:
        lines.append(f"<dd class=\"meta\">{escape(record.rationale)}</dd>")
    return "\n".join(lines)


def render_gallery(manifest: Manifest, root: str = curdir) -> str:
    """Standalone page, openable offline. `root` is the manifest's directory
    relative to the page's; each image's src is its image_ref under `root`,
    so the image_ref itself when the page sits beside the manifest."""
    groups: dict[str, list[InstructionRecord]] = {}
    for record in manifest.records:
        groups.setdefault(record.image_ref, []).append(record)
    figures = []
    for image_ref in sorted(groups):
        records = groups[image_ref]
        image_id = image_ref.rsplit("/", 1)[-1].removesuffix(".svg")
        figures.append(_FIGURE.format(
            src=escape(image_ref if root == curdir else PurePath(root, image_ref).as_posix()),
            image_id=escape(image_id),
            scenario=escape(records[0].scenario),
            entries="\n".join(_entry(r) for r in records),
        ))
    return _PAGE.format(count=len(groups), records=len(manifest.records),
                        figures="\n".join(figures))
