"""ulsan-shard-affinity: pool and engine handles must not cross shards.

Frame pools, slice pools, slice refcounts and engines belong to one shard
(DESIGN.md §11): every shard owns its own, and a shard's state changes only
through that shard's own events.  The one sanctioned crossing is
``net::Link``'s rehoming transmit path, which deep-copies the frame out of
its source shard's allocator world (``clone_for_shard_transfer``) before
handing it to ``ShardGroup::post_remote``.

Three shapes are flagged:

1. The cross-shard primitives — ``post_remote(`` and
   ``clone_for_shard_transfer(`` — anywhere outside the rehoming path
   (``src/net/link.cpp``) and the shard runtime itself
   (``src/sim/shard.hpp``/``.cpp``).  New cross-shard edges must be
   designed, not sprinkled.

2. Writes to the group's lookahead matrix —
   ``register_edge_lookahead(`` — outside the same sanctioned set.  Epoch
   soundness rests on every registered edge being a true lower bound on
   that link's latency; ``net::Link`` derives it from its own wire costs
   when a cross-shard edge forms, and nothing else may invent one.

3. A lambda handed to ``post_remote`` that smuggles shard-local state:
   any by-reference or ``this`` capture (the callback runs later, on the
   destination shard, after the source has run ahead; a reference would
   read source state outside the lookahead contract), or a capture whose
   name looks like a pool or engine handle.  This check applies *inside* the sanctioned files too — the
   rehoming path must stay clean (value captures of the destination sink
   and the already-cloned frame only).
"""

from __future__ import annotations

import re

from ..framework import Finding, RunContext, rule
from ..source import (SourceFile, capture_items, has_ref_capture,
                      matching_paren, LAMBDA_INTRO)

ALLOWED_SUFFIXES = ("src/net/link.cpp", "src/sim/shard.hpp",
                    "src/sim/shard.cpp")
POST_REMOTE = re.compile(r"\bpost_remote\s*\(")
CLONE = re.compile(r"\bclone_for_shard_transfer\s*\(")
REGISTER = re.compile(r"\bregister_edge_lookahead\s*\(")
HANDLE_NAME = re.compile(r"(?:^|_)(?:pool|eng|engine)s?_?$|pool_?$",
                         re.IGNORECASE)


def _finding(sf: SourceFile, idx: int, message: str) -> Finding:
    lineno = sf.line_of(idx)
    return Finding(rule="shard-affinity", path=sf.display, line=lineno,
                   message=message, excerpt=sf.line_text(lineno))


def _smuggled(capture_list: str) -> str | None:
    for item in capture_items(capture_list):
        if item == "this":
            return "this"
        name = item.lstrip("&").strip()
        if "=" in name:
            name = name.split("=", 1)[0].strip()
        if HANDLE_NAME.search(name):
            return item
    return None


@rule(
    "shard-affinity",
    "pool/engine handles or cross-shard primitives outside the sanctioned "
    "rehoming path",
    __doc__,
)
def check(sf: SourceFile, ctx: RunContext) -> list[Finding]:
    text = sf.text
    findings: list[Finding] = []
    sanctioned = any(sf.display.endswith(s) for s in ALLOWED_SUFFIXES)

    if not sanctioned:
        for m in POST_REMOTE.finditer(text):
            findings.append(_finding(
                sf, m.start(),
                "post_remote() outside net::Link's rehoming transmit path "
                "— cross-shard edges are designed in src/net/link.cpp, "
                "nowhere else"))
        for m in CLONE.finditer(text):
            findings.append(_finding(
                sf, m.start(),
                "clone_for_shard_transfer() outside the rehoming path — "
                "shard-crossing frames are cloned exactly once, in "
                "net::Link::transmit"))
        for m in REGISTER.finditer(text):
            findings.append(_finding(
                sf, m.start(),
                "register_edge_lookahead() outside net::Link — edge "
                "lookaheads are derived from a link's own wire costs when "
                "a cross-shard edge forms; a hand-written entry that "
                "overstates a latency silently unsounds every epoch bound"))

    # Capture hygiene on every post_remote callback, sanctioned or not.
    for call in POST_REMOTE.finditer(text):
        open_paren = call.end() - 1
        close = matching_paren(text, open_paren)
        for lam in LAMBDA_INTRO.finditer(text, open_paren, close):
            caps = lam.group(1)
            if has_ref_capture(caps):
                findings.append(_finding(
                    sf, lam.start(),
                    "by-reference capture in a post_remote callback — the "
                    "callback runs later on another shard; captured "
                    "referents belong to the source shard"))
                continue
            bad = _smuggled(caps)
            if bad is not None:
                findings.append(_finding(
                    sf, lam.start(),
                    f"capture '{bad}' in a post_remote callback smuggles a "
                    f"shard-local handle across the engine boundary — "
                    f"pools and engines belong to one shard "
                    f"(DESIGN.md §11)"))
    return findings
