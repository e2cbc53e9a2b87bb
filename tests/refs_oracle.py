"""The decoder's crisp refs checks as they stood before they looked for a
fault with set operations first, kept verbatim.

Each walks the decoded rows in row order and raises at the first
identifier the record never declared.  The test suite compares the
library's ``ParseError`` path and message with these.
"""

from __future__ import annotations

from fuzzybig.errors import ParseError


def check_place_refs(prnt: dict, nodes: frozenset, path: str) -> None:
    for child, parent in prnt.items():
        for elem in (child, parent):
            if isinstance(elem, str) and elem not in nodes:
                raise ParseError(f"undeclared node {elem!r}", path)


def check_link_refs(link: dict, nodes, edges, inner, outer, path: str) -> None:
    for point, target in link.items():
        if isinstance(point, tuple):
            if point[0] not in nodes:
                raise ParseError(f"port of undeclared node {point[0]!r}", path)
        elif point not in inner:
            raise ParseError(f"undeclared inner name {point!r}", path)
        if isinstance(target, str) and target not in edges and target not in outer:
            raise ParseError(
                f"link target {target!r} is neither an edge nor an outer name", path
            )


def check_crisp_refs(fields: dict, path: str) -> None:
    """Crisp constructors accept dangling identifiers; a file may not."""
    if "prnt" in fields:
        check_place_refs(fields["prnt"], fields["nodes"], f"{path}.prnt")
    if "link" in fields:
        check_link_refs(
            fields["link"],
            fields["nodes"],
            fields["edges"],
            fields["inner"],
            fields["outer"],
            f"{path}.link",
        )
