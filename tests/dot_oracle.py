"""The fuzzy and type-2 DOT views as they stood before each export quoted
an element once and formatted a degree once, kept verbatim.

``dot_place_fuzzy`` and ``dot_link`` quote every identifier and format
every degree once per line, and sort relation rows through
``sorted_items``.  The test suite compares ``model_io``'s views with these
byte for byte.
"""

from __future__ import annotations

from fuzzybig.relations import element_sort_key


def _q(text: str) -> str:
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_place_fuzzy(place, type2: bool) -> str:
    frame = place.frame
    nodes = sorted(place.node_support if type2 else place.nodes)
    lines = ["digraph place {"]
    for root in range(place.outer):
        lines.append(
            f"  {_q(f'root_{root}')} [label={_q(f'root {root}')}, shape=box, style=dashed];"
        )
    for site in range(place.inner):
        lines.append(
            f"  {_q(f'site_{site}')} [label={_q(f'site {site}')}, "
            "shape=box, style=filled, fillcolor=lightgrey];"
        )
    for v in nodes:
        label = v
        if type2:
            label = f"{v} ({frame.format_degree(place.nodes.membership(v))})"
        lines.append(f"  {_q(f'node_{v}')} [label={_q(label)}, shape=ellipse];")

    def dot_id(elem, child: bool) -> str:
        if isinstance(elem, int):
            return f"site_{elem}" if child else f"root_{elem}"
        return f"node_{elem}"

    for (child, parent), degree in place.prnt.sorted_items():
        lines.append(
            f"  {_q(dot_id(child, True))} -> {_q(dot_id(parent, False))} "
            f"[label={_q(frame.format_degree(degree))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_link(graph, flavour: str) -> str:
    crisp, type2 = flavour == "crisp", flavour == "type2"
    frame = None if crisp else graph.frame
    nodes = sorted(graph.node_support if type2 else graph.nodes)
    edge_ids = graph.edge_support if type2 else graph.edges

    lines = ["graph link {"]
    for name in sorted(graph.inner):
        lines.append(f"  {_q(f'inner_{name}')} [label={_q(name)}, shape=plaintext];")
    for name in sorted(graph.outer):
        lines.append(f"  {_q(f'outer_{name}')} [label={_q(name)}, shape=plaintext];")
    for v in nodes:
        if crisp:
            label = f"{v}:{graph.ctrl.get(v, '?')}"
        elif type2:
            label = f"{v} ({frame.format_degree(graph.nodes.membership(v))})"
        else:
            label = v
        lines.append(f"  {_q(f'node_{v}')} [label={_q(label)}, shape=ellipse];")
    for e in sorted(edge_ids):
        label = e
        if type2:
            label = f"{e} ({frame.format_degree(graph.edges.membership(e))})"
        lines.append(f"  {_q(f'edge_{e}')} [label={_q(label)}, shape=diamond];")
    ports = sorted(graph.ports)
    for (v, i) in ports:
        pid = f"port_{v}_{i}"
        lines.append(f"  {_q(pid)} [label={_q(f'{v}.{i}')}, shape=point];")
        lines.append(f"  {_q(f'node_{v}')} -- {_q(pid)} [style=dotted];")

    def point_id(q) -> str:
        if isinstance(q, tuple):
            return f"port_{q[0]}_{q[1]}"
        return f"inner_{q}"

    def target_id(t) -> str:
        return f"edge_{t}" if t in edge_ids else f"outer_{t}"

    if crisp:
        rows = sorted(graph.link.items(), key=lambda kv: element_sort_key(kv[0]))
        for q, t in rows:
            lines.append(f"  {_q(point_id(q))} -- {_q(target_id(t))};")
    else:
        for (q, t), degree in graph.link.sorted_items():
            lines.append(
                f"  {_q(point_id(q))} -- {_q(target_id(t))} "
                f"[label={_q(frame.format_degree(degree))}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
