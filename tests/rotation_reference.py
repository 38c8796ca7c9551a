"""Reference rotation check in four passes, for `Graph.from_rotation`.

`rotation_fault` refuses, in this order, a negative neighbor, a self-loop
and a repeated neighbor, each in a pass of its own, and only then walks the
faces over (vertex, position) darts, where a target past the last row or a
dart without a reverse stops the walk.  It returns the message that
`from_rotation`, whose face walk is the whole check, must raise, or None
where it must accept.
"""


def rotation_fault(order) -> str | None:
    rows = [tuple(row) for row in order]
    n = len(rows)
    out_of_range = f"a neighbor is out of range for n={n}"
    if any(b < 0 for row in rows for b in row):
        return out_of_range
    if any(a in row for a, row in enumerate(rows)):
        return "the rotation has a self-loop"
    if any(len(set(row)) != len(row) for row in rows):
        return "the rotation has a repeated neighbor"
    # Walk the faces from the darts in (vertex, position) order; the first
    # dart found with a target past the end or without a reverse names the fault.
    position = [dict(zip(row, range(len(row)))) for row in rows]
    seen = set()
    for a0, row0 in enumerate(rows):
        for i0 in range(len(row0)):
            dart = (a0, i0)
            while dart not in seen:
                seen.add(dart)
                a, i = dart
                b = rows[a][i]
                if b >= n:
                    return out_of_range
                if a not in position[b]:
                    return "a dart of the rotation has no reverse"
                dart = (b, (position[b][a] - 1) % len(rows[b]))
    return None
