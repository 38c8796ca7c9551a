"""Export formats: graph6, DOT, the JSON gadget descriptor, and the bound report.

graph6 follows the standard bit packing: N(n) header, then the upper
triangle of the adjacency matrix column by column, six bits per printable
character (offset 63).  graph6 is quadratic in the vertex count, so a graph
whose line would be longer than GRAPH6_MAX_BYTES (one of over 14,189
vertices) is refused, by its size alone, before it is encoded.

Every JSON document, the gadget descriptor and the CLI's alike, is written in
the layout of `json.dumps(doc, indent=2)` by `json_chunks`, in chunks of at
most CHUNK_ITEMS numbers or strings, so a large gadget's text is never held as
one string; an int of any size outside a row is written by `int_to_decimal`.
`to_dot` and `report_to_text` stream too, CHUNK_ITEMS lines or one line to a
chunk; a report row's checks are written in the order of its `checks` dict.
"""
from __future__ import annotations

import json
import mmap
import re
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import sub
from typing import Callable, Iterator

from .bounds import BoundReport, int_to_decimal
from .gadgets import Gadget
from .graphs import Graph, ascending_edges, facial_walks

GRAPH6_MAX_BYTES = 2 ** 24
CHUNK_ITEMS = 1024
_DOT_KEYWORDS = frozenset({"graph", "digraph", "subgraph", "node", "edge", "strict"})

_PLUS_63 = bytes.maketrans(bytes(range(64)), bytes(range(63, 127)))


def _graph6_size_bytes(n: int) -> bytes:
    """The N(n) header for a size that `check_graph6_size` accepts."""
    if n <= 62:
        return bytes([n + 63])
    return bytes([126]) + bytes(((n >> shift) & 63) + 63 for shift in (12, 6, 0))


def check_graph6_size(n: int) -> int:
    """The length of the graph6 line of n vertices, or ValueError if over GRAPH6_MAX_BYTES."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    header = 1 if n <= 62 else 4 if n <= 258047 else 8
    size = header + (n * (n - 1) // 2 + 5) // 6
    if size > GRAPH6_MAX_BYTES:
        raise ValueError(f"the graph6 line of {n} vertices would take {size} bytes,"
                         f" over the limit of {GRAPH6_MAX_BYTES}")
    return size


def to_graph6(g: Graph) -> str:
    """Canonical graph6 line (no trailing newline, no >>graph6<< header)."""
    n = g.vertex_count
    check_graph6_size(n)
    # Pair (i, j), i < j, is bit j(j-1)/2 + i of the upper triangle read
    # column by column; each character holds six bits, high bit first.
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for j, nbrs in enumerate(g.adjacency):
        column = j * (j - 1) // 2
        for i in nbrs:
            if i < j:
                bit = column + i
                body[bit // 6] |= 32 >> bit % 6
    return (_graph6_size_bytes(n) + body.translate(_PLUS_63)).decode("ascii")


def to_dot(g: Graph, name: str = "G") -> Iterator[str]:
    """Undirected DOT document, CHUNK_ITEMS lines to a chunk; vertex labels
    preserved when present.  ValueError for a name that is not a plain DOT ID."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name.lower() in _DOT_KEYWORDS:
        raise ValueError(f"the DOT graph name must be a plain ID and no keyword, not {name!r}")
    labels = g.labels
    vertices = (f"  {v};\n" for v in range(g.vertex_count)) if labels is None else (
        '  %d [label="%s"];\n' % (v, label.replace("\\", "\\\\").replace('"', '\\"'))
        for v, label in enumerate(labels))
    edges = ("  %d -- %d;\n" % edge for edge in ascending_edges(g.adjacency))
    lines = chain((f"graph {name} {{\n",), vertices, edges, ("}\n",))
    return iter(lambda: "".join(islice(lines, CHUNK_ITEMS)), "")


class LazyRows(list):
    """`length` rows of ints, of the lengths in `widths`, made by `make()` on
    each pass, so that none is held.  It is a list only so that `json` writes
    it as a list; `len` and iteration see the rows, no other list operation."""

    __slots__ = ("length", "widths", "make")

    def __init__(self, length: int, widths: set[int], make: Callable[[], Iterator]):
        self.length, self.widths, self.make = length, widths, make

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator:
        return self.make()


def gadget_descriptor(gadget: Gadget, *, include_faces: bool = False) -> dict:
    """JSON-ready descriptor of a built gadget; labels and the rotation are
    the gadget's own tuples, which `json` writes as lists, and the edges and
    faces are read from the graph as they are written."""
    g = gadget.graph
    doc = {
        "format_version": 1,
        "k": gadget.k,
        "ell": gadget.ell,
        "b": gadget.registry.leaf_b,
        "vertex_count": g.vertex_count,
        "terminals": [gadget.tg.terminal_u, gadget.tg.terminal_v],
        "edges": LazyRows(g.edge_count, {2}, partial(ascending_edges, g.adjacency)),
        "labels": g.labels,
        "leaf_pairs": [list(p) for p in gadget.registry.pairs],
        "inner_set": sorted(gadget.registry.inner_set),
        "rotation": {
            "order": gadget.rotation.order,
            "outer_face_id": gadget.rotation.outer_face_id,
        },
    }
    if include_faces:
        ends = g.faces[1]
        doc["faces"] = LazyRows(len(ends), set(map(sub, ends, chain((0,), ends))),
                                partial(facial_walks, g.faces))
    return doc


def gadget_to_json(gadget: Gadget, *, include_faces: bool = False) -> str:
    """The descriptor as `generate --format json` writes it, indented by 2.

    The chunks are gathered in an anonymous memory map, which goes back to
    the system when it is closed; joined on the heap, they could leave freed
    blocks of the text's size resident for the rest of the process.  Only
    the written pages of a map are resident.  A text takes about 60 bytes
    per vertex and edge, 90 with faces; a longer one moves to a map twice
    its length.
    """
    g = gadget.graph
    buf = mmap.mmap(-1, 96 * (g.vertex_count + g.edge_count))
    for chunk in json_chunks(gadget_descriptor(gadget, include_faces=include_faces)):
        data = chunk.encode("ascii")
        if buf.tell() + len(data) > len(buf):
            with buf, memoryview(buf) as view:  # closed once copied
                end = buf.tell()
                buf = mmap.mmap(-1, 2 * (end + len(data)))
                buf.write(view[:end])
        buf.write(data)
    with buf, memoryview(buf) as view:
        return str(view[:buf.tell()], "ascii")


def report_to_text(rows: tuple[BoundReport, ...], *, full: bool = False) -> Iterator[str]:
    """The report as `report` writes it: a fixed-width table, one line per level,
    and its verdict; with `full`, then each counted row's c in decimal."""
    header = f"{'ell':>4} {'k':>3} {'n':>12} {'c_bits':>10}  checks"
    yield f"{header}\n{'-' * len(header)}\n"
    for row in rows:
        if row.error is None:
            bits = row.c_bits
            checks = " ".join(f"{name}={'pass' if ok else 'FAIL'}"
                              for name, ok in row.checks.items())
        else:
            bits, checks = "-", f"ERROR: {row.error}"
        yield f"{row.ell:>4} {row.k:>3} {int_to_decimal(row.n):>12} {bits:>10}  {checks}\n"
    verdict = "all checks pass" if all(row.ok for row in rows) else "FAILURES PRESENT"
    yield f"result: {verdict if rows else 'empty report'}\n"
    yield from (f"c({row.ell}) = {int_to_decimal(row.c)}\n"
                for row in rows if full and row.c is not None)


def report_chunks(rows: tuple[BoundReport, ...], *, full: bool = False) -> Iterator[str]:
    """The report's rows as JSON chunks, indented by 2, each n in full however
    long.  With `full`, each counted row also gives its c as a decimal string."""
    return json_chunks({
        "version": 1,
        "rows": [
            {
                "ell": row.ell,
                "k": row.k,
                "n": row.n,
                "c_bits": row.c_bits,
                **({"c_decimal": int_to_decimal(row.c)} if full and row.c is not None else {}),
                "checks": row.checks,
                **({"error": row.error} if row.error is not None else {}),
            }
            for row in rows
        ],
    })


def json_chunks(doc: dict) -> Iterator[str]:
    """`json.dumps(doc, indent=2)` for any document that `_chunks` takes, in
    chunks of at most CHUNK_ITEMS numbers or strings each, every int outside
    a row written by `int_to_decimal`, as str() refuses one of over 4,300 digits."""
    return _chunks(doc, "")


def _chunks(value, pad: str) -> Iterator[str]:
    """`value` at indent `pad`: a dict, a sequence of dicts, of strings, of
    other scalars or of int sequences, or a scalar."""
    if isinstance(value, dict):
        yield from _dict(value, pad)
    elif isinstance(value, (list, tuple)) and value:
        first = next(iter(value))
        if isinstance(first, (list, tuple, dict)):
            yield from _rows(value, pad, isinstance(first, dict))
        else:
            yield from _items(value, pad, encode_basestring_ascii
                              if isinstance(first, str) else _scalar)
    else:
        yield _scalar(value)


def _scalar(value) -> str:
    """An int (not a bool) by `int_to_decimal`, any other scalar by `json.dumps`."""
    return int_to_decimal(value) if type(value) is int else json.dumps(value)


def _dict(doc: dict, pad: str) -> Iterator[str]:
    inner = pad + "  "
    opener = "{"
    for key, value in doc.items():
        yield f"{opener}\n{inner}{encode_basestring_ascii(key)}: "
        yield from _chunks(value, inner)
        opener = ","
    yield f"\n{pad}}}" if doc else "{}"


def _items(items, pad: str, encode) -> Iterator[str]:
    """A nonempty sequence of scalars, CHUNK_ITEMS to a chunk."""
    sep = ",\n" + pad + "  "
    opener = "[" + sep[1:]
    for start in range(0, len(items), CHUNK_ITEMS):
        yield opener + sep.join(map(encode, items[start:start + CHUNK_ITEMS]))
        opener = sep
    yield f"\n{pad}]"


def _rows(rows, pad: str, dicts: bool) -> Iterator[str]:
    """A nonempty sequence of int sequences, or of dicts if `dicts`.  Rows, of ints
    only, are %-formatted by one template per row length, as many whole rows to a
    chunk as the widest leaves room for; a dict or a row wider than a chunk goes
    through `_chunks`.  A LazyRows knows its widths, so its rows are made once, as written."""
    inner = pad + "  "
    row_sep = ",\n" + inner
    opener = "[" + row_sep[1:]
    widths = rows.widths if isinstance(rows, LazyRows) else set(map(len, rows))
    width = max(widths)
    if dicts or width > CHUNK_ITEMS:
        for row in rows:
            yield opener
            yield from _chunks(row, inner)
            opener = row_sep
    else:
        sep = ",\n" + inner + "  "
        form = {w: f"[{sep[1:]}{sep.join(['%d'] * w)}\n{inner}]" if w else "[]"
                for w in widths}
        step = CHUNK_ITEMS // max(width, 1)
        rows = iter(rows)
        while batch := list(islice(rows, step)):
            yield opener + row_sep.join([form[len(row)] % tuple(row) for row in batch])
            opener = row_sep
    yield f"\n{pad}]"
