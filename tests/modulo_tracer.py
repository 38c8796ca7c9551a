"""Reference face tracer: dart by dart, with a modulo per step.

This is the tracer the library used before it keyed each dart by the index
of its reverse.  Dart i of vertex a runs a -> order[a][i]; the next dart of
the face is found by scanning order[b] for a and stepping back one place,
modulo the degree.  The tests compare the library's tracer with it walk by
walk.
"""


def trace_faces_modulo(order) -> list[list[int]]:
    """Facial walks of the rotation `order`, each a list of vertices,
    started from the unused darts in (a, i) order."""
    n = len(order)
    offset = [0] * (n + 1)
    for a in range(n):
        offset[a + 1] = offset[a] + len(order[a])
    visited = bytearray(offset[n])
    faces = []
    for a0 in range(n):
        for i0 in range(len(order[a0])):
            if visited[offset[a0] + i0]:
                continue
            walk = []
            a, i = a0, i0
            while True:
                walk.append(a)
                visited[offset[a] + i] = 1
                b = order[a][i]
                # next dart: clockwise past a at b
                i = (order[b].index(a) - 1) % len(order[b])
                a = b
                if a == a0 and i == i0:
                    break
            faces.append(walk)
    return faces
