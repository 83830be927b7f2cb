"""Grid topologies: the mesh of Section 2, the torus of Section 5, and
their d-dimensional and irregular variants.

A topology answers purely geometric questions: which nodes exist, which
links exist, what is the minimal distance between two nodes, and -- the
quantity the whole paper revolves around -- which outlinks of a node are
*profitable* for a packet, i.e. bring it strictly closer to its destination.

One class, :class:`Topology`, answers all of them from data: a shape
vector, per-axis wrap flags and the port table of its dimension count.
:class:`Mesh`, :class:`Torus`, :class:`MeshND` and :class:`TorusND` only
construct it; :class:`SparsePillarMesh` is the one variant that restricts
the link set.

Ports
-----
A port is one link direction: an ``int`` whose value doubles as the
positional index into per-node link tables.

- ports ``0 .. d-1`` move positively along axis ``d-1-p`` (port 0 is the
  positive highest axis);
- ports ``d .. 2d-1`` are their negatives (``opposite = (p + d) % 2d``).

Axis 0 is the first coordinate (``x``, growing eastward in 2D).  At
``d = 2`` the encoding is the compass of the paper, and the port table
*is* :data:`~repro.mesh.directions.DIRECTIONS` (``N, E, S, W``): a 2D grid
has one port vocabulary.  Other dimension counts use :class:`Port`.  The
highest axis is the conventional *escape axis* for dimension-ordered
drains (N/S in Theorem 15's four-queue organisation).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Callable, Iterator, Sequence

from repro.mesh.directions import DIRECTIONS

Node = tuple[int, ...]

_AXIS_LETTERS = "xyzw"


def _axis_letter(axis: int) -> str:
    return _AXIS_LETTERS[axis] if axis < len(_AXIS_LETTERS) else f"a{axis}"


class Port(int):
    """One link direction of a d-dimensional grid (d != 2).

    An ``int`` subclass (like :class:`~repro.mesh.directions.Direction`,
    the 2D ports) so ports sort deterministically and index link tables
    positionally.  Carries the geometric metadata routers and analyzers
    need: ``axis``, ``sign``, ``opposite``, and a stable ``name`` for
    reports and witnesses.
    """

    axis: int
    sign: int
    dims: int
    name: str
    opposite: "Port"

    def __repr__(self) -> str:
        return f"Port({self.name})"

    def __str__(self) -> str:
        return self.name


@functools.lru_cache(maxsize=None)
def ports(dims: int) -> tuple[Port, ...]:
    """The interned port tuple for a ``dims``-dimensional grid.

    ``ports(2)`` is :data:`~repro.mesh.directions.DIRECTIONS`.  Interned
    per ``dims`` so identity checks and caches shared across topology
    instances stay cheap.
    """
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    if dims == 2:
        return DIRECTIONS  # type: ignore[return-value]
    out: list[Port] = []
    for value in range(2 * dims):
        negative = value >= dims
        axis = dims - 1 - (value - dims if negative else value)
        port = Port(value)
        port.axis = axis
        port.sign = -1 if negative else 1
        port.dims = dims
        port.name = ("-" if negative else "+") + _axis_letter(axis)
        out.append(port)
    for value, port in enumerate(out):
        port.opposite = out[(value + dims) % (2 * dims)]
    return tuple(out)


class _ProfitableSets(dict[int, frozenset[Port]]):
    """Canonical profitable sets of one port table, built on first use.

    ``self[code]`` holds the positive port of axis ``a`` when bit ``2a`` of
    ``code`` is set and its negative port when bit ``2a + 1`` is.  At most
    the two ports of an axis can be profitable, so every profitable set is
    one of these: queries index them instead of building and hashing a new
    set per call.  Filled lazily, because there are ``4 ** dims`` codes.
    """

    def __init__(self, table: tuple[Port, ...]) -> None:
        super().__init__()
        self.table = table

    def __missing__(self, code: int) -> frozenset[Port]:
        out = self[code] = frozenset(
            p for p in self.table if code >> (2 * p.axis + (p.sign < 0)) & 1
        )
        return out


@functools.lru_cache(maxsize=None)
def _port_data(dims: int) -> tuple[Any, ...]:
    """Everything derived from the port table of ``dims``, shared by every
    grid of that dimension count.

    Returns ``(ports, opposites, steps, sets)``: ``steps[p]`` is port
    ``p``'s ``(axis, sign)`` and ``sets`` is its :class:`_ProfitableSets`.
    """
    table = ports(dims)
    return (
        table,
        tuple(p.opposite for p in table),
        tuple((p.axis, p.sign) for p in table),
        _ProfitableSets(table),
    )


class Topology:
    """A d-dimensional grid with per-axis wrap flags.

    Nodes are coordinate tuples ``(c_0, .., c_{d-1})`` with
    ``0 <= c_i < shape[i]``; axis ``i`` wraps around iff ``wrap[i]``.  In
    2D a node is ``(x, y)`` with ``x`` growing west to east and ``y`` south
    to north, and ``width``/``height`` name the two sides.

    Attributes:
        shape: Side length per axis.
        wrap: Per-axis wrap flags (all False = mesh, all True = torus).
        wraps: True when any axis wraps.
        dims: Number of axes.
        directions: The port table ``ports(dims)`` in deterministic order;
            ``directions[i]`` has integer value ``i``, so link tables are
            indexed positionally (see docs/TOPOLOGY.md).
        opposites: ``opposites[p]`` reverses port ``p`` (hot-path table).
    """

    #: False for irregular variants whose link set is node-dependent beyond
    #: plain boundary clipping (e.g. the sparse-pillar mesh).  Regularity is
    #: what routers rely on for axis-based escape-channel arguments.
    regular: bool = True

    _neighbor_flat: list[tuple[Node | None, ...]] | None = None
    _out_dirs_flat: list[tuple[Port, ...]] | None = None

    def __init__(self, shape: Sequence[int], wrap: Sequence[bool] | None = None) -> None:
        shape = tuple(shape)
        dims = len(shape)
        wrap = (False,) * dims if wrap is None else tuple(wrap)
        if not shape or min(shape) < 1 or len(wrap) != dims:
            raise ValueError(
                f"need a nonempty shape of sides >= 1 and one wrap flag per axis, "
                f"got shape {shape}, wrap {wrap}"
            )
        self.shape: tuple[int, ...] = shape
        self.wrap: tuple[bool, ...] = wrap
        self.wraps = True in wrap
        self.dims = dims
        self.directions, self.opposites, self._steps, self._sets = _port_data(dims)
        if dims == 2:
            self.width, self.height = shape
        # Hot-path caches (see docs/PERFORMANCE.md).  Geometry is immutable,
        # so these are pure memoizations: the profitable-direction cache maps
        # (node, dest) to a canonical set, and the neighbor/outlink tables
        # are built per node (flat ids via :meth:`node_index`) on first use.
        self._profitable_cache: dict[tuple[Node, Node], frozenset[Port]] = {}

    # -- nodes ---------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return math.prod(self.shape)

    def nodes(self) -> Iterator[Node]:
        """All nodes with the first axis outermost (2D column-major order)."""
        return itertools.product(*map(range, self.shape))

    def contains(self, node: Node) -> bool:
        return len(node) == self.dims and all(
            0 <= c < side for c, side in zip(node, self.shape)
        )

    def node_index(self, node: Node) -> int:
        """Flat id in :meth:`nodes` order (mixed radix, last axis fastest)."""
        index = 0
        for coord, side in zip(node, self.shape):
            index = index * side + coord
        return index

    def node_at(self, index: int) -> Node:
        """The node with flat id ``index`` (inverse of :meth:`node_index`)."""
        coords = []
        for side in reversed(self.shape):
            index, coord = divmod(index, side)
            coords.append(coord)
        return tuple(reversed(coords))

    # -- links ---------------------------------------------------------------

    def neighbor(self, node: Node, direction: Port) -> Node | None:
        """The node at the far end of ``node``'s outlink ``direction``.

        Returns None when the outlink does not exist (mesh boundary).
        """
        axis, sign = self._steps[direction]
        coord = node[axis] + sign
        side = self.shape[axis]
        if not 0 <= coord < side:
            if not self.wrap[axis]:
                return None
            coord %= side
        return node[:axis] + (coord,) + node[axis + 1 :]

    def _build_tables(self) -> None:
        nbr: list[tuple[Node | None, ...]] = []
        outs: list[tuple[Port, ...]] = []
        neighbor, directions = self.neighbor, self.directions
        for node in self.nodes():
            row = tuple([neighbor(node, d) for d in directions])
            nbr.append(row)
            outs.append(tuple([d for d in directions if row[d] is not None]))
        self._neighbor_flat = nbr
        self._out_dirs_flat = outs

    def neighbor_table(self) -> list[tuple[Node | None, ...]]:
        """Per-node outlink targets, indexed ``[node_index][port]``.

        Entry ``None`` means the outlink does not exist (mesh boundary).
        Built once on first use; the simulator's transmit phase reads this
        instead of recomputing :meth:`neighbor` arithmetic per move.
        """
        if self._neighbor_flat is None:
            self._build_tables()
        return self._neighbor_flat  # type: ignore[return-value]

    def out_directions_table(self) -> list[tuple[Port, ...]]:
        """Per-node outlink ports in port order, by flat id."""
        if self._out_dirs_flat is None:
            self._build_tables()
        return self._out_dirs_flat  # type: ignore[return-value]

    def out_directions(self, node: Node) -> tuple[Port, ...]:
        """The ports on which ``node`` has outlinks, in port order."""
        return self.out_directions_table()[self.node_index(node)]

    def neighbors(self, node: Node) -> list[Node]:
        out = []
        for d in self.directions:
            nb = self.neighbor(node, d)
            if nb is not None:
                out.append(nb)
        return out

    # -- distance and profitability ------------------------------------------

    @staticmethod
    def _axis_delta(src: int, dst: int, size: int) -> int:
        """Signed shortest displacement along one wrapping axis.

        A tie (``|delta| == size/2`` for even ``size``) is reported as
        positive so results stay deterministic.
        """
        delta = (dst - src) % size
        if delta > size // 2:
            delta -= size
        return delta

    def displacement(self, node: Node, dest: Node) -> Node:
        """Per-axis signed minimal displacement from ``node`` to ``dest``.

        Positive means the coordinate grows along a shortest path (``dx > 0``
        is east in 2D).  On a wrapping axis the shorter way around is
        chosen; an exact half-circumference tie is reported as positive.
        """
        return tuple(
            [
                self._axis_delta(src, dst, side) if wrapped else dst - src
                for src, dst, side, wrapped in zip(node, dest, self.shape, self.wrap)
            ]
        )

    def distance(self, a: Node, b: Node) -> int:
        """Length of a shortest path from ``a`` to ``b``."""
        return sum(map(abs, self.displacement(a, b)))

    def profitable_directions(self, node: Node, dest: Node) -> frozenset[Port]:
        """Outlinks of ``node`` that move a packet strictly closer to ``dest``.

        This is the only destination-derived information a
        destination-exchangeable algorithm may use (Section 2).  Results are
        memoized per (node, dest): this is the single most-called geometric
        query in the simulator's step loop.
        """
        key = (node, dest)
        cached = self._profitable_cache.get(key)
        if cached is None:
            cached = self._profitable_cache[key] = self._profitable_uncached(node, dest)
        return cached

    def _profitable_uncached(self, node: Node, dest: Node) -> frozenset[Port]:
        code = 0
        for axis, delta in enumerate(self.displacement(node, dest)):
            if not delta:
                continue
            if self.wrap[axis] and 2 * delta == self.shape[axis]:
                bits = 3  # exact half-circumference tie: both ways are shortest
            else:
                bits = 1 if delta > 0 else 2
            code |= bits << 2 * axis
        return self._sets[code]

    @property
    def diameter(self) -> int:
        return sum(
            side // 2 if wrapped else side - 1
            for side, wrapped in zip(self.shape, self.wrap)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({'x'.join(map(str, self.shape))})"


class Mesh(Topology):
    """The ``width x height`` mesh: bidirectional links between grid neighbours.

    Every run builds its grid during setup, so the mesh keeps the 2D port
    data and wrap flags as class attributes and its constructor stores only
    the sides.  It answers the hot queries with constant-time two-axis
    forms, each equal to the per-axis form of :class:`Topology` on every
    node pair (tests/mesh/test_topology.py) at a fraction of the cost: the
    minimality oracle and the array engine's packet loading call them per
    packet.
    """

    dims = 2
    directions, opposites, _steps, _sets = _port_data(2)
    wrap = (False, False)
    wraps = False

    #: ``_by_sign[sx][sy]`` is the profitable set for displacement signs
    #: ``(sx, sy)`` (index -1 for negative): on the mesh the set depends on
    #: nothing but those signs, so the query is one table lookup with no
    #: per-pair memo.
    _by_sign = tuple(
        tuple(_port_data(2)[3][sx % 3 | sy % 3 << 2] for sy in (0, 1, -1))
        for sx in (0, 1, -1)
    )

    def __init__(self, width: int, height: int | None = None) -> None:
        if height is None:
            height = width
        if width < 1 or height < 1:
            raise ValueError(f"topology must be at least 1x1, got {width}x{height}")
        self.shape = (width, height)
        self.width = width
        self.height = height

    def contains(self, node: Node) -> bool:
        return len(node) == 2 and 0 <= node[0] < self.width and 0 <= node[1] < self.height

    def node_index(self, node: Node) -> int:
        return node[0] * self.height + node[1]

    def profitable_directions(self, node: Node, dest: Node) -> frozenset[Port]:
        dx = dest[0] - node[0]
        dy = dest[1] - node[1]
        return self._by_sign[(dx > 0) - (dx < 0)][(dy > 0) - (dy < 0)]

    def displacement(self, node: Node, dest: Node) -> Node:
        return (dest[0] - node[0], dest[1] - node[1])

    def distance(self, a: Node, b: Node) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])


class Torus(Topology):
    """The ``width x height`` torus: the mesh with wraparound links."""

    def __init__(self, width: int, height: int | None = None) -> None:
        super().__init__((width, width if height is None else height), (True, True))


class MeshND(Topology):
    """The d-dimensional mesh: grid links clipped at every boundary."""

    def __init__(self, shape: Sequence[int]) -> None:
        super().__init__(shape)


class TorusND(Topology):
    """The d-dimensional torus: every axis wraps around."""

    def __init__(self, shape: Sequence[int]) -> None:
        shape = tuple(shape)
        super().__init__(shape, (True,) * len(shape))


class SparsePillarMesh(Topology):
    """An irregular 3D mesh: z-links only on a sparse grid of pillars.

    Horizontal (x/y) links are the full ``n x n`` mesh in every layer;
    vertical (z) links exist only at nodes whose ``(x, y)`` are both
    multiples of ``pillar_stride``.  Packets change layers by walking to a
    pillar first — the express-channel / elevator pattern.  The graph stays
    connected (pillar ``(0, 0)`` always exists) but the link set is
    node-dependent, so ``regular`` is False: routers must not assume
    axis-based escape channels exist everywhere.
    """

    regular = False

    def __init__(self, n: int, layers: int | None = None, pillar_stride: int = 2) -> None:
        n = int(n)
        if pillar_stride < 1:
            raise ValueError(f"pillar_stride must be >= 1, got {pillar_stride}")
        super().__init__((n, n, int(layers) if layers is not None else n))
        self.pillar_stride = pillar_stride

    def is_pillar(self, node: Node) -> bool:
        stride = self.pillar_stride
        return node[0] % stride == 0 and node[1] % stride == 0

    def neighbor(self, node: Node, direction: Port) -> Node | None:
        if direction.axis == 2 and not self.is_pillar(node):
            return None
        return super().neighbor(node, direction)

    def _pillar_axis_cost(self, a: int, b: int) -> int:
        """Min walk ``|a - p| + |p - b|`` over pillar coordinates ``p``."""
        stride = self.pillar_stride
        lo, hi = (a, b) if a <= b else (b, a)
        if hi // stride * stride >= lo:  # a pillar multiple lies in [lo, hi]
            return hi - lo
        below = lo // stride * stride
        cost = a + b - 2 * below
        above = below + stride
        if above < self.shape[0]:
            cost = min(cost, 2 * above - a - b)
        return cost

    def distance(self, a: Node, b: Node) -> int:
        dz = abs(a[2] - b[2])
        if dz == 0:
            return abs(a[0] - b[0]) + abs(a[1] - b[1])
        # Any shortest path routes through one best pillar column: splitting
        # the z-moves across several pillars can only add x/y walk (triangle
        # inequality), so the per-axis pillar costs are exact.
        return self._pillar_axis_cost(a[0], b[0]) + self._pillar_axis_cost(a[1], b[1]) + dz

    def _profitable_uncached(self, node: Node, dest: Node) -> frozenset[Port]:
        here = self.distance(node, dest)
        code = 0
        for port in self.out_directions(node):
            if self.distance(self.neighbor(node, port), dest) == here - 1:
                code |= 1 << 2 * port.axis + (port.sign < 0)
        return self._sets[code]

    @property
    def diameter(self) -> int:
        n, nz = self.shape[0], self.shape[2]
        worst_walk = max(
            self._pillar_axis_cost(a, b) for a in range(n) for b in range(n)
        )
        return max(2 * (n - 1), 2 * worst_walk + (nz - 1))


#: Registered topology builders: name -> (side length n) -> topology.  The
#: analyzers, the differential registry, ``TrialSpec``, and the CLI all
#: resolve topology names through this table, so adding an entry here
#: threads a new topology through every layer at once.
TOPOLOGY_BUILDERS: dict[str, Callable[[int], Topology]] = {
    "mesh": lambda n: Mesh(n),
    "torus": lambda n: Torus(n),
    "mesh3d": lambda n: MeshND((n, n, n)),
    "torus3d": lambda n: TorusND((n, n, n)),
    "pillar": lambda n: SparsePillarMesh(n),
}

#: Registered topology names in deterministic order (2D first for
#: backwards-compatible report layouts).
TOPOLOGY_NAMES: tuple[str, ...] = ("mesh", "torus", "mesh3d", "torus3d", "pillar")


def build_topology(name: str, n: int) -> Topology:
    """Instantiate registered topology ``name`` with side length ``n``."""
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; expected one of {TOPOLOGY_NAMES}"
        ) from None
    return builder(n)


__all__ = [
    "Node",
    "Port",
    "ports",
    "Topology",
    "Mesh",
    "Torus",
    "MeshND",
    "TorusND",
    "SparsePillarMesh",
    "TOPOLOGY_BUILDERS",
    "TOPOLOGY_NAMES",
    "build_topology",
]
