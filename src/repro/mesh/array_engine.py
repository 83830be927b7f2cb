"""The vectorized array-backend step engine.

:class:`ArraySimulator` re-implements the reference
:class:`~repro.mesh.simulator.Simulator` step loop over the
structure-of-arrays state of :mod:`repro.mesh.array_state`: each phase
(outqueue selection, inqueue acceptance, transmit) is a handful of batched
numpy operations instead of a Python loop over nodes and packets.  It is
**bit-identical** to the reference engine -- same configurations after
every step, same counters, same ``RunResult`` -- which the equivalence
harness (:mod:`repro.verify.engine_equivalence`), the golden step tables,
and the hypothesis lockstep suite enforce.

Only the *ported* routers run here -- bounded dimension-order,
central-queue dimension-order, hot-potato, greedy-adaptive,
farthest-first, and credit-adaptive, each as a :class:`RouterKernel` --
and only on plain ``Mesh``/``Torus`` topologies without interceptors.
``Simulator(engine="array")`` dispatches through
:func:`resolve_array_class` and silently falls back to the reference
engine for everything else, so callers can request the array engine
unconditionally.  Fault plans (:mod:`repro.faults.plan`) attach through
:meth:`ArraySimulator.attach_fault_plan` and run as a vectorized
per-step availability mask over the scheduled moves, evaluated from the
same pure counter-hash draws as the reference engine's ``link_filter``
path -- so faulty runs are byte-identical across engines too.

The compatibility surface (``queues``, ``configuration()``,
``iter_packets`` and the observer hooks) is provided by materializing
Packet objects on demand; the hot path never touches them, so a run
without observers stays fully vectorized.  See docs/PERFORMANCE.md for
the memory layout, the porting checklist, and the equivalence-gate
protocol.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

import numpy as np

from repro.mesh.array_state import (
    DIR_E,
    DIR_N,
    DIR_S,
    DIR_W,
    LOWBIT_DIR,
    OPP,
    ArrayState,
    GridGeometry,
)
from repro.mesh.directions import DIRECTIONS, Direction
from repro.mesh.errors import QueueOverflowError
from repro.mesh.packet import Packet
from repro.mesh.queues import CENTRAL
from repro.mesh.simulator import ScheduledMove, Simulator, StepRecord
from repro.mesh.topology import Mesh, Torus

_EMPTY = np.empty(0, dtype=np.int64)

#: ``NodeContext.packets`` iterates queues in repr-sorted key order -- for
#: the four compass directions that is E, N, S, W -- so kernels that mirror
#: it rank queue keys through this table (index = ``Direction`` value).
_REPR_RANK = np.array([1, 0, 2, 3], dtype=np.int64)

#: Sentinel cost larger than any queue occupancy (credit steering).
_BIG = np.int64(1) << 60


def _new_group(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal sorted keys starts."""
    newg = np.empty(len(sorted_keys), dtype=bool)
    newg[:1] = True
    newg[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return newg


def _group_rank(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per position of ``sorted_keys``: whether a run of equal keys starts
    there, the index of its run, and its rank within the run."""
    newg = _new_group(sorted_keys)
    grp = np.cumsum(newg) - 1
    rank = np.arange(len(sorted_keys), dtype=np.int64) - np.flatnonzero(newg)[grp]
    return newg, grp, rank


class RouterKernel:
    """Vectorized scheduling policy of one ported router.

    A kernel supplies the router-specific phases over the shared
    :class:`ArrayState`: ``schedule`` (phase (a): at most one packet per
    outlink), ``accept`` (phase (c): which scheduled moves enter their
    target), and ``after_step`` (phase (e): packet-state updates).  The
    engine owns everything else -- injection, transmit, counters, maxima.

    ``num_keys`` (1 central / 4 incoming) and ``track_age`` (packet state
    is an integer age) declare the queue regime.  The engine reads both
    off the *constructed* kernel, so routers that support either queue
    kind set ``num_keys`` per instance in ``__init__``.
    """

    num_keys = 1
    track_age = False

    def __init__(self, engine: "ArraySimulator") -> None:
        self.engine = engine

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase (a): return (packet slots, source flat ids, directions)."""
        raise NotImplementedError

    def accept(
        self,
        pkt: np.ndarray,
        src: np.ndarray,
        dirs: np.ndarray,
        tgt: np.ndarray,
        came: np.ndarray,
    ) -> np.ndarray:
        """Phase (c): boolean acceptance mask over the scheduled moves."""
        raise NotImplementedError

    def after_step(self) -> None:
        """Phase (e): packet-state updates from end-of-step contents."""


class BoundedDorKernel(RouterKernel):
    """Theorem 15 bounded dimension-order (four incoming queues of size k).

    Straight-continuing packets (sitting in the queue opposite the
    outlink) have priority per outlink, FIFO within a class; the fallback
    scans the node's *other* queues in queue-creation order -- the
    reference engine's dict insertion order, mirrored by
    ``ArrayState.key_rank``.  N/S inqueues always accept; E/W accept only
    below capacity.
    """

    num_keys = 4

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        st = self.engine._state
        node = st.posf[act]
        dx, dy = st.displacement(node, st.destf[act])
        desired = st.desired_direction(dx, dy)
        # Packed slot (node << 4 | queue key << 2 | desired direction); the
        # FIFO-first packet per slot is the only candidate per slot.
        slot = (node << 4) | (st.qkey[act] << 2) | desired
        order = np.lexsort((st.qseq[act], slot))
        slot_s = slot[order]
        first = _new_group(slot_s)
        cand = act[order[first]]
        cslot = slot_s[first]
        cnode = cslot >> 4
        ckey = (cslot >> 2) & 3
        cdir = cslot & 3
        # Straight candidates (key is the opposite inlink of the outlink)
        # outrank every fallback; fallbacks tie-break by queue-creation
        # order, exactly the reference outqueue's dict-order scan.
        straight = ckey == OPP[cdir]
        prio = np.where(straight, -1, st.key_rank[cnode, ckey])
        nd = (cnode << 2) | cdir
        order2 = np.lexsort((prio, nd))
        nd_s = nd[order2]
        first2 = _new_group(nd_s)
        sel = order2[first2]
        return cand[sel], cnode[sel], cdir[sel]

    def accept(self, pkt, src, dirs, tgt, came):
        st = self.engine._state
        vertical = (came == Direction.N.value) | (came == Direction.S.value)
        return vertical | (st.occ[tgt, came] < self.engine.spec.capacity)


class CentralDorKernel(RouterKernel):
    """Dimension-order with one central queue: FIFO out, rotating accept."""

    num_keys = 1

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        st = self.engine._state
        node = st.posf[act]
        dx, dy = st.displacement(node, st.destf[act])
        desired = st.desired_direction(dx, dy)
        slot = (node << 2) | desired
        order = np.lexsort((st.qseq[act], slot))
        slot_s = slot[order]
        first = _new_group(slot_s)
        cand = act[order[first]]
        cslot = slot_s[first]
        return cand, cslot >> 2, cslot & 3

    def accept(self, pkt, src, dirs, tgt, came):
        return _rotating_central_accept(self.engine, tgt, came)


def _rotating_central_accept(
    engine: "ArraySimulator", tgt: np.ndarray, came: np.ndarray
) -> np.ndarray:
    """``accept_up_to_central_space``, batched: per target, the first
    ``capacity - occupancy`` offers in rotating round-robin priority
    (``rotation_order(time)``) are accepted."""
    st = engine._state
    free = engine.spec.capacity - st.occ[tgt, 0]
    prio = (came - (engine.time & 3)) & 3
    order = np.lexsort((prio, tgt))
    tgt_s = tgt[order]
    posg = _group_rank(tgt_s)[2]
    acc = np.empty(len(tgt_s), dtype=bool)
    acc[order] = posg < free[order]
    return acc


class HotPotatoKernel(RouterKernel):
    """Age-based deflection: oldest first, profitable else rotating free link."""

    num_keys = 1
    track_age = True

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        engine = self.engine
        st = engine._state
        node = st.posf[act]
        # Rank within each node by (-age, pid): the reference outqueue's
        # processing order.  Ranks are 0..(packets at node - 1).
        order = np.lexsort((st.pids[act], -st.age[act], node))
        slots = act[order]
        snode = node[order]
        newg, grp, rank = _group_rank(snode)
        un = snode[newg]
        pmask = st.profitable_mask(snode, st.destf[slots])
        taken = np.zeros(len(un), dtype=np.int64)
        cdir = np.full(len(slots), -1, dtype=np.int64)
        max_rank = int(rank.max())
        # Pass 1: in rank order, each packet takes its lowest free
        # profitable outlink (sorted(profitable) is ascending direction
        # value, i.e. the lowest set bit of the 4-bit mask).
        for r in range(max_rank + 1):
            idx = np.flatnonzero(rank == r)
            if len(idx) == 0:
                break  # ranks are contiguous per node
            nn = grp[idx]
            free = pmask[idx] & ~taken[nn]
            d = LOWBIT_DIR[free & -free]
            placed = d >= 0
            cdir[idx[placed]] = d[placed]
            taken[nn[placed]] |= 1 << d[placed]
        # Pass 2: deflection, still in rank order, onto the first free
        # outlink in rotation_order(time) preference.
        out = st.geom.out_mask[un]
        pref = engine.time & 3
        for r in range(max_rank + 1):
            idx = np.flatnonzero((rank == r) & (cdir < 0))
            if len(idx) == 0:
                continue
            nn = grp[idx]
            free = out[nn] & ~taken[nn]
            # Rotate the free mask so bit j means direction (j + pref) % 4;
            # the lowest set bit is then the first free preferred direction.
            rot = ((free >> pref) | (free << (4 - pref))) & 15
            dd = LOWBIT_DIR[rot & -rot]
            placed = dd >= 0
            d = (dd[placed] + pref) & 3
            cdir[idx[placed]] = d
            taken[nn[placed]] |= 1 << d
        sel = cdir >= 0
        return slots[sel], snode[sel], cdir[sel]

    def accept(self, pkt, src, dirs, tgt, came):
        return np.ones(len(pkt), dtype=bool)  # bufferless: accept everything

    def after_step(self) -> None:
        engine = self.engine
        act = engine._act
        if act.size:
            engine._state.age[act] += 1  # everyone in the network ages


class GreedyAdaptiveKernel(RouterKernel):
    """Greedy adaptive: packets claim free profitable outlinks in order.

    Mirrors ``GreedyAdaptiveRouter.outqueue``: packets are processed in
    ``ctx.packets`` order (queues in repr-sorted key order, FIFO within)
    and each claims the first unclaimed profitable outlink in
    ``rotation_order(time)`` preference.  Central accept is the rotating
    accept-up-to-space; incoming accepts below per-queue capacity.
    """

    def __init__(self, engine: "ArraySimulator") -> None:
        super().__init__(engine)
        self.num_keys = 1 if engine._central else 4

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        engine = self.engine
        st = engine._state
        node = st.posf[act]
        if self.num_keys == 1:
            order = np.lexsort((st.qseq[act], node))
        else:
            order = np.lexsort((st.qseq[act], _REPR_RANK[st.qkey[act]], node))
        slots = act[order]
        snode = node[order]
        newg, grp, rank = _group_rank(snode)
        pmask = st.profitable_mask(snode, st.destf[slots])
        taken = np.zeros(int(newg.sum()), dtype=np.int64)
        cdir = np.full(len(slots), -1, dtype=np.int64)
        pref = engine.time & 3
        for r in range(int(rank.max()) + 1):
            idx = np.flatnonzero(rank == r)
            if len(idx) == 0:
                break  # ranks are contiguous per node
            nn = grp[idx]
            free = pmask[idx] & ~taken[nn]
            # Rotate so bit j means direction (j + pref) % 4; the lowest
            # set bit is then the first free direction in preference order.
            rot = ((free >> pref) | (free << (4 - pref))) & 15
            dd = LOWBIT_DIR[rot & -rot]
            placed = dd >= 0
            d = (dd[placed] + pref) & 3
            cdir[idx[placed]] = d
            taken[nn[placed]] |= 1 << d
        sel = cdir >= 0
        return slots[sel], snode[sel], cdir[sel]

    def accept(self, pkt, src, dirs, tgt, came):
        engine = self.engine
        if self.num_keys == 1:
            return _rotating_central_accept(engine, tgt, came)
        return engine._state.occ[tgt, came] < engine.spec.capacity


class FarthestFirstKernel(RouterKernel):
    """Farthest-first dimension-order (the Section 5 E4 victim).

    Every packet's sole candidate outlink is its dimension-order desired
    direction; per (node, direction) the packet with the most remaining
    distance in that dimension wins.  Incoming regime: straight-through
    priority -- any candidate from the opposite inlink queue beats every
    turner, and turners rank by the concatenation order of the node's
    other queues (queue-creation order, FIFO within), so the full rank is
    (straight class, -distance, key creation rank, FIFO).  Central
    regime: FIFO index breaks distance ties.  Inqueue: delivering offers
    always accept; incoming N/S always accept; otherwise space-gated
    (central sorts transit offers farthest-first against free space).
    """

    def __init__(self, engine: "ArraySimulator") -> None:
        super().__init__(engine)
        self.num_keys = 1 if engine._central else 4

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        st = self.engine._state
        node = st.posf[act]
        dx, dy = st.displacement(node, st.destf[act])
        desired = st.desired_direction(dx, dy)
        # E/W are the odd direction values, so parity selects the axis.
        dist = np.where((desired & 1) == 1, np.abs(dx), np.abs(dy))
        group = (node << 2) | desired
        if self.num_keys == 1:
            order = np.lexsort((st.qseq[act], -dist, group))
        else:
            krank = st.key_rank[node, st.qkey[act]]
            notstraight = (st.qkey[act] != OPP[desired]).astype(np.int64)
            order = np.lexsort((st.qseq[act], krank, -dist, notstraight, group))
        group_s = group[order]
        first = _new_group(group_s)
        sel = order[first]
        return act[sel], node[sel], desired[sel]

    def accept(self, pkt, src, dirs, tgt, came):
        engine = self.engine
        st = engine._state
        capacity = engine.spec.capacity
        dest = st.destf[pkt]
        delivering = tgt == dest
        if self.num_keys == 4:
            vertical = (came == DIR_N) | (came == DIR_S)
            return delivering | vertical | (st.occ[tgt, came] < capacity)
        # Central: delivering offers consume no space and always accept;
        # transit offers rank farthest-first (total remaining distance,
        # inlink value tie) against beginning-of-step free space.
        acc = delivering.copy()
        transit = np.flatnonzero(~delivering)
        if len(transit):
            dx, dy = st.displacement(src[transit], dest[transit])
            totrem = np.abs(dx) + np.abs(dy)
            ttgt = tgt[transit]
            order = np.lexsort((came[transit], -totrem, ttgt))
            tgt_s = ttgt[order]
            posg = _group_rank(tgt_s)[2]
            free = capacity - st.occ[ttgt, 0]
            acc[transit[order]] = posg < free[order]
        return acc


class CreditAdaptiveKernel(RouterKernel):
    """Credit-steered minimal adaptive with a dimension-ordered escape axis.

    Phase 1 enforces the escape-channel drain invariant: the FIFO head of
    each vertical (escape-axis) queue goes straight when that move is
    profitable.  Phase 2 walks the remaining packets in (queue value,
    FIFO) order; each takes the unclaimed allowed direction with the
    least downstream occupancy -- the credit probe readback, which is
    ``occ[neighbor, opposite(direction)]`` at start of phase (a) -- with
    ties to the smaller direction value.  Negative-first adaptivity: a
    packet with any profitable horizontal direction is restricted to W
    when W is profitable, else E; vertical-only packets use their
    profitable vertical directions.  Incoming-only; escape (vertical)
    inqueues always accept, adaptive queues accept below capacity.
    """

    num_keys = 4

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        engine = self.engine
        st = engine._state
        node = st.posf[act]
        qkey = st.qkey[act]
        order = np.lexsort((st.qseq[act], qkey, node))
        slots = act[order]
        snode = node[order]
        skey = qkey[order]
        newg, grp, rank = _group_rank(snode)
        pmask = st.profitable_mask(snode, st.destf[slots])
        taken = np.zeros(int(newg.sum()), dtype=np.int64)
        cdir = np.full(len(slots), -1, dtype=np.int64)
        done = np.zeros(len(slots), dtype=bool)
        # Phase 1 (escape drain): the FIFO head of each vertical queue
        # goes straight when profitable.  N-heads claim S and S-heads
        # claim N, so the two sweeps can never collide.
        for k in (DIR_N, DIR_S):
            straight = int(OPP[k])
            idxk = np.flatnonzero(skey == k)
            if len(idxk) == 0:
                continue
            heads = idxk[_new_group(snode[idxk])]
            ok = heads[((pmask[heads] >> straight) & 1) == 1]
            cdir[ok] = straight
            done[ok] = True
            taken[grp[ok]] |= 1 << straight
        # Phase 2 (credit steering): negative-first allowed set per packet.
        wbit = (pmask >> DIR_W) & 1
        ebit = (pmask >> DIR_E) & 1
        amask = np.where(
            wbit == 1,
            1 << DIR_W,
            np.where(ebit == 1, 1 << DIR_E, pmask & ((1 << DIR_N) | (1 << DIR_S))),
        )
        nbr = st.geom.nbr_flat
        occ = st.occ
        for r in range(int(rank.max()) + 1):
            idx = np.flatnonzero((rank == r) & ~done)
            if len(idx) == 0:
                continue  # phase-1 heads may hollow out a rank; keep going
            nn = grp[idx]
            free = amask[idx] & ~taken[nn]
            nodes = snode[idx]
            costs = np.full((len(idx), 4), _BIG, dtype=np.int64)
            for d in range(4):
                has = ((free >> d) & 1) == 1
                if not bool(has.any()):
                    continue
                tgtd = nbr[nodes[has], d]
                costs[has, d] = occ[tgtd, OPP[d]]
            pick = np.argmin(costs, axis=1)  # ties -> smaller direction
            placed = costs[np.arange(len(idx), dtype=np.int64), pick] < _BIG
            d = pick[placed]
            cdir[idx[placed]] = d
            taken[nn[placed]] |= 1 << d
        sel = cdir >= 0
        return slots[sel], snode[sel], cdir[sel]

    def accept(self, pkt, src, dirs, tgt, came):
        st = self.engine._state
        vertical = (came == DIR_N) | (came == DIR_S)
        return vertical | (st.occ[tgt, came] < self.engine.spec.capacity)


class ArraySimulator(Simulator):
    """Array-backend drop-in for :class:`~repro.mesh.simulator.Simulator`.

    Construct through ``Simulator(..., engine="array")`` -- the dispatch
    in ``Simulator.__new__`` instantiates this class when the router is
    ported and the run shape is supported, and silently falls back to the
    reference engine otherwise.  Unsupported at construction time:
    interceptors and link-load recording (the factory never routes those
    here).  Unsupported capabilities fail fast with a message naming the
    fallback: arbitrary ``link_filter`` assignment raises at assignment
    time (fault plans attach through :meth:`attach_fault_plan` instead),
    and packet drops raise at the call.

    The observable surface matches the reference engine exactly:
    ``queues`` materializes Packet objects lazily (cached per step), so
    inherited ``configuration()``/``iter_packets``/``result()`` and the
    verify oracles work unchanged; :meth:`step` returns the transmitted
    ``ScheduledMove`` list only when post-step hooks are attached (it is
    empty otherwise -- building it would put a Python loop back on the
    hot path).
    """

    engine_name = "array"

    def _init_engine(self) -> None:
        """Build the kernel and the array state (the base class declares
        the run state both engines share)."""
        if self.interceptor is not None:
            raise ValueError("array engine does not support interceptors")
        if self.record_link_loads:
            raise ValueError("array engine does not support link-load recording")
        kernel_cls = _KERNELS.get(type(self.algorithm))
        if kernel_cls is None:
            raise ValueError(
                f"router {self.algorithm.name!r} is not ported to the array engine"
            )
        self._central = self.spec.kind == "central"
        self._height = self.topology.height
        # The kernel is constructed first because queue-kind-dependent
        # kernels pick ``num_keys`` per instance.
        self._kernel = kernel_cls(self)
        self._state = ArrayState(
            GridGeometry(self.topology), self._kernel.num_keys, self._kernel.track_age
        )
        self._key_table = np.full(16, -1, dtype=np.int64)
        self._packet_of: list[Packet] = []  # slot -> Packet
        self._act = _EMPTY  # slots currently in the network
        self._seq = 0
        self._mat: dict | None = None  # cached materialized queues

    # -- construction ------------------------------------------------------

    def _flat(self, node: tuple[int, int]) -> int:
        return node[0] * self._height + node[1]

    def _node_tuple(self, flat: int) -> tuple[int, int]:
        return (flat // self._height, flat % self._height)

    def _key_object(self, kidx: int) -> Any:
        return CENTRAL if self._central else DIRECTIONS[kidx]

    def _load(self, packets: Iterable[Packet]) -> None:
        """Load the initial packets with array operations.

        The outcome is the reference ``Simulator._load``'s: the same error
        for the same first bad packet, the same ``delivery_times`` and
        pending order, and queues whose order the kernels read the same
        way.  Slots run node by node in order of first appearance,
        ascending pid within a node (the reference ``originating`` order);
        a loaded packet's FIFO sequence number is its pid.
        """
        packets = list(packets)
        n = len(packets)
        self.total_packets = n
        pid_list = [p.pid for p in packets]
        self._known_pids = set(pid_list)
        src = self._flat_ids([p.source for p in packets])
        dst = self._flat_ids([p.dest for p in packets])
        if len(self._known_pids) != n or src is None or dst is None:
            self._raise_first_bad(packets)
        late = np.fromiter(
            (p.injection_time > 0 for p in packets), dtype=bool, count=n
        )
        self._pending = [packets[i] for i in np.flatnonzero(late).tolist()]
        self._pending_dirty = True
        now = np.flatnonzero(~late)
        for i in now.tolist():
            packets[i].pos = packets[i].source
        home = src[now] == dst[now]
        self.delivery_times.update(
            dict.fromkeys([packets[i].pid for i in now[home].tolist()], 0)
        )
        go = now[~home]
        if len(go) == 0:
            return
        # Slot order: nodes by first appearance, then ascending pid.
        node = src[go]
        pids = np.array(pid_list, dtype=np.int64)[go]
        by_node = np.argsort(node, kind="stable")
        newg, grp, _ = _group_rank(node[by_node])
        first_seen = np.empty(len(go), dtype=np.int64)
        first_seen[by_node] = by_node[newg][grp]
        order = np.lexsort((pids, first_seen))
        go = go[order]
        pids = pids[order]
        self._seq = int(pids.max()) + 1
        src, dst = src[go], dst[go]
        self._place(
            [packets[i] for i in go.tolist()],
            pids,
            src,
            dst,
            self._initial_keys(src, dst),
            pids,
        )

    def _flat_ids(self, nodes: list) -> np.ndarray | None:
        """Flat ids of ``nodes``, or None unless every one is a grid node."""
        try:
            if set(map(len, nodes)) - {2}:
                return None
            xy = np.fromiter(
                itertools.chain.from_iterable(nodes),
                dtype=np.int64,
                count=2 * len(nodes),
            )
        except (TypeError, ValueError, OverflowError):
            return None
        x, y = xy[0::2], xy[1::2]
        height = self._height
        inside = (x >= 0) & (x < self.topology.width) & (y >= 0) & (y < height)
        return x * height + y if bool(inside.all()) else None

    def _raise_first_bad(self, packets: list[Packet]) -> None:
        """Raise the reference engine's error for the first bad packet."""
        self._known_pids = set()
        for p in packets:
            self._register_packet(p)
        raise ValueError("packet endpoints are not integer node tuples")

    def _initial_keys(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """``spec.initial_key`` per (source, destination) pair, read from a
        table over profitable-direction masks that fills on first use."""
        if self._central:
            return np.zeros(len(src), dtype=np.int64)
        masks = self._state.profitable_mask(src, dst)
        table = self._key_table
        seen = np.bincount(masks, minlength=16) > 0
        for code in np.flatnonzero(seen & (table < 0)).tolist():
            profitable = frozenset(d for d in DIRECTIONS if code >> d & 1)
            table[code] = int(self.spec.initial_key(profitable))
        return table[masks]

    def _place(
        self,
        packets: list[Packet],
        pids: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        qkey: np.ndarray,
        qseq: np.ndarray,
    ) -> None:
        """Queue ``packets`` at their sources, in the given (slot) order.

        Appends their slots, counts occupancy and load, gives each queue
        key first occupied here its creation rank (its first packet in slot
        order creates it), checks capacity under ``validate`` and updates
        the maxima -- load and injection alike.
        """
        st = self._state
        slots = st.new_slots(pids, src, dst, qkey, qseq)
        self._packet_of.extend(packets)
        st.count(src, qkey, 1)
        if st.key_rank is not None:
            pair = src * st.num_keys + qkey
            by_pair = np.argsort(pair, kind="stable")
            creator = np.zeros(len(pair), dtype=bool)
            creator[by_pair[_new_group(pair[by_pair])]] = True
            self._record_key_creations(src[creator], qkey[creator])
        if self.validate:
            self._check_placed_capacity(src)
        self.max_queue_len = max(self.max_queue_len, int(st.occ[src].max()))
        self.max_node_load = max(self.max_node_load, int(st.load[src].max()))
        self._in_flight += len(slots)
        self._act = np.concatenate([self._act, slots])
        self._mat = None

    def _check_placed_capacity(self, flat: np.ndarray) -> None:
        """Raise the reference engine's overflow for a placement, if any:
        the first overfull node in order of first appearance in ``flat``
        (slot order) and its first overfull queue in creation order."""
        st = self._state
        capacity = self.spec.capacity
        over = st.occ[flat] > capacity
        bad = over.any(axis=1)
        if not bool(bad.any()):
            return
        node = int(flat[int(np.argmax(bad))])
        keys = np.flatnonzero(st.occ[node] > capacity)
        if st.key_rank is not None:
            keys = keys[np.argsort(st.key_rank[node, keys], kind="stable")]
        k = int(keys[0])
        raise QueueOverflowError(
            self.algorithm.name,
            self._node_tuple(node),
            self._key_object(k),
            int(st.occ[node, k]),
            capacity,
        )

    # -- compatibility surface ---------------------------------------------

    @property
    def queues(self) -> dict:
        """Materialized node -> key -> packet-list view of the array state.

        Built lazily and cached until the arrays next change; mutating the
        returned structure does not affect the simulation.
        """
        mat = self._mat
        if mat is None:
            self._mat = mat = self._materialize()
        return mat

    def _materialize(self) -> dict:
        st = self._state
        act = self._act
        out: dict[tuple[int, int], dict[Any, list[Packet]]] = {}
        if act.size == 0:
            return out
        order = np.lexsort((st.qseq[act], st.qkey[act], st.posf[act]))
        slots = act[order]
        height = self._height
        central = self._central
        packet_of = self._packet_of
        pos_l = st.posf[slots].tolist()
        key_l = st.qkey[slots].tolist()
        age_l = st.age[slots].tolist() if st.track_age else None
        for i, slot in enumerate(slots.tolist()):
            p = packet_of[slot]
            flat = pos_l[i]
            p.pos = (flat // height, flat % height)
            if age_l is not None:
                p.state = age_l[i]
            node_queues = out.get(p.pos)
            if node_queues is None:
                out[p.pos] = node_queues = {}
            key = CENTRAL if central else DIRECTIONS[key_l[i]]
            q = node_queues.get(key)
            if q is None:
                node_queues[key] = [p]
            else:
                q.append(p)
        return out

    def queue_occupancy(self, node: tuple[int, int], key: Any) -> int:
        kidx = 0 if self._central else int(key)
        return int(self._state.occ[self._flat(node), kidx])

    def _downstream_occupancy(self, node: tuple[int, int], direction: Any) -> int:
        """Destination-free credit probe over the array state.

        Parity with the reference simulator's probe: occupancy of the
        queue a packet sent from ``node`` along ``direction`` would land
        in.  The credit kernel reads ``occ`` directly on the hot path;
        this exists so the algorithm object stays introspectable.
        """
        st = self._state
        tgt = int(st.geom.nbr_flat[self._flat(node), int(direction)])
        if tgt < 0:
            return 0
        kidx = 0 if self._central else int(OPP[int(direction)])
        return int(st.occ[tgt, kidx])

    # -- fault plans ---------------------------------------------------------

    @property
    def link_filter(self) -> Any:
        """The scalar equivalent of the attached fault plan (None without).

        The engine itself never calls it -- faults run through the plan's
        vectorized per-step mask in :meth:`step` -- but the readback keeps
        the reference-engine contract for tests and observers.
        """
        return self._plan_filter

    @link_filter.setter
    def link_filter(self, value: Any) -> None:
        if value is not None:
            raise NotImplementedError(
                "array engine does not support arbitrary link filters; "
                "attach a FaultPlan (plan.attach(sim)) for fault support, "
                "or construct with engine='reference'"
            )
        self._fault_plan = None
        self._plan_filter = None

    def attach_fault_plan(self, plan: Any) -> None:
        """Register ``plan`` for the vectorized per-step availability mask.

        The counterpart of the reference engine's scalar ``link_filter``
        installation (see :meth:`repro.faults.plan.FaultPlan.attach`);
        results are byte-identical because the plan's array queries make
        the same pure counter-hash draws.
        """
        self._fault_plan = plan
        self._plan_filter = plan.as_link_filter(self.topology)

    def drop_packet(self, packet: Packet) -> None:
        raise NotImplementedError(
            "array engine does not support packet drops; use engine='reference'"
        )

    def drop_pending(self, pid: int) -> None:
        raise NotImplementedError(
            "array engine does not support packet drops; use engine='reference'"
        )

    # -- the step ----------------------------------------------------------

    def step(self) -> list[ScheduledMove]:
        """Run one synchronous step (the reference phase order, batched)."""
        instr = self.instrument
        if instr is not None:
            instr.begin_step()
        self.time += 1
        # Invalidate the materialized-queue cache up front: even a step
        # with zero accepted moves (every scheduled move refused by a
        # fault plan) advances packet ages in phase (e).
        self._mat = None
        if self.pre_step_hooks:
            for hook in self.pre_step_hooks:
                hook(self)
            if instr is not None:
                instr.mark("hooks")
        if self._pending:
            self._inject_pending()

        # (a) outqueue policies, batched in the kernel.
        act = self._act
        if act.size:
            sched_pkt, sched_src, sched_dir = self._kernel.schedule(act)
        else:
            sched_pkt = sched_src = sched_dir = _EMPTY
        n_scheduled = len(sched_pkt)
        self.scheduled_moves += n_scheduled
        if instr is not None:
            instr.mark("a")

        # (b) no interceptor by construction; minimality holds by kernel
        # construction (desired moves are profitable).  An attached fault
        # plan drops scheduled moves over down links/nodes here, exactly
        # where the reference engine applies its link_filter -- a dropped
        # move counts as a refusal, like a refused offer.
        plan = self._fault_plan
        if plan is not None and n_scheduled:
            t = self.time
            h = self._height
            sx = sched_src // h
            sy = sched_src % h
            keep = plan.link_up_array(sx, sy, sched_dir, t)
            keep &= plan.node_up_array(sx, sy, t)
            # Scheduled moves are profitable, so the target always exists.
            tgt_all = self._state.geom.nbr_flat[sched_src, sched_dir]
            keep &= plan.node_up_array(tgt_all // h, tgt_all % h, t)
            if not bool(keep.all()):
                sched_pkt = sched_pkt[keep]
                sched_src = sched_src[keep]
                sched_dir = sched_dir[keep]
        if instr is not None:
            instr.mark("b")

        # (c) inqueue policies, batched in the kernel.
        if sched_pkt.size:
            tgt = self._state.geom.nbr_flat[sched_src, sched_dir]
            came = OPP[sched_dir]
            acc = self._kernel.accept(sched_pkt, sched_src, sched_dir, tgt, came)
            apkt = sched_pkt[acc]
            asrc = sched_src[acc]
            adir = sched_dir[acc]
            atgt = tgt[acc]
            acame = came[acc]
        else:
            apkt = asrc = adir = atgt = acame = _EMPTY
        self.refused_moves += n_scheduled - len(apkt)
        if instr is not None:
            instr.mark("c")

        # (d) transmit: departures, then arrivals in (target, inlink) order.
        moves = self._transmit(apkt, asrc, adir, atgt, acame)
        if instr is not None:
            instr.mark("d")

        # (e) packet-state updates (reference phase (e) / after_step).
        self._kernel.after_step()
        if instr is not None:
            instr.mark("e")

        if self.record_series:
            self.series.append(
                StepRecord(
                    time=self.time,
                    in_flight=self._in_flight,
                    delivered_total=len(self.delivery_times),
                    moves=len(apkt),
                    max_queue_len=self.max_queue_len,
                )
            )
        if self.post_step_hooks:
            for hook in self.post_step_hooks:
                hook(self, moves)
            if instr is not None:
                instr.mark("hooks")
        if instr is not None:
            instr.end_step()
        return moves

    def _transmit(
        self,
        apkt: np.ndarray,
        asrc: np.ndarray,
        adir: np.ndarray,
        atgt: np.ndarray,
        acame: np.ndarray,
    ) -> list[ScheduledMove]:
        st = self._state
        n_acc = len(apkt)
        self.total_moves += n_acc
        if n_acc == 0:
            return []
        # Arrival order is (target, inlink direction): targets ascending,
        # multi-offer groups by came_from -- the reference accepted_moves
        # order, which fixes FIFO sequence numbers and key creation order.
        # An inlink carries at most one packet, so the packed key is unique.
        order = np.argsort((atgt << 2) | acame, kind="stable")
        apkt = apkt[order]
        asrc = asrc[order]
        adir = adir[order]
        atgt = atgt[order]
        acame = acame[order]
        # Departures first.
        st.count(asrc, st.qkey[apkt], -1)
        # Arrivals: split deliveries from survivors.
        delivered = atgt == st.destf[apkt]
        st.posf[apkt] = atgt
        surv = ~delivered
        spkt = apkt[surv]
        stgt = atgt[surv]
        n_surv = len(spkt)
        if n_surv:
            skey = acame[surv] if not self._central else np.zeros(n_surv, dtype=np.int64)
            st.qkey[spkt] = skey
            st.qseq[spkt] = self._seq + np.arange(n_surv, dtype=np.int64)
            self._seq += n_surv
            st.count(stgt, skey, 1)
            qlen = st.occ[stgt, skey]
            max_q = int(qlen.max())
            if max_q > self.max_queue_len:
                self.max_queue_len = max_q
            max_l = int(st.load[stgt].max())
            if max_l > self.max_node_load:
                self.max_node_load = max_l
            if self.validate and max_q > self.spec.capacity:
                i = int(np.argmax(qlen > self.spec.capacity))
                raise QueueOverflowError(
                    self.algorithm.name,
                    self._node_tuple(int(stgt[i])),
                    self._key_object(int(skey[i])),
                    int(qlen[i]),
                    self.spec.capacity,
                )
            if st.key_rank is not None:
                self._record_key_creations(stgt, skey)
        dpkt = apkt[delivered]
        if len(dpkt):
            self.delivery_times.update(dict.fromkeys(st.pids[dpkt].tolist(), self.time))
            self._in_flight -= len(dpkt)
            st.in_net[dpkt] = False
            act = self._act
            self._act = act[st.in_net[act]]
        # Prune bookkeeping: a node that sent and ended the step empty
        # resets its queue-key creation order (the reference engine deletes
        # the node dict, losing key insertion order).  A node that sent
        # several packets is reset several times, to the same effect.
        if st.key_rank is not None:
            emptied = asrc[st.load[asrc] == 0]
            if len(emptied):
                st.key_rank[emptied] = -1
                st.key_count[emptied] = 0
        if not self.post_step_hooks:
            return []
        # Observers attached: materialize real ScheduledMoves (in the same
        # (target, inlink) order the reference engine produces).
        height = self._height
        packet_of = self._packet_of
        moves = []
        for slot, src_f, d, tgt_f in zip(
            apkt.tolist(), asrc.tolist(), adir.tolist(), atgt.tolist()
        ):
            p = packet_of[slot]
            p.pos = (tgt_f // height, tgt_f % height)
            moves.append(
                ScheduledMove(
                    p, (src_f // height, src_f % height), DIRECTIONS[d], p.pos
                )
            )
        return moves

    def _record_key_creations(self, stgt: np.ndarray, skey: np.ndarray) -> None:
        """Assign creation ranks to queue keys first occupied now.

        ``stgt``/``skey`` name at most one packet per (node, key) -- the
        incoming regime's arrivals, or a placement's creators -- in the
        order they were queued, so each new (node, key) is a single
        creation event, ranked per node in that order.
        """
        st = self._state
        is_new = st.key_rank[stgt, skey] < 0
        if not bool(is_new.any()):
            return
        pos = np.flatnonzero(is_new)
        node = stgt[pos]
        key = skey[pos]
        order = np.argsort(node, kind="stable")  # queued order within a node
        node_s = node[order]
        key_s = key[order]
        rank_in_node = _group_rank(node_s)[2]
        st.key_rank[node_s, key_s] = st.key_count[node_s] + rank_in_node
        st.key_count += np.bincount(node_s, minlength=len(st.key_count))

    def _inject_pending(self) -> None:
        """Admit the due pending packets in one batch.

        The reference engine admits them one by one in (injection_time,
        pid) order, refusing a packet whose initial queue is full.  Its
        batched equal: self-addressed packets are delivered; in each
        (source, key), the first ``capacity - occupancy`` due packets enter
        in that order and take FIFO sequence numbers in that order; the
        rest stay pending.
        """
        due = self._take_due_pending()
        if not due:
            return
        n = len(due)
        pids = np.fromiter((p.pid for p in due), dtype=np.int64, count=n)
        src = self._flat_ids([p.source for p in due])
        dst = self._flat_ids([p.dest for p in due])
        home = src == dst
        if bool(home.any()):
            self.delivery_times.update(dict.fromkeys(pids[home].tolist(), self.time))
        go = np.flatnonzero(~home)
        if len(go) == 0:
            return
        st = self._state
        qkey = self._initial_keys(src[go], dst[go])
        pair = src[go] * st.num_keys + qkey
        order = np.argsort(pair, kind="stable")
        rank = _group_rank(pair[order])[2]
        free = self.spec.capacity - st.occ.reshape(-1)[pair]
        admit = np.empty(len(go), dtype=bool)
        admit[order] = rank < free[order]
        self._pending[:0] = [due[i] for i in go[~admit].tolist()]
        enter = go[admit]
        m = len(enter)
        if m == 0:
            return
        self._place(
            [due[i] for i in enter.tolist()],
            pids[enter],
            src[enter],
            dst[enter],
            qkey[admit],
            self._seq + np.arange(m, dtype=np.int64),
        )
        self._seq += m
        self.injected_packets += m


#: Exact router type -> kernel.  Exact types, not subclasses: a subclass may
#: override policy methods the kernels do not model.
_KERNELS: dict[type, type[RouterKernel]] = {}


def _register_kernels() -> None:
    from repro.routing.adaptive import GreedyAdaptiveRouter
    from repro.routing.bounded_dor import BoundedDimensionOrderRouter
    from repro.routing.credit_adaptive import CreditAdaptiveRouter
    from repro.routing.dimension_order import DimensionOrderRouter
    from repro.routing.farthest_first import FarthestFirstRouter
    from repro.routing.hot_potato import HotPotatoRouter

    _KERNELS[BoundedDimensionOrderRouter] = BoundedDorKernel
    _KERNELS[DimensionOrderRouter] = CentralDorKernel
    _KERNELS[HotPotatoRouter] = HotPotatoKernel
    _KERNELS[GreedyAdaptiveRouter] = GreedyAdaptiveKernel
    _KERNELS[FarthestFirstRouter] = FarthestFirstKernel
    _KERNELS[CreditAdaptiveRouter] = CreditAdaptiveKernel


_register_kernels()


def ported_router_types() -> tuple[type, ...]:
    """The router classes the array engine can run (exact types)."""
    return tuple(_KERNELS)


def resolve_array_class(
    topology: Any, algorithm: Any, kwargs: dict
) -> type[ArraySimulator] | None:
    """The array simulator class when (topology, algorithm, kwargs) is
    supported, else None (caller falls back to the reference engine)."""
    if kwargs.get("interceptor") is not None:
        return None
    if kwargs.get("record_link_loads"):
        return None
    if type(topology) not in (Mesh, Torus):
        return None
    if type(algorithm) not in _KERNELS:
        return None
    return ArraySimulator
