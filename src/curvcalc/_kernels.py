"""Hot Monte Carlo kernels, in numpy: one hit-plane core, two reductions.

Both kernels take a heights matrix H, H[b, v] being the height of vertex v
under the direction x_b of row b, and a cell table (cells, sizes) padded
as mc.build_cell_arrays pads it, and answer for the 2m directions x_b and
-x_b of H's m rows, the transpose of a column slice of a block of an
mc.Source: float64 Gaussian heights, uint64 keys or the ranks of
mc.permutation_ranks, never negated or cast. Only the order of the
heights in a row matters, so the core, _hit_planes, may compare per-row
competition ranks instead of heights: the rank of v is the number of heights in its row strictly
below v's, and every < and == between two heights of a row also holds
between their ranks. Ranks fit one byte up to 256 vertices, where a
height takes eight, but ranking a row takes n^2 comparisons, so the core
ranks only when n^2 <= 4 * slots (uses_ranks), and takes a table already
in the rank dtype as ranks. A row's ranks sum to C(n, 2) exactly when no
two of its heights tie, so a call whose rows all do runs no tie pass.
Either way the core gathers rows of the vertex-major table into one
(cells, rows) plane per slot of a size class. A slot hits under x where
its plane equals the class's maximum, and under -x where it equals the
class's minimum: the strict minimum under x is the strict maximum under
-x, exactly, on heights and on ranks. A direction in which a cell has two
hits ties, and a pair with a tie in either direction counts nothing and
is resampled by the caller. Rows are independent, so the driver in mc.py
may slice them under each kernel's per-call and per-pair byte bounds.

The cone kernel counts hits only where they vary. Over the 2 * free
directions of the free (tie-free) pairs of a call, a vertex cell hits in
every one and each endpoint of an edge in exactly one of x and -x, so
they count 2 * free and free; a cell of k >= 3 vertices hits once per
direction, so only its first k - 1 slots get planes, and its last counts
2 * free less theirs. The Morse kernel needs only the pair index
I(x) + I(-x), to which a vertex cell adds 2 and each edge -1 at each
end in every tie-free pair: that constant, 2 - degree, is in its plan
and the driver adds it once per run. So only the slots of cells of
three or more vertices get planes; the kernel ORs each slot's x and -x
hits into one pair hit and sums them signed per vertex, a block of
vertices with equal slot counts at a time, into Q.

What a call reads of the table alone is its run plan, which the driver
builds once per run (cone_plan, link_plan) and every call reuses: the
size classes, each class's members and contiguous slot columns (int32
when they fit), which the core gathers with take, and the Morse kernel's
owner order and blocks, index dtype and per-vertex constant. Every large array a call works in is carved
from one workspace per thread (workspace), which grows to the largest
call, up to KERNEL_BUDGET_BYTES, and is kept for the life of the process;
a call needing more gets a buffer of its own. Nothing a kernel returns
lies in the workspace. So the per-call byte bounds count the workspace a
call carves and the few arrays it allocates beside it.
"""

import functools
import threading
from typing import NamedTuple

import numpy as np

KERNEL_BUDGET_BYTES = 8 * 2**20
# every carve starts on a cache line; a call carves at most 16 arrays
_ALIGN = 64
_SLACK = 16 * _ALIGN
_local = threading.local()


class Arena:
    """Arrays carved in turn from one uint8 buffer; setting used back
    frees what was carved since."""

    def __init__(self, buffer):
        self.buffer = buffer
        self.used = 0

    def __call__(self, shape, dtype):
        start = -(-self.used // _ALIGN) * _ALIGN
        array = np.ndarray(shape, dtype, self.buffer, start)
        self.used = start + array.nbytes
        return array


def workspace(nbytes: int) -> Arena:
    """An Arena over the calling thread's kept buffer, first grown to
    nbytes if that stays within KERNEL_BUDGET_BYTES; a larger request gets
    a buffer of its own, dropped with the arena."""
    buffer = getattr(_local, "buffer", None)
    if buffer is None or len(buffer) < nbytes:
        if nbytes > KERNEL_BUDGET_BYTES:
            return Arena(np.empty(nbytes, dtype=np.uint8))
        _local.buffer = buffer = None  # free the old buffer before taking the new one
        buffer = _local.buffer = np.empty(nbytes, dtype=np.uint8)
    return Arena(buffer)


def size_classes(sizes) -> list:
    """The distinct sizes of a cell table, ascending."""
    return np.flatnonzero(np.bincount(sizes)).tolist()


def uses_ranks(n_vertices: int, sizes) -> bool:
    """Whether _hit_planes compares ranks: ranking costs n^2 comparisons
    per row, against one float gather per slot that it shrinks."""
    return n_vertices**2 <= 4 * int(sizes.sum())


@functools.cache
def _rank_dtype(n_vertices: int):
    return np.min_scalar_type(max(n_vertices - 1, 0))


@functools.cache
def _rank_sum_dtype(n_vertices: int):
    """The narrowest dtype holding a row's rank sum, at most C(n, 2)."""
    return np.min_scalar_type(n_vertices * (n_vertices - 1) // 2)


@functools.cache
def _count_dtype(k: int):
    """The narrowest dtype holding the hit count of a cell of k slots."""
    return np.min_scalar_type(k)


def _ranks(ht, ranks=None, below=None):
    """ranks[v, b]: the number of w with ht[w, b] < ht[v, b], for a
    vertex-major (n, rows) heights table, in the narrowest dtype holding
    n - 1; ranks and below, if given, are its output and an (n, rows)
    bool scratch."""
    if ranks is None:
        ranks, below = np.empty(ht.shape, _rank_dtype(len(ht))), np.empty(ht.shape, bool)
    ranks.fill(0)
    for heights_of_w in ht:
        np.less(heights_of_w, ht, out=below)
        ranks += below.view(np.uint8)  # an add without a bool cast
    return ranks


class ConePlan(NamedTuple):
    """The cone kernel's run plan: class_plan's classes, its rows of hit
    planes (k - 1 per cell of k >= 3 vertices) and its class scratch."""

    classes: list
    rows: int
    scratch: tuple


class LinkPlan(NamedTuple):
    """The Morse kernel's run plan: class_plan's classes, its rows of hit
    planes (every slot of a cell of three or more vertices), its class
    scratch, the (start, stop) row spans of its cells of an even vertex
    count, whose sign is -1, the rows sorted by owner (order), the owners
    in that order, the (a, b, lo, width) owner blocks, owners a..b-1 with
    width of those rows each from sorted row lo on, the index dtype, and
    per coordinate row the int64 constant the vertex and edge cells add
    to each tie-free pair index."""

    classes: list
    rows: int
    scratch: tuple
    negative: list
    order: np.ndarray
    owners: np.ndarray
    blocks: list
    dtype: type
    constant: np.ndarray


def _class_sizes(sizes) -> list:
    """(k, cells of size k) per size class, in size_classes order."""
    counts = np.bincount(sizes)
    ks = np.flatnonzero(counts)
    return list(zip(ks.tolist(), counts[ks].tolist()))


def _varying_rows(class_sizes) -> int:
    return sum((k - 1) * cells for k, cells in class_sizes if k > 2)


def _scratch(class_sizes, checked=lambda k: k > 1) -> tuple:
    """Per pair, the largest scratch _class_hits carves for a class of two
    or more slots, given (k, cells) per class and the sizes k whose ties
    it checks: (elements of the table's dtype, bytes of counts and
    flags)."""
    multi = [(k, cells) for k, cells in class_sizes if k > 1]
    values = max(((k + 1) * cells for k, cells in multi), default=0)
    flags = max(((_count_dtype(k).itemsize + 1) * cells for k, cells in multi if checked(k)), default=0)
    return values, flags


def class_plan(cells, sizes) -> list:
    """Per size class k, in size_classes order, (members, columns): its
    cells' table rows, and the contiguous (k, len(members)) array whose row
    j holds their slot-j vertex ids, int32 when the table's rows and ids
    fit."""
    dtype = np.int32 if max(len(cells), int(cells.max(initial=0))) < 2**31 else np.int64
    classes = []
    for k in size_classes(sizes):
        members = np.flatnonzero(sizes == k)
        classes.append((members.astype(dtype), cells[members, :k].T.astype(dtype, order="C")))
    return classes


def cone_plan(cells, sizes) -> ConePlan:
    class_sizes = _class_sizes(sizes)
    return ConePlan(class_plan(cells, sizes), _varying_rows(class_sizes), _scratch(class_sizes))


def link_plan(simp_verts, sizes, n_vertices: int) -> LinkPlan:
    # Per tie-free pair a vertex cell adds 2 to its vertex's pair index,
    # and an edge -1 to each end, the top under exactly one of x and -x:
    # those go in the constant, with no plane. The slots of the other
    # cells, row j of their class's columns, are sorted by their owner's
    # slot count, then by owner, so each run of owners a..b-1 with the
    # same count w holds one (b - a, w, pairs) block.
    classes = class_plan(simp_verts, sizes)
    constant = np.zeros(n_vertices, dtype=np.int64)
    owner, negative, rows = [], [], 0
    for _, columns in classes:
        k = len(columns)
        if k < 3:
            constant += (2 if k == 1 else -1) * np.bincount(columns.ravel(), minlength=n_vertices)
            continue
        owner.append(columns.ravel())
        if k % 2 == 0:
            negative.append((rows, rows + columns.size))
        rows += columns.size
    owner = np.concatenate(owner) if owner else np.zeros(0, dtype=np.intp)
    counts = np.bincount(owner, minlength=n_vertices)
    owners = np.flatnonzero(counts)
    owners = owners[np.argsort(counts[owners], kind="stable")]
    widths = counts[owners]
    starts = np.cumsum(widths) - widths
    firsts = [0, *(np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist()] if len(widths) else []
    blocks = [(a, b, int(starts[a]), int(widths[a])) for a, b in zip(firsts, [*firsts[1:], len(owners)])]
    return LinkPlan(
        classes,
        rows,
        _scratch(_class_sizes(sizes), lambda k: k == 2),
        negative,
        np.lexsort((owner, counts[owner])),
        owners,
        blocks,
        index_dtype(int(widths.max(initial=0))),
        constant,
    )


def _vertex_table(heights, rank_dtype, ranking, arena):
    """(table, tie_free): the (n, m) vertex-major table of heights, ranked
    into rank_dtype if ranking, and whether it holds ranks with every row
    tie-free."""
    m, n = heights.shape
    table = heights.T
    if not table.flags.c_contiguous:  # a column slice of a block
        table = arena((n, m), heights.dtype)
        np.copyto(table, heights.T)
    if ranking:
        table = _ranks(table, arena((n, m), rank_dtype), arena((n, m), bool))
    # competition ranks sum to C(n, 2) exactly in a row without a tied pair
    tie_free = table.dtype == rank_dtype and bool(
        (table.sum(axis=0, dtype=_rank_sum_dtype(n)) == n * (n - 1) // 2).all()
    )
    return table, tie_free


def _class_hits(table, columns, planes, arena, ties):
    """For the cells of a size class, whose slot-j vertex ids are row j of
    the (k, cells) columns: planes[j, i, :m] says whether slot j of cell i
    holds the cell's maximum, and planes[j, i, m:] its minimum, for the
    first len(planes) slots. With ties, a (2, m) bool array, ties[0] also
    flags the rows in which a cell's maximum lies on two of its k slots,
    and ties[1] those in which its minimum does."""
    k, cells = columns.shape
    m = table.shape[1]
    p = len(planes)
    used = arena.used
    values = arena((k + 1, cells, m), table.dtype)  # the k slots' values, then their extreme
    slots, extreme = values[:k], values[k]
    table.take(columns, axis=0, out=slots, mode="wrap")  # "raise" would buffer the output
    if ties is not None:
        # a cell's hits are counted in the narrowest dtype holding k
        per_cell, hit = arena((cells, m), _count_dtype(k)), arena((cells, m), bool)
    for side, reduce in enumerate((np.maximum, np.minimum)):
        hits = planes[:, :, side * m : (side + 1) * m]
        np.equal(values[:p], reduce.reduce(slots, axis=0, out=extreme), out=hits)
        if ties is not None:
            np.add.reduce(hits.view(np.uint8), axis=0, out=per_cell)
            for j in range(p, k):
                per_cell += np.equal(values[j], extreme, out=hit)
            ties[side] |= per_cell.max(axis=0) > 1
    arena.used = used


def _hit_planes(heights, sizes, plan, varying, term_rows=0):
    """(hits, tie_pairs, arena) for the m pairs of a (m, n) heights array.
    arena is a workspace holding the vertex table, the plan's rows of
    hits, the largest class's scratch, _SLACK and term_rows rows of 2m
    bytes left for the caller. hits is its (plan.rows, 2m) bool array
    whose column b is the direction of row b and column m + b its
    negation, with one block of (planes, cells of size k, 2m) per size
    class k >= 3, in size_classes order, and none for vertices or edges:
    a vertex is the strict maximum of its own cell under x and -x, and
    never ties. Without varying, each slot of such a class has a plane,
    and only edges are checked for ties: in a face-closed table a cell
    with two hits has an edge with two. With varying, only the first
    k - 1 slots have planes, and every class is checked. tie_pairs flags
    the rows that tie in either column."""
    m, n = heights.shape
    rank_dtype = _rank_dtype(n)
    item = heights.dtype.itemsize
    ranking = heights.dtype != rank_dtype and uses_ranks(n, sizes)
    per_pair = n * item + 2 * (plan.rows + term_rows) + plan.scratch[1]
    if ranking:
        item = rank_dtype.itemsize
        per_pair += n * (item + 1)
    arena = workspace(m * (per_pair + item * plan.scratch[0]) + _SLACK)
    table, tie_free = _vertex_table(heights, rank_dtype, ranking, arena)
    hits = arena((plan.rows, 2 * m), bool)
    ties = None if tie_free else np.zeros((2, m), dtype=bool)
    start = 0
    for members, columns in plan.classes:
        k = len(columns)
        if k == 1:
            continue
        p = 0 if k < 3 else k - 1 if varying else k
        planes = hits[start : start + p * len(members)].reshape(p, len(members), 2 * m)
        start += p * len(members)
        if p or ties is not None:
            _class_hits(table, columns, planes, arena, ties if varying or k == 2 else None)
    return hits, np.zeros(m, dtype=bool) if ties is None else ties[0] | ties[1], arena


# numpy's buffered casts (the int64 sums of narrower ints) take up to
# 8,192 elements of 8 bytes for the length of one call
_CAST_BUFFER_BYTES = 8192 * 8


def _table_row_bytes(sizes, n_vertices: int, plane_rows: int, scratch) -> int:
    """Bytes per pair of the workspace the core carves and of the arrays
    it allocates, summed as if all were live at once: per vertex the
    contiguous copy of the slice and, when ranking, the rank and its
    comparison mask, and then the row's rank sum and its check; two hits
    per plane row; the plan's class scratch, the largest class's gathered
    values, extreme, hit counts and flags; the tie flags, their
    reductions and the pair flags."""
    values, flags = scratch
    if uses_ranks(n_vertices, sizes):
        item = _rank_dtype(n_vertices).itemsize
        table = (9 + item) * n_vertices + _rank_sum_dtype(n_vertices).itemsize + 1
    else:
        item = 8
        table = 8 * n_vertices
    return table + 2 * plane_rows + item * values + flags + 8


def _call_bytes(sizes) -> int:
    """Bytes of what a call of either kernel allocates whatever its pair
    count: numpy's cast buffer, the workspace's alignment slack, and the
    intp copy of the largest class's slot columns that take makes."""
    return _CAST_BUFFER_BYTES + _SLACK + 8 * max((k * c for k, c in _class_sizes(sizes)), default=0)


def cone_argmax_counts(heights, cells, sizes, plan):
    """(counts, tie_pairs): per cell and vertex slot, the number of
    directions x and -x of the tie-free rows of heights in which that
    vertex is the strict maximum of the cell. cells is an int64
    (n_cells, max_size) array padded arbitrarily; plan is its cone_plan."""
    hits, tie_pairs, _ = _hit_planes(heights, sizes, plan, True)
    if tie_pairs.any():
        hits[:, np.tile(tie_pairs, 2)] = False
    counted = np.add.reduce(hits.view(np.uint8), axis=1, dtype=_count_dtype(hits.shape[1]))
    free = len(tie_pairs) - int(np.count_nonzero(tie_pairs))
    counts = np.zeros(cells.shape, dtype=np.int64)
    start = 0
    for members, columns in plan.classes:
        k = len(columns)
        if k < 3:  # a vertex hits in all 2 * free directions, each end of an edge in free
            counts[members, :k] = 2 * free // k
            continue
        others = counted[start : start + (k - 1) * len(members)].reshape(k - 1, len(members))
        start += others.size
        counts[members, : k - 1] = others.T
        counts[members, k - 1] = 2 * free - others.sum(axis=0)
    return counts, tie_pairs


def cone_call_bytes(sizes) -> int:
    """Bytes of the per-call arrays of cone_argmax_counts given its plan:
    those of either kernel, the int64 counts of the padded table, the
    int64 count per hit-plane row, and per cell of the largest class its
    members' intp copy and two int64 sums."""
    class_sizes = _class_sizes(sizes)
    largest = max((c for _, c in class_sizes), default=0)
    width = max((k for k, _ in class_sizes), default=1)
    return _call_bytes(sizes) + 8 * len(sizes) * width + 8 * _varying_rows(class_sizes) + 24 * largest


def cone_row_bytes(sizes, n_vertices: int) -> int:
    """Bytes per pair of every array cone_argmax_counts carves or
    allocates, summed as if all were live at once: the core's, with a
    hit-plane row per varying slot, and the tie columns' mask."""
    class_sizes = _class_sizes(sizes)
    return _table_row_bytes(sizes, n_vertices, _varying_rows(class_sizes), _scratch(class_sizes)) + 2


@functools.cache
def index_dtype(width: int):
    """The dtype of the Morse kernel's Q: int8, int16 or int32, the
    narrowest that holds [-width, width] for an owner of width planned
    slots."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if width <= np.iinfo(t).max)


def square_dtype(dtype):
    """The dtype of the square of an index of dtype: the next width."""
    return np.dtype(f"i{min(2 * np.dtype(dtype).itemsize, 8)}")


def lower_link_index(heights, simp_verts, sizes, plan):
    """(Q, tie_pairs): Q[i, b] is the part of the pair index
    I(x_b) + I(-x_b) of coordinate row plan.owners[i] that the cells of
    three or more vertices at it give, in plan.dtype; I is Banchoff's
    Morse index, the sum over the simplices s at a vertex of (-1)^dim s
    where it is the strict maximum of s, which is 1 - chi(lower link).
    Adding plan.constant, the vertex and edge cells' part, gives the pair
    index of a tie-free pair.

    simp_verts and sizes are the table of mc.build_link_arrays, and plan
    its link_plan. In a tie-free pair no slot of a cell of two or more
    vertices hits under both x and -x, so a slot's pair hit is the OR of
    its two hits. In a face-closed complex a cell with two hits has an
    edge with two, so the tie pairs are the lower links'; their columns
    are zeroed.
    """
    hits, tie_pairs, arena = _hit_planes(heights, sizes, plan, False, term_rows=plan.rows)
    m = len(tie_pairs)
    pair = arena((plan.rows, m), np.int8)
    np.bitwise_or(hits[:, :m], hits[:, m:], out=pair.view(bool))
    for start, stop in plan.negative:
        np.negative(pair[start:stop], out=pair[start:stop])
    terms = pair.take(plan.order, axis=0, out=arena(pair.shape, np.int8), mode="wrap")
    index = np.empty((len(plan.owners), m), dtype=plan.dtype)
    for a, b, lo, width in plan.blocks:
        np.add.reduce(terms[lo : lo + (b - a) * width].reshape(b - a, width, m), axis=1, out=index[a:b])
    if tie_pairs.any():
        np.copyto(index, 0, where=tie_pairs)
    return index, tie_pairs


def index_call_bytes(sizes, plan) -> int:
    """Bytes of the per-call arrays of lower_link_index given its plan and
    of the driver's sums: those of either kernel and, per owner, the
    driver's two int64 sums of a call, 16 bytes in all."""
    return _call_bytes(sizes) + 16 * len(plan.owners)


def index_row_bytes(sizes, n_vertices: int, plan) -> int:
    """Bytes per pair of every array lower_link_index and the driver's
    sums carve or allocate, summed as if all were live at once: the
    core's, with a hit-plane row per planned slot, its pair hit and its
    term, both int8, and per owner Q and its square."""
    per_owner = np.dtype(plan.dtype).itemsize + square_dtype(plan.dtype).itemsize
    core = _table_row_bytes(sizes, n_vertices, plan.rows, plan.scratch)
    return core + 2 * plan.rows + per_owner * len(plan.owners)


def backend_name() -> str:
    return "numpy"
