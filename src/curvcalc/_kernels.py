"""Hot Monte Carlo kernels, in numpy: one hit-plane core, two reductions.

Both kernels take a heights matrix H, H[b, v] being the height of vertex v
under the direction x_b of row b, and a cell table (cells, sizes) padded
as mc.build_cell_arrays pads it, and answer for the 2m directions x_b and
-x_b of H's m rows, the transpose of a column slice of a block of an
mc.Source: float64 Gaussian heights, uint64 keys or the ranks of
mc.permutation_ranks, never negated or cast. Only the order of the
heights in a row matters, so the core, _hit_planes, may compare per-row
competition ranks instead: the rank of v is the number of heights in its
row strictly below v's, and every < and == between two heights of a row
also holds between their ranks. Ranks fit one byte up to 256 vertices,
where a height takes eight, but ranking a row takes n^2 comparisons, so
heights are ranked only when they are not ranks already and
n^2 <= 4 * slots (uses_ranks). A row's ranks sum to C(n, 2) exactly when
no two of its heights tie, so a call whose rows all do runs no tie pass.
Either way the core gathers rows of the vertex-major table into one
(cells, rows) plane per planned slot. A slot hits under x where its plane
equals its cell's maximum, and under -x where it equals the minimum: the
strict minimum under x is the strict maximum under -x, exactly, on
heights and on ranks. A direction in which a cell has two hits ties, and
a pair with a tie in either direction counts nothing and is resampled by
the caller. Rows are independent, so the driver in mc.py may slice them
under each kernel's per-call and per-pair byte bounds.

A run plan (cone_plan, link_plan), built once per run from the table and
the dtype of the heights its source draws, decides what every call of the
run does: which slots get planes, which size classes are checked for
ties and whether the heights are ranked, and it prices that path alone
(_layout). The cone kernel counts hits only where they vary. Over the
2 * free directions of the free (tie-free) pairs of a call, a vertex
cell hits in every one and each endpoint of an edge in exactly one of x
and -x, so they count 2 * free and free; a cell of k >= 3 vertices hits
once per direction, so only its first k - 1 slots get planes, and its
last counts 2 * free less theirs. The Morse kernel needs only the pair
index I(x) + I(-x), to which a vertex cell adds 2 and each edge -1 at
each end in every tie-free pair: that constant, 2 - degree, is in its
plan and the driver adds it once per run. So only the slots of cells of
three or more vertices get planes; the kernel ORs each slot's x and -x
hits into one pair hit and sums them signed per vertex, a block of
vertices with equal slot counts at a time, into Q.

Every large array a call works in is carved from one workspace per
thread (workspace), which grows to the largest call, up to
KERNEL_BUDGET_BYTES, and is kept for the life of the process; a call
needing more gets a buffer of its own. Nothing a kernel returns lies in
the workspace. The driver slices its blocks by the plan's call_bytes and
pair_bytes, and carves the Morse squares from the workspace the kernel
took.
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
    """Whether a plan ranks heights that are not ranks already: ranking
    costs n^2 comparisons per row, against one gather per slot that it
    shrinks."""
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
    """The cone kernel's run plan: its classes (members, columns, planes,
    checked), whether it ranks the heights, its rows of hit planes and
    _layout's bytes."""

    classes: list
    ranking: bool
    rows: int
    workspace: int
    pair_bytes: int
    call_bytes: int


class LinkPlan(NamedTuple):
    """The Morse kernel's run plan: its classes, ranking, rows and bytes as
    in ConePlan, the (start, stop) row spans of its cells of an even vertex
    count, whose sign is -1, the rows sorted by owner (order), the owners
    in that order, the (a, b, lo, width) owner blocks, owners a..b-1 with
    width of those rows each from sorted row lo on, the index dtype, and
    per coordinate row the int64 constant the vertex and edge cells add
    to each tie-free pair index."""

    classes: list
    ranking: bool
    rows: int
    workspace: int
    pair_bytes: int
    call_bytes: int
    negative: list
    order: np.ndarray
    owners: np.ndarray
    blocks: list
    dtype: type
    constant: np.ndarray


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


def _ranking(n_vertices: int, sizes, heights_dtype) -> bool:
    """Whether a plan ranks heights of heights_dtype: as uses_ranks says, unless they are ranks."""
    return np.dtype(heights_dtype) != _rank_dtype(n_vertices) and uses_ranks(n_vertices, sizes)


# numpy's buffered casts (the int64 sums of narrower ints) take up to
# 8,192 elements of 8 bytes for the length of one call
_CAST_BUFFER_BYTES = 8192 * 8


def _layout(classes, n_vertices: int, heights_dtype, ranking: bool, rows: int, carve=0, beside=0, call=0):
    """(workspace, pair_bytes, call_bytes) of a call on the path its plan
    chose, on heights of heights_dtype, ranked if ranking: a pair carves
    carve bytes of its own and allocates beside bytes beside, and a call
    allocates call bytes whatever its pair count. workspace is the bytes a
    pair carves: its slice's contiguous copy at the heights' itemsize, the
    ranks and their comparison mask if ranking, two hits per plane row, the
    largest class's gathered values and extreme at the compared itemsize,
    the largest checked class's hit counts and flags, then carve. pair_bytes adds its
    tie flags, their reductions and its pair flag, its rank sum and the
    sum's check if the compared table holds ranks, then beside. call_bytes
    is numpy's cast buffer, the workspace's alignment slack, the intp copy
    of the largest gathered class's slot columns that take makes, and
    call."""
    multi = [(len(c), len(m), checked) for m, c, _, checked in classes if len(c) > 1]
    values = max(((k + 1) * cells for k, cells, _ in multi), default=0)
    flags = max(((_count_dtype(k).itemsize + 1) * cells for k, cells, checked in multi if checked), default=0)
    item = np.dtype(heights_dtype).itemsize
    table, beside = item * n_vertices, beside + 8
    if ranking:
        item = _rank_dtype(n_vertices).itemsize
        table += (item + 1) * n_vertices
    if ranking or np.dtype(heights_dtype) == _rank_dtype(n_vertices):
        beside += _rank_sum_dtype(n_vertices).itemsize + 1
    carved = table + 2 * rows + item * values + flags + carve
    largest = max((k * cells for k, cells, _ in multi), default=0)
    return carved, carved + beside, _CAST_BUFFER_BYTES + _SLACK + 8 * largest + call


def cone_plan(cells, sizes, n_vertices: int, heights_dtype) -> ConePlan:
    # A cell of k >= 3 vertices hits once per direction, so its last slot
    # needs no plane; a cell table need not be closed under faces, so every
    # class of two or more vertices is checked for ties. A call allocates
    # the int64 counts of the padded table and per hit-plane row, and per
    # cell of the largest class its members' intp copy and two int64 sums.
    classes = [(m, c, len(c) - 1 if len(c) > 2 else 0, len(c) > 1) for m, c in class_plan(cells, sizes)]
    ranking = _ranking(n_vertices, sizes, heights_dtype)
    rows = sum(planes * len(members) for members, _, planes, _ in classes)
    largest = max((len(members) for members, *_ in classes), default=0)
    call = 8 * cells.size + 8 * rows + 24 * largest
    layout = _layout(classes, n_vertices, heights_dtype, ranking, rows, call=call)
    return ConePlan(classes, ranking, rows, *layout)


def link_plan(simp_verts, sizes, n_vertices: int, heights_dtype) -> LinkPlan:
    # Per tie-free pair a vertex cell adds 2 to its vertex's pair index,
    # and an edge -1 to each end, the top under exactly one of x and -x:
    # those go in the constant, with no plane. Every slot of the other
    # cells gets a plane; those slots, row j of their class's columns, are
    # sorted by their owner's slot count, then by owner, so each run of
    # owners a..b-1 with the same count w holds one (b - a, w, pairs)
    # block. Only edges are checked for ties: in a face-closed table a
    # cell with two hits has an edge with two.
    classes = [(m, c, len(c) if len(c) > 2 else 0, len(c) == 2) for m, c in class_plan(simp_verts, sizes)]
    constant = np.zeros(n_vertices, dtype=np.int64)
    owner, negative, rows = [], [], 0
    for _, columns, planes, _ in classes:
        k = len(columns)
        if not planes:
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
    dtype = index_dtype(int(widths.max(initial=0)))
    # a pair carves its int8 pair hit and term per plane row, or the
    # driver's squares, carved after the call, if more; beside it lie Q,
    # and per call the driver's two int64 sums per owner
    carve = max(2 * rows, square_dtype(dtype).itemsize * len(owners))
    beside = np.dtype(dtype).itemsize * len(owners)
    ranking = _ranking(n_vertices, sizes, heights_dtype)
    layout = _layout(classes, n_vertices, heights_dtype, ranking, rows, carve, beside, 16 * len(owners))
    order = np.lexsort((owner, counts[owner]))
    return LinkPlan(classes, ranking, rows, *layout, negative, order, owners, blocks, dtype, constant)


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


def _hit_planes(heights, plan):
    """(hits, tie_pairs, arena) for the m pairs of a (m, n) heights array,
    on the path its plan chose for their dtype. arena is a workspace of
    plan.workspace bytes a pair and _SLACK that holds the vertex table,
    ranked if plan.ranking, the plan's rows of hits, the largest class's
    scratch and the caller's arrays. hits is its (plan.rows, 2m) bool array
    whose column b is the direction of row b and column m + b its
    negation, with a (planes, cells, 2m) block for the first planes slots
    of each size class, in size_classes order. Unless the rank sums show
    every row tie-free, the checked classes' ties are found: tie_pairs
    flags the rows that tie in either column."""
    m, n = heights.shape
    arena = workspace(m * plan.workspace + _SLACK)
    table, tie_free = _vertex_table(heights, _rank_dtype(n), plan.ranking, arena)
    hits = arena((plan.rows, 2 * m), bool)
    ties = None if tie_free else np.zeros((2, m), dtype=bool)
    start = 0
    for members, columns, planes, checked in plan.classes:
        block = hits[start : start + planes * len(members)].reshape(planes, len(members), 2 * m)
        start += planes * len(members)
        if planes or checked and ties is not None:
            _class_hits(table, columns, block, arena, ties if checked else None)
    return hits, np.zeros(m, dtype=bool) if ties is None else ties[0] | ties[1], arena


def cone_argmax_counts(heights, cells, sizes, plan):
    """(counts, tie_pairs): per cell and vertex slot, the number of
    directions x and -x of the tie-free rows of heights in which that
    vertex is the strict maximum of the cell. cells is an int64
    (n_cells, max_size) array padded arbitrarily; plan is its cone_plan
    for the heights' dtype."""
    hits, tie_pairs, _ = _hit_planes(heights, plan)
    if tie_pairs.any():
        np.copyto(hits.reshape(-1, 2, len(tie_pairs)), False, where=tie_pairs)
    counted = np.add.reduce(hits.view(np.uint8), axis=1, dtype=_count_dtype(hits.shape[1]))
    free = len(tie_pairs) - int(np.count_nonzero(tie_pairs))
    counts = np.zeros(cells.shape, dtype=np.int64)
    start = 0
    for members, columns, planes, _ in plan.classes:
        if not planes:  # a vertex hits in all 2 * free directions, each end of an edge in free
            counts[members, : len(columns)] = 2 * free // len(columns)
            continue
        others = counted[start : start + planes * len(members)].reshape(planes, len(members))
        start += others.size
        counts[members, :planes] = others.T
        counts[members, planes] = 2 * free - others.sum(axis=0)
    return counts, tie_pairs


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
    its link_plan for the heights' dtype. In a tie-free pair no slot of a
    cell of two or more vertices hits under both x and -x, so a slot's pair
    hit is the OR of its two hits. In a face-closed complex a cell with two
    hits has an edge with two, so the tie pairs are the lower links'; their
    columns are zeroed.
    """
    hits, tie_pairs, arena = _hit_planes(heights, plan)
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


def backend_name() -> str:
    return "numpy"
