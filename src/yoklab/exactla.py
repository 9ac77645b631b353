"""Sparse exact linear algebra over the scalar backends.

Vectors are plain dicts mapping hashable, mutually comparable keys to
nonzero scalars.  A ``Subspace`` keeps a reduced row echelon basis keyed by
pivot, each pivot the least key of its row, and a column index from each
non-pivot key to the rows that hold it, so an insert back-eliminates its
new pivot from those rows only.  A one-term vector {k: c} skips the
reduction: no row holds another row's pivot, so it lies in the span exactly
when k is the pivot of a one-term row, and when k is no pivot it is stored
as the row {k: 1}.  ``tagged_closure`` grows a family of tagged spans
until it is stable under a function that returns every tagged image of
its new rows; ``closure_under`` is its one-tag case, a span stable under
linear maps.  ``tagged_power_dims`` runs the one recurrence for the powers of an
ideal, shared by the Y, AKS and nil engines, each of which feeds it words
in its right generator maps.  ``ideal_power_dims`` is the same recurrence,
with one tag, fed the products of each row with the ideal's generators,
the reference form that the words are checked against.
Everything is exact; no floats anywhere.
"""

from __future__ import annotations

__all__ = [
    "vec_addmul",
    "Subspace",
    "tagged_closure",
    "closure_under",
    "tagged_power_dims",
    "ideal_power_dims",
]


def _acc(out: dict, key, val) -> None:
    """out[key] += val, in place, dropping the key when it cancels."""
    cur = out.get(key)
    nv = val if cur is None else cur + val
    if nv.is_zero():
        out.pop(key, None)
    else:
        out[key] = nv


def vec_addmul(target: dict, coeff, source: dict) -> None:
    """target += coeff * source, in place, dropping zeros."""
    if coeff.is_zero():
        return
    for k, v in source.items():
        cur = target.get(k)
        nv = coeff * v if cur is None else cur + coeff * v
        if nv.is_zero():
            target.pop(k, None)
        else:
            target[k] = nv


class Subspace:
    """Span of inserted vectors, held in reduced row echelon form.

    rows maps pivot key -> row dict; each row has coefficient 1 at its pivot
    and pivot keys of other rows eliminated, so reduction is a single pass.
    A column index maps each non-pivot key to the pivots of the rows that
    hold it, kept exact on every change to a row, so an insert
    back-eliminates its new pivot from those rows alone.

    Subspace(field, rows) adopts rows that are already reduced this way and
    keyed by pivot, without copying them.  After that only insert writes
    them, so the index stays exact.
    """

    def __init__(self, field, rows=None):
        self.field = field
        self.rows: dict = {} if rows is None else rows
        self._cols: dict = {}
        for piv, row in self.rows.items():
            for k in row:
                if k != piv:
                    self._cols.setdefault(k, set()).add(piv)

    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """Residue of v modulo the subspace (a fresh dict)."""
        out = dict(v)
        # no row holds another row's pivot, so eliminating one pivot never
        # touches the coefficient at another: one pass clears them all
        for piv in out.keys() & self.rows.keys():
            vec_addmul(out, -out[piv], self.rows[piv])
        return out

    def insert(self, v: dict):
        """Add v to the span.  Returns the stored normalized row, or None
        when v was already in the span.

        A one-term vector {k: c} is decided by a pivot lookup.  Reduction
        changes only the coefficients at pivots, and no row holds another
        row's pivot, so the residue of {k: c} is c times the tail of the row
        with pivot k, or {k: c} itself when k is no pivot.  It is therefore
        in the span exactly when k is the pivot of a one-term row, and
        otherwise, when k is no pivot, it becomes the row {k: 1} with no
        reduction.  The pivot of a longer row takes the general path.
        """
        cols, rows = self._cols, self.rows
        tail = None
        if len(v) == 1:
            (piv,) = v
            held = rows.get(piv)
            if held is None:
                tail = []
            elif len(held) == 1:
                return None
        if tail is None:
            red = self.reduce(v)
            if not red:
                return None
            piv = min(red)
            inv = red.pop(piv).inverse()
            tail = [(k, inv * c) for k, c in red.items()]
        row = {piv: self.field.one}
        for k, x in tail:
            row[k] = x
            cols.setdefault(k, set()).add(piv)
        # piv becomes a pivot: clear it from the rows that hold it, and
        # follow every key those rows gain or lose in the index
        for p in cols.pop(piv, ()):
            other = rows[p]
            c = other.pop(piv)
            for k, x in tail:
                cur = other.get(k)
                if cur is None:
                    other[k] = -(c * x)
                    cols[k].add(p)
                else:
                    nv = cur - c * x
                    if nv.is_zero():
                        del other[k]
                        cols[k].discard(p)
                    else:
                        other[k] = nv
        rows[piv] = row
        return row

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)


def tagged_closure(field, images, seed) -> dict:
    """Smallest family of subspaces, one per tag, that holds each tagged
    seed vector and is stable under images.

    seed and images(rows) are iterables of (tag, vectors) groups, and the
    vectors of a group go into the subspace of its tag.  images receives
    the new rows of one generation as {tag: rows}, leaves them alone, and
    returns every image of them, in groups.  It gets a copy of each new
    row, as back-elimination may change the stored row later, except of a
    one-term row, which holds no other row's pivot and so never changes.
    A copy taken before such a change is harmless because the images are
    linear and the spans only ever grow.  Returns {tag: span} over the
    tags of every group.
    """
    subs: dict = {}
    pending = seed
    while True:
        new: dict = {}
        for tag, vecs in pending:
            sub = subs.get(tag)
            if sub is None:
                sub = subs[tag] = Subspace(field)
            rows = None
            for v in vecs:
                if not v:
                    continue
                row = sub.insert(v)
                if row is not None:
                    if rows is None:
                        rows = new.setdefault(tag, [])
                    rows.append(row if len(row) == 1 else dict(row))
        if not new:
            return subs
        pending = images(new)


def closure_under(field, maps, seed) -> Subspace:
    """Smallest subspace containing seed and stable under each map, which
    takes a row dict to a row dict: tagged_closure with one tag."""
    return tagged_closure(field, lambda new: [(None, (f(v) for v in new[None] for f in maps))],
                          [(None, seed)])[None]


def tagged_power_dims(field, subs: dict, step, images) -> list[int]:
    """Dimensions of eJ, eJ^2, eJ^3, ... down to 0 for a nilpotent ideal J.

    Precondition: the spans of subs, {tag: Subspace} as tagged_closure
    returns it, together make eJ, for J a two-sided ideal and e an
    idempotent or 1, and images, as in tagged_closure, gives the tagged
    images of rows under right multiplication by the algebra generators.
    step(subs) returns (tag, vectors) groups in eJ^(k+1) for the rows of
    eJ^k, held in subs as above, chosen so that their closure under images
    is eJ^(k+1).  The recurrence eJ^(k+1) = closure(step(rows of eJ^k)) then
    gives the dimensions of eJ, eJ^2, ...

    Raises if no power vanishes within dim(eJ) + 1 steps, which would mean
    J is not nilpotent.
    """
    dims = [sum(map(Subspace.dim, subs.values()))]
    while dims[-1]:
        if len(dims) > dims[0] + 1:
            raise ArithmeticError("ideal is not nilpotent within expected bound")
        # the rows are read in place: step leaves them alone, and the
        # closure below builds new subspaces
        subs = tagged_closure(field, images, step(subs))
        dims.append(sum(map(Subspace.dim, subs.values())))
    return dims


def ideal_power_dims(field, product, sub: Subspace, seeds, right_maps) -> list[int]:
    """tagged_power_dims with one tag and the step a -> a . s over the
    generators s of J, each product formed in full: the reference for the
    word steps.

    With sub = eJ and J the two-sided ideal generated by ``seeds``,
    eJ^(k+1) = closure(eJ^k . seeds) under the right maps, the right
    multiplications by the algebra generators: left factors of the ideal
    generators are absorbed into J^k, itself a two-sided ideal, and the
    closure supplies the right factors.  product multiplies two row dicts.
    """
    return tagged_power_dims(
        field, {None: sub},
        lambda subs: [(None, [product(a, s) for a in subs[None].rows.values() for s in seeds])],
        lambda new: [(None, (f(v) for v in new[None] for f in right_maps))])
