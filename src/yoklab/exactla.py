"""Sparse exact linear algebra over the scalar backends.

Vectors are plain dicts mapping hashable, mutually comparable keys to
nonzero scalars.  A ``Subspace`` keeps a reduced row echelon basis keyed by
pivot, each pivot the least key of its row.  ``closure_under`` grows a span
until it is stable under linear maps, and ``ideal_power_dims`` runs the one
recurrence for the powers of an ideal given by generators, shared by the Y,
AKS and nil engines.  Everything is exact; no floats anywhere.
"""

from __future__ import annotations

__all__ = [
    "vec_addmul",
    "Subspace",
    "closure_under",
    "invertible",
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
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}

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
        when v was already in the span."""
        red = self.reduce(v)
        if not red:
            return None
        piv = min(red)
        inv = red[piv].inverse()
        row = {k: inv * c for k, c in red.items()}
        row[piv] = self.field.one
        for other in self.rows.values():
            c = other.get(piv)
            if c is not None:
                vec_addmul(other, -c, row)
        self.rows[piv] = row
        return row

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def basis_rows(self) -> list[dict]:
        return [dict(r) for r in self.rows.values()]


def closure_under(field, maps, seed) -> Subspace:
    """Smallest subspace containing seed and stable under each map.

    maps take a row dict to a row dict.  Worklist style; mutating already
    stored rows during back-elimination is harmless because the maps are
    linear and the span only ever grows.
    """
    sub = Subspace(field)
    work = []
    for v in seed:
        row = sub.insert(v)
        if row is not None:
            work.append(dict(row))
    while work:
        v = work.pop()
        for f in maps:
            img = f(v)
            if not img:
                continue
            row = sub.insert(img)
            if row is not None:
                work.append(dict(row))
    return sub


def invertible(field, rows) -> bool:
    """A matrix, given as a list of scalar lists, is invertible when it is
    square and every row inserts into a Subspace (no row depends on the
    rows before it)."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        return False
    sub = Subspace(field)
    return all(sub.insert({j: c for j, c in enumerate(row) if not c.is_zero()})
               is not None for row in rows)


def _one_grade(vec) -> None:
    return None


def ideal_power_dims(field, product, sub: Subspace, seeds, right_maps, *,
                     right_key=_one_grade, left_key=_one_grade) -> list[int]:
    """Dimensions of J, J^2, J^3, ... down to 0 for a nilpotent ideal J.

    Precondition: sub is J, the two-sided ideal generated by ``seeds``, or
    its part eJ for an idempotent e, and ``right_maps`` are the right
    multiplications by the algebra generators.  Then
    eJ^(k+1) = closure(eJ^k . seeds) under the right maps: left factors of
    the ideal generators are absorbed into J^k, itself a two-sided ideal,
    and the closure supplies the right factors.  The dimensions returned
    are those of eJ, eJ^2, ...  product multiplies two row dicts.

    The step products are graded: a row a of J^k is multiplied only by the
    seeds s with left_key(s) == right_key(a).  A caller passes keys only
    when every other product is zero, as for rows and seeds that each have
    one (left color, right color) pair, where E_a E_b = 0 for colors a != b
    kills a product whose inner colors differ.  The default keys put
    everything in one grade, so every row meets every seed.

    Raises if no power vanishes within dim(eJ) + 1 steps, which would mean
    J is not nilpotent.
    """
    graded: dict = {}
    for s in seeds:
        graded.setdefault(left_key(s), []).append(s)
    dims = [sub.dim()]
    cur = sub
    while dims[-1]:
        if len(dims) > dims[0] + 1:
            raise ArithmeticError("ideal is not nilpotent within expected bound")
        # the rows are read in place: product leaves its factors alone, and
        # the closure below builds a new Subspace
        step = [product(a, s) for a in cur.rows.values()
                for s in graded.get(right_key(a), ())]
        cur = closure_under(field, right_maps, [v for v in step if v])
        dims.append(cur.dim())
    return dims
