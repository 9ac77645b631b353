"""Sparse exact linear algebra over the scalar backends.

Vectors are plain dicts mapping hashable keys to nonzero scalars.  A
``Subspace`` keeps a reduced row echelon basis keyed by pivot, where pivots
are chosen minimal under a caller-supplied sort key.  Everything is exact;
no floats anywhere.
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

    def __init__(self, field, sort_key=None):
        self.field = field
        self.sort_key = sort_key if sort_key is not None else lambda k: k
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
        piv = min(red.keys(), key=self.sort_key)
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


def closure_under(field, maps, seed, sort_key=None) -> Subspace:
    """Smallest subspace containing seed and stable under each map.

    maps take a row dict to a row dict.  Worklist style; mutating already
    stored rows during back-elimination is harmless because the maps are
    linear and the span only ever grows.
    """
    sub = Subspace(field, sort_key)
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


def ideal_power_dims(field, product, sub: Subspace, seeds=None,
                     right_maps=None, sort_key=None) -> list[int]:
    """Dimensions of J, J^2, J^3, ... down to 0 for a nilpotent ideal J.

    product multiplies two row dicts.  The default path squares by brute
    force over basis pairs.  When J is the two-sided ideal generated by
    ``seeds`` and ``right_maps`` are right multiplications by algebra
    generators, the cheaper recurrence J^(k+1) = closure(J^k . seeds) under
    the right maps is used instead (left factors of the ideal generators are
    absorbed into J^k, which is itself a right ideal).

    Raises if no power vanishes within dim(J) + 1 steps, which would mean J
    is not nilpotent.
    """
    dims = [sub.dim()]
    cur = sub
    base_rows = sub.basis_rows()
    use_seeds = seeds is not None and right_maps is not None
    for _ in range(sub.dim() + 1):
        if dims[-1] == 0:
            break
        if use_seeds:
            step = [product(a, s) for a in cur.basis_rows() for s in seeds]
            nxt = closure_under(field, right_maps,
                                [v for v in step if v],
                                sort_key if sort_key is not None else sub.sort_key)
        else:
            nxt = Subspace(field, sort_key if sort_key is not None else sub.sort_key)
            seen = set()
            for a in cur.basis_rows():
                for b in base_rows:
                    prod = product(a, b)
                    if not prod:
                        continue
                    # skip exact repeats up to scaling: the normalized
                    # vector itself is the key, so equal keys mean equal lines
                    piv = min(prod.keys(), key=nxt.sort_key)
                    inv = prod[piv].inverse()
                    line = frozenset((k, inv * c) for k, c in prod.items())
                    if line in seen:
                        continue
                    seen.add(line)
                    nxt.insert(prod)
        dims.append(nxt.dim())
        cur = nxt
    else:
        if dims[-1] != 0:
            raise ArithmeticError("ideal is not nilpotent within expected bound")
    return dims
