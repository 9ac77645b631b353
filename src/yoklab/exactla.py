"""Sparse exact linear algebra over the scalar backends.

Vectors are plain dicts mapping hashable keys to nonzero scalars.  A
``Subspace`` keeps a reduced row echelon basis keyed by pivot, where pivots
are chosen minimal under a caller-supplied sort key.  Everything is exact;
no floats anywhere.
"""

from __future__ import annotations

__all__ = [
    "vec_addmul",
    "vec_scale",
    "Subspace",
    "echelonize",
    "closure_under",
    "quotient_coordinates",
    "matrix_rank",
    "invertible",
    "ideal_power_dims",
]


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


def vec_scale(v: dict, coeff) -> dict:
    if coeff.is_zero():
        return {}
    return {k: coeff * x for k, x in v.items()}


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
        for piv in list(out.keys() & self.rows.keys()):
            c = out.get(piv)
            if c is not None and not c.is_zero():
                vec_addmul(out, -c, self.rows[piv])
        # eliminating one pivot can reintroduce another
        while True:
            hit = out.keys() & self.rows.keys()
            if not hit:
                return out
            for piv in hit:
                vec_addmul(out, -out[piv], self.rows[piv])

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

    def copy(self) -> "Subspace":
        out = Subspace(self.field, self.sort_key)
        out.rows = {p: dict(r) for p, r in self.rows.items()}
        return out


def echelonize(field, vectors, sort_key=None) -> Subspace:
    sub = Subspace(field, sort_key)
    for v in vectors:
        sub.insert(v)
    return sub


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


def quotient_coordinates(sub: Subspace, ambient_keys, v: dict):
    """Coordinates of v's residue on the non-pivot keys, in ambient order."""
    red = sub.reduce(v)
    zero = sub.field.zero
    return tuple(red.get(k, zero) for k in ambient_keys if k not in sub.rows)


def matrix_rank(field, rows) -> int:
    """Exact rank of a dense matrix given as a list of scalar lists."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if not mat[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [inv * x for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and not mat[i][col].is_zero():
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def invertible(field, rows) -> bool:
    n = len(rows)
    return n > 0 and all(len(r) == n for r in rows) and matrix_rank(field, rows) == n


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
