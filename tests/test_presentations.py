"""The presentation checks: their relation lists and their power to fail.

The relation names and their order are pinned in relation_names.json.  The
mutant tests install a broken piece of an engine with monkeypatch and show
that the presentation which exercises that piece reports a residual, so a
check that always passes would not go unnoticed.
"""

import json
from pathlib import Path

import pytest

from yoklab import AKSAlgebra, NilAlgebra, YAlgebra, ycore
from yoklab.algebra import SparseElement
from yoklab import symgroup as sg
from yoklab.exactla import _acc

import _helpers as H

PINNED = json.loads((Path(__file__).parent / "relation_names.json").read_text())


def _names(report) -> list:
    return [item["name"] for item in report["relations"]]


@pytest.mark.parametrize("r, n", [(2, 2), (2, 3)])
def test_relation_names_pinned(r, n):
    size = f"{r},{n}"
    y = H.yalg(r, n, H.FP13)
    assert _names(y.verify_presentation(1)) == PINNED["1"][size]
    assert _names(y.verify_presentation(2)) == PINNED["2"][size]
    assert _names(H.aksalg(r, n, H.FP13).verify_presentation()) == PINNED["4"][size]
    assert _names(H.nilalg(r, n, H.FP13).verify_presentation()) == PINNED["nil"][size]


def _fresh_y(r, n, kind=H.FP13, q=0):
    # a new instance, so no product cache filled by the unbroken engine
    return YAlgebra(r, n, field=H.field(kind, r), q=q)


def _failed(report) -> list:
    return [item["name"] for item in report["relations"] if not item["zero"]]


def _caught(monkeypatch, check, *mutants) -> list:
    """The residuals check() reports once each (owner, name, value) in
    mutants is installed; check() must report none before that."""
    assert check()["all_zero"]
    for owner, name, value in mutants:
        monkeypatch.setattr(owner, name, value)
    return _failed(check())


@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_conjugated_forward_transform_is_caught(monkeypatch, kind):
    # t^a = sum_chi zeta^(-a.chi) E_chi: a relabelling chi -> -chi that is
    # invisible at r = 2, where zeta is real
    slot = ycore._slot_transform

    def conjugated(field, r, colors, terms):
        return slot(field, r, len(colors[0]), terms, range(1, r + 1), -1)

    assert _caught(monkeypatch, lambda: _fresh_y(3, 2, kind).verify_presentation(2),
                   (ycore, "torus_to_E", conjugated))


@pytest.mark.parametrize("which", [1, 2, "nil"])
@pytest.mark.parametrize("r, n", [(2, 3), (3, 2)])
def test_presentations_cross_to_E_once_per_operand(monkeypatch, which, r, n):
    # every operand is built in its exponent basis and crosses to E once;
    # products and residuals stay in E, so nothing is transformed back
    if which == "nil":
        alg = NilAlgebra(r, n, field=H.field(H.FP13, r))
        check = alg.verify_presentation
    else:
        alg = _fresh_y(r, n)
        check = lambda: alg.verify_presentation(which)
    forward, backward, init = ycore.torus_to_E, ycore.torus_to_T, SparseElement.__init__
    calls, built = {"E": 0, "T": 0}, set()

    def counted(tag, transform):
        def wrapped(*args):
            calls[tag] += 1
            return transform(*args)
        return wrapped

    def recording(self, owner, basis, terms):
        init(self, owner, basis, terms)
        if basis != owner.mul_basis:
            built.add(frozenset(terms.items()))

    monkeypatch.setattr(ycore, "torus_to_E", counted("E", forward))
    monkeypatch.setattr(ycore, "torus_to_T", counted("T", backward))
    monkeypatch.setattr(SparseElement, "__init__", recording)
    assert check()["all_zero"]
    assert calls["T"] == 0
    assert 0 < calls["E"] <= len(built)


@pytest.mark.parametrize("q", [0, 5])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
@pytest.mark.parametrize("r, n", [(2, 3), (3, 3), (2, 4)])
def test_presentation_2_matches_residues_in_T_oracle(r, n, kind, q):
    assert (_fresh_y(r, n, kind, q).verify_presentation(2)
            == H.presentation_2_in_T(_fresh_y(r, n, kind, q)))


@pytest.mark.parametrize("r, n", [(2, 2), (3, 2), (2, 3)])
def test_skipped_slot_pass_is_caught(monkeypatch, r, n):
    slot = ycore._slot_transform

    def skip_last_slot(field, r, n, terms, targets, sign):
        return slot(field, r, n - 1, terms, targets, sign)

    assert _caught(monkeypatch, lambda: _fresh_y(r, n).verify_presentation(2),
                   (ycore, "_slot_transform", skip_last_slot))


def _drop_own_key(method):
    """method, minus the q - 1 term: the only output term that lands on
    the key of the input monomial it came from."""
    def mutant(self, terms, i):
        out: dict = {}
        for key, coeff in terms.items():
            for k, v in method(self, {key: coeff}, i).items():
                if k != key:
                    _acc(out, k, v)
        return out
    return mutant


@pytest.mark.parametrize("q", [0, 5])
def test_dropped_quadratic_term_is_caught(monkeypatch, q):
    failed = _caught(monkeypatch, lambda: _fresh_y(2, 3, q=q).verify_presentation(1),
                     *[(YAlgebra, name, _drop_own_key(getattr(YAlgebra, name)))
                       for name in ("_lmul_g", "_rmul_g")])
    assert "g1^2 = q + (q-1) e1 g1" in failed


@pytest.mark.parametrize("q", [0, 5])
def test_engine_mutant_reports_match_residues_in_T_oracle(monkeypatch, q):
    # with a sound transform a residual is zero in E exactly when it is zero
    # in T, so a broken product engine fails the same relations on both routes
    for name in ("_lmul_g", "_rmul_g"):
        monkeypatch.setattr(YAlgebra, name, _drop_own_key(getattr(YAlgebra, name)))
    report = _fresh_y(2, 3, q=q).verify_presentation(2)
    assert not report["all_zero"]
    assert report == H.presentation_2_in_T(_fresh_y(2, 3, q=q))


@pytest.mark.parametrize("name, value", [("qm1", -1), ("q", 1)])
@pytest.mark.parametrize("r, n, kind", [(2, 3, H.FP13), (3, 3, H.CYC)])
def test_nonzero_quadratic_pair_is_caught(monkeypatch, name, value, r, n, kind):
    # the nil algebra is the Y engine at (q, q - 1) = (0, 0); either entry
    # made nonzero gives Y at q = 0 or the group algebra, where T_i^2 != 0.
    # The pair is fixed at construction, so the mutant patches its stored
    # entry, _q or _qm1
    def fresh():
        return NilAlgebra(r, n, field=H.field(kind, r))

    assert fresh().verify_presentation()["all_zero"]
    alg = fresh()
    monkeypatch.setattr(alg, "_" + name, alg.field.from_int(value))
    assert _failed(alg.verify_presentation()) == [f"T{i}^2 = 0" for i in range(1, n)]


@pytest.mark.parametrize("q", [0, 5])
def test_flipped_straightening_sign_is_caught(monkeypatch, q):
    lmul_h = AKSAlgebra._lmul_h

    def flipped(self, terms, i):
        # subtract the straightening term twice: D_i(c) enters with the
        # opposite sign
        out = lmul_h(self, terms, i)
        twice = self.field.from_int(2) * self.qm1
        for (c, w), a in terms.items():
            if c[i - 1] < c[i]:
                _acc(out, (c, w), -(a * twice))
            elif c[i - 1] > c[i]:
                _acc(out, (sg.right_mult_s(c, i), w), a * twice)
        return out

    assert _caught(monkeypatch,
                   lambda: AKSAlgebra(2, 3, field=H.field(H.FP13, 2), q=q).verify_presentation(),
                   (AKSAlgebra, "_lmul_h", flipped))
