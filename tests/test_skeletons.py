import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import blockgs
from blockgs import skeletons
from blockgs.blockcore import BlockMatrix, spectral_norm
from blockgs.harness import RunRecord, make_combo, run_single
from blockgs.matgen import MatrixClassSpec, generate
from blockgs.metrics import EPS, loo, rel_res
from blockgs.muscles import (
    CHOL_QR,
    HOUSE_QR,
    IO_BY_NAME,
    MGS,
    apply_io,
    house_qr,
)
from blockgs.skeletons import (
    SKELETONS,
    SkeletonKind,
    bcgs,
    bcgs_a,
    bcgsi_a_1s,
    bcgsi_a_2s,
    bcgsi_a_3s,
    bcgsi_plus,
    bcgsi_plus_a,
)
from blockgs.syncmodel import SyncLedger

ALL_RUNNERS = {
    "bcgs": lambda x: bcgs(x, HOUSE_QR),
    "bcgs_a": lambda x: bcgs_a(x, HOUSE_QR, HOUSE_QR),
    "bcgsi_plus": lambda x: bcgsi_plus(x, HOUSE_QR),
    "bcgsi_plus_a": lambda x: bcgsi_plus_a(x, HOUSE_QR, HOUSE_QR, HOUSE_QR),
    "bcgsi_a_3s": lambda x: bcgsi_a_3s(x, HOUSE_QR, HOUSE_QR),
    "bcgsi_a_2s": lambda x: bcgsi_a_2s(x, HOUSE_QR),
    "bcgsi_a_1s": lambda x: bcgsi_a_1s(x, HOUSE_QR),
}


def _gaussian(m=40, p=5, s=2, seed=0):
    rng = np.random.default_rng(seed)
    return BlockMatrix(rng.standard_normal((m, p * s)), s)


@pytest.mark.parametrize("name", sorted(ALL_RUNNERS))
def test_orthonormal_input_reproduced_exactly(name):
    x = BlockMatrix(np.eye(12)[:, :6].copy(), block_width=2)
    result = ALL_RUNNERS[name](x)
    assert not result.failed
    assert_allclose(result.q.data, x.data, atol=1e-15)
    assert_allclose(result.r, np.eye(6), atol=1e-15)


@pytest.mark.parametrize("name", sorted(ALL_RUNNERS))
def test_scaled_orthonormal_input(name):
    x = BlockMatrix(3.0 * np.eye(12)[:, :6], block_width=2)
    result = ALL_RUNNERS[name](x)
    assert not result.failed
    assert_allclose(result.q.data, np.eye(12)[:, :6], atol=1e-15)
    assert_allclose(result.r, 3.0 * np.eye(6), atol=1e-15)


def test_tied_aliases_are_bitwise_identical():
    x = _gaussian()
    a = bcgs(x, MGS)
    b = bcgs_a(x, MGS, MGS)
    assert a.q.data.tobytes() == b.q.data.tobytes()
    assert a.r.tobytes() == b.r.tobytes()

    c = bcgsi_plus(x, CHOL_QR)
    d = bcgsi_plus_a(x, CHOL_QR, CHOL_QR, CHOL_QR)
    assert c.q.data.tobytes() == d.q.data.tobytes()
    assert c.r.tobytes() == d.r.tobytes()


@pytest.mark.parametrize("name", sorted(ALL_RUNNERS))
def test_single_block_degenerates_to_one_muscle_call(name):
    rng = np.random.default_rng(9)
    data = rng.standard_normal((10, 3))
    x = BlockMatrix(data.copy(), block_width=3)
    result = ALL_RUNNERS[name](x)
    direct = apply_io(HOUSE_QR, data)
    assert_allclose(result.q.data, direct.q)
    assert_allclose(result.r, direct.r)
    assert result.ledger.total == HOUSE_QR.sync_cost(3)


def test_one_sync_equals_two_sync_at_two_blocks():
    # With no interior blocks there is nothing to look ahead to, so the
    # one-sync and two-sync loops execute the same operations verbatim.
    x = _gaussian(m=30, p=2, s=3, seed=4)
    a = bcgsi_a_1s(x, HOUSE_QR)
    b = bcgsi_a_2s(x, HOUSE_QR)
    assert a.q.data.tobytes() == b.q.data.tobytes()
    assert a.r.tobytes() == b.r.tobytes()
    assert a.ledger.total == b.ledger.total == HOUSE_QR.sync_cost(3) + 2


@pytest.mark.parametrize("name", sorted(ALL_RUNNERS))
def test_failure_propagates_but_every_block_executes(name):
    x = _gaussian(m=24, p=4, s=2, seed=1)
    x.data[5, 3] = np.nan  # poison block 2
    result = ALL_RUNNERS[name](x)
    assert result.failed
    # Block 1 is clean, everything from block 2 on is NaN.
    assert np.isfinite(result.q.block(1)).all()
    for k in (2, 3, 4):
        assert np.isnan(result.q.block(k)).all(), (name, k)
    # The loop still ran to completion: the ledger covers all blocks.
    assert result.ledger.block_total(4) >= 1


def test_exactly_dependent_block_fails_cholesky_paths():
    data = np.zeros((8, 3))
    data[0, 0] = 1.0
    data[0, 1] = 1.0  # duplicate of column 1: deflates to exactly zero
    data[1, 2] = 1.0
    x = BlockMatrix(data, block_width=1)
    for runner in (
        lambda: bcgs(x, CHOL_QR),
        lambda: bcgsi_a_2s(x, CHOL_QR),
        lambda: bcgsi_a_1s(x, CHOL_QR),
    ):
        result = runner()
        assert result.failed
        assert np.isnan(result.q.block(2)).all()


@pytest.mark.parametrize("name", sorted(ALL_RUNNERS))
def test_r_is_upper_triangular(name):
    x = _gaussian(m=36, p=4, s=3, seed=7)
    result = ALL_RUNNERS[name](x)
    assert_allclose(result.r, np.triu(result.r), atol=0.0)
    assert np.all(np.diag(result.r) > 0.0)


@pytest.mark.parametrize("name", sorted(ALL_RUNNERS))
def test_r_matches_unique_factorization(name):
    # All variants target the same QR factorization; with the positive
    # diagonal convention R is unique, so each must agree with a direct
    # Householder factorization of the whole matrix.
    x = _gaussian(m=60, p=5, s=3, seed=13)
    result = ALL_RUNNERS[name](x)
    reference = house_qr(x.data)
    scale = spectral_norm(x.data)
    assert_allclose(result.r, reference.r, atol=1e-12 * scale)
    assert_allclose(result.q.data, reference.q, atol=1e-11)


@pytest.mark.parametrize("name", sorted(ALL_RUNNERS))
def test_well_conditioned_stability(name):
    x = _gaussian(m=80, p=8, s=2, seed=21)
    result = ALL_RUNNERS[name](x)
    assert not result.failed
    assert loo(result.q) <= 1e-13
    assert rel_res(x, result.q, result.r) <= 1e-13


def test_one_sync_lookahead_coefficients_match_direct_projection(monkeypatch):
    # The look-ahead coefficients s_next of block k+1, recovered by a
    # triangular solve at block k, must agree with the plain projection
    # Q_1..k^T X_{k+1}.  The next batch measures the difference: its Y part
    # is Q_1..k^T V_{k+1} = Q_1..k^T X_{k+1} - s_next (Q orthonormal).
    batches = []
    real_reduce = SyncLedger.reduce

    def spy(self, block, label, left, right):
        out = real_reduce(self, block, label, left, right)
        if label == "batch":
            batches.append((block, out))
        return out

    monkeypatch.setattr(SyncLedger, "reduce", spy)
    s = 2
    x = _gaussian(m=50, p=5, s=s, seed=17)
    result = bcgsi_a_1s(x, HOUSE_QR)
    assert not result.failed
    assert [block for block, _ in batches] == [2, 3, 4, 5]
    for block, out in batches[1:]:
        lo = (block - 1) * s
        assert spectral_norm(out[:lo, :s]) <= 1e-12, block


def test_no_module_but_skeletons_names_a_skeleton_kind():
    # Every fact about a variant lives in its SKELETONS entry, so no other
    # module branches on (or otherwise names) a SkeletonKind member.
    offenders = []
    for path in sorted(Path(blockgs.__file__).parent.glob("*.py")):
        if path.name == "skeletons.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr in SkeletonKind.__members__
            ):
                continue
            # SkeletonKind.X or <module>.SkeletonKind.X
            value = node.value
            owner = getattr(value, "attr", getattr(value, "id", None))
            if owner == "SkeletonKind":
                offenders.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert offenders == []


def test_skeletons_share_one_block_loop():
    # Every variant is a per-block step handed to ``_run``: only the driver
    # builds a ledger or a result, and the module has one block loop.
    tree = ast.parse(Path(skeletons.__file__).read_text())
    owners = {
        id(node): func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
    }
    built = sorted(
        (node.func.id, owners.get(id(node), "<module>"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("SyncLedger", "BGSResult")
    )
    assert built == [("BGSResult", "_run"), ("SyncLedger", "_run")]
    loops = [
        owners.get(id(node), "<module>")
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.While))
    ]
    assert loops == ["_run"]


def test_reorthogonalized_variants_beat_low_sync_on_hard_matrix():
    # On a Krylov-style matrix near kappa ~ 1e12 the fully
    # reorthogonalized loop is the most accurate, the three-sync loop is
    # close behind, and the one-sync loop trails but still holds its
    # envelope.  Frozen ordering from the characterization runs.
    spec = MatrixClassSpec("monomial", m=100, p=10, s=5, seed=42, t=10)
    x = generate(spec)
    best = bcgsi_plus_a(x, HOUSE_QR, CHOL_QR, CHOL_QR)
    mid = bcgsi_a_3s(x, CHOL_QR, CHOL_QR)
    low = bcgsi_a_1s(x, HOUSE_QR)
    assert not (best.failed or mid.failed or low.failed)
    assert loo(best.q) <= 10.0 * loo(mid.q)
    assert loo(mid.q) <= 100.0 * loo(low.q)
    assert loo(best.q) <= 100.0 * EPS


def test_rejects_plain_ndarray():
    with pytest.raises(TypeError, match="BlockMatrix"):
        bcgs(np.eye(4), HOUSE_QR)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(ALL_RUNNERS)),
    p=st.integers(min_value=1, max_value=5),
    s=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_factorization_property(seed, name, p, s):
    rng = np.random.default_rng(seed)
    x = BlockMatrix(rng.standard_normal((6 * p * s + 5, p * s)), s)
    result = ALL_RUNNERS[name](x)
    assert not result.failed
    assert loo(result.q) <= 1e-12
    assert rel_res(x, result.q, result.r) <= 1e-12
    assert_allclose(result.r, np.triu(result.r), atol=0.0)


# Every skeleton with every muscle in each of its slots (the tied aliases
# take one muscle for all of them).
ALL_CHOICES = [
    (kind, dict(zip(spec.slots, ios)))
    for kind, spec in SKELETONS.items()
    for ios in itertools.product(
        IO_BY_NAME.values(), repeat=1 if spec.tied else len(spec.slots)
    )
]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.integers(min_value=1, max_value=3),
    s=st.integers(min_value=1, max_value=3),
    extra_rows=st.sampled_from([0, 3]),
    shape=st.sampled_from(["gaussian", "zero block", "copied block", "zero"]),
    zeroed=st.integers(min_value=1, max_value=3),
    exponent=st.sampled_from([-900, 0, 900]),
)
@settings(max_examples=15, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at 2**900
def test_degenerate_inputs_fail_cleanly(
    seed, p, s, extra_rows, shape, zeroed, exponent
):
    # Square and single-column blocks, zero or repeated blocks, entries near
    # the ends of the exponent range and an all-zero X: no skeleton raises,
    # ``failed`` is set exactly when Q holds a non-finite entry, and
    # ``run_single`` still returns a row.
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((p * s + extra_rows, p * s))
    if shape == "zero block":
        k = min(zeroed, p)
        data[:, (k - 1) * s : k * s] = 0.0
    elif shape == "copied block":
        data[:, (p - 1) * s :] = data[:, :s]
    elif shape == "zero":
        data[:] = 0.0
    x = BlockMatrix(np.ldexp(data, exponent), s)
    for kind, muscles in ALL_CHOICES:
        run = getattr(skeletons, kind.value)
        result = run(x, *muscles.values())
        finite = np.isfinite(result.q.data).all()
        assert result.failed == (not finite), (kind, muscles)
        rec = run_single(x, make_combo(kind, **muscles))
        assert isinstance(rec, RunRecord)
        assert rec.failed == result.failed
