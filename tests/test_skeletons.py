import ast
import itertools
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import blockgs
from blockgs import harness, skeletons
from blockgs.blockcore import (
    BlockMatrix,
    project_out,
    spectral_norm,
    tri_solve_right,
    zero_pivot,
)
from blockgs.harness import RunRecord, make_combo, run_single
from blockgs.matgen import gen_default, gen_monomial
from blockgs.metrics import EPS, loo, rel_res
from blockgs.muscles import (
    CHOL_QR,
    HOUSE_QR,
    IO_BY_NAME,
    MGS,
    apply_io,
    chol_free,
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
    direct = apply_io(HOUSE_QR, data, ledger=SyncLedger(), block=1)
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
    assert any(e.block == 4 for e in result.ledger.events)


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


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("runner", [bcgsi_a_2s, bcgsi_a_1s])
def test_batches_are_views_of_the_q_workspace(monkeypatch, runner, s):
    # The batched products [Q_prev, V]^T V and [Q_prev, V]^T [V, X_{k+1}]
    # read their factors where the block loop keeps them: both operands are
    # views of the one Q workspace, and the product is bitwise the one
    # formed from contiguous copies (the BLAS call differs only in its
    # leading dimension).  The check runs inside the spy, since the loop
    # overwrites those slots afterwards.  At s = 1 the right operand is a
    # single column and numpy takes a matrix-vector path instead, whose
    # rounding does depend on the layout; that is why s starts at 2 here.
    checked = []
    real_reduce = SyncLedger.reduce

    def spy(self, block, label, left, right):
        out = real_reduce(self, block, label, left, right)
        if label == "batch":
            copies = np.ascontiguousarray(left).T @ np.ascontiguousarray(right)
            checked.append(
                (
                    block,
                    left.base is not None and left.base is right.base,
                    left.base.shape == (50, 5 * s),
                    not (left.flags.owndata or right.flags.owndata),
                    out.tobytes() == copies.tobytes(),
                )
            )
        return out

    monkeypatch.setattr(SyncLedger, "reduce", spy)
    x = _gaussian(m=50, p=5, s=s, seed=23)
    assert not runner(x, HOUSE_QR).failed
    assert [c[0] for c in checked] == [2, 3, 4, 5]
    assert all(all(c[1:]) for c in checked), checked


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


def test_batched_product_and_combo_rules_are_stated_once():
    # The one- and two-sync steps share one batched-product site, the fused
    # normalization, and a combo's slot rules live in Combo alone.
    tree = ast.parse(Path(skeletons.__file__).read_text())
    owners = {
        id(node): func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
    }
    batch_sites = [
        owners.get(id(node), "<module>")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "reduce"
        and getattr(node.func.value, "id", None) == "ledger"
        and any(getattr(arg, "value", None) == "batch" for arg in node.args)
    ]
    assert batch_sites == ["_fused_normalization"]
    harness_tree = ast.parse(Path(harness.__file__).read_text())
    defined = {
        node.name
        for node in ast.walk(harness_tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "_validate_combo" not in defined


def test_reorthogonalized_variants_beat_low_sync_on_hard_matrix():
    # On a Krylov-style matrix near kappa ~ 1e12 the fully
    # reorthogonalized loop is the most accurate, the three-sync loop is
    # close behind, and the one-sync loop trails but still holds its
    # envelope.  Frozen ordering from the characterization runs.
    x = gen_monomial(100, 10, 5, 42, t=10)
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
def test_degenerate_inputs_fail_cleanly(
    seed, p, s, extra_rows, shape, zeroed, exponent
):
    # Square and single-column blocks, zero or repeated blocks, entries near
    # the ends of the exponent range and an all-zero X: no skeleton raises,
    # ``failed`` is set exactly when Q or R holds a non-finite entry, and
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
        finite = all(np.isfinite(a).all() for a in (result.q.data, result.r))
        assert result.failed == (not finite), (kind, muscles)
        rec = run_single(x, make_combo(kind, **muscles))
        assert isinstance(rec, RunRecord)
        assert rec.failed == result.failed


@pytest.mark.parametrize("kind", list(SkeletonKind), ids=lambda k: k.value)
@pytest.mark.parametrize("muscle", sorted(IO_BY_NAME))
def test_non_finite_input_fails_without_warnings(kind, muscle):
    # Breakdown is data also when warnings are errors: an inf in the first
    # block or a later one makes the run fail, never raise.
    spec = SKELETONS[kind]
    muscles = [IO_BY_NAME[muscle]] * (1 if spec.tied else len(spec.slots))
    for col in (1, 7):
        data = _gaussian(m=30, p=4, s=3).data.copy()
        data[5, col] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = getattr(skeletons, kind.value)(
                BlockMatrix(data, 3), *muscles
            )
        assert result.failed, col


@pytest.mark.parametrize("kind", list(SkeletonKind), ids=lambda k: k.value)
@pytest.mark.parametrize("muscle", sorted(IO_BY_NAME))
def test_q_workspace_is_written_before_it_is_read(monkeypatch, kind, muscle):
    # The block loop takes its Q workspace from np.empty: whatever the
    # memory held, every slot is written before it is read or scanned, so
    # a NaN-filled and a 7.0-filled workspace give the same bits, also for
    # a run that breaks down at block 2.
    spec = SKELETONS[kind]
    muscles = [IO_BY_NAME[muscle]] * (1 if spec.tied else len(spec.slots))
    for poisoned in (False, True):
        x = gen_default(30, 4, 3, 5, kappa=1e2)
        if poisoned:
            x.data[5, 4] = np.nan
        results = []
        for fill in (np.nan, 7.0):
            proxy = types.ModuleType("numpy")
            proxy.__dict__.update(
                vars(np),
                empty=lambda *a, fill=fill, **k: np.full(*a, fill, **k),
            )
            monkeypatch.setattr(skeletons, "np", proxy)
            results.append(getattr(skeletons, kind.value)(x, *muscles))
        first, second = results
        assert first.failed == second.failed == poisoned
        assert first.q.data.tobytes(order="A") == second.q.data.tobytes(
            order="A"
        )
        assert first.r.tobytes() == second.r.tobytes()
        assert first.ledger.events == second.ledger.events


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    s=st.integers(min_value=1, max_value=8),
    blocks=st.integers(min_value=1, max_value=5),
    extra_rows=st.integers(min_value=0, max_value=200),
    layout=st.sampled_from("CF"),
    standalone=st.booleans(),
    batched=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_tall_products_keep_the_bits_of_the_row_major_products(
    seed, s, blocks, extra_rows, layout, standalone, batched
):
    # The oracle is each product as written, ``left.T @ right`` and
    # ``x - q @ c``, on operands that are views of a row-major workspace.
    # The code under test gets the same values as views of a workspace in
    # ``layout`` at the same column offsets, or as standalone copies.
    rng = np.random.default_rng(seed)
    lo = blocks * s
    rows = rng.standard_normal(((blocks + 2) * s + extra_rows, lo + 2 * s))
    work = np.array(rows, order=layout)
    # proj: Q_prev^T X_k; batch: [Q_prev, V_k]^T [V_k, X_{k+1}].
    hi, width = (lo + s, 2 * s) if batched else (lo, s)
    left, right = work[:, :hi], work[:, lo : lo + width]
    if standalone:
        left = np.array(left, order=layout)
        right = np.array(right, order=layout)
    got = SyncLedger().reduce(2, "batch", left, right)
    want = rows[:, :hi].T @ rows[:, lo : lo + width]
    assert got.flags.c_contiguous
    if 1 in (hi, width):
        # A single-column operand makes numpy call gemv instead of gemm,
        # and gemv's rounding depends on the orientation and memory layout
        # of its operands (that of ``left.T @ right`` itself does too).
        # The two then agree to the rounding bound of an m-term sum.
        bound = 2 * len(rows) * EPS * (np.abs(left).T @ np.abs(right))
        assert np.all(np.abs(got - want) <= bound)
    else:
        assert got.tobytes() == want.tobytes()

    x, q = work[:, lo : lo + s], work[:, :lo]
    c = rng.standard_normal((lo, s))
    got = project_out(x, q, c)
    want = rows[:, lo : lo + s] - rows[:, :lo] @ c
    if s >= 5:
        assert got.tobytes() == want.tobytes()
    else:
        # Below five columns OpenBLAS takes a different kernel for the
        # s-by-m product ``c.T @ q.T`` than for the m-by-s ``q @ c``, so
        # the dot products may round in another order: the two agree to
        # the rounding bound of a lo-term sum, not bit for bit.
        scale = np.abs(x) + np.abs(q) @ np.abs(c)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("name", sorted(ALL_RUNNERS))
def test_the_result_q_is_the_column_major_workspace(monkeypatch, name):
    # The block loop writes Q into a column-major workspace that the result
    # wraps as it is: BlockMatrix keeps a Fortran-ordered array uncopied.
    seen = []
    real_reduce = SyncLedger.reduce

    def spy(self, block, label, left, right):
        seen.append(left.base)
        return real_reduce(self, block, label, left, right)

    monkeypatch.setattr(SyncLedger, "reduce", spy)
    result = ALL_RUNNERS[name](_gaussian(m=40, p=4, s=3, seed=5))
    assert seen and all(base is result.q.data for base in seen)
    assert result.q.data.flags.f_contiguous


def _cholesky_cleanup(qprev, v, y_col, omega):
    """The fused step's Cholesky cleanup, restated: (Y_kk, Q_k, failed)."""
    fac = chol_free(omega - y_col.T @ y_col)
    if fac.failed or zero_pivot(fac.r):
        return fac.r, np.full(v.shape, np.nan), True
    return fac.r, tri_solve_right(project_out(v, qprev, y_col), fac.r), False


def _copy_holding_fused_normalization(ledger, k, q, lo, v):
    """The fused normalization with V held as its own array and copied
    into block k's slot, the form the slot-deflating steps replace."""
    hi = lo + v.shape[1]
    q[:, lo:hi] = v
    prods = ledger.reduce(k, "batch", q[:, :hi], q[:, lo:hi])
    y_col, omega = prods[:lo, :], prods[lo:, :]
    return (y_col, *_cholesky_cleanup(q[:, :lo], v, y_col, omega))


def _copy_holding_2s(x, io_a):
    def step(ledger, k, q, lo, xk):
        s_col = ledger.reduce(k, "proj", q[:, :lo], xk)
        v = project_out(xk, q[:, :lo], s_col)
        y_col, y_kk, qk, _ = _copy_holding_fused_normalization(
            ledger, k, q, lo, v
        )
        return s_col + y_col, y_kk, qk

    return skeletons._run(x, io_a, step)


def _copy_holding_1s(x, io_a):
    s = x.block_width
    carried = {}

    def step(ledger, k, q, lo, xk):
        qprev = q[:, :lo]
        if k == 2:
            s_col = ledger.reduce(1, "proj", qprev, xk)
        else:
            s_col = carried["s_next"]
        v = project_out(xk, qprev, s_col)
        if k == x.block_count:
            y_col, y_kk, qk, _ = _copy_holding_fused_normalization(
                ledger, k, q, lo, v
            )
            return s_col + y_col, y_kk, qk
        hi = lo + s
        q[:, lo:hi] = v
        q[:, hi : hi + s] = x.block(k + 1)
        prods = ledger.reduce(k, "batch", q[:, :hi], q[:, lo : hi + s])
        y_col, z_blk = prods[:lo, :s], prods[:lo, s:]
        omega, p_blk = prods[lo:, :s], prods[lo:, s:]
        y_kk, qk, failed = _cholesky_cleanup(qprev, v, y_col, omega)
        if failed:
            bottom = np.full((s, s), np.nan)
        else:
            bottom = skeletons.tri_solve_left_transposed(
                y_kk, p_blk - y_col.T @ z_blk
            )
        carried["s_next"] = np.vstack([z_blk, bottom])
        return s_col + y_col, y_kk, qk

    return skeletons._run(x, io_a, step)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.integers(min_value=2, max_value=6),
    s=st.integers(min_value=1, max_value=7),
    extra_rows=st.integers(min_value=0, max_value=60),
    kappa=st.sampled_from([1e1, 1e6, 1e10, 1e15]),
    io_a=st.sampled_from(sorted(IO_BY_NAME)),
    one_sync=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_low_sync_steps_deflating_into_the_slot_keep_every_bit(
    seed, p, s, extra_rows, kappa, io_a, one_sync
):
    # The two- and one-sync steps deflate V_k straight into block k's
    # workspace slot and read it there; the reference holds V_k as its own
    # array and copies it in.  Q (NaNs included), R and the ledger agree
    # bit for bit, breakdowns included.
    x = gen_default(p * s + extra_rows, p, s, seed, kappa=kappa)
    if one_sync:
        got, want = bcgsi_a_1s, _copy_holding_1s
    else:
        got, want = bcgsi_a_2s, _copy_holding_2s
    got, want = got(x, IO_BY_NAME[io_a]), want(x, IO_BY_NAME[io_a])
    assert got.failed == want.failed
    assert got.q.data.tobytes(order="A") == want.q.data.tobytes(order="A")
    assert got.r.tobytes() == want.r.tobytes()
    assert got.ledger.events == want.ledger.events
