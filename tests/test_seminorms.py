import math

import numpy as np
import pytest

from anisospec import (
    InputError,
    InvalidSeminormError,
    QuadraticSeminorm,
    Rank1Seminorm,
)
from anisospec.seminorms import seminorm_from_json, seminorm_to_json
from conftest import compose, oracle_quadratic_canonical


def random_rotation(rng, d):
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Q


def signed_zero_permutation(rng, d):
    """A random permutation matrix with random signs on every entry, -0.0 included."""
    P = np.eye(d)[rng.permutation(d)]
    return np.copysign(P, rng.choice([-1.0, 1.0], size=(d, d)))


def tied_rotation(rng, d):
    """An orthogonal matrix with |entries| tied within a column: the 2 x 2
    rotation by pi/4 or 3 pi/4 built from sqrt(1/2), so the ties are exact,
    embedded at a random position for d = 3, with random column signs."""
    c = math.sqrt(0.5)
    B = np.array([[c, -c], [c, c]] if rng.uniform() < 0.5 else [[-c, -c], [c, -c]])
    R = B if d == 2 else np.eye(3)
    if d == 3:
        i, j = sorted(rng.choice(3, size=2, replace=False))
        R[np.ix_([i, j], [i, j])] = B
    return R * rng.choice([-1.0, 1.0], size=d)


def canonical_form_inputs(rng, count):
    """(rotation, alphas) pairs for d = 1, 2, 3: random, signed-zero, tied
    and family rotations (theta on a grid of pi/8, so pi/4 and 3 pi/4 too),
    with alphas that are random, drawn from {0, -0, 0.5, 1} (ties and signed
    zeros), already descending or ascending."""
    for k in range(count):
        d = 1 + k % 3
        kind = k // 3 % 5
        if kind == 0:
            R = None
        elif kind == 1:
            R = random_rotation(rng, d)
        elif kind == 2:
            R = signed_zero_permutation(rng, d)
        elif kind == 3 and d > 1:
            R = tied_rotation(rng, d)
        else:
            t = int(rng.integers(8)) * math.pi / 8
            R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) if d == 2 else random_rotation(rng, d)
        a = rng.uniform(0.0, 2.0, size=d) if k % 2 else rng.choice([0.0, -0.0, 0.5, 1.0], size=d)
        order = k // 15 % 3
        if order:
            a = np.sort(a)[::-1] if order == 1 else np.sort(a)
        yield R, (a.tolist() if k % 4 == 0 else a)


class TestEvaluate:
    def test_rank1_projection(self):
        H = Rank1Seminorm([0.0, 1.0])
        assert H.evaluate([3.0, 4.0]) == pytest.approx(4.0)

    def test_quadratic_euclidean(self):
        H = QuadraticSeminorm(None, [1.0, 1.0])
        assert H.evaluate([3.0, 4.0]) == pytest.approx(5.0)

    def test_quadratic_degenerate_matches_rank1(self):
        H = QuadraticSeminorm(None, [0.0, 1.0])
        assert H.evaluate([3.0, 4.0]) == pytest.approx(4.0)

    def test_batched_evaluation(self, rng):
        H = QuadraticSeminorm(random_rotation(rng, 3), [0.5, 1.0, 2.0])
        X = rng.normal(size=(40, 3))
        batch = H.evaluate(X)
        assert batch.shape == (40,)
        for i in range(40):
            assert batch[i] == pytest.approx(H.evaluate(X[i]), rel=1e-13)

    def test_homogeneity(self, rng):
        for _ in range(100):
            d = rng.integers(2, 5)
            H = QuadraticSeminorm(random_rotation(rng, d), rng.uniform(0, 2, size=d))
            xi = rng.normal(size=d)
            t = rng.normal()
            assert H.evaluate(t * xi) == pytest.approx(abs(t) * H.evaluate(xi), abs=1e-12, rel=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            if rng.uniform() < 0.5:
                H = Rank1Seminorm(rng.normal(size=d))
            else:
                H = QuadraticSeminorm(random_rotation(rng, d), rng.uniform(0, 2, size=d))
            xi, zeta = rng.normal(size=d), rng.normal(size=d)
            assert H.evaluate(xi + zeta) <= H.evaluate(xi) + H.evaluate(zeta) + 1e-12


class TestOperatorNorm:
    def test_rank1(self):
        assert Rank1Seminorm([3.0, 4.0]).operator_norm == pytest.approx(5.0)

    def test_quadratic(self):
        assert QuadraticSeminorm(None, [0.5, 1.0]).operator_norm == pytest.approx(1.0)

    def test_zero(self):
        assert QuadraticSeminorm(None, [0.0, 0.0]).operator_norm == 0.0

    def test_is_supremum(self, rng):
        # sup over random unit vectors never exceeds the reported norm
        for _ in range(20):
            d = int(rng.integers(2, 5))
            H = QuadraticSeminorm(random_rotation(rng, d), rng.uniform(0, 3, size=d))
            X = rng.normal(size=(200, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            vals = H.evaluate(X)
            assert np.max(vals) <= H.operator_norm + 1e-12
            # the sup is attained along the top rotation column
            assert H.evaluate(H.rotation[:, 0]) == pytest.approx(H.operator_norm, rel=1e-12)


class TestKernelCodim:
    def test_rank1(self):
        assert Rank1Seminorm([1.0, 1.0]).kernel_codim == 1

    def test_norm(self):
        assert QuadraticSeminorm(None, [1.0, 1.0]).kernel_codim == 2

    def test_zero(self):
        assert QuadraticSeminorm(None, [0.0, 0.0]).kernel_codim == 0

    def test_partial(self):
        assert QuadraticSeminorm(None, [0.0, 2.0, 1.0]).kernel_codim == 2


class TestCompose:
    # checks the composition oracle that the affine-invariance tests use
    def test_rank1_rotation(self):
        H = Rank1Seminorm([0.0, 1.0])
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        H2 = compose(H, A)
        assert np.abs(H2.eta) == pytest.approx([1.0, 0.0])

    def test_rank1_diag(self):
        H2 = compose(Rank1Seminorm([1.0, 0.0]), np.diag([2.0, 1.0]))
        assert H2.eta == pytest.approx([2.0, 0.0])

    def test_quadratic_orthogonal_invariance(self, rng):
        H = QuadraticSeminorm(None, [1.0, 1.0])
        H2 = compose(H, random_rotation(rng, 2))
        assert H2.alphas == pytest.approx([1.0, 1.0])

    def test_pointwise_agreement(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            if rng.uniform() < 0.5:
                H = Rank1Seminorm(rng.normal(size=d))
            else:
                H = QuadraticSeminorm(random_rotation(rng, d), rng.uniform(0, 2, size=d))
            A = rng.normal(size=(d, d))
            if abs(np.linalg.det(A)) < 1e-3:
                continue
            HA = compose(H, A)
            for _ in range(5):
                xi = rng.normal(size=d)
                assert HA.evaluate(xi) == pytest.approx(H.evaluate(A @ xi), abs=1e-10, rel=1e-10)

    def test_composition_associates(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            H = QuadraticSeminorm(random_rotation(rng, d), rng.uniform(0.1, 2, size=d))
            A = rng.normal(size=(d, d))
            B = rng.normal(size=(d, d))
            if abs(np.linalg.det(A)) < 1e-3 or abs(np.linalg.det(B)) < 1e-3:
                continue
            lhs = compose(compose(H, A), B)
            rhs = compose(H, A @ B)
            for _ in range(5):
                xi = rng.normal(size=d)
                assert lhs.evaluate(xi) == pytest.approx(rhs.evaluate(xi), abs=1e-10, rel=1e-8)


class TestNormalize:
    def test_rank1(self):
        H = Rank1Seminorm([3.0, 4.0]).normalized()
        assert H.eta == pytest.approx([0.6, 0.8])

    def test_quadratic(self):
        H = QuadraticSeminorm(None, [0.5, 2.0]).normalized()
        assert sorted(H.alphas) == pytest.approx([0.25, 1.0])

    def test_identity_case(self):
        H = QuadraticSeminorm(None, [1.0, 1.0]).normalized()
        assert H.alphas == pytest.approx([1.0, 1.0])

    def test_zero_rejected(self):
        with pytest.raises(InvalidSeminormError, match="cannot normalize zero"):
            QuadraticSeminorm(None, [0.0, 0.0]).normalized()

    def test_norm_after_normalize(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            if rng.uniform() < 0.5:
                H = Rank1Seminorm(rng.normal(size=d))
            else:
                a = rng.uniform(0, 2, size=d)
                if np.all(a == 0):
                    continue
                a[int(rng.integers(d))] += 0.1
                H = QuadraticSeminorm(random_rotation(rng, d), a)
            assert H.normalized().operator_norm == pytest.approx(1.0, abs=1e-12)


class TestCanonicalForm:
    def test_alphas_descending(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            H = QuadraticSeminorm(random_rotation(rng, d), rng.uniform(0, 2, size=d))
            assert np.all(np.diff(H.alphas) <= 0)

    def test_column_signs(self, rng):
        for _ in range(20):
            H = QuadraticSeminorm(random_rotation(rng, 3), [0.3, 1.5, 0.9])
            for j in range(3):
                col = H.rotation[:, j]
                assert col[np.argmax(np.abs(col))] > 0

    def test_evaluation_preserved_by_canonicalization(self, rng):
        for _ in range(50):
            R = random_rotation(rng, 3)
            a = rng.uniform(0, 2, size=3)
            H = QuadraticSeminorm(R, a)
            xi = rng.normal(size=3)
            direct = np.sqrt(np.sum((a * (R.T @ xi)) ** 2))
            assert H.evaluate(xi) == pytest.approx(direct, abs=1e-12, rel=1e-12)


class TestCanonicalFormOracle:
    def test_matches_numpy_canonical_form_bit_for_bit(self, rng):
        # how many inputs were already canonical in each respect, and how many not
        seen = {"descending": 0, "reordered": 0, "signs_kept": 0, "signs_changed": 0}
        for R, a in canonical_form_inputs(rng, 1200):
            H = QuadraticSeminorm(R, a)
            alphas, rotation = oracle_quadratic_canonical(R, a)
            assert H.alphas.tobytes() == alphas.tobytes()
            assert H.rotation.tobytes() == rotation.tobytes()
            assert H.alphas.shape == alphas.shape and H.rotation.shape == rotation.shape
            seen["descending" if np.array_equal(alphas, a) else "reordered"] += 1
            same_signs = R is None or np.array_equal(np.signbit(rotation), np.signbit(np.asarray(R)))
            seen["signs_kept" if same_signs else "signs_changed"] += 1
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize(
        "rotation, alphas, message",
        [
            (None, [], "one-dimensional"),
            (None, [[1.0, 0.5]], "one-dimensional"),
            (None, [1.0, math.nan], "nonnegative and finite"),
            (None, [math.inf, 1.0], "nonnegative and finite"),
            (None, [1.0, -math.inf], "nonnegative and finite"),
            (None, [1.0, -1e-300], "nonnegative and finite"),
            ([[1.0, 0.0], [0.0, math.nan]], [1.0, 0.5], "rotation entries must be finite"),
            ([[math.inf, 0.0], [0.0, 1.0]], [1.0, 0.5], "rotation entries must be finite"),
            ([[1.0, 0.0], [0.0, -math.inf]], [1.0, 0.5], "rotation entries must be finite"),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 0.5], "d x d"),
            ([1.0, 0.0], [1.0, 0.5], "d x d"),
            (np.eye(3), [1.0, 0.5], "d x d"),
            ([[1.0, 0.1], [0.0, 1.0]], [1.0, 0.5], "orthogonal within 1e-12"),
            ([[1.0 + 1e-11, 0.0], [0.0, 1.0]], [1.0, 0.5], "orthogonal within 1e-12"),
            ([[2.0]], [1.0], "orthogonal within 1e-12"),
        ],
    )
    def test_rejection_messages(self, rotation, alphas, message):
        for build in (QuadraticSeminorm, oracle_quadratic_canonical):
            with pytest.raises(InvalidSeminormError, match=message):
                build(rotation, alphas)


class TestValidation:
    def test_zero_eta_rejected(self):
        with pytest.raises(InvalidSeminormError):
            Rank1Seminorm([0.0, 0.0])

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidSeminormError):
            QuadraticSeminorm(None, [-0.5, 1.0])

    def test_nonorthogonal_rotation_rejected(self):
        with pytest.raises(InvalidSeminormError):
            QuadraticSeminorm([[1.0, 0.1], [0.0, 1.0]], [1.0, 1.0])

    def test_gram_round_trip(self, rng):
        for _ in range(20):
            H = QuadraticSeminorm(random_rotation(rng, 3), rng.uniform(0, 2, size=3))
            xi = rng.normal(size=3)
            assert xi @ H.gram() @ xi == pytest.approx(H.evaluate(xi) ** 2, abs=1e-10)


class TestMetaAndJson:
    def test_meta(self):
        H = QuadraticSeminorm(None, [0.0, 0.7])
        assert H.operator_norm == pytest.approx(0.7)
        assert H.kernel_codim == 1

    def test_rank1_round_trip(self):
        H = Rank1Seminorm([3.0, 4.0])
        back = seminorm_from_json(seminorm_to_json(H))
        assert np.allclose(back.eta, H.eta)

    def test_quadratic_round_trip(self, rng):
        H = QuadraticSeminorm(random_rotation(rng, 2), [0.4, 1.1])
        back = seminorm_from_json(seminorm_to_json(H))
        assert np.allclose(back.alphas, H.alphas)
        assert np.allclose(back.rotation, H.rotation)

    def test_default_rotation(self):
        H = seminorm_from_json({"kind": "quadratic", "alphas": [1.0, 2.0]})
        assert np.allclose(H.gram(), np.diag([1.0, 4.0]))

    def test_bad_kind(self):
        with pytest.raises(InputError):
            seminorm_from_json({"kind": "cubic", "alphas": [1.0]})
