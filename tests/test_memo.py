"""Tests for the least-recently-used memo and the three places that use it."""

import weakref

import pytest

from anisospec import EllipsoidD, QuadraticSeminorm, ellipse_polygon
from anisospec import functional
from anisospec.fem import SolverConfig, solver
from anisospec.functional import eval_F, optimize_quadratic
from anisospec.memo import Memo

# meshes with one interior node keep a whole optimization cheap
ONE_NODE = SolverConfig(target_h=1.0)


class Value:
    pass


def test_least_recently_used_entry_is_evicted_first():
    memo = Memo(2)
    assert memo.get_or("a", lambda: 1) == 1
    assert memo.get_or("b", lambda: 2) == 2
    assert memo.get_or("a", lambda: -1) == 1  # a hit refreshes "a"
    assert memo.get_or("c", lambda: 3) == 3  # evicts "b"
    assert memo.get_or("a", lambda: -1) == 1
    assert memo.get_or("b", lambda: 4) == 4
    assert (memo.hits, memo.misses) == (2, 4)


def test_full_memo_releases_the_old_value_before_building():
    memo = Memo(1)
    old = weakref.ref(memo.get_or("old", Value))
    # the build returns what is left of the old value: nothing
    assert memo.get_or("new", old) is None


def test_optimizations_keep_one_domain_and_assemble_it_once(monkeypatch):
    a, b = ellipse_polygon(1.0, 1.0, 5), ellipse_polygon(1.0, 1.0, 6)
    optimize_quadratic(a, 1.0, "min", ONE_NODE)
    before = (solver._ASSEMBLIES.hits, solver._ASSEMBLIES.misses)
    batches = []
    route = functional._route
    monkeypatch.setattr(functional, "_route", lambda *args: batches.append(args[1][0]) or route(*args))
    report = optimize_quadratic(b, 2.0, "max", ONE_NODE)
    # b is assembled once: the first grid batch looks it up first, and each
    # later FEM batch, of the grid or of the refinement after it, reuses it
    assert solver._ASSEMBLIES.misses - before[1] == 1
    assert solver._ASSEMBLIES.hits - before[0] == batches.count("quadratic") - 1
    # b's spectral entries remain and a's are gone
    H = report.best.seminorm
    misses = functional._SPECTRAL.misses
    assert eval_F(b, H, 2.0, ONE_NODE) == report.best
    assert functional._SPECTRAL.misses == misses
    eval_F(a, H, 2.0, ONE_NODE)
    assert functional._SPECTRAL.misses == misses + 1


def test_ellipse_ratio_is_shared_across_radii():
    H = QuadraticSeminorm([[0.6, -0.8], [0.8, 0.6]], [1.0, 0.5])
    cfg = SolverConfig(target_h=0.2)
    small = eval_F(EllipsoidD([1.0, 1.0]), H, 1.0, cfg)
    misses, hits = solver._ELLIPSE_LAMBDA.misses, solver._ELLIPSE_LAMBDA.hits
    large = eval_F(EllipsoidD([2.0, 2.0]), H, 1.0, cfg)
    assert solver._ELLIPSE_LAMBDA.misses == misses
    assert solver._ELLIPSE_LAMBDA.hits == hits + 1
    assert large.lambda_ == pytest.approx(small.lambda_ / 4.0, rel=1e-12)
