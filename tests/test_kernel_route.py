"""`ExactMatrix.kernel()` takes one forward elimination of the transpose
when the matrix keeps no RREF.  On every Spencer differential the pipeline
takes a kernel of, it equals the route it replaced (`rref_kernel`: a fresh
RREF, with the kernel read off it), and a kept kernel or a kept RREF spares
the elimination."""

import pytest

from instances import GRID, get_full_subalgebra, get_sampled_subalgebra
from rref_kernel import fresh, rref_kernel
from spencerkit import exactla
from spencerkit.exactla import ExactMatrix
from spencerkit.spencer import spencer_complex


def assert_one_pass_equals_rref_kernel(cx):
    for p in (1, 2):
        M = fresh(cx.differentials[p])
        assert M.kernel() == rref_kernel(M)
        # the kernel came without an RREF of M
        assert M._rref is None


@pytest.mark.parametrize("s,t,N", GRID + ((4, 1, 1),))
def test_maximal_d21_and_d22_kernels(s, t, N):
    assert_one_pass_equals_rref_kernel(
        spencer_complex(get_full_subalgebra(s, t, N), 2))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_stabiliser_d21_and_d22_kernels(seed):
    # a random S' of dimension 3 in (3,1,1) with its stabiliser gives the
    # dense 126 x 78 d22 that the sweeps take most of their kernels of
    cx = spencer_complex(get_sampled_subalgebra(3, 1, 1, seed), 2)
    assert (cx.differentials[2].rows, cx.differentials[2].cols) == (126, 78)
    assert_one_pass_equals_rref_kernel(cx)


def _counting(monkeypatch):
    """Count the transpose passes and the RREF eliminations from here on."""
    counts = {"passes": 0, "rrefs": 0}
    null_vectors, rref_data = exactla._null_vectors, ExactMatrix._rref_data

    def passes(*args):
        counts["passes"] += 1
        return null_vectors(*args)

    def rrefs(self):
        if self._rref is None:
            counts["rrefs"] += 1
        return rref_data(self)

    monkeypatch.setattr(exactla, "_null_vectors", passes)
    monkeypatch.setattr(ExactMatrix, "_rref_data", rrefs)
    return counts


def _matrix():
    return ExactMatrix.from_rows([[1, 2, 0, -1], [0, "1/3", 1, 0],
                                  [2, 4, 0, -2]])


def test_a_second_kernel_runs_no_elimination(monkeypatch):
    counts = _counting(monkeypatch)
    M = _matrix()
    first = M.kernel()
    assert counts == {"passes": 1, "rrefs": 1}   # the pass, then K's RREF
    assert M.kernel() is first
    assert counts == {"passes": 1, "rrefs": 1}
    assert first == rref_kernel(M) and first.dim == 2


def test_a_kept_rref_gives_the_kernel_without_a_pass(monkeypatch):
    counts = _counting(monkeypatch)
    M = _matrix()
    M.rref()
    kernel = M.kernel()
    assert counts["passes"] == 0
    assert kernel == rref_kernel(M)
    assert M.kernel() is kernel


def test_rank_after_kernel_runs_no_elimination(monkeypatch):
    M = _matrix()
    M.kernel()
    counts = _counting(monkeypatch)
    assert M.rank() == 2
    assert counts == {"passes": 0, "rrefs": 0}
