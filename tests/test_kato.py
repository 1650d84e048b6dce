"""Tests for chart smoothness, etaleness, and differential ranks."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from logfan.cone import Cone
from logfan.fan import Fan
from logfan.kato import (
    MAX_PRIME_TEST,
    CharParam,
    _is_prime,
    chart_smoothness,
    kummer_cover_chart,
    omega1_rank,
    omega_rank_pair,
)
from logfan.lattice import IntMatrix, cokernel
from logfan.logpair import make_pair
from logfan.monoid import AffineMonoid, MonoidHom, _gp_map, is_exact, is_kummer

N1 = AffineMonoid.make([[1]], 1)
N2 = AffineMonoid.make([[1, 0], [0, 1]], 2)
ZERO = AffineMonoid.make([], 1)


def times(n):
  return MonoidHom(N1, N1, IntMatrix.from_rows([[n]]))


@pytest.mark.parametrize("p", [0, 2, 3, 5, 97])
def test_char_param_accepts_zero_and_primes(p):
  assert CharParam(p).p == p


@pytest.mark.parametrize("p", [1, 4, 6, 9, -3])
def test_char_param_rejects_composites(p):
  with pytest.raises(ValueError, match="0 or prime"):
    CharParam(p)


def test_primality_matches_sympy_below_20000():
  assert ([n for n in range(20000) if _is_prime(n)]
          == [n for n in range(20000) if sympy.isprime(n)])


# strong pseudoprimes: to base 2; to bases 2, 3, 5, 7; to the first 9
# primes; and to the first 12, which only the 13th witness, 41, exposes
@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_strong_pseudoprimes_are_composite(n):
  assert not _is_prime(n)


@pytest.mark.parametrize("p", [2**61 - 1, 10**18 + 3, 10**16 + 61])
def test_large_primes_are_accepted(p):
  assert _is_prime(p) and CharParam(p).p == p


def test_primality_refuses_numbers_at_the_limit():
  # the limit is itself the least strong pseudoprime to all 13 witnesses
  for n in (MAX_PRIME_TEST, 10**30):
    with pytest.raises(ValueError, match="below %d" % MAX_PRIME_TEST):
      CharParam(n)
  assert _is_prime(MAX_PRIME_TEST - 2) == sympy.isprime(MAX_PRIME_TEST - 2)


def test_multiplication_chart_in_char_zero():
  s = chart_smoothness(times(3), CharParam(0))
  assert s.log_smooth and s.log_etale


def test_multiplication_by_p_in_char_p():
  s = chart_smoothness(times(5), CharParam(5))
  assert not s.log_smooth and not s.log_etale


def test_inclusion_of_trivial_monoid():
  inc = MonoidHom(ZERO, N1, IntMatrix.identity(1))
  s = chart_smoothness(inc, CharParam(0))
  assert s.log_smooth and not s.log_etale


def test_group_kernel_kills_smoothness():
  fold = MonoidHom(N2, N1, IntMatrix.from_rows([[1, 1]]))
  s = chart_smoothness(fold, CharParam(0))
  assert not s.log_smooth and not s.log_etale


@pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 31)
                                 for p in (0, 2, 3, 5, 7)])
def test_multiplication_family_etale_iff_invertible(n, p):
  s = chart_smoothness(times(n), CharParam(p))
  invertible = p == 0 or n % p != 0
  assert s.log_etale == invertible
  assert s.log_smooth == invertible
  if s.log_etale:
    assert s.log_smooth


def test_omega1_rank_examples():
  assert omega1_rank(times(1)) == 0
  assert omega1_rank(times(4)) == 0
  assert omega1_rank(MonoidHom(ZERO, N1, IntMatrix.identity(1))) == 1
  axis = MonoidHom(N1, N2, IntMatrix.from_rows([[1], [0]]))
  assert omega1_rank(axis) == 1


def test_gp_map_uses_group_bases_not_ambient_ones():
  # the even submonoid of N has group 2Z, so the inclusion into N is
  # multiplication by 2 on group coordinates even though the ambient map
  # is the identity
  even = AffineMonoid.make([[2]], 1)
  inc = MonoidHom(even, N1, IntMatrix.identity(1))
  assert _gp_map(inc) == IntMatrix.from_rows([[2]])
  assert cokernel(_gp_map(inc)).invariant_factors == (2,)
  assert not chart_smoothness(inc, CharParam(2)).log_smooth


ORTHANT_PAIR = make_pair(Fan.make([Cone.from_rays([[1, 0], [0, 1]], 2)], 2),
                         [(1, 0)])


def test_omega_rank_pair_degree_one():
  r = omega_rank_pair(ORTHANT_PAIR, 1)
  assert r.rank == 2
  assert r.dlog_count_at_deepest_stratum == 1


def test_omega_rank_pair_edge_degrees():
  assert omega_rank_pair(ORTHANT_PAIR, 0).rank == 1
  assert omega_rank_pair(ORTHANT_PAIR, 3).rank == 0
  with pytest.raises(ValueError, match="nonnegative"):
    omega_rank_pair(ORTHANT_PAIR, -1)


def test_omega_rank_pair_sees_deep_strata():
  full = make_pair(Fan.make([Cone.from_rays([[1, 0], [0, 1]], 2)], 2),
                   [(1, 0), (0, 1)])
  assert omega_rank_pair(full, 2).rank == 1
  assert omega_rank_pair(full, 2).dlog_count_at_deepest_stratum == 2


def test_kummer_cover_basic():
  k = kummer_cover_chart(N1, 2, CharParam(0))
  assert k.is_kummer and k.log_etale
  assert cokernel(_gp_map(k.hom)).invariant_factors == (2,)


def test_kummer_cover_wild_degree():
  k = kummer_cover_chart(N1, 5, CharParam(5))
  assert k.is_kummer and not k.log_etale


def test_kummer_cover_degree_one_is_identity():
  k = kummer_cover_chart(N1, 1, CharParam(7))
  assert k.log_etale
  assert k.hom.gp_matrix == IntMatrix.identity(1)
  assert k.hom.source == k.hom.target


def test_kummer_cover_rejects_unsaturated_monoid():
  numeric = AffineMonoid.make([[2], [3]], 1)
  with pytest.raises(ValueError, match="saturated"):
    kummer_cover_chart(numeric, 2, CharParam(0))


SATURATED = [
    N1,
    N2,
    AffineMonoid.make([[1, 0], [1, 1], [1, 2]], 2),
    AffineMonoid.make([[1], [-1]], 1),
]


@pytest.mark.parametrize("p", SATURATED)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kummer_cover_is_kummer_and_exact(p, n):
  k = kummer_cover_chart(p, n, CharParam(0))
  assert is_kummer(k.hom)
  assert is_exact(k.hom)
  assert omega1_rank(k.hom) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 6))
def test_triangular_charts_etale_implies_smooth(a, b, d):
  theta = MonoidHom(N2, N2, IntMatrix.from_rows([[1, a], [0, b * d - b]]))
  for p in (0, 2, 3):
    s = chart_smoothness(theta, CharParam(p))
    if s.log_etale:
      assert s.log_smooth


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8))
def test_diagonal_chart_factors_match_elementary_divisors(m, n):
  theta = MonoidHom(N2, N2, IntMatrix.from_rows([[m, 0], [0, n]]))
  coker = cokernel(_gp_map(theta))
  assert coker.free_rank == 0
  total = 1
  for f in coker.invariant_factors:
    total *= f
  assert total == m * n
