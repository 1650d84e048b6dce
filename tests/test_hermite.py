"""The one-pass Hermite kernel and the augmented-row Hermite form against
the two-pass code they replaced.

_kernel_rows runs one Hermite pass over the rows of [A^T | I] and
_hnf_rows one over [A | I]; lattice_reference.py keeps the earlier Hermite
form, which carried its transform as a second row list, and the kernel
that took a Hermite form of A^T and then a second one of the transform rows
that map to zero.  Both must give the same rows, on seeded matrices with
zero rows, more rows than columns and dependent rows.
"""

import random

import pytest

from logfan.lattice import _hnf_rows, _kernel_rows

from lattice_reference import reference_hnf_rows, reference_kernel_rows


def _matrix(rng, k, n, kind):
  rows = [[rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(n)]
          for _ in range(k)]
  if kind == "zero-rows" and rows:
    for i in rng.sample(range(k), rng.randint(1, k)):
      rows[i] = [0] * n
  elif kind == "dependent" and k >= 2:
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
  return rows


KINDS = ["plain", "zero-rows", "dependent"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", ["wide", "square", "tall"])
def test_kernel_and_hermite_form_match_the_two_pass_reference(kind, shape):
  rng = random.Random("%s-%s" % (kind, shape))
  for _ in range(150):
    n = rng.randint(0, 6)
    k = {"wide": rng.randint(0, max(n - 1, 0)), "square": n,
         "tall": n + rng.randint(1, 4)}[shape]
    rows = _matrix(rng, k, n, kind)
    assert _kernel_rows(rows, n) == reference_kernel_rows(rows, n), rows
    assert _hnf_rows(rows, k, n) == reference_hnf_rows(rows, k, n), rows


def test_kernel_of_no_rows_is_the_standard_basis():
  for n in range(5):
    assert _kernel_rows([], n) == [tuple(int(i == j) for j in range(n))
                                   for i in range(n)]


def test_kernel_comes_out_in_hermite_form():
  rng = random.Random(11)
  for _ in range(200):
    n = rng.randint(1, 6)
    rows = _matrix(rng, rng.randint(0, n + 2), n, rng.choice(KINDS))
    ker = _kernel_rows(rows, n)
    pivots = []
    for x in ker:
      piv = next(j for j, v in enumerate(x) if v)
      assert x[piv] > 0 and (not pivots or piv > pivots[-1])
      assert all(0 <= y[piv] < x[piv] for y in ker[:len(pivots)])
      pivots.append(piv)
    assert all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows for x in ker)
