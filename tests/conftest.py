"""Assertion rewriting for the test-only reference modules.

pytest rewrites the asserts of test modules into explicit raises, so they
run under python -O too; the *_reference modules are imported helpers, not
test modules, and need registering before their first import for their own
preconditions to survive -O.
"""

import pathlib

import pytest

pytest.register_assert_rewrite(
    *sorted(p.stem for p in pathlib.Path(__file__).parent.glob("*_reference.py")))
