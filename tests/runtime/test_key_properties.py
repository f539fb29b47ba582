"""Property tests for cache-key canonicalization.

The cross-machine cache only works if two machines derive the *same*
key for the same design point and *different* keys for different ones —
independently of dict insertion order, of Python's per-process hash
randomization, and of which process computes the key.  Hypothesis
drives the structural invariants; a subprocess (with a different
``PYTHONHASHSEED``) pins the cross-process guarantee the HTTP peer
relies on.
"""

import copy
import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import cache_key, canonicalize

# JSON-expressible kwargs values, nested a few levels deep — the shapes
# experiment runners and serve endpoints actually pass.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.dictionaries(st.integers(min_value=-99, max_value=99), children, max_size=4),
    ),
    max_leaves=12,
)
_kwargs = st.dictionaries(st.text(min_size=1, max_size=10), _values, max_size=5)


def _fn(**kwargs):
    """Stand-in point function (only its identity enters the key)."""


class TestCanonicalizeProperties:
    @given(_kwargs)
    @settings(max_examples=60, deadline=None)
    def test_kwarg_order_is_irrelevant(self, kwargs):
        shuffled = dict(reversed(list(kwargs.items())))
        assert cache_key(_fn, kwargs, fingerprint="t") == \
            cache_key(_fn, shuffled, fingerprint="t")

    @given(_values)
    @settings(max_examples=60, deadline=None)
    def test_nested_structures_are_stable(self, value):
        """Same structure, fresh objects -> same canonical form and key."""
        clone = copy.deepcopy(value)
        assert canonicalize(value) == canonicalize(clone)
        assert cache_key(_fn, {"v": value}, fingerprint="t") == \
            cache_key(_fn, {"v": clone}, fingerprint="t")

    @given(_values)
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_is_json_serializable(self, value):
        """The form must survive json.dumps — that IS the key payload."""
        text = json.dumps(canonicalize(value), sort_keys=True)
        assert isinstance(text, str)

    @given(_values)
    @settings(max_examples=60, deadline=None)
    def test_tuple_and_list_alias_by_design(self, value):
        """Sequences canonicalize identically (JSON has one list type)."""
        assert cache_key(_fn, {"v": [value]}, fingerprint="t") == \
            cache_key(_fn, {"v": (value,)}, fingerprint="t")

    @given(st.integers(min_value=-(2 ** 53), max_value=2 ** 53))
    @settings(max_examples=60, deadline=None)
    def test_float_and_int_never_alias(self, n):
        """1 and 1.0 are distinct design points (different dtypes downstream)."""
        assert cache_key(_fn, {"x": n}, fingerprint="t") != \
            cache_key(_fn, {"x": float(n)}, fingerprint="t")

    def test_bool_and_int_never_alias(self):
        assert cache_key(_fn, {"x": True}, fingerprint="t") != \
            cache_key(_fn, {"x": 1}, fingerprint="t")
        assert cache_key(_fn, {"x": False}, fingerprint="t") != \
            cache_key(_fn, {"x": 0}, fingerprint="t")

    @given(st.dictionaries(st.integers(min_value=-99, max_value=99),
                           _scalars, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_mapping_key_types_never_alias(self, mapping):
        """{1: v} and {"1": v} stay distinct even nested in kwargs."""
        stringly = {str(k): v for k, v in mapping.items()}
        assert cache_key(_fn, {"m": mapping}, fingerprint="t") != \
            cache_key(_fn, {"m": stringly}, fingerprint="t")

    @given(st.dictionaries(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
                           _scalars, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_identifier_keys_sort_in_json_order(self, mapping):
        """Identifier keys sort directly, in the order of their JSON text."""
        keys = [k for k, _ in canonicalize(mapping)["__mapping__"]]
        assert keys == sorted(mapping, key=json.dumps)

    @given(st.sets(st.integers(min_value=-999, max_value=999), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_set_iteration_order_is_irrelevant(self, values):
        """Sets canonicalize by sorted content, not iteration order."""
        as_frozen = frozenset(values)
        assert cache_key(_fn, {"s": values}, fingerprint="t") == \
            cache_key(_fn, {"s": as_frozen}, fingerprint="t")


class TestCrossProcessStability:
    """The property the cross-machine cache stands on."""

    # A nasty-but-JSON-able kwargs fixture: nested dicts (insertion
    # order scrambled), mixed key types, floats needing repr fidelity.
    KWARGS_SRC = ("{'b': 1, 'a': {'z': [1, 2.5, 'x'], 'y': (3, True)}, "
                  "'m': {3: 'three', '3': 'still-three'}, "
                  "'f': 0.1234567890123456789}")

    def _child_key(self, hash_seed: str) -> str:
        program = (
            "from repro.serve.endpoints import runtime_point\n"
            "from repro.runtime import cache_key\n"
            f"kwargs = {self.KWARGS_SRC}\n"
            "print(cache_key(runtime_point, kwargs, fingerprint='pinned'))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run([sys.executable, "-c", program], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_key_is_identical_across_process_boundaries(self):
        from repro.serve.endpoints import runtime_point

        kwargs = eval(self.KWARGS_SRC)  # noqa: S307 (test fixture literal)
        here = cache_key(runtime_point, kwargs, fingerprint="pinned")
        # Two children with *different* hash randomization: dict/set hash
        # order differs from this process and from each other, yet the
        # canonical key must not.
        assert self._child_key("1") == here
        assert self._child_key("424242") == here
