"""Fixture-snippet tests for every ``repro.lint`` checker code.

Each code gets three cases: a snippet that must trip it (positive), a
snippet exercising the same constructs safely (clean), and the
positive snippet waived by a justified ``# repro: allow-<code>``
comment (suppressed).
"""

import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.runner import UNJUSTIFIED_CODE


def findings_for(snippet: str, filename: str = "lib/mod.py"):
    return lint_source(textwrap.dedent(snippet), filename=filename)


def codes_for(snippet: str, filename: str = "lib/mod.py"):
    return [f.code for f in findings_for(snippet, filename)]


# One (positive, clean) snippet pair per code, with an optional third
# element naming the fixture filename (for path-gated checkers).  The
# positive snippet carries exactly one violation, on the line marked
# ``# HIT`` (the suppression test rewrites that marker into an
# allow-comment).
CASES = {
    "RPR001": (
        """\
        import random

        def wire(items):
            random.shuffle(items)  # HIT
            return items
        """,
        """\
        import random

        def wire(items, rng=None):
            rand = rng if isinstance(rng, random.Random) else random.Random(rng)
            rand.shuffle(items)
            return items
        """,
    ),
    "RPR003": (
        """\
        def enumerate_edges(adj: list[set[int]]):
            return [(0, b) for b in adj[0]]  # HIT
        """,
        """\
        def enumerate_edges(adj: list[set[int]]):
            return [(0, b) for b in sorted(adj[0])]
        """,
    ),
    "RPR004": (
        """\
        import time

        def derive_seed(base: int) -> int:
            return base + int(time.time())  # HIT
        """,
        """\
        def derive_seed(base: int, index: int) -> int:
            return base + 1_000_003 * index
        """,
    ),
}


def _case(code):
    entry = CASES[code]
    if len(entry) == 3:
        return entry
    positive, clean = entry
    return positive, clean, "lib/mod.py"


@pytest.mark.parametrize("code", sorted(CASES))
class TestEveryChecker:
    def test_positive_hit(self, code):
        positive, _, filename = _case(code)
        assert codes_for(positive, filename) == [code]

    def test_clean_pass(self, code):
        _, clean, filename = _case(code)
        assert codes_for(clean, filename) == []

    def test_suppressed_by_comment(self, code):
        positive, _, filename = _case(code)
        waived = positive.replace(
            "# HIT", f"# repro: allow-{code.lower()} -- fixture waiver"
        )
        assert codes_for(waived, filename) == []

    def test_unjustified_suppression_is_reported(self, code):
        positive, _, filename = _case(code)
        waived = positive.replace("# HIT", f"# repro: allow-{code}")
        assert codes_for(waived, filename) == [UNJUSTIFIED_CODE]


class TestRpr001Variants:
    def test_numpy_legacy_global(self):
        assert codes_for(
            """\
            import numpy as np

            def draw(n):
                return np.random.randint(0, n)
            """
        ) == ["RPR001"]

    def test_bare_default_rng(self):
        assert codes_for(
            """\
            from numpy.random import default_rng

            def make():
                return default_rng()
            """
        ) == ["RPR001"]

    def test_seeded_default_rng_clean(self):
        assert codes_for(
            """\
            from numpy.random import default_rng

            def make(seed):
                return default_rng(seed)
            """
        ) == []

    def test_bare_random_constructor(self):
        assert codes_for(
            """\
            import random

            def make():
                return random.Random()
            """
        ) == ["RPR001"]

    def test_from_import_global_function(self):
        assert codes_for(
            """\
            from random import shuffle

            def wire(items):
                shuffle(items)
            """
        ) == ["RPR001"]

    def test_instance_draws_clean(self):
        assert codes_for(
            """\
            import random

            def wire(items, rand: random.Random):
                rand.shuffle(items)
                return rand.randrange(4)
            """
        ) == []

    def test_literal_none_seed_positional(self):
        # The form that hid the nondeterministic sampling default in
        # repro.graphs.metrics: entropy self-seeding written out loud.
        assert codes_for(
            """\
            import random

            def make():
                return random.Random(None)
            """
        ) == ["RPR001"]

    def test_literal_none_seed_keyword(self):
        assert codes_for(
            """\
            from numpy.random import default_rng

            def make():
                return default_rng(seed=None)
            """
        ) == ["RPR001"]

    def test_seed_or_none_variable_clean(self):
        # Runtime seed-or-None plumbing stays legal; only the literal
        # None is flagged.
        assert codes_for(
            """\
            import random

            def make(rng=None):
                return random.Random(rng)
            """
        ) == []


class TestRpr003Variants:
    def test_for_loop_append(self):
        assert codes_for(
            """\
            def collect(seen: set[int]):
                out = []
                for item in seen:
                    out.append(item)
                return out
            """
        ) == ["RPR003"]

    def test_for_loop_rng_draw(self):
        assert codes_for(
            """\
            def draw(seen: set[int], rand):
                for item in seen:
                    if rand.random() < 0.5:
                        return item
                return None
            """
        ) == ["RPR003"]

    def test_membership_scan_clean(self):
        assert codes_for(
            """\
            def has_pair(avail: set[int], banned: set[int]):
                for a in avail:
                    if a not in banned:
                        return True
                return False
            """
        ) == []

    def test_order_free_reducers_clean(self):
        assert codes_for(
            """\
            def measure(seen: set[int]):
                total = sum(x for x in seen)
                biggest = max(x for x in seen)
                fine = all(x >= 0 for x in seen)
                return total, biggest, fine
            """
        ) == []

    def test_container_of_sets_assignment(self):
        assert codes_for(
            """\
            def edges(rows):
                adj = [set(row) for row in rows]
                return [(a, b) for a in range(len(adj)) for b in adj[a]]
            """
        ) == ["RPR003"]

    def test_sorted_wrapper_clean(self):
        assert codes_for(
            """\
            def edges(rows):
                adj = [set(row) for row in rows]
                return [
                    (a, b) for a in range(len(adj)) for b in sorted(adj[a])
                ]
            """
        ) == []


class TestRpr004Variants:
    def test_exec_path_is_always_scoped(self):
        snippet = """\
        import time

        def stamp():
            return time.time()
        """
        assert codes_for(snippet, filename="src/repro/exec/cache.py") == [
            "RPR004"
        ]
        assert codes_for(snippet, filename="src/repro/graphs/metrics.py") == []

    def test_perf_counter_allowed_on_exec_path(self):
        assert codes_for(
            """\
            import time

            def measure():
                return time.perf_counter()
            """,
            filename="src/repro/exec/executor.py",
        ) == []

    def test_urandom_in_key_function(self):
        assert codes_for(
            """\
            import os

            def cache_key(topo):
                return topo + os.urandom(4).hex()
            """
        ) == ["RPR004"]


class TestFramework:
    def test_parse_error_reported_not_raised(self):
        findings = findings_for("def broken(:\n    pass\n")
        assert [f.code for f in findings] == ["RPR000"]

    def test_findings_sorted_and_located(self):
        findings = findings_for(
            """\
            import random

            def b(items):
                random.shuffle(items)

            def a(items: set[int]):
                return [x for x in items]
            """
        )
        assert [f.code for f in findings] == ["RPR001", "RPR003"]
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        assert all(f.file == "lib/mod.py" for f in findings)

    def test_suppression_inside_string_is_ignored(self):
        snippet = """\
        import random

        MESSAGE = "# repro: allow-RPR001 -- not a comment"

        def wire(items):
            random.shuffle(items)
        """
        assert codes_for(snippet) == ["RPR001"]

    def test_multi_code_waiver(self):
        snippet = """\
        import random

        def api(items: set[int]):
            return [random.random() for _ in items]  # repro: allow-RPR003, RPR001 -- fixture
        """
        assert codes_for(snippet) == []

    def test_waiver_naming_unknown_code_is_reported(self):
        findings = findings_for(
            """\
            def memo(cache, topo):
                return cache.get(id(topo))  # repro: allow-RPR002 -- stale
            """
        )
        assert [(f.code, f.line, f.message) for f in findings] == [
            (UNJUSTIFIED_CODE, 2, "waiver names unknown code RPR002")
        ]
        # The framework codes count as known.
        assert codes_for("x = 1  # repro: allow-RPR000, RPR999 -- fixture\n") == []
