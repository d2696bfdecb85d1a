"""Units for the whole-program layer: module summaries, the project
call graph, and interprocedural taint (``repro.lint.graph`` /
``repro.lint.dataflow``)."""

import textwrap

import pytest

from repro.lint.dataflow import TaintEngine, classify_source
from repro.lint.graph import (
    ProjectGraph,
    module_name_for,
    summarize_module,
)


def _project(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path and build the graph."""
    summaries = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for rel in files:
        path = tmp_path / rel
        summaries.append(
            summarize_module(path.read_text(), str(path))
        )
    return ProjectGraph(summaries)


class TestModuleNames:
    def test_bare_file(self, tmp_path):
        path = tmp_path / "solo.py"
        path.write_text("x = 1\n")
        assert module_name_for(path) == ("solo", False)

    def test_package_walk(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "mod.py").write_text("x = 1\n")
        name, is_pkg = module_name_for(tmp_path / "pkg" / "sub" / "mod.py")
        assert name == "pkg.sub.mod"
        assert not is_pkg
        name, is_pkg = module_name_for(tmp_path / "pkg" / "sub" / "__init__.py")
        assert name == "pkg.sub"
        assert is_pkg


class TestSummaries:
    def test_calls_reads_and_fields(self, tmp_path):
        source = textwrap.dedent(
            """\
            from dataclasses import dataclass, field

            @dataclass
            class Result:
                latency: float
                metrics: dict = field(compare=False, default_factory=dict)

            def consume(params):
                total = params.warmup + params.measure
                return Result(latency=float(total))
            """
        )
        summary = summarize_module(source, "mod.py", module="mod")
        cls = summary.classes["Result"]
        by_name = {f.name: f for f in cls.fields}
        assert by_name["latency"].compare
        assert not by_name["metrics"].compare
        fn = summary.functions["consume"]
        assert {"warmup", "measure"} <= fn.attr_reads
        call_targets = {c.target for c in fn.calls}
        assert "Result" in call_targets
        (result_call,) = [c for c in fn.calls if c.target == "Result"]
        assert result_call.keywords == ("latency",)

    def test_pop_literals(self, tmp_path):
        source = textwrap.dedent(
            """\
            def make_key(payload):
                payload.pop("rng_mode", None)
                return payload
            """
        )
        summary = summarize_module(source, "mod.py", module="mod")
        (pop_call,) = [
            c for c in summary.functions["make_key"].calls
            if c.target.endswith(".pop")
        ]
        assert pop_call.str_arg == "rng_mode"

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            summarize_module("def broken(:\n", "bad.py")


class TestCallGraph:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/a.py": """\
            import time

            from .b import helper

            def outer(x):
                return middle(x)

            def middle(x):
                return helper(x)

            def local_clock():
                return time.monotonic()
            """,
        "pkg/b.py": """\
            import time

            def helper(x):
                return time.time() + x
            """,
    }

    def test_internal_edges_resolve_across_modules(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        assert "pkg.a.middle" in project.callees("pkg.a.outer")
        assert "pkg.b.helper" in project.callees("pkg.a.middle")

    def test_external_calls_are_canonical(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        externals = {c for c, _ in project.external_calls("pkg.b.helper")}
        assert "time.time" in externals

    def test_reachable_and_chain(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        closure = project.reachable(["pkg.a.outer"])
        assert closure == {"pkg.a.outer", "pkg.a.middle", "pkg.b.helper"}
        chain = project.call_chain("pkg.a.outer", "pkg.b.helper")
        assert chain == ["pkg.a.outer", "pkg.a.middle", "pkg.b.helper"]

    def test_unresolvable_calls_add_no_edges(self, tmp_path):
        project = _project(tmp_path, {
            "solo.py": """\
                def dynamic(callback):
                    return callback()
                """,
        })
        assert project.callees("solo.dynamic") == frozenset()
        assert project.external_calls("solo.dynamic") == ()

    def test_bare_builtin_resolves_external(self, tmp_path):
        project = _project(tmp_path, {
            "solo.py": """\
                def key_of(obj):
                    return hash(obj)
                """,
        })
        externals = {c for c, _ in project.external_calls("solo.key_of")}
        assert externals == {"hash"}

    def test_shadowed_builtin_does_not_resolve(self, tmp_path):
        project = _project(tmp_path, {
            "solo.py": """\
                def hash(x):
                    return x

                def key_of(obj):
                    return hash(obj)
                """,
        })
        assert "pkg" not in project.modules
        externals = {c for c, _ in project.external_calls("solo.key_of")}
        assert "hash" not in externals


class TestTaint:
    def test_classify_numpy_alias(self):
        assert classify_source("np.random.shuffle") is not None
        assert classify_source("numpy.random.shuffle") is not None
        assert classify_source("numpy.zeros") is None

    def test_transitive_hit_with_chain(self, tmp_path):
        project = _project(tmp_path, TestCallGraph.FILES)
        engine = TaintEngine(project)
        hits = engine.hits_from("pkg.a.outer")
        assert len(hits) == 1
        (hit,) = hits
        assert hit.source == "time.time"
        assert hit.chain == ("pkg.a.outer", "pkg.a.middle", "pkg.b.helper")
        assert hit.chain_text() == "outer() -> middle() -> helper()"

    def test_direct_hit(self, tmp_path):
        project = _project(tmp_path, TestCallGraph.FILES)
        engine = TaintEngine(project)
        hits = engine.hits_from("pkg.a.local_clock")
        assert [h.source for h in hits] == ["time.monotonic"]
        assert hits[0].chain == ("pkg.a.local_clock",)

    def test_tainted_functions_fixpoint(self, tmp_path):
        project = _project(tmp_path, TestCallGraph.FILES)
        engine = TaintEngine(project)
        tainted = engine.tainted_functions()
        assert {"pkg.b.helper", "pkg.a.middle", "pkg.a.outer",
                "pkg.a.local_clock"} <= tainted

    def test_pure_function_is_clean(self, tmp_path):
        project = _project(tmp_path, {
            "solo.py": """\
                def pure(x):
                    return x + 1
                """,
        })
        engine = TaintEngine(project)
        assert engine.hits_from("solo.pure") == []
        assert engine.tainted_functions() == set()
