"""The RPR10x project passes: the relaxed-mode cache-key policy,
dtype/width hazards and cache-key taint."""

import textwrap

from repro.lint.checkers.rpr102_dtype_width import DtypeWidthChecker
from repro.lint.runner import lint_source, run_analysis


def _codes(findings):
    return [f.code for f in findings]


def _write(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


class TestRelaxedRngPolicy:
    """RPR105: ``rng_mode`` must stay in the cache key.  A tree where
    the relaxed mode exists and the key serializes params wholesale is
    the blessed shape."""

    FILES = {
        "proj/__init__.py": "",
        "proj/simulation/__init__.py": "",
        "proj/simulation/config.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SimulationParams:
                cycles: int = 10
                rng_mode: str = "exact"
            """,
        "proj/exec/__init__.py": "",
        "proj/exec/cache.py": """\
            import dataclasses

            def cache_key(params):
                payload = dataclasses.asdict(params)
                return sorted(payload.items())
            """,
    }

    def _rpr105(self, report):
        return [f for f in report.findings if f.code == "RPR105"]

    def test_mode_in_key_is_clean(self, tmp_path):
        _write(tmp_path, self.FILES)
        report = run_analysis([tmp_path])
        assert _codes(report.findings) == []

    def test_undeclared_pop_fires(self, tmp_path):
        files = dict(self.FILES)
        files["proj/exec/cache.py"] = textwrap.dedent(
            files["proj/exec/cache.py"]
        ).replace(
            "payload = dataclasses.asdict(params)",
            "payload = dataclasses.asdict(params)\n"
            '    payload.pop("rng_mode", None)',
        )
        _write(tmp_path, files)
        report = run_analysis([tmp_path])
        hits = self._rpr105(report)
        assert len(hits) == 1
        assert hits[0].file.endswith("cache.py")
        assert "never be popped" in hits[0].message

    def test_handrolled_key_omitting_mode_fires(self, tmp_path):
        files = dict(self.FILES)
        files["proj/exec/cache.py"] = """\
            def cache_key(params):
                return (params.cycles,)
            """
        _write(tmp_path, files)
        report = run_analysis([tmp_path])
        hits = self._rpr105(report)
        assert len(hits) == 1
        assert hits[0].file.endswith("cache.py")
        assert "without recording 'rng_mode'" in hits[0].message
        assert "cycles" in hits[0].message

    def test_handrolled_key_reading_mode_is_clean(self, tmp_path):
        files = dict(self.FILES)
        files["proj/exec/cache.py"] = """\
            def cache_key(params):
                return (params.cycles, params.rng_mode)
            """
        _write(tmp_path, files)
        report = run_analysis([tmp_path])
        assert self._rpr105(report) == []

    def test_tree_without_rng_mode_is_silent(self, tmp_path):
        """Pre-relaxed checkouts must not be retrofitted with findings
        even when they hand-roll keys."""
        files = dict(self.FILES)
        files["proj/simulation/config.py"] = files[
            "proj/simulation/config.py"
        ].replace('    rng_mode: str = "exact"\n', "")
        files["proj/exec/cache.py"] = """\
            def cache_key(params):
                return (params.cycles,)
            """
        _write(tmp_path, files)
        report = run_analysis([tmp_path])
        assert self._rpr105(report) == []


class TestDtypeWidth:
    def _findings(self, source):
        return lint_source(
            textwrap.dedent(source), "kernel.py",
            checkers=[DtypeWidthChecker()],
        )

    def test_int32_store_of_len(self):
        findings = self._findings(
            """\
            import numpy as np

            def build(n, values):
                offsets = np.zeros(n + 1, dtype=np.int32)
                offsets[n] = len(values)
                return offsets
            """
        )
        assert _codes(findings) == ["RPR102"]
        assert "unbounded Python count" in findings[0].message

    def test_int64_store_is_clean(self):
        findings = self._findings(
            """\
            import numpy as np

            def build(n, values):
                offsets = np.zeros(n + 1, dtype=np.int64)
                offsets[n] = len(values)
                return offsets
            """
        )
        assert findings == []

    def test_int32_product_overflow(self):
        findings = self._findings(
            """\
            import numpy as np

            def keys(sources, dests):
                src = np.asarray(sources, dtype=np.int32)
                dst = np.asarray(dests, dtype=np.int32)
                return src * dst
            """
        )
        assert _codes(findings) == ["RPR102"]
        assert "wraps silently" in findings[0].message

    def test_widened_product_is_clean(self):
        findings = self._findings(
            """\
            import numpy as np

            def keys(sources, dests):
                src = np.asarray(sources, dtype=np.int32)
                dst = np.asarray(dests, dtype=np.int32)
                return src.astype(np.int64) * dst.astype(np.int64)
            """
        )
        assert findings == []

    def test_uint64_signed_mix(self):
        findings = self._findings(
            """\
            import numpy as np

            def mask(words, bits):
                w = np.zeros(4, dtype=np.uint64)
                b = np.zeros(4, dtype=np.int64)
                return w & b
            """
        )
        assert _codes(findings) == ["RPR102"]
        assert "uint64" in findings[0].message

    def test_uint64_uint64_is_clean(self):
        findings = self._findings(
            """\
            import numpy as np

            def mask(idx):
                w = np.zeros(4, dtype=np.uint64)
                return w | np.uint64(1)
            """
        )
        assert findings == []

    def test_truncating_cast_of_product(self):
        findings = self._findings(
            """\
            import numpy as np

            def flatten(rows, cols):
                return (rows * cols).astype(np.int32)
            """
        )
        assert _codes(findings) == ["RPR102"]
        assert "truncates" in findings[0].message

    def test_int32_cumsum(self):
        findings = self._findings(
            """\
            import numpy as np

            def offsets(degrees):
                d = np.asarray(degrees, dtype=np.int32)
                return np.cumsum(d)
            """
        )
        assert _codes(findings) == ["RPR102"]
        assert "cumsum" in findings[0].message

    def test_dtype_survives_repeat_and_diff(self):
        findings = self._findings(
            """\
            import numpy as np

            def positions(offsets, lengths):
                off = np.asarray(offsets, dtype=np.int32)
                starts = np.repeat(off[:-1], np.diff(off))
                return starts * starts
            """
        )
        assert _codes(findings) == ["RPR102"]
        assert "wraps silently" in findings[0].message

    def test_dtype_survives_sort_and_unique(self):
        findings = self._findings(
            """\
            import numpy as np

            def keys(raw):
                k = np.sort(np.asarray(raw, dtype=np.int64))
                u = np.unique(k)
                return u * u
            """
        )
        assert findings == []

    def test_ascontiguousarray_is_a_constructor(self):
        findings = self._findings(
            """\
            import numpy as np

            def pack(values):
                flat = np.ascontiguousarray(values, dtype=np.int32)
                return flat * flat
            """
        )
        assert _codes(findings) == ["RPR102"]

    def test_cumsum_with_wide_dtype_is_clean(self):
        findings = self._findings(
            """\
            import numpy as np

            def offsets(degrees):
                d = np.asarray(degrees, dtype=np.int32)
                return np.cumsum(d, dtype=np.int64)
            """
        )
        assert findings == []

    def test_non_numpy_file_is_skipped(self):
        findings = self._findings(
            """\
            def build(n, values):
                offsets = [0] * (n + 1)
                offsets[n] = len(values)
                return offsets
            """
        )
        assert findings == []


class TestCacheKeyTaint:
    FILES = {
        "proj/__init__.py": "",
        "proj/exec/__init__.py": "",
        "proj/exec/cache.py": """\
            from ..util import salt

            def cache_key(payload):
                return salt(repr(payload))
            """,
        "proj/util.py": """\
            import os

            def salt(text):
                return (os.getenv("SALT") or "") + text
            """,
    }

    def test_transitive_env_read_fires(self, tmp_path):
        _write(tmp_path, self.FILES)
        report = run_analysis([tmp_path])
        hits = [f for f in report.findings if f.code == "RPR103"]
        assert len(hits) == 1
        (hit,) = hits
        assert hit.file.endswith("util.py")
        assert "os.getenv" in hit.message
        assert "cache_key()" in hit.message
        assert "salt()" in hit.message

    def test_direct_wallclock_left_to_rpr004(self, tmp_path):
        _write(tmp_path, {
            "proj/__init__.py": "",
            "proj/exec/__init__.py": "",
            "proj/exec/cache.py": """\
                import time

                def cache_key(payload):
                    return f"{time.time()}-{payload}"
                """,
        })
        report = run_analysis([tmp_path])
        codes = _codes(report.findings)
        assert "RPR004" in codes
        assert "RPR103" not in codes

    def test_pure_key_path_is_clean(self, tmp_path):
        _write(tmp_path, {
            "proj/__init__.py": "",
            "proj/exec/__init__.py": "",
            "proj/exec/cache.py": """\
                import hashlib

                def cache_key(payload):
                    digest = hashlib.sha256(payload.encode())
                    return digest.hexdigest()
                """,
        })
        report = run_analysis([tmp_path])
        assert _codes(report.findings) == []

    def _waived(self, comment):
        files = dict(self.FILES)
        files["proj/util.py"] = files["proj/util.py"].replace(
            '"") + text', f'"") + text  {comment}'
        )
        return files

    def test_project_finding_respects_waiver(self, tmp_path):
        _write(tmp_path, self._waived(
            "# repro: allow-RPR103 -- test fixture exercising waivers"
        ))
        report = run_analysis([tmp_path])
        assert _codes(report.findings) == []

    def test_unjustified_waiver_becomes_rpr999(self, tmp_path):
        _write(tmp_path, self._waived("# repro: allow-RPR103"))
        report = run_analysis([tmp_path])
        assert _codes(report.findings) == ["RPR999"]
