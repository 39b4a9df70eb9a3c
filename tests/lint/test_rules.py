"""Per-rule fixture tests: one violating and one clean variant each.

Fixture files are written under fake ``repro/...`` relpaths so the real
scope patterns apply; findings are selected by rule id so the full
default rule set can run over every fixture (catching scope bleed
between rules as a side effect).
"""

from __future__ import annotations

import pytest

from repro.lint import lint_paths
from repro.lint.rules import ClockDisciplineRule


def ids(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


class TestGlobalStateRng:
    def test_flags_legacy_module_calls(self, make_tree, run_lint):
        root = make_tree({"repro/striker/noise.py": (
            "import numpy as np\n"
            "def jitter(x):\n"
            "    np.random.seed(3)\n"
            "    return np.random.shuffle(x)\n"
        )})
        found = ids(run_lint(root), "REPRO-RNG001")
        assert [f.line for f in found] == [3, 4]
        assert "global-state" in found[0].message

    def test_flags_from_import_alias(self, make_tree, run_lint):
        root = make_tree({"repro/x.py": (
            "from numpy.random import shuffle as mix\n"
            "def f(x):\n"
            "    mix(x)\n"
        )})
        assert len(ids(run_lint(root), "REPRO-RNG001")) == 1

    def test_clean_generator_usage(self, make_tree, run_lint):
        root = make_tree({"repro/x.py": (
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.shuffle([1, 2])\n"
        )})
        assert ids(run_lint(root), "REPRO-RNG001") == []


class TestUnseededRng:
    def test_flags_unseeded(self, make_tree, run_lint):
        root = make_tree({"repro/x.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )})
        found = ids(run_lint(root), "REPRO-RNG002")
        assert len(found) == 1 and found[0].line == 2

    def test_seeded_and_kwarg_seeded_clean(self, make_tree, run_lint):
        root = make_tree({"repro/x.py": (
            "from numpy.random import default_rng\n"
            "a = default_rng(7)\n"
            "b = default_rng(seed=9)\n"
        )})
        assert ids(run_lint(root), "REPRO-RNG002") == []


class TestHotLoopRng:
    def test_flags_rng_in_hot_loop(self, make_tree, run_lint):
        root = make_tree({"repro/accel/engine.py": (
            "import numpy as np\n"
            "def f(seeds):\n"
            "    out = []\n"
            "    for s in seeds:\n"
            "        out.append(np.random.default_rng(s).integers(4))\n"
            "    return out\n"
        )})
        assert len(ids(run_lint(root), "REPRO-RNG003")) == 1

    def test_cell_seed_derivation_is_sanctioned(self, make_tree, run_lint):
        root = make_tree({"repro/accel/engine.py": (
            "import numpy as np\n"
            "def _cell_seed(s, t, c):\n"
            "    return s + c\n"
            "def f(seed, cells):\n"
            "    out = []\n"
            "    for t, c in cells:\n"
            "        out.append(np.random.default_rng(_cell_seed(seed, t, c)))\n"
            "    return out\n"
        )})
        assert ids(run_lint(root), "REPRO-RNG003") == []

    def test_out_of_scope_module_not_flagged(self, make_tree, run_lint):
        root = make_tree({"repro/analysis/x.py": (
            "import numpy as np\n"
            "def f(seeds):\n"
            "    return [np.random.default_rng(s) for s in seeds\n"
            "            for _ in range(2)]\n"
        )})
        assert ids(run_lint(root), "REPRO-RNG003") == []

    def test_hoisted_rng_clean(self, make_tree, run_lint):
        root = make_tree({"repro/accel/engine.py": (
            "import numpy as np\n"
            "def f(seed, n):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    for _ in range(n):\n"
            "        rng.integers(4)\n"
        )})
        assert ids(run_lint(root), "REPRO-RNG003") == []


class TestClockDiscipline:
    def test_flags_direct_calls(self, make_tree, run_lint):
        root = make_tree({"repro/core/sched.py": (
            "import time\n"
            "from datetime import datetime\n"
            "def now():\n"
            "    return time.monotonic(), time.time(), datetime.now()\n"
        )})
        found = ids(run_lint(root), "REPRO-CLK001")
        assert len(found) == 3
        assert all(f.line == 4 for f in found)

    def test_injection_idioms_allowed(self, make_tree, run_lint):
        root = make_tree({"repro/core/sched.py": (
            "import time\n"
            "from typing import Callable\n"
            "_monotonic = time.monotonic\n"
            "def lease(clock: Callable[[], float] = time.monotonic):\n"
            "    return _monotonic() + clock()\n"
            "def backoff(s):\n"
            "    time.sleep(s)\n"
        )})
        assert ids(run_lint(root), "REPRO-CLK001") == []

    def test_from_import_alias_flagged(self, make_tree, run_lint):
        root = make_tree({"repro/defense/monitor.py": (
            "from time import monotonic as mono\n"
            "def f():\n"
            "    return mono()\n"
        )})
        assert len(ids(run_lint(root), "REPRO-CLK001")) == 1

    def test_out_of_scope_module_allowed(self, make_tree, run_lint):
        # zoo.py is outside the rule's repro/core and repro/defense scope
        root = make_tree({"repro/zoo.py": (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()\n"
        )})
        assert ids(run_lint(root), "REPRO-CLK001") == []


class TestDurableWrite:
    def test_flags_bare_open_modes(self, make_tree, run_lint):
        root = make_tree({"repro/core/ckpt.py": (
            "def save(p, q, r, text):\n"
            "    with open(p, 'w') as h:\n"
            "        h.write(text)\n"
            "    open(q, mode='a').write(text)\n"
            "    open(r, 'xb').write(b'')\n"
        )})
        found = ids(run_lint(root), "REPRO-DUR001")
        assert [f.line for f in found] == [2, 4, 5]
        assert "non-atomic" in found[0].message

    def test_flags_path_write_text(self, make_tree, run_lint):
        root = make_tree({"repro/zoo.py": (
            "from pathlib import Path\n"
            "def save(p, text):\n"
            "    Path(p).write_text(text)\n"
        )})
        assert len(ids(run_lint(root), "REPRO-DUR001")) == 1

    def test_reads_and_fdopen_clean(self, make_tree, run_lint):
        root = make_tree({"repro/core/ckpt.py": (
            "import os, tempfile\n"
            "def load(p):\n"
            "    with open(p) as h:\n"
            "        return h.read()\n"
            "def atomic(p, text):\n"
            "    fd, tmp = tempfile.mkstemp()\n"
            "    with os.fdopen(fd, 'w') as h:\n"
            "        h.write(text)\n"
            "    os.replace(tmp, p)\n"
        )})
        assert ids(run_lint(root), "REPRO-DUR001") == []

    def test_out_of_scope_module_allowed(self, make_tree, run_lint):
        root = make_tree({"repro/analysis/report.py": (
            "def save(p, text):\n"
            "    open(p, 'w').write(text)\n"
        )})
        assert ids(run_lint(root), "REPRO-DUR001") == []


class TestBareExcept:
    def test_flags_bare_except(self, make_tree, run_lint):
        root = make_tree({"repro/x.py": (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 2\n"
        )})
        assert len(ids(run_lint(root), "REPRO-EXC001")) == 1

    def test_typed_except_clean(self, make_tree, run_lint):
        root = make_tree({"repro/x.py": (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return 2\n"
        )})
        assert ids(run_lint(root), "REPRO-EXC001") == []


class TestRaiseDiscipline:
    def test_flags_stdlib_raise(self, make_tree, run_lint):
        root = make_tree({"repro/x.py": (
            "def f(v):\n"
            "    raise ValueError(v)\n"
        )})
        found = ids(run_lint(root), "REPRO-EXC002")
        assert len(found) == 1 and "ValueError" in found[0].message

    def test_repro_error_family_discovered_across_files(self, make_tree,
                                                        run_lint):
        root = make_tree({
            "repro/errors.py": (
                "class ReproError(Exception):\n"
                "    pass\n"
                "class ConfigError(ReproError):\n"
                "    pass\n"
            ),
            "repro/core/remote.py": (
                "from ..errors import ReproError\n"
                "class FrameError(ReproError):\n"
                "    pass\n"
                "def f():\n"
                "    raise FrameError('bad frame')\n"
            ),
            "repro/x.py": (
                "from .errors import ConfigError\n"
                "def g():\n"
                "    raise ConfigError('nope')\n"
            ),
        })
        assert ids(run_lint(root), "REPRO-EXC002") == []

    def test_locally_handled_raise_allowed(self, make_tree, run_lint):
        root = make_tree({"repro/core/cache.py": (
            "def load(p):\n"
            "    try:\n"
            "        if p is None:\n"
            "            raise ValueError('integrity')\n"
            "        return p\n"
            "    except (ValueError, KeyError):\n"
            "        return None\n"
        )})
        assert ids(run_lint(root), "REPRO-EXC002") == []

    def test_try_does_not_guard_nested_def(self, make_tree, run_lint):
        root = make_tree({"repro/x.py": (
            "def f():\n"
            "    try:\n"
            "        def g():\n"
            "            raise ValueError('escapes at call time')\n"
            "        return g\n"
            "    except ValueError:\n"
            "        return None\n"
        )})
        assert len(ids(run_lint(root), "REPRO-EXC002")) == 1

    def test_process_control_and_reraise_allowed(self, make_tree, run_lint):
        root = make_tree({"repro/cli.py": (
            "def f(bad):\n"
            "    if bad:\n"
            "        raise SystemExit('usage')\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception as exc:\n"
            "        raise\n"
            "def g():\n"
            "    raise NotImplementedError\n"
        )})
        assert ids(run_lint(root), "REPRO-EXC002") == []


class TestBackendPurity:
    def test_flags_direct_optional_backend_imports(self, make_tree,
                                                   run_lint):
        root = make_tree({"repro/accel/engine.py": (
            "import cupy\n"
            "from jax import numpy as jnp\n"
        )})
        found = ids(run_lint(root), "REPRO-XP001")
        assert [f.line for f in found] == [1, 2]

    def test_shim_itself_allowed(self, make_tree, run_lint):
        # The name predates the rule tightening: the backend shim is
        # gone, so its old path gets no exemption either.
        root = make_tree({"repro/accel/xp.py": (
            "def _cupy_backend():\n"
            "    import cupy\n"
            "    return cupy\n"
        )})
        assert [f.line for f in ids(run_lint(root), "REPRO-XP001")] == [2]

    def test_numpy_stays_legal(self, make_tree, run_lint):
        root = make_tree({"repro/accel/engine.py": (
            "import numpy as np\n"
            "from numpy import random\n"
        )})
        assert ids(run_lint(root), "REPRO-XP001") == []


class TestEngineMechanics:
    def test_inline_ignore_suppresses_matching_rule(self, make_tree,
                                                    run_lint):
        root = make_tree({"repro/core/x.py": (
            "import time\n"
            "def f():\n"
            "    return time.time()  # lint: ignore[REPRO-CLK001]\n"
            "def g():\n"
            "    return time.time()  # lint: ignore[REPRO-DUR001]\n"
            "def h():\n"
            "    return time.time()  # lint: ignore\n"
        )})
        found = ids(run_lint(root), "REPRO-CLK001")
        # A tag must name the rule it excuses: the blanket form on
        # line 7 excuses nothing.
        assert [f.line for f in found] == [5, 7]

    def test_tag_inside_a_string_excuses_nothing(self, make_tree,
                                                 run_lint):
        """Tags are comments: tag text written into a file is no tag."""
        root = make_tree({"repro/core/x.py": (
            'open(path, "w").write(payload + "# lint: ignore[REPRO-DUR001]")\n'
        )})
        found = run_lint(root)
        assert [(f.rule, f.line) for f in found] == [("REPRO-DUR001", 1)]
        assert "bare open" in found[0].message

    def test_tag_that_excuses_nothing_is_a_finding(self, make_tree,
                                                   run_lint):
        root = make_tree({"repro/core/x.py": (
            "x = 1  # lint: ignore[REPRO-DUR001]\n"
        )})
        (found,) = run_lint(root)
        assert (found.rule, found.line) == ("REPRO-DUR001", 1)
        assert "excuses no finding" in found.message

    def test_unused_tag_is_reported_only_for_rules_run(self, make_tree,
                                                       run_lint):
        from repro.lint.rules import BareExceptRule

        root = make_tree({"repro/core/x.py": (
            "x = 1  # lint: ignore[REPRO-DUR001, REPRO-EXC001]\n"
        )})
        (found,) = run_lint(root, rule=BareExceptRule())
        assert (found.rule, found.line) == ("REPRO-EXC001", 1)

    def test_syntax_error_raises_lint_error(self, make_tree):
        from repro.errors import LintError
        root = make_tree({"repro/x.py": "def broken(:\n"})
        with pytest.raises(LintError, match="cannot parse"):
            lint_paths([root], [ClockDisciplineRule()])

    def test_missing_path_raises_lint_error(self, tmp_path):
        from repro.errors import LintError
        with pytest.raises(LintError, match="does not exist"):
            lint_paths([tmp_path / "nope"], [ClockDisciplineRule()])

    def test_findings_sorted_and_file_count(self, make_tree):
        root = make_tree({
            "repro/core/b.py": "import time\nx = time.time()\n",
            "repro/core/a.py": "import time\ny = time.time()\n",
        })
        report = lint_paths([root], [ClockDisciplineRule()])
        assert report.files_checked == 2
        assert [f.path for f in report.findings] == \
            ["repro/core/a.py", "repro/core/b.py"]

    def test_every_rule_has_contract_docs(self):
        from repro.lint.rules import ALL_RULES
        seen = set()
        for cls in ALL_RULES:
            assert cls.rule_id.startswith("REPRO-")
            assert cls.rule_id not in seen
            seen.add(cls.rule_id)
            assert cls.contract and cls.hint and cls.title
